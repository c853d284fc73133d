"""Scenario runner: config parsing, batch drivers, CSV/JSON emission.

Exit codes: 0 success; a driver that fails raises _Failure(tag, detail),
and EXIT_CODES maps its tag to 1 (config, output, geometry), 2 (budget,
certificate, identity) or 3 (divergence, tolerance).  main prints the
failure's JSON diagnostic as the last stderr line and returns that code; a
command line that does not parse is a config failure too.  An exception
no driver converts stays a traceback: it is a bug.  Output formatting is
fixed (17 significant digits, stable column order) and every scenario
runs in one thread, so identical configs produce byte-identical files.
Importing this module sets OPENBLAS_NUM_THREADS to 1, if unset, before
numpy loads, so BLAS runs in that thread too; other BLAS is not pinned.

Each scenario imports the layers it uses inside its own functions: every
command runs in a fresh interpreter, so a command compiles only the
modules on its path (jump-sweep: config, scales and occupation).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from typing import List, Optional, Sequence

# OpenBLAS reads this once, when numpy loads it; a second BLAS thread
# spins on an idle core after every call and buys no wall time here
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402  (after the thread count is set)

from . import config as cfg

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VIOLATION = 2
EXIT_TOLERANCE = 3

# the one place a failure's exit code is chosen: failure tag -> exit code
EXIT_CODES = {"config": EXIT_CONFIG, "output": EXIT_CONFIG,
              "geometry": EXIT_CONFIG, "budget": EXIT_VIOLATION,
              "certificate": EXIT_VIOLATION, "identity": EXIT_VIOLATION,
              "divergence": EXIT_TOLERANCE, "tolerance": EXIT_TOLERANCE}


class _Failure(Exception):
    """A failed run, raised as _Failure(tag, detail): tag a key of
    EXIT_CODES, detail the text of its diagnostic."""


# ---------------------------------------------------------------------------
# emission


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def emit_csv(rows: List[dict], columns: Sequence[str]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def emit_json(rows: List[dict], columns: Sequence[str]) -> str:
    payload = {"columns": list(columns),
               "rows": [[row[c] for c in columns] for row in rows]}
    return json.dumps(payload, sort_keys=True) + "\n"


def emit(rows: List[dict], columns: Sequence[str], fmt: str) -> str:
    if fmt == "csv":
        return emit_csv(rows, columns)
    if fmt == "json":
        return emit_json(rows, columns)
    raise ValueError(f"unknown format {fmt!r}")


SWEEP_COLUMNS = ("theta", "n_in", "n_out", "jump_measured", "jump_predicted",
                 "abs_err", "flag")
LADDER_COLUMNS = ("i1", "i2", "i3", "i4", "t0", "tabs", "re", "im",
                  "telescope_residual")
BUDGET_COLUMNS = ("i", "l", "d0", "d1", "d2", "measured", "allowed",
                  "ratio", "pass")
RESUM_COLUMNS = ("k0", "kx", "ky", "re_p", "im_p", "re_q", "im_q")


def _diag(scenario: str, tag: str, detail: str):
    print(json.dumps({"scenario": scenario, "error": tag, "detail": detail},
                     sort_keys=True), file=sys.stderr)


def _write_out(path: str, text: str):
    """Write text to path; an output failure when the file cannot be
    written (a missing directory, say)."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _Failure("output", str(exc)) from None


def _seed(text: str) -> int:
    """The --seed option as an int >= 0; ValueError otherwise (a negative
    seed would not be rejected by random.Random, which takes -1 as 1)."""
    seed = int(text)
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")
    return seed


# ---------------------------------------------------------------------------
# g profiles for the jump sweep


def g_profile(name: str):
    if name == "constant":
        return lambda kx, ky: 1.0
    if name == "cosine":
        return lambda kx, ky: 0.6 + 0.3 * np.cos(np.arctan2(ky, kx))
    if name == "twolobe":
        return lambda kx, ky: 0.5 + 0.3 * np.cos(2 * np.arctan2(ky, kx))
    raise ValueError(f"unknown g profile {name!r}")


# ---------------------------------------------------------------------------
# scenarios


def run_jump_sweep(args):
    from . import occupation as oc
    from .scales import make_model

    try:
        params, model_name, sections = cfg.load_config(args.config)
        sc = sections.get("scenario", {})
        disp = make_model(model_name)
        lam = float(sc.get("lambda", "0.2"))
        if not math.isfinite(lam):
            raise ValueError(f"lambda must be finite, got {lam}")
        gname = sc.get("gprofile", "constant")
        npoints = int(sc.get("npoints", "16"))
        if npoints < 1:
            raise ValueError(f"npoints must be >= 1, got {npoints}")
        tol = float(sc.get("tol", "1e-3"))
        if not 0.0 < tol < math.inf:
            raise ValueError(f"tol must be finite and positive, got {tol}")
        model = oc.linear_self_energy(lam, g_profile(gname))
    except (ValueError, KeyError, OSError) as exc:
        raise _Failure("config", str(exc)) from None
    try:
        rows = oc.fermi_sweep(disp, model, npoints=npoints)
    except oc.ModelHypothesisError as exc:
        raise _Failure("config", str(exc)) from None
    table = [{"theta": r.theta, "n_in": r.n_in, "n_out": r.n_out,
              "jump_measured": r.jump_measured,
              "jump_predicted": r.jump_predicted,
              "abs_err": r.abs_err, "flag": r.flag} for r in rows]
    _write_out(args.out, emit(table, SWEEP_COLUMNS, args.format))
    bad = [r for r in rows if r.flag or not (r.abs_err <= tol)]
    if bad:
        raise _Failure("tolerance",
                       f"{len(bad)} of {len(rows)} points beyond {tol}")


def _demo_scheme_and_family(params, disp, gridn: int, seed: int, scales_list):
    """Small momentum grid with one live shell-overlap radius per processed
    scale (so every scale's bubble lines are nonzero), shared angles to
    keep the admissible sector count small, and a random rung family: per
    scale, one draw on the undirected support from the stdlib
    random.Random(seed) (BlockKernel.random), scaled by 1e-5 / sqrt(6) and
    projected onto the ph entries of antisymmetric kernels
    (ph_antisymmetric).  Per ph entry that has the mean and covariance of
    the ph entries of 1e-5 times an antisymmetrized directed draw, and it
    builds no directed support and draws nothing from numpy's generators."""
    from . import ladders as ld
    from . import selfenergy as se
    from .blocks import BlockKernel
    from .kernels import make_grid
    from .sectors import build_fermi_curve

    rng = random.Random(seed)
    curve = build_fermi_curve(disp)
    pts = []
    for g in range(gridn):
        th = 0.45 + 0.9 * g
        rad = float(disp.fermi_radius(th))
        for j in scales_list:
            r_t = 0.84 * params.shell_hi(j + 1)  # in shell j and nu^(>=j+1)
            e_off = 0.3 * r_t
            k0 = math.sqrt(r_t ** 2 - e_off ** 2)
            drad = e_off / rad
            pts.append((k0, (rad + drad) * math.cos(th),
                        (rad + drad) * math.sin(th)))
    grid = make_grid(pts)
    lengths = {j: curve.length / (2 * j - 1) for j in scales_list}
    scheme = ld.build_scheme(params, disp, grid, scales_list, nspin=1,
                             sector_lengths=lengths)
    fam = ld.LadderFamily(F={}, p={})
    for i in scales_list:
        und = scheme.space(i, directed=False)
        rung = BlockKernel.random(und, rng)
        rung.values *= 1e-5 / math.sqrt(6.0)  # in place: no second copy
        fam.F[i] = rung.ph_antisymmetric()
    pfam = se.linear_p_family(params, imin=params.j0,
                              imax=scales_list[-1] + 1, amp0=5e-3)
    fam.p = pfam.p
    return scheme, fam


def _external_entries(kern):
    """(legs, values) of the nonzero all-external support entries of a
    BlockKernel, legs one (i1, i2, i3, i4) row per entry, in ascending
    dense flat index (the order of np.argwhere on the dense block)."""
    from .kernels import EXT

    pb, ext = kern.space.pair_blocks, kern.space.leg_field == EXT
    on = kern.values != 0
    for j, legs in pb.leg_chunks():
        on[j] &= np.logical_and.reduce([ext[leg] for leg in legs])
    keep = np.flatnonzero(on)
    keep = keep[np.argsort(pb.flat[keep])]
    legs = np.unravel_index(pb.flat[keep], (pb.n,) * 4)
    return np.stack(legs, axis=1), kern.values[keep]


def run_ladder_demo(args):
    from . import ladders as ld
    from .scales import make_model

    try:
        params = cfg.ScaleParams()
        disp = make_model("quadratic")
        nscales = int(args.scales)
        if nscales < 1 or nscales > params.jmax - params.j0:
            raise ValueError(f"--scales must be in [1, {params.jmax - params.j0}]")
        gridn = int(args.grid)
        if gridn < 1:
            raise ValueError(f"--grid must be >= 1, got {gridn}")
        jtop = params.j0 + nscales
        scales_list = list(range(params.j0, jtop))
        scheme, fam = _demo_scheme_and_family(params, disp, gridn,
                                              _seed(args.seed), scales_list)
    except ValueError as exc:
        raise _Failure("config", str(exc)) from None
    try:
        report = ld.delta_ladder_telescope(scheme, jtop, fam, lmax=4)
    except ld.LadderDivergenceError as exc:
        raise _Failure("divergence", str(exc)) from None
    except ValueError as exc:  # a sector refinement the scheme cannot carry
        raise _Failure("geometry", str(exc)) from None
    sp = report.iterated.space
    g = sp.grid
    rows = []
    for (i1, i2, i3, i4), v in zip(*_external_entries(report.iterated)):
        t0 = g.k0[sp.leg_k[i1]] - g.k0[sp.leg_k[i2]]
        tx = g.kx[sp.leg_k[i1]] - g.kx[sp.leg_k[i2]]
        ty = g.ky[sp.leg_k[i1]] - g.ky[sp.leg_k[i2]]
        rows.append({"i1": int(i1), "i2": int(i2), "i3": int(i3),
                     "i4": int(i4), "t0": float(t0),
                     "tabs": float(math.hypot(tx, ty)),
                     "re": float(v.real), "im": float(v.imag),
                     "telescope_residual": float(report.residual)})
    _write_out(args.out, emit(rows, LADDER_COLUMNS, args.format))
    sym_ok = report.iterated.is_inversion_symmetric(tol=1e-11) \
        and report.compound.is_inversion_symmetric(tol=1e-11)
    if report.residual > 1e-12 or not sym_ok:
        raise _Failure("identity",
                       f"telescope residual {report.residual:.3e}, "
                       f"inversion symmetric: {sym_ok}")


def _budget_table(report) -> List[dict]:
    return [{"i": r.i, "l": r.l, "d0": r.delta[0], "d1": r.delta[1],
             "d2": r.delta[2], "measured": r.measured, "allowed": r.allowed,
             "ratio": r.ratio, "pass": int(r.passed)} for r in report.rows]


def _load_family(args):
    """(params, family) from --jmax and the --family file.  The file sets
    lambda0 and upsilon; a file line the reader rejects (a scale index
    above --jmax among them) is a config failure."""
    from . import selfenergy as se

    try:
        params = cfg.ScaleParams(jmax=int(args.jmax))
        with open(args.family, "r", encoding="utf-8") as fh:
            return params, se.family_from_text(fh.read(), params)
    except (ValueError, OSError) as exc:
        raise _Failure("config", str(exc)) from None


def _budget_report(params, fam):
    from . import selfenergy as se
    from .scales import ScaleModel, make_model

    return se.check_q_budget(fam, params,
                             scales=ScaleModel(params, make_model("quadratic")))


def run_norm_budget(args):
    report = _budget_report(*_load_family(args))
    if args.out:
        _write_out(args.out,
                   emit(_budget_table(report), BUDGET_COLUMNS, args.format))
    if not report.all_pass:
        nbad = sum(1 for r in report.rows if not r.passed)
        raise _Failure("budget",
                       f"{nbad} rows violate the derivative budget; reality "
                       f"residual {report.reality_residual:.3e}")


def run_resum(args):
    from . import selfenergy as se

    try:
        nsamples = int(args.nsamples)
        if nsamples < 1:
            raise ValueError(f"--nsamples must be >= 1, got {nsamples}")
        seed = _seed(args.seed)
    except ValueError as exc:
        raise _Failure("config", str(exc)) from None
    params, fam = _load_family(args)
    if args.out:  # the rows are drawn and summed only to be written
        # (k0, kx, ky) per row, drawn in that order; the stdlib generator,
        # as numpy's random module would add its import to the command for
        # a few draws
        rng = random.Random(seed)
        k = np.array([(rng.uniform(-2, 2), rng.uniform(-1.4, 1.4),
                       rng.uniform(-1.4, 1.4)) for _ in range(nsamples)]).T
        P = np.broadcast_to(se.resum_P(fam, *k), k[0].shape)
        Q = np.broadcast_to(se.resum_Q(fam, *k), k[0].shape)
        rows = [{"k0": k0, "kx": kx, "ky": ky, "re_p": p.real,
                 "im_p": p.imag, "re_q": q.real, "im_q": q.imag}
                for k0, kx, ky, p, q in zip(*k.tolist(), P.tolist(),
                                            Q.tolist())]
        _write_out(args.out, emit(rows, RESUM_COLUMNS, args.format))
    if args.check_budget and not _budget_report(params, fam).all_pass:
        raise _Failure("budget", "family violates the derivative budget")


def run_hoelder_check(args):
    from . import hoelder as hl

    try:
        b = hl.ScaleBounds(alpha=float(args.alpha), beta=float(args.beta),
                           C0=float(args.c0), C1=float(args.c1),
                           M=float(args.m))
        family = hl.saturating_family(b)
        report = hl.verify_family(b, family)
    except ValueError as exc:
        raise _Failure("config", str(exc)) from None
    except (ZeroDivisionError, OverflowError) as exc:
        # M^alpha rounding to 1, or M^((alpha+beta) j) or C' overflowing
        raise _Failure("config",
                       f"bounds beyond floating-point range: {exc}") from None
    expo, band = hl.empirical_exponent(
        lambda t: sum(f(t) for f, _ in family))
    out = {"exponent": report.exponent, "constant": report.constant,
           "maxRatio": report.max_ratio,
           "worstPair": list(report.worst_pair),
           "fittedExponent": expo, "fittedBand": band,
           "hypothesesOk": report.hypotheses_ok}
    text = json.dumps(out, sort_keys=True) + "\n"
    if args.out:
        _write_out(args.out, text)
    else:
        sys.stdout.write(text)
    if not (report.hypotheses_ok and report.max_ratio <= 1.0):
        raise _Failure("certificate", f"max ratio {report.max_ratio:.6f}")
    if abs(expo - report.exponent) > 0.05:
        raise _Failure("tolerance", f"fitted exponent {expo:.4f} vs "
                                    f"{report.exponent:.4f}")


# ---------------------------------------------------------------------------
# entry point


def _family_options(sp):
    """Options shared by the family commands (norm-budget, resum)."""
    sp.add_argument("--family", required=True)
    sp.add_argument("--out", default="")
    sp.add_argument("--format", default="csv", choices=("csv", "json"))
    sp.add_argument("--jmax", default="8")


class _Parser(argparse.ArgumentParser):
    """A parse error (unknown command, missing or invalid option) is a
    config failure: usage, then a JSON diagnostic naming the subcommand as
    the last stderr line, then SystemExit with its code.  Subparsers
    inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        _diag(self.prog.split()[-1], "config", message)
        sys.exit(EXIT_CODES["config"])


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="fermi2d", description="2d Fermi liquid RG toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("jump-sweep", help="occupation jump across the Fermi curve")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--format", default="csv", choices=("csv", "json"))
    sp.set_defaults(func=run_jump_sweep)

    sp = sub.add_parser("ladder-demo", help="ladder recursions and telescoping")
    sp.add_argument("--scales", default="2")
    sp.add_argument("--grid", default="1")
    sp.add_argument("--seed", default="0")
    sp.add_argument("--out", required=True)
    sp.add_argument("--format", default="csv", choices=("csv", "json"))
    sp.set_defaults(func=run_ladder_demo)

    sp = sub.add_parser("resum", help="resum a counterterm/two-point family")
    _family_options(sp)
    sp.add_argument("--check-budget", action="store_true")
    sp.add_argument("--nsamples", default="50")
    sp.add_argument("--seed", default="0")
    sp.set_defaults(func=run_resum)

    sp = sub.add_parser("hoelder-check", help="Hoelder certificate check")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--beta", required=True)
    sp.add_argument("--c0", required=True)
    sp.add_argument("--c1", required=True)
    sp.add_argument("--m", required=True)
    sp.add_argument("--out", default="")
    sp.set_defaults(func=run_hoelder_check)

    sp = sub.add_parser("norm-budget", help="derivative-budget checker")
    _family_options(sp)
    sp.set_defaults(func=run_norm_budget)

    for sp in sub.choices.values():
        sp.set_defaults(parser=sp)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; its exit code.  The one exit path of a failed
    run: the driver's _Failure becomes the JSON diagnostic and the code
    EXIT_CODES gives its tag."""
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:  # reported by the subcommand's parser, which names it
        args.parser.error("unrecognized arguments: " + " ".join(unknown))
    try:
        args.func(args)
    except _Failure as exc:
        tag, detail = exc.args
        _diag(args.command, tag, detail)
        return EXIT_CODES[tag]
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
