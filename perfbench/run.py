#!/usr/bin/env python3
"""Benchmark of fermi2d: every op runs in a fresh Python process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

The benchmark is a closed loop with one client: it spawns one child at a
time, waits for it with ``os.wait4`` and reads its wall time, CPU time and
peak RSS.  Inputs are drawn from ``--seed``; the program receives only the
generated files and arguments.  Every output is checked, and an op whose
output bytes differ from the first op of the run (same input) fails.

With ``--trace 0`` the last line of stdout is the end-to-end result; with
``--trace 1`` untraced and traced ops alternate and the result holds the
per-layer metrics.  ``--workload all`` runs every workload in turn and
prints a table of the end-to-end metrics and the fail ratio.  See NOTES.md.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
PYTHON = sys.executable

HARD_LIMIT_S = 170.0   # the whole run, set-up included, ends before this
SETUP_SAMPLES = 5      # fresh-interpreter imports timed per run (at least)
MIN_OPS = 2            # the determinism check needs a second op
NPOINTS = 128          # Fermi points per jump-sweep op
LADDER_SCALES = 2      # ladder-demo --scales
JMAX = 5               # top scale of the budget-resum families


class SetupError(RuntimeError):
    """The program could not be prepared; no result is printed."""


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Child:
    rc: int
    wall: float
    cpu: float
    rss_kb: int
    timed_out: bool


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("FERMI2D_WORKERS", None)
    return env


def spawn(args: List[str], out_dir: str, tag: str, timeout: float) -> Child:
    """Run ``child.py ARGS`` to its end; stdout and stderr go to files."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, os.path.join(out_dir, f"{tag}.stdout"),
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, os.path.join(out_dir, f"{tag}.stderr"),
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(PYTHON, [PYTHON, CHILD, *args], child_env(),
                         file_actions=actions)
    pidfd = os.pidfd_open(pid)
    reaped = False
    try:
        ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.1))
        if not ready:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
        reaped = True
    finally:
        if not reaped:  # interrupted: stop the child and wait for it
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            os.wait4(pid, 0)
        os.close(pidfd)
    return Child(rc=os.waitstatus_to_exitcode(status), wall=wall,
                 cpu=usage.ru_utime + usage.ru_stime, rss_kb=usage.ru_maxrss,
                 timed_out=not ready)


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Command:
    args: List[str]       # arguments of child.py
    expect: int           # expected exit code


class Workload:
    """One set of seeded inputs; an op runs ``commands`` back to back."""

    name = ""
    setup_module = "fermi2d.cli"

    def __init__(self, seed: int, inputs: str):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.inputs = inputs

    def prepare(self, deadline: float) -> None:
        """Untimed set-up of input files."""

    def commands(self, op_dir: str) -> List[Command]:
        raise NotImplementedError

    def check(self, op_dir: str) -> List[str]:
        """Errors found in the outputs of one op (empty when correct)."""
        raise NotImplementedError


def _read_csv(path: str, columns) -> List[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != tuple(columns):
            raise ValueError(f"{os.path.basename(path)}: columns {reader.fieldnames}")
        return list(reader)


def _finite(row: dict, keys) -> bool:
    return all(math.isfinite(float(row[k])) for k in keys)


def g_cosine(theta: float) -> float:
    """cli.g_profile("cosine") on the Fermi curve, sup 0.9."""
    return 0.6 + 0.3 * math.cos(theta)


SWEEP_COLUMNS = ("theta", "n_in", "n_out", "jump_measured", "jump_predicted",
                 "abs_err", "flag")


class FermiSweep(Workload):
    """jump-sweep over NPOINTS Fermi points: occupation does the work."""

    name = "fermi-sweep"

    def prepare(self, deadline):
        # Drawn inputs must not change the work of an op.  The g profile
        # sets the cost of every S evaluation (``constant`` is about 1.5x
        # cheaper than the angular ones), so it is fixed; above lambda = 0.3
        # quad needs up to 6 % more evaluations, so lambda stays below that,
        # well inside the admissible lambda sup g <= 1/2.
        self.lam = self.rng.uniform(0.05, 0.3)
        self.tol = 1e-3
        self.config = os.path.join(self.inputs, "sweep.cfg")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(f"[scenario]\nnpoints = {NPOINTS}\nlambda = {self.lam!r}\n"
                     f"gprofile = cosine\ntol = {self.tol!r}\n")

    def commands(self, op_dir):
        return [Command(["cli", "jump-sweep", "--config", self.config, "--out",
                         os.path.join(op_dir, "sweep.csv")], 0)]

    def check(self, op_dir):
        rows = _read_csv(os.path.join(op_dir, "sweep.csv"), SWEEP_COLUMNS)
        if len(rows) != NPOINTS:
            return [f"{len(rows)} sweep rows, expected {NPOINTS}"]
        errors = []
        for t, row in enumerate(rows):
            theta = 2 * math.pi * t / NPOINTS
            exact = 1.0 / (1.0 - self.lam * g_cosine(theta))
            if row["flag"]:
                errors.append(f"point {t} flagged {row['flag']}")
            elif not (float(row["abs_err"]) <= self.tol
                      and abs(float(row["jump_measured"]) - exact) <= self.tol
                      and abs(float(row["theta"]) - theta) <= 1e-12
                      and _finite(row, ("n_in", "n_out"))):
                errors.append(f"point {t}: jump {row['jump_measured']} vs "
                              f"closed form {exact!r}")
        return errors


LADDER_COLUMNS = ("i1", "i2", "i3", "i4", "t0", "tabs", "re", "im",
                  "telescope_residual")


class LadderTelescope(Workload):
    """ladder-demo: ladders.compose and kernels.antisymmetrize do the work."""

    name = "ladder-telescope"

    def prepare(self, deadline):
        self.demo_seed = self.rng.randrange(2 ** 31)

    def commands(self, op_dir):
        return [Command(["cli", "ladder-demo", "--scales", str(LADDER_SCALES),
                         "--grid", "1",
                         "--seed", str(self.demo_seed), "--out",
                         os.path.join(op_dir, "ladder.csv")], 0)]

    def check(self, op_dir):
        rows = _read_csv(os.path.join(op_dir, "ladder.csv"), LADDER_COLUMNS)
        if not rows:
            return ["empty ladder table"]
        if not all(_finite(r, LADDER_COLUMNS) for r in rows):
            return ["non-finite ladder value"]
        worst = max(float(r["telescope_residual"]) for r in rows)
        return [] if worst <= 1e-12 else [f"telescope residual {worst!r}"]


BUDGET_COLUMNS = ("i", "l", "d0", "d1", "d2", "measured", "allowed", "ratio",
                  "pass")
RESUM_COLUMNS = ("k0", "kx", "ky", "re_p", "im_p", "re_q", "im_q")
DELTAS = 10         # derivative multi-indices with |delta| <= 2
NSAMPLES = 50       # resum default


class BudgetResum(Workload):
    """norm-budget on a saturating family, resum --check-budget on a
    violating copy (exit 2), hoelder-check: selfenergy and hoelder."""

    name = "budget-resum"

    def prepare(self, deadline):
        rng = self.rng
        self.saturation = rng.uniform(0.5, 0.95)
        self.violation = rng.uniform(2.5, 4.0)   # saturation * violation > 1
        self.resum_seed = rng.randrange(2 ** 31)
        self.alpha, self.beta = (rng.choice((0.5, 1.0, 1.5, 2.0)) for _ in "ab")
        self.c0, self.c1 = (rng.choice((0.5, 1.0, 2.0)) for _ in "01")
        self.ok = os.path.join(self.inputs, "family.txt")
        self.bad = os.path.join(self.inputs, "family_violating.txt")
        made = spawn(["make-families", repr(self.saturation),
                      repr(self.violation), str(JMAX), self.ok, self.bad],
                     self.inputs, "families", deadline - time.perf_counter())
        if made.rc != 0:
            raise SetupError("could not write the family files")

    def commands(self, op_dir):
        def out(name):
            return os.path.join(op_dir, name)

        return [
            Command(["cli", "norm-budget", "--family", self.ok, "--jmax",
                     str(JMAX), "--out", out("budget.csv")], 0),
            Command(["cli", "resum", "--family", self.bad, "--jmax", str(JMAX),
                     "--check-budget", "--seed", str(self.resum_seed),
                     "--out", out("resum.csv")], 2),
            Command(["cli", "hoelder-check", "--alpha", repr(self.alpha),
                     "--beta", repr(self.beta), "--c0", repr(self.c0),
                     "--c1", repr(self.c1), "--m", "2",
                     "--out", out("hoelder.json")], 0),
        ]

    def check(self, op_dir):
        errors = []
        budget = _read_csv(os.path.join(op_dir, "budget.csv"), BUDGET_COLUMNS)
        members = (JMAX - 1) * JMAX // 2   # q^(i,l) with 2 <= i <= l <= JMAX
        if len(budget) != members * DELTAS:
            errors.append(f"{len(budget)} budget rows")
        if any(r["pass"] != "1" or not float(r["ratio"]) <= 1.0 for r in budget):
            errors.append("saturating family fails its budget")
        resum = _read_csv(os.path.join(op_dir, "resum.csv"), RESUM_COLUMNS)
        if len(resum) != NSAMPLES or not all(_finite(r, RESUM_COLUMNS) for r in resum):
            errors.append("resum table wrong")
        with open(os.path.join(op_dir, "cmd1.stderr"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if not lines or json.loads(lines[-1]).get("error") != "budget":
            errors.append("violating family not reported as a budget error")
        with open(os.path.join(op_dir, "hoelder.json"), encoding="utf-8") as fh:
            h = json.load(fh)
        if not (h["hypothesesOk"] and h["maxRatio"] <= 1.0
                and abs(h["exponent"] - self.alpha / (self.alpha + self.beta)) <= 1e-12
                and abs(h["fittedExponent"] - h["exponent"]) <= 0.05):
            errors.append(f"hoelder certificate {h}")
        return errors


class KernelAlgebra(Workload):
    """ops.kernel_algebra: kernels code that no CLI command reaches."""

    name = "kernel-algebra"
    setup_module = "fermi2d.kernels"

    def prepare(self, deadline):
        self.kernel_seed = self.rng.randrange(2 ** 31)

    def commands(self, op_dir):
        return [Command(["kernel-algebra", str(self.kernel_seed),
                         os.path.join(op_dir, "kernels.json")], 0)]

    def check(self, op_dir):
        with open(os.path.join(op_dir, "kernels.json"), encoding="utf-8") as fh:
            r = json.load(fh)
        tol = 1e-13
        ok = (r["legs"] == [16, 24] and len(r["extraction"]) == 8
              and r["reconstruction"] <= tol and r["flip_identity"] <= tol
              and max(r["extraction"]) <= tol * r["extraction_scale"]
              and math.isfinite(r["sector_norm_3"]) and r["sector_norm_3"] > 0)
        return [] if ok else [f"kernel identities {r}"]


WORKLOADS = {w.name: w for w in (FermiSweep, LadderTelescope, BudgetResum,
                                 KernelAlgebra)}


# ---------------------------------------------------------------------------
# one op


@dataclass
class Op:
    wall: float = 0.0
    cpu: float = 0.0
    rss_kb: int = 0
    traced: bool = False
    errors: List[str] = field(default_factory=list)
    traces: List[dict] = field(default_factory=list)


def _outputs(op_dir: str) -> Dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(op_dir)):
        if not name.endswith((".stdout", ".stderr", ".trace")):
            with open(os.path.join(op_dir, name), "rb") as fh:
                out[name] = fh.read()
    return out


def run_op(work: Workload, op_dir: str, traced: bool, deadline: float,
           reference: Optional[Dict[str, bytes]]) -> tuple:
    shutil.rmtree(op_dir, ignore_errors=True)
    os.makedirs(op_dir)
    op = Op(traced=traced)
    for i, cmd in enumerate(work.commands(op_dir)):
        args = cmd.args
        trace_path = os.path.join(op_dir, f"cmd{i}.trace")
        if traced:
            args = ["--trace", trace_path, *args]
        child = spawn(args, op_dir, f"cmd{i}", deadline - time.perf_counter())
        op.wall += child.wall
        op.cpu += child.cpu
        op.rss_kb = max(op.rss_kb, child.rss_kb)
        if child.timed_out:
            op.errors.append(f"command {i} timed out")
        elif child.rc != cmd.expect:
            op.errors.append(f"command {i} exited {child.rc}, expected {cmd.expect}")
        if traced and os.path.exists(trace_path):
            with open(trace_path, encoding="utf-8") as fh:
                op.traces.append(json.load(fh))
        elif traced:
            op.errors.append(f"command {i} wrote no trace")
        if op.errors:
            return op, None
    try:
        op.errors.extend(work.check(op_dir))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        op.errors.append(f"unreadable output: {exc!r}")
    outputs = _outputs(op_dir)
    if reference is not None and outputs != reference:
        op.errors.append("output bytes differ from the first op of the run")
    return op, outputs


# ---------------------------------------------------------------------------
# per-layer metrics from spans


SPAN_STATS = (("calls", "count"), ("total_s", "s"), ("self_s", "s"))
DERIVED = (  # name, unit, better
    ("occupation.quad.calls", "count", "lower"),
    ("occupation.S.evals", "count", "lower"),
    ("occupation.jump_at.p50_ms", "ms", "lower"),
    ("occupation.jump_at.p90_ms", "ms", "lower"),
    ("occupation.occupation_limit.per_point", "count/point", "lower"),
    ("occupation.quad.per_point", "count/point", "lower"),
    ("occupation.occupation_limit.unique_ratio", "count/count", "higher"),
    ("ladders.compose.unique_ratio", "count/count", "higher"),
    ("ladders.compose.flops", "count_computed", "lower"),
    ("selfenergy.gradient.calls", "count", "lower"),
    ("selfenergy.gradient.per_member", "count/member", "lower"),
    ("trace.overhead_ratio", "s/s", "lower"),
)


def per_layer_metrics() -> List[tuple]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [(f"{tracer.span_name(m, q)}.{stat}", unit, "lower")
           for m, q in tracer.SPANS for stat, unit in SPAN_STATS]
    return out + list(DERIVED)


def op_layers(traces: List[dict]) -> Dict[str, float]:
    """Calls, total and self time per span name plus derived counts, for
    one op (the traces of its commands summed)."""
    stats: Dict[str, List[float]] = {}
    counters: Dict[str, float] = {}
    distinct: Dict[str, int] = {}
    for tr in traces:
        spans = tr["spans"]
        covered = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        for (name, t0, t1, _), kids in zip(spans, covered):
            st = stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += 1
            st[1] += t1 - t0
            st[2] += t1 - t0 - kids
        for k, v in tr["counters"].items():
            counters[k] = counters.get(k, 0) + v
        for k, v in tr["distinct"].items():
            distinct[k] = distinct.get(k, 0) + v
    out: Dict[str, float] = {}
    for name, (calls, total, self_s) in stats.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.total_s"] = total
        out[f"{name}.self_s"] = self_s
    for name in ("occupation.quad.calls", "occupation.S.evals",
                 "ladders.compose.flops", "selfenergy.gradient.calls"):
        out[name] = counters.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    points = out.get("occupation.jump_at.calls", 0)
    out["occupation.occupation_limit.per_point"] = ratio(
        out.get("occupation.occupation_limit.calls", 0), points)
    out["occupation.quad.per_point"] = ratio(out["occupation.quad.calls"], points)
    for name in ("occupation.occupation_limit", "ladders.compose"):
        out[f"{name}.unique_ratio"] = ratio(distinct.get(name, 0),
                                            out.get(f"{name}.calls", 0))
    out["selfenergy.gradient.per_member"] = ratio(
        out["selfenergy.gradient.calls"],
        counters.get("selfenergy.check_q_budget.members", 0))
    return out


def layer_result(ops: List[Op]) -> Dict[str, float]:
    traced = [op_layers(op.traces) for op in ops if op.traced]
    plain = [op.wall for op in ops if not op.traced]
    jump_ms = sorted(1e3 * (t1 - t0) for op in ops for tr in op.traces
                     for name, t0, t1, _ in tr["spans"]
                     if name == "occupation.jump_at")
    values = {}
    for name, _, _ in per_layer_metrics():
        if name == "occupation.jump_at.p50_ms":
            values[name] = _percentile(jump_ms, 50)
        elif name == "occupation.jump_at.p90_ms":
            values[name] = _percentile(jump_ms, 90)
        elif name == "trace.overhead_ratio":
            values[name] = (statistics.median(op.wall for op in ops if op.traced)
                            / statistics.median(plain))
        else:
            values[name] = statistics.median(t.get(name, 0) for t in traced)
    return values


def _percentile(sorted_vals: List[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    k = min(len(sorted_vals) - 1, max(0, math.ceil(q / 100 * len(sorted_vals)) - 1))
    return sorted_vals[k]


# ---------------------------------------------------------------------------
# a run


END_TO_END = (  # name, unit
    ("op_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
)


def provenance(seed: int, work_dir: str, deadline: float) -> dict:
    child = spawn(["provenance"], work_dir, "provenance",
                  deadline - time.perf_counter())
    if child.rc != 0:
        raise SetupError("the program does not import; see provenance.stderr")
    with open(os.path.join(work_dir, "provenance.stdout"), encoding="utf-8") as fh:
        prov = json.load(fh)
    commit = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    prov.update({
        "commit": commit, "seed": seed, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "FERMI2D_WORKERS": "unset",
    })
    return prov


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work_dir: str, hard_deadline: float) -> dict:
    inputs = os.path.join(work_dir, "inputs")
    op_dir = os.path.join(work_dir, "op")
    os.makedirs(inputs, exist_ok=True)
    work = WORKLOADS[name](seed, inputs)
    work.prepare(hard_deadline)

    def setup_sample() -> float:
        child = spawn(["import", work.setup_module], work_dir, "import",
                      hard_deadline - time.perf_counter())
        if child.rc != 0:
            raise SetupError(f"import {work.setup_module} failed")
        return child.wall

    ops: List[Op] = []
    setups: List[float] = []
    reference = None
    deadline = time.perf_counter() + seconds
    while True:
        if not trace:
            setups.append(setup_sample())
        traced = trace and len(ops) % 2 == 1
        op, outputs = run_op(work, op_dir, traced, hard_deadline, reference)
        if reference is None:
            reference = outputs
        ops.append(op)
        if op.errors and time.perf_counter() > hard_deadline:
            break
        if len(ops) >= MIN_OPS:
            next_op = statistics.median(o.wall for o in ops[-2:])
            next_op += statistics.median(setups) if setups else 0.0
            if time.perf_counter() + next_op > deadline:
                break
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample())

    failed = sum(1 for op in ops if op.errors)
    for i, op in enumerate(ops):
        for err in op.errors:
            print(f"{name} op {i} FAILED: {err}")
    if trace:
        units = {n: u for n, u, _ in per_layer_metrics()}
        values = layer_result(ops)
        metrics = {n: {"value": values[n], "unit": units[n]} for n in units}
    else:
        walls = [op.wall for op in ops]
        values = {"op_s": statistics.median(walls),
                  "setup_s": statistics.median(setups),
                  "cpu_s": statistics.median(op.cpu for op in ops),
                  "peak_rss_mb": max(op.rss_kb for op in ops) / 1024.0}
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
        print(f"{name}: op_s median {values['op_s']:.4f} s over n={len(walls)} "
              f"ops {' '.join(f'{w:.3f}' for w in walls)}; setup_s median "
              f"{values['setup_s']:.4f} s over n={len(setups)} imports of "
              f"{work.setup_module}")
    print(f"{name}: fail_ratio {failed / len(ops):.4f} ({failed} of {len(ops)} ops)")
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.perf_counter()
    hard_deadline = start + HARD_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "fermi2d", "cli.py")):
        print("perfbench: no fermi2d sources under src/", file=sys.stderr)
        return 2
    work_root = os.path.join(ROOT, ".perfbench_work")
    work_dir = os.path.join(work_root, str(os.getpid()))
    os.makedirs(work_dir)
    try:
        prov = provenance(args.seed, work_dir, hard_deadline)
        print(json.dumps({"provenance": prov}, sort_keys=True))
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), work_dir, hard_deadline)
            for n, m in result["metrics"].items():
                print(f"{args.workload}: {n} {m['value']:.6g} {m['unit']}")
            print(json.dumps(result, sort_keys=True))
            return 0
        results = {}
        for name in WORKLOADS:
            # each workload gets its own time budget when run together
            results[name] = run_workload(name, args.seed, args.seconds, False,
                                         work_dir, time.perf_counter() + HARD_LIMIT_S)
        print(f"{'workload':18} {'op_s/s':>9} {'setup_s/s':>10} {'cpu_s/s':>9} "
              f"{'peak_rss_mb/MB':>15} {'fail_ratio':>11}")
        for name, r in results.items():
            v = {n: m["value"] for n, m in r["metrics"].items()}
            print(f"{name:18} {v['op_s']:9.3f} {v['setup_s']:10.3f} "
                  f"{v['cpu_s']:9.3f} {v['peak_rss_mb']:15.1f} "
                  f"{r['failed'] / r['attempted']:11.4f}")
        print(json.dumps(results, sort_keys=True))
        return 0
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
