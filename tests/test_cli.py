import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fermi2d import cli, kernels
from fermi2d import ladders as ld
from fermi2d import selfenergy as se
from fermi2d.blocks import BlockKernel, PairBlocks
from fermi2d.config import SCENARIO_KEYS, ScaleParams
from fermi2d.kernels import EXT
from fermi2d.scales import make_model

SWEEP_CFG = """\
M = 2.0
aleph = 0.6
alephPrime = 0.62
j0 = 2
Jmax = 8
lambda0 = 1e-3
upsilon = 0.2
model = quadratic

[scenario]
kind = jump-sweep
npoints = 4
lambda = 0.0
gprofile = constant
tol = 1e-3
"""


@pytest.fixture(scope="module")
def family_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("families")
    params = ScaleParams(lambda0=1e-3, upsilon=0.2, jmax=4)
    good = se.saturating_q_family(params)
    (root / "good.txt").write_text(se.family_to_text(good, params))
    bad = se.saturating_q_family(params, scale=3.0)
    (root / "bad.txt").write_text(se.family_to_text(bad, params))
    return root


def test_emit_empty_table_header_only():
    out = cli.emit_csv([], ("a", "b", "c"))
    assert out == "a,b,c\n"


def test_emit_json_roundtrip():
    rows = [{"a": 1.5, "b": "x"}, {"a": -2.0, "b": "y"}]
    text = cli.emit_json(rows, ("a", "b"))
    back = json.loads(text)
    assert back["columns"] == ["a", "b"]
    assert back["rows"] == [[1.5, "x"], [-2.0, "y"]]


def test_emit_csv_17_digits():
    out = cli.emit_csv([{"x": 1.0 / 3.0}], ("x",))
    assert "0.33333333333333331" in out


def test_csv_schema_column_counts():
    # every scenario schema matches its emitted header width
    for cols in (cli.SWEEP_COLUMNS, cli.LADDER_COLUMNS, cli.BUDGET_COLUMNS,
                 cli.RESUM_COLUMNS):
        row = {c: 0.0 for c in cols}
        text = cli.emit_csv([row], cols)
        header, data = text.strip().splitlines()
        assert len(header.split(",")) == len(cols)
        assert len(data.split(",")) == len(cols)


def test_jump_sweep_cli(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    out = tmp_path / "sweep.csv"
    rc = cli.main(["jump-sweep", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(cli.SWEEP_COLUMNS)
    assert len(lines) == 5
    for line in lines[1:]:
        fields = line.split(",")
        measured = float(fields[3])
        assert abs(measured - 1.0) <= 1e-3


def test_jump_sweep_bad_config(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("M = 0.5\n")
    rc = cli.main(["jump-sweep", "--config", str(cfg),
                   "--out", str(tmp_path / "x.csv")])
    assert rc == cli.EXIT_CONFIG


@pytest.mark.parametrize("scenario", [
    # |dS/dk0(0)| = 0.9 breaks the 1/2 bound (the jump would read 10)
    "npoints = 4\nlambda = 0.9\ngprofile = constant\n",
    # 1 - lambda g = 0: the linearized piece has no finite limit
    "npoints = 4\nlambda = 1.0\ngprofile = constant\n",
    "npoints = 0\nlambda = 0.2\ngprofile = cosine\n",
    # a tolerance no point can meet or every point meets
    "npoints = 4\nlambda = 0.2\ntol = nan\n",
    "npoints = 4\nlambda = 0.2\ntol = 0\n",
    "npoints = 4\nlambda = 0.2\ntol = inf\n",
    # a non-finite lambda, rejected in the scenario parse
    "npoints = 4\nlambda = nan\ngprofile = constant\n",
    "npoints = 4\nlambda = inf\ngprofile = constant\n",
], ids=["lambda-0.9", "lambda-1.0", "npoints-0", "tol-nan", "tol-0",
        "tol-inf", "lambda-nan", "lambda-inf"])
def test_jump_sweep_rejects_bad_scenario(tmp_path, capsys, scenario):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[scenario]\n" + scenario)
    rc = cli.main(["jump-sweep", "--config", str(cfg),
                   "--out", str(tmp_path / "x.csv")])
    assert rc == cli.EXIT_CONFIG
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["scenario"] == "jump-sweep"
    assert diag["error"] == "config"


@pytest.mark.parametrize("lam", ["inf", "nan"])
def test_jump_sweep_non_finite_lambda_is_one_config_line(tmp_path, capsys,
                                                         lam):
    # rejected with tol in the scenario parse, before the self-energy is
    # built: no numpy warning, and stderr is the diagnostic alone
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[scenario]\nnpoints = 4\nlambda = {lam}\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["jump-sweep", "--config", str(cfg),
                       "--out", str(tmp_path / "x.csv")])
    assert rc == cli.EXIT_CONFIG
    assert caught == []
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    diag = json.loads(lines[0])
    assert (diag["scenario"], diag["error"]) == ("jump-sweep", "config")
    assert "lambda" in diag["detail"]


@pytest.mark.parametrize("text, named", [
    # a NaN or infinite anisotropy is a config error, not a bound check of
    # the self-energy or a tolerance failure
    ("model = quadratic:nan\n", "anisotropy"),
    ("model = quadratic:inf\n", "anisotropy"),
    # a key or section the run does not read, named in the diagnostic
    ("Jmaxx = 3\n", "'Jmaxx'"),
    ("[scenario]\nnpoint = 4\n", "'npoint'"),
    ("[sweep]\nnpoints = 4\n", "[sweep]"),
    ("[scenario]\nkind = ladder-demo\n", "'ladder-demo'"),
    ("r0 = 0\n", "'r0'"),
    ("r = 7\n", "'r'"),
    ("alpha = 99\n", "'alpha'"),
    ("bconst = 1e9\n", "'bconst'"),
], ids=["quadratic-nan", "quadratic-inf", "top-level-key", "scenario-key",
        "section", "kind", "r0", "r", "alpha", "bconst"])
def test_jump_sweep_rejects_bad_config_text(tmp_path, capsys, text, named):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "x.csv"
    rc = cli.main(["jump-sweep", "--config", str(cfg), "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    assert not out.exists()
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["scenario"] == "jump-sweep"
    assert diag["error"] == "config"
    assert named in diag["detail"]


def test_ladder_demo_cli(tmp_path):
    out = tmp_path / "ladder.csv"
    rc = cli.main(["ladder-demo", "--scales", "2", "--grid", "1",
                   "--seed", "3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(cli.LADDER_COLUMNS)
    assert len(lines) > 1
    resid_col = cli.LADDER_COLUMNS.index("telescope_residual")
    for line in lines[1:]:
        assert float(line.split(",")[resid_col]) <= 1e-12


@pytest.mark.parametrize("grid", ["0", "-1"])
def test_ladder_demo_rejects_bad_grid(tmp_path, capsys, grid):
    rc = cli.main(["ladder-demo", "--grid", grid,
                   "--out", str(tmp_path / "ladder.csv")])
    assert rc == cli.EXIT_CONFIG
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["scenario"] == "ladder-demo"
    assert diag["error"] == "config"
    assert "--grid" in diag["detail"]


@pytest.mark.parametrize("seed", ["-1", "abc"])
def test_ladder_demo_rejects_bad_seed(tmp_path, capsys, seed):
    # random.Random would take -1 as the seed 1: a negative seed is a
    # config error, as a seed that is no integer is
    out = tmp_path / "ladder.csv"
    rc = cli.main(["ladder-demo", "--seed", seed, "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["scenario"] == "ladder-demo"
    assert diag["error"] == "config"
    assert not out.exists()


def test_ladder_demo_divergence_exits_3(tmp_path, capsys):
    # at --scales 4, seed 7, the ladder series of scale 5 has spectral
    # radius 1.64 >= 1: its LadderDivergenceError becomes a tolerance
    # failure naming the bubble
    out = tmp_path / "ladder.csv"
    rc = cli.main(["ladder-demo", "--scales", "4", "--seed", "7",
                   "--out", str(out)])
    assert rc == cli.EXIT_TOLERANCE
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["scenario"] == "ladder-demo"
    assert diag["error"] == "divergence"
    assert "not decaying" in diag["detail"] and "C(C^(" in diag["detail"]
    assert not out.exists()


def test_ladder_demo_geometry_error_exits_1(tmp_path, capsys, monkeypatch):
    # hats that no longer sum to 1 make the first refinement of the
    # telescope fail: a geometry error, exit 1, not a traceback
    hat_weights = ld.hat_weights
    monkeypatch.setattr(ld, "hat_weights",
                        lambda secz: lambda s: 0.5 * hat_weights(secz)(s))
    out = tmp_path / "ladder.csv"
    rc = cli.main(["ladder-demo", "--scales", "2", "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["scenario"] == "ladder-demo"
    assert diag["error"] == "geometry"
    assert "refinement weights sum to" in diag["detail"]
    assert not out.exists()


def test_ladder_demo_lost_grid_point_exits_1(tmp_path, capsys, monkeypatch):
    # a finer-scale sector whose support drops grid point 0 while its hat
    # still weighs that point: the first refinement of the telescope cannot
    # place the point, a geometry error, exit 1
    contains = ld.Sectorization.contains

    def drop_point_0(secz, disp, kx, ky):
        ok = contains(secz, disp, kx, ky)
        if secz.j > ScaleParams().j0:
            ok[:, 0] = False
        return ok

    monkeypatch.setattr(ld.Sectorization, "contains", drop_point_0)
    out = tmp_path / "ladder.csv"
    rc = cli.main(["ladder-demo", "--scales", "2", "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["scenario"] == "ladder-demo"
    assert diag["error"] == "geometry"
    assert "lost grid point 0" in diag["detail"]
    assert not out.exists()


@pytest.mark.parametrize("scales, grid, seed", [(2, 1, 0), (2, 2, 1),
                                              (3, 1, 2)])
def test_ladder_demo_rows_match_dense_block(params, disp, scales, grid, seed):
    # the all-external entries read from the support are, bit for bit and
    # in order, those np.argwhere finds on the dense all-external block
    scales_list = list(range(params.j0, params.j0 + scales))
    scheme, fam = cli._demo_scheme_and_family(params, disp, grid, seed,
                                              scales_list)
    rep = ld.delta_ladder_telescope(scheme, scales_list[-1] + 1, fam, lmax=4)
    legs, vals = cli._external_entries(rep.iterated)
    dense = rep.iterated.dense().values
    ext = rep.iterated.space.field_indices(EXT)
    block = dense[np.ix_(ext, ext, ext, ext)]
    nonzero = block != 0
    assert len(vals) > 0
    assert np.array_equal(legs, ext[np.argwhere(nonzero)])
    assert np.array_equal(vals, block[nonzero])


def test_demo_family_allocates_no_dense_kernel():
    # the ladder-demo rungs are drawn on the undirected support and
    # projected there: building the scheme and the family of --scales 3
    # peaks below one dense kernel of its largest space, and below 40
    # bytes per directed support entry (~17; a draw on the directed
    # support, reduced to its antisymmetrized ph entries, took ~87)
    params, disp = ScaleParams(), make_model("quadratic")
    tracemalloc.start()
    try:
        scheme, fam = cli._demo_scheme_and_family(params, disp, 1, 0,
                                                  [2, 3, 4])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(fam.F) == [2, 3, 4]
    assert all(f.space is scheme.space(j, directed=False)
               for j, f in fam.F.items())
    n = scheme.space(4).n
    assert peak < n ** 4 * 16
    assert peak < 40 * scheme.space(4).pair_blocks.size


def test_ladder_demo_makes_no_directed_kernel_operation(tmp_path,
                                                        monkeypatch):
    # a whole ladder-demo run, family build included, calls no directed
    # kernel operation, builds no dense kernel and builds no directed
    # support
    built = []
    init = PairBlocks.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(PairBlocks, "__init__", recording)
    for name in ("antisymmetrize", "reduce_ph", "value_ph"):
        for module in (kernels, ld):
            monkeypatch.setattr(module, name,
                                lambda *a, name=name: pytest.fail(name))
    monkeypatch.setattr(BlockKernel, "dense",
                        lambda self: pytest.fail("dense kernel built"))
    rc = cli.main(["ladder-demo", "--grid", "2", "--scales", "3",
                   "--out", str(tmp_path / "ladder.csv")])
    assert rc == 0
    assert built and not any(pb.directed for pb in built)


def test_norm_budget_cli(tmp_path, family_files):
    out = tmp_path / "budget.csv"
    rc = cli.main(["norm-budget", "--family", str(family_files / "good.txt"),
                   "--jmax", "4", "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith(",".join(cli.BUDGET_COLUMNS))
    rc = cli.main(["norm-budget", "--family", str(family_files / "bad.txt"),
                   "--jmax", "4"])
    assert rc == cli.EXIT_VIOLATION


def test_resum_cli(tmp_path, family_files):
    out = tmp_path / "resum.csv"
    rc = cli.main(["resum", "--family", str(family_files / "good.txt"),
                   "--jmax", "4", "--nsamples", "10", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 11


def test_resum_rows_are_seeded_draws_in_the_box(tmp_path, family_files):
    # the same seed gives the same bytes, another seed other rows, and
    # every (k0, kx, ky) lies in (-2, 2) x (-1.4, 1.4)^2
    def rows(seed, run):
        out = tmp_path / f"resum_{seed}_{run}.csv"
        rc = cli.main(["resum", "--family", str(family_files / "good.txt"),
                       "--jmax", "4", "--nsamples", "40", "--seed", seed,
                       "--out", str(out)])
        assert rc == cli.EXIT_OK
        return out.read_bytes()

    first = rows("0", 1)
    assert rows("0", 2) == first
    other = rows("1", 1)
    k = np.array([[float(x) for x in line.split(",")[:3]]
                  for blob in (first, other)
                  for line in blob.decode().splitlines()[1:]])
    assert k.shape == (80, 3)
    assert not (k[:40] == k[40:]).all(axis=1).any()
    assert np.all(np.abs(k) < (2.0, 1.4, 1.4))


@pytest.mark.parametrize("argv", [
    ["resum", "--seed", "abc"],
    ["resum", "--seed", "-1"],
    ["resum", "--nsamples", "abc"],
    ["resum", "--nsamples", "-3"],
    ["resum", "--nsamples", "0"],
    ["resum", "--jmax", "3"],
    ["norm-budget", "--jmax", "2"],
], ids=lambda argv: "-".join(argv))
def test_family_commands_reject_bad_options(tmp_path, capsys, family_files,
                                            argv):
    # the family files hold scales up to 4: --jmax below that is a config
    # error, not a silent run over every member
    out = tmp_path / "out.csv"
    rc = cli.main(argv + ["--family", str(family_files / "good.txt"),
                          "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["scenario"] == argv[0]
    assert diag["error"] == "config"
    assert not out.exists()


def _edit_first_q(text, edit):
    """text with the columns of its first q line replaced by edit(cols)."""
    lines = text.splitlines()
    k = next(n for n, line in enumerate(lines) if line.startswith("q "))
    lines[k] = " ".join(edit(lines[k].split()))
    return "\n".join(lines) + "\n"


BAD_FAMILY_FILES = {
    "q-short": lambda t: _edit_first_q(t, lambda c: c[:-1]),
    "q-nan-amplitude": lambda t: _edit_first_q(
        t, lambda c: c[:3] + ["nan"] + c[4:]),
    "q-i-above-l": lambda t: _edit_first_q(
        t, lambda c: ["q", "3", "2"] + c[3:]),
    "q-below-j0": lambda t: _edit_first_q(
        t, lambda c: ["q", "0", "0"] + c[3:]),
    # the members ignore these columns: a shifted profile would measure the
    # budget on windows that miss the member
    "q-shifted-profile": lambda t: _edit_first_q(
        t, lambda c: c[:4] + ["40.0"] + c[5:]),
    "q-twice": lambda t: t + next(line for line in t.splitlines()
                                  if line.startswith("q ")) + "\n",
    "p-no-amplitude": lambda t: t + "p 2\n",
    "p-nan": lambda t: t + "p 2 nan\n",
    "p-inf": lambda t: t + "p 2 inf\n",
    "lambda0-negative": lambda t: t.replace("lambda0 = 0.001", "lambda0 = -1"),
    "lambda0-inf": lambda t: t.replace("lambda0 = 0.001", "lambda0 = inf"),
    "upsilon-too-large": lambda t: t.replace("upsilon = 0.2", "upsilon = 0.3"),
    "no-lambda0": lambda t: re.sub(r"(?m)^lambda0 = .*\n", "", t),
    "no-upsilon": lambda t: re.sub(r"(?m)^upsilon = .*\n", "", t),
    "unknown-key": lambda t: t + "kappa = 1\n",
    "M-mismatch": lambda t: t.replace("M = 2.0", "M = 3.0"),
}


@pytest.mark.parametrize("case", sorted(BAD_FAMILY_FILES))
@pytest.mark.parametrize("command", ["norm-budget", "resum"])
def test_family_commands_reject_bad_family_file(tmp_path, capsys,
                                                family_files, command, case):
    # a family line the reader cannot take as written is a config error,
    # not a traceback and not a budget verdict on some other family
    path = tmp_path / "family.txt"
    good = (family_files / "good.txt").read_text()
    path.write_text(BAD_FAMILY_FILES[case](good))
    out = tmp_path / "out.csv"
    rc = cli.main([command, "--family", str(path), "--jmax", "4",
                   "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["scenario"] == command
    assert diag["error"] == "config"
    assert "family" in diag["detail"]
    assert not out.exists()


@pytest.mark.parametrize("line, power", [
    ("q 2 1100 1e-3 11.0 10.0 1.4 0.6", 2200),  # M^l of the member overflows
    ("q 2 520 1e-3 11.0 10.0 1.4 0.6", 1040),   # M^(2 l) of its budget does
], ids=["l-1100", "l-520"])
@pytest.mark.parametrize("command", ["norm-budget", "resum"])
def test_family_commands_reject_overflowing_scale(tmp_path, capsys, command,
                                                  line, power):
    # a scale index --jmax admits but whose budget factors overflow a float
    # is a config error naming the line, not an OverflowError traceback
    path = tmp_path / "family.txt"
    path.write_text(f"lambda0 = 0.001\nupsilon = 0.2\nM = 2.0\n{line}\n")
    rc = cli.main([command, "--family", str(path), "--jmax", "2000"])
    assert rc == cli.EXIT_CONFIG
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["scenario"] == command
    assert diag["error"] == "config"
    assert f"family line 4 {line!r}" in diag["detail"]
    assert f"2.0^{power} is not a finite float" in diag["detail"]


# a valid jmax-3 family: saturating q members and the linear counterterms
FUZZ_FAMILY = """\
lambda0 = 0.001
upsilon = 0.2
M = 2.0
p 2 0.0017328621078878657
p 3 0.0011432626298183157
q 2 2 0.0019943972371935332 11.0 10.0 1.4 0.6
q 2 3 0.0014048517934198744 11.0 10.0 1.4 0.6
q 3 3 0.0009140962197349737 11.0 10.0 1.4 0.6
""".splitlines()

FUZZ_EDITS = st.tuples(
    st.integers(0, len(FUZZ_FAMILY) - 1), st.integers(0, 7),
    st.one_of(st.just("scale"),  # half the edits keep most files readable
              st.sampled_from(["drop", "truncate", "negate", "nan", "inf",
                               "-inf", "x"])),
    st.floats(0.25, 4.0))


@settings(max_examples=80, deadline=None)
@given(edits=st.lists(FUZZ_EDITS, max_size=3))
def test_norm_budget_on_edited_family_files(tmp_path_factory, edits):
    # drawn edits of a valid file: lines dropped or cut short, columns
    # negated, scaled or replaced by nan, inf or a word
    lines = [line.split() for line in FUZZ_FAMILY]
    for n, k, edit, factor in edits:
        cols = lines[n]
        if not cols:
            continue
        k %= len(cols)
        if edit == "drop":
            cols.clear()
        elif edit == "truncate":
            del cols[k:]
        elif edit == "negate":
            cols[k] = "-" + cols[k]
        elif edit == "scale":
            with contextlib.suppress(ValueError):
                cols[k] = repr(float(cols[k]) * factor)
        else:
            cols[k] = edit
    path = tmp_path_factory.mktemp("fuzz") / "family.txt"
    path.write_text("\n".join(" ".join(cols) for cols in lines) + "\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(["norm-budget", "--family", str(path), "--jmax", "5"])
    assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_VIOLATION)
    if rc != cli.EXIT_OK:
        assert isinstance(json.loads(err.getvalue().splitlines()[-1]), dict)


def test_resum_check_budget_cli(family_files):
    rc = cli.main(["resum", "--family", str(family_files / "bad.txt"),
                   "--jmax", "4", "--nsamples", "2", "--check-budget"])
    assert rc == cli.EXIT_VIOLATION


def test_hoelder_check_cli(tmp_path):
    out = tmp_path / "hoelder.json"
    rc = cli.main(["hoelder-check", "--alpha", "1", "--beta", "1",
                   "--c0", "1", "--c1", "1", "--m", "2", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["constant"] == 8.0
    assert rep["exponent"] == 0.5
    assert rep["maxRatio"] <= 1.0


@pytest.mark.parametrize("name, value", [
    ("alpha", "nan"), ("beta", "inf"), ("c0", "inf"), ("c1", "nan"),
    ("m", "inf"),
])
def test_hoelder_check_rejects_bad_bounds(capsys, name, value):
    argv = {"alpha": "1", "beta": "1", "c0": "1", "c1": "1", "m": "2"}
    argv[name] = value
    rc = cli.main(["hoelder-check"] + [f"--{k}={v}" for k, v in argv.items()])
    assert rc == cli.EXIT_CONFIG
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["scenario"] == "hoelder-check"
    assert diag["error"] == "config"


@pytest.mark.parametrize("argv", [
    # M^alpha rounds to 1: the certificate constant divides by zero
    ["--alpha", "1e-300", "--beta", "1", "--c0", "1", "--c1", "1", "--m", "2"],
    # M^((alpha+beta) j) of the saturating family overflows a float
    ["--alpha", "1", "--beta", "1", "--c0", "1", "--c1", "1", "--m", "1e300"],
    ["--alpha", "1000", "--beta", "1", "--c0", "1", "--c1", "1", "--m", "2"],
    # the certificate constant overflows: every ratio against it reads 0
    ["--alpha", "1", "--beta", "1", "--c0", "1e308", "--c1", "1e308",
     "--m", "2"],
    # the member frequency (C1/C0) M^((alpha+beta) j) rounds to inf
    # without raising, at j = 0 and at j = 1
    ["--alpha", "1", "--beta", "1", "--c0", "1e-300", "--c1", "1e300",
     "--m", "2"],
    ["--alpha", "0.5", "--beta", "0.5", "--c0", "1", "--c1", "1e308",
     "--m", "4"],
    # the derivative amplitude C1 M^(beta j) rounds to inf at j = 11
    ["--alpha", "0.01", "--beta", "1", "--c0", "1e305", "--c1", "1e305",
     "--m", "2"],
], ids=["alpha-1e-300", "m-1e300", "alpha-1000", "constant-inf",
        "frequency-inf-0", "frequency-inf-1", "derivative-inf"])
def test_hoelder_check_rejects_extreme_bounds(capsys, argv):
    rc = cli.main(["hoelder-check"] + argv)
    assert rc == cli.EXIT_CONFIG
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["scenario"] == "hoelder-check"
    assert diag["error"] == "config"


@pytest.mark.parametrize("argv, scenario", [
    (["bogus"], "fermi2d"),
    ([], "fermi2d"),
    (["jump-sweep", "--config", "{sweep}"], "jump-sweep"),
    (["norm-budget", "--family", "{good}", "--format", "xml"], "norm-budget"),
    (["ladder-demo", "--out", "x.csv", "--bogus", "1"], "ladder-demo"),
    (["hoelder-check", "--alpha", "1"], "hoelder-check"),
    (["norm-budget", "--family", "{good}", "--lambda0", "0.5"],
     "norm-budget"),
], ids=["unknown-command", "no-command", "missing-out", "format-xml",
        "unknown-option", "missing-bounds", "lambda0-option"])
def test_parse_errors_are_config_errors(tmp_path, capsys, family_files, argv,
                                        scenario):
    # exit 2 means a budget or identity violation, never a bad command line
    argv = [a.format(sweep=tmp_path / "sweep.cfg", good=family_files / "good.txt")
            for a in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_CONFIG
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["scenario"] == scenario
    assert diag["error"] == "config"


@pytest.mark.parametrize("argv", [
    ["jump-sweep", "--config", "{sweep}"],
    ["ladder-demo", "--scales", "1"],
    ["norm-budget", "--family", "{good}", "--jmax", "4"],
    ["resum", "--family", "{good}", "--jmax", "4", "--nsamples", "2"],
    ["hoelder-check", "--alpha", "1", "--beta", "1", "--c0", "1", "--c1", "1",
     "--m", "2"],
], ids=lambda argv: argv[0])
def test_missing_output_directory(tmp_path, capsys, family_files, argv):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    argv = [a.format(sweep=cfg, good=family_files / "good.txt") for a in argv]
    rc = cli.main(argv + ["--out", str(tmp_path / "missing" / "out.csv")])
    assert rc == cli.EXIT_CONFIG
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["scenario"] == argv[0]
    assert diag["error"] == "output"


def _run_fresh(code: str, blas_threads) -> str:
    """Run code in a fresh interpreter that imports fermi2d from this
    checkout, with OPENBLAS_NUM_THREADS set to blas_threads, or removed
    when None (importing cli here set it, and the child would inherit
    it); its stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


# the fermi2d modules each subcommand loads besides the package, cli and
# config: only the layers on its own path (hoelder-check takes its pair
# bases from scales.rd_points).  No subcommand loads numpy.random (nor
# secrets, which numpy.random imports): the hypothesis checks of
# jump-sweep and norm-budget and the Hoelder pairs sample R_d points, and
# resum and ladder-demo draw from the stdlib random.Random
FAMILY_LAYERS = {"scales", "selfenergy"}
SUBCOMMAND_LAYERS = [
    (["jump-sweep", "--config", "{sweep}", "--out", "{out}"],
     {"scales", "occupation"}),
    # --scales 2 reaches the resectorization
    (["ladder-demo", "--scales", "2", "--out", "{out}"],
     {"blocks", "kernels", "ladders", "scales", "sectors", "selfenergy"}),
    (["norm-budget", "--family", "{good}", "--jmax", "4"], FAMILY_LAYERS),
    (["resum", "--family", "{bad}", "--jmax", "4", "--nsamples", "2",
      "--check-budget"], FAMILY_LAYERS),
    (["hoelder-check", "--alpha", "1", "--beta", "1", "--c0", "1", "--c1",
      "1", "--m", "2", "--out", "{out}"], {"hoelder", "scales"}),
]


@pytest.mark.parametrize("argv, layers", SUBCOMMAND_LAYERS,
                         ids=[argv[0] for argv, _ in SUBCOMMAND_LAYERS])
def test_subcommand_loads_no_scipy(tmp_path, family_files, argv, layers):
    # a fresh interpreter: sys.modules shows every module the subcommand
    # imported, a scipy import anywhere on its path included, and
    # /proc/self/task its threads: one, BLAS included
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("[scenario]\nnpoints = 8\nlambda = 0.17\n"
                   "gprofile = cosine\ntol = 1e-3\n")
    argv = [a.format(sweep=cfg, out=tmp_path / "out",
                     good=family_files / "good.txt",
                     bad=family_files / "bad.txt") for a in argv]
    code = ("import json, os, sys\n"
            "from fermi2d import cli\n"
            f"rc = cli.main({argv!r})\n"
            "threads = (len(os.listdir('/proc/self/task'))\n"
            "           if os.path.isdir('/proc/self/task') else None)\n"
            "print(json.dumps([rc, sorted(sys.modules), threads]))\n")
    rc, mods, threads = json.loads(_run_fresh(code, None))
    if threads is not None:
        assert threads == 1
    assert [m for m in mods if m.split(".")[0] == "scipy"] == []
    assert "numpy.ma" not in mods
    assert "numpy.random" not in mods and "secrets" not in mods
    assert {m for m in mods if m.split(".")[0] == "fermi2d"} \
        == {"fermi2d", "fermi2d.cli", "fermi2d.config"} \
        | {"fermi2d." + m for m in layers}
    assert rc == (cli.EXIT_VIOLATION if "--check-budget" in argv
                  else cli.EXIT_OK)


def test_no_module_imports_scipy():
    # scipy is a test oracle only: no import of it in any module of the
    # package, at module level or inside a function
    src = os.path.dirname(os.path.abspath(cli.__file__))
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            assert [m for m in mods if m.split(".")[0] == "scipy"] == [], \
                f"{name}:{node.lineno}"


def test_explicit_blas_thread_count_wins():
    code = ("import os\n"
            "import fermi2d.cli\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'])\n")
    assert _run_fresh(code, "2").strip() == "2"


def test_ladder_demo_bytes_across_blas_threads(tmp_path):
    # byte-identical output whether BLAS runs on one thread or two
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"ladder_{threads}.csv"
        argv = ["ladder-demo", "--scales", "2", "--out", str(out)]
        code = ("import sys\n"
                "from fermi2d import cli\n"
                f"sys.exit(cli.main({argv!r}))\n")
        _run_fresh(code, threads)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_repeat_run_determinism(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    outs = []
    for run in (1, 2):
        out = tmp_path / f"sweep_{run}.csv"
        rc = cli.main(["jump-sweep", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_g_profiles():
    for name in ("constant", "cosine", "twolobe"):
        g = cli.g_profile(name)
        val = float(g(1.0, 0.5))
        assert 0.0 < val <= 1.0
    with pytest.raises(ValueError):
        cli.g_profile("nope")


# ---------------------------------------------------------------------------
# the exit path: drawn command lines, the README table, the one exit table


# (valid, bad) values per option of each subcommand, small sizes only
# (--scales <= 2, --grid 1, npoints <= 4, --nsamples <= 5); None leaves
# the option out, "" gives the option with no value (a flag alone).  The bad values are zero,
# negative, out-of-range, nan, inf and non-numeric numbers and, for a
# path, a missing file ({missing}), a directory ({dir}) or a file in a
# missing directory ({lost}); {name} is filled in from argv_paths
BAD = ["-1", "nan", "inf", "-inf", "abc", "", "1.5", "1e400"]
OUT = ([None, "{out}"], ["{dir}", "{lost}"])
FORMAT = ([None, "csv", "json"], ["xml", ""])
FAMILY = {"--family": (["{good}", "{bad}"], ["{missing}", "{dir}", None]),
          "--jmax": ([None, "4", "8"], BAD + ["0", "3"]),
          "--out": OUT, "--format": FORMAT}
BOUND = (["0.5", "1", "1.5", "2"], BAD + ["0", "1e-300", "1e300", None])
ARGV_OPTIONS = {
    "jump-sweep": {"--config": (["{cfg}"], ["{missing}", "{dir}", None]),
                   "--out": (["{out}"], ["{dir}", "{lost}", None]),
                   "--format": FORMAT},
    "ladder-demo": {"--scales": ([None, "1", "2"], BAD + ["0", "7", "99"]),
                    "--grid": ([None, "1"], BAD + ["0"]),
                    "--seed": ([None, "0", "3", "12345678901234567890"],
                               BAD),
                    "--out": (["{out}"], ["{dir}", "{lost}", None]),
                    "--format": FORMAT},
    "resum": {**FAMILY, "--nsamples": (["1", "5"], BAD + ["0"]),
              "--seed": ([None, "0", "3"], BAD),
              "--check-budget": ([None, ""], [])},
    "norm-budget": FAMILY,
    "hoelder-check": {"--alpha": BOUND, "--beta": BOUND, "--c0": BOUND,
                      "--c1": BOUND,
                      "--m": (["1.5", "2", "4"],
                              BAD + ["0", "1", "1.0000001", "1e300", None]),
                      "--out": OUT},
}
# the jump-sweep config, one "key = value" line per key drawn
SWEEP_KEYS = {
    "M": ([None, "2.0", "3"], ["1", "0.5", "nan", "inf", "abc", "1e300"]),
    "Jmax": ([None, "8", "5"], ["1", "nan", "abc"]),
    "aleph": ([None, "0.6", "0.55"], ["0.7", "nan", ""]),
    "model": ([None, "quadratic", "quadratic:0.8", "quadratic:1.3"],
              ["quadratic:0", "quadratic:-1", "quadratic:nan",
               "quadratic:inf", "quadratic:1e-300", "quadratic:1e300",
               "quadratic:abc", "bogus", ""]),
    "npoints": (["1", "2", "4"], BAD + ["0"]),
    "lambda": ([None, "0", "0.2", "-0.3", "0.4"], BAD + ["0.9", "1.0",
                                                      "1e300"]),
    "gprofile": ([None, "constant", "cosine", "twolobe"], ["nope", ""]),
    "tol": ([None, "1e-3", "1e-6", "1"], BAD + ["0"]),
}
# options no subcommand takes
UNKNOWN = [["--bogus"], ["--bogus", "1"], ["--lambda0", "0.5"], ["-x"]]


@st.composite
def drawn_command(draw, command):
    """(argv, config text) of command: at most two options or config keys
    take a bad value (or are left out) or an UNKNOWN option ends argv,
    the others a valid one."""
    options = dict(ARGV_OPTIONS[command])
    if command == "jump-sweep":
        options.update(SWEEP_KEYS)
    spoilt = draw(st.sets(st.sampled_from(
        sorted(k for k, (_, bad) in options.items() if bad) + ["unknown"]),
        max_size=2))
    value = {k: draw(st.sampled_from(bad if k in spoilt else valid))
             for k, (valid, bad) in options.items()}
    argv = [command]
    for option in ARGV_OPTIONS[command]:
        if value[option] is not None:
            argv += [option, value[option]] if value[option] else [option]
    if "unknown" in spoilt:
        argv += draw(st.sampled_from(UNKNOWN))
    lines = {False: [], True: ["[scenario]"]}  # top level, then [scenario]
    for key in SWEEP_KEYS:
        if value.get(key) is not None:
            lines[key in SCENARIO_KEYS].append(f"{key} = {value[key]}")
    return argv, "\n".join(lines[False] + lines[True]) + "\n"


@pytest.fixture(scope="module")
def argv_paths(tmp_path_factory, family_files):
    root = tmp_path_factory.mktemp("argv")
    (root / "dir").mkdir()
    return {"cfg": root / "drawn.cfg", "out": root / "out",
            "dir": root / "dir", "missing": root / "missing.txt",
            "lost": root / "missing" / "out.csv",
            "good": family_files / "good.txt",
            "bad": family_files / "bad.txt"}


@pytest.mark.parametrize("command", sorted(ARGV_OPTIONS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_every_drawn_command_line_exits_by_the_table(argv_paths, command,
                                                     data):
    # exit 0, or a nonzero code whose last stderr line is the JSON
    # diagnostic of that subcommand, its error a tag of EXIT_CODES that
    # gives the code: never a traceback
    argv, text = data.draw(drawn_command(command))
    argv_paths["cfg"].write_text(text)
    argv = [a.format(**argv_paths) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # a command line that does not parse
            rc = exc.code
    event(f"{argv[0]} exits {rc}")
    assert rc in (0, 1, 2, 3)
    if rc != 0:
        diag = json.loads(err.getvalue().splitlines()[-1])
        assert diag["scenario"] == argv[0]
        assert cli.EXIT_CODES[diag["error"]] == rc


def test_readme_exit_table_is_exit_codes():
    # every tag of EXIT_CODES is a row of the README's exit-code table
    # with its code, and the table has no other row
    readme = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        rows = re.findall(r"(?m)^\| `(\w+)` \| (\d) \|", fh.read())
    assert {tag: int(code) for tag, code in rows} == cli.EXIT_CODES
    assert len(rows) == len(cli.EXIT_CODES)


def test_exit_codes_are_chosen_in_one_table():
    # no function but main returns a nonzero EXIT_ constant; the first
    # argument of every _Failure(...) is a string literal naming a key of
    # EXIT_CODES, and every key is raised somewhere
    with open(cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or fn.name == "main":
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Return) and node.value is not None:
                names = {n.id for n in ast.walk(node.value)
                         if isinstance(n, ast.Name)}
                assert not {n for n in names if n.startswith("EXIT_")} \
                    - {"EXIT_OK"}, f"{fn.name} returns an exit code"
    tags = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") \
                == "_Failure":
            first = node.args[0]
            assert isinstance(first, ast.Constant) \
                and isinstance(first.value, str), ast.dump(node)
            tags.add(first.value)
    assert tags == set(cli.EXIT_CODES)


def test_resum_without_out_draws_nothing(family_files, monkeypatch):
    # the rows are drawn and summed only to be written: without --out the
    # run validates the family and checks the budget, and sums no P or Q
    monkeypatch.setattr(se, "resum_P", lambda *a: pytest.fail("resum_P"))
    monkeypatch.setattr(se, "resum_Q", lambda *a: pytest.fail("resum_Q"))
    assert cli.main(["resum", "--family", str(family_files / "good.txt"),
                     "--jmax", "4"]) == cli.EXIT_OK
    assert cli.main(["resum", "--family", str(family_files / "bad.txt"),
                     "--jmax", "4", "--check-budget"]) == cli.EXIT_VIOLATION
