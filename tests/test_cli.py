import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from fermi2d import cli
from fermi2d import selfenergy as se
from fermi2d.config import ScaleParams
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
], ids=["lambda-0.9", "lambda-1.0", "npoints-0", "tol-nan", "tol-0",
        "tol-inf"])
def test_jump_sweep_rejects_bad_scenario(tmp_path, capsys, scenario):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[scenario]\n" + scenario)
    rc = cli.main(["jump-sweep", "--config", str(cfg),
                   "--out", str(tmp_path / "x.csv")])
    assert rc == cli.EXIT_CONFIG
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["scenario"] == "jump-sweep"
    assert diag["error"] == "config"


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


def test_ladder_demo_divergence_exits_3(tmp_path, capsys):
    # at --scales 4, seed 2, the ladder terms of scale 5 grow three times in
    # a row: the guard's LadderDivergenceError becomes a tolerance failure
    # naming the bubble
    out = tmp_path / "ladder.csv"
    rc = cli.main(["ladder-demo", "--scales", "4", "--seed", "2",
                   "--out", str(out)])
    assert rc == cli.EXIT_TOLERANCE
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["scenario"] == "ladder-demo"
    assert diag["error"] == "divergence"
    assert "not decaying" in diag["detail"] and "C(C^(" in diag["detail"]
    assert not out.exists()


def test_demo_family_allocates_no_dense_kernel():
    # the ladder-demo rungs are drawn on the support: building the scheme
    # and the family of --scales 3 peaks below one dense kernel of its
    # largest space (at --scales 2 the cached gather tables of the spaces
    # alone come close to that bound, n being only 32)
    params, disp = ScaleParams(), make_model("quadratic")
    tracemalloc.start()
    try:
        scheme, fam = cli._demo_scheme_and_family(params, disp, 1, 0,
                                                  [2, 3, 4])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(fam.F) == [2, 3, 4]
    n = scheme.space(4).n
    assert peak < n ** 4 * 16


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


@pytest.mark.parametrize("argv, scenario", [
    (["bogus"], "fermi2d"),
    ([], "fermi2d"),
    (["jump-sweep", "--config", "{sweep}"], "jump-sweep"),
    (["norm-budget", "--family", "{good}", "--format", "xml"], "norm-budget"),
    (["ladder-demo", "--out", "x.csv", "--bogus", "1"], "fermi2d"),
    (["hoelder-check", "--alpha", "1"], "hoelder-check"),
], ids=["unknown-command", "no-command", "missing-out", "format-xml",
        "unknown-option", "missing-bounds"])
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


@pytest.mark.parametrize("argv", [
    ["ladder-demo", "--scales", "2", "--out", "{out}"],
    ["norm-budget", "--family", "{good}", "--jmax", "4"],
    ["resum", "--family", "{bad}", "--jmax", "4", "--nsamples", "2",
     "--check-budget"],
    ["hoelder-check", "--alpha", "1", "--beta", "1", "--c0", "1", "--c1", "1",
     "--m", "2", "--out", "{out}"],
], ids=lambda argv: argv[0])
def test_subcommand_loads_no_scipy(tmp_path, family_files, argv):
    # a fresh interpreter: a scipy import anywhere on the subcommand's path
    # would show up in sys.modules (--scales 2 reaches the resectorization)
    argv = [a.format(out=tmp_path / "out", good=family_files / "good.txt",
                     bad=family_files / "bad.txt") for a in argv]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    code = ("import sys\n"
            "from fermi2d import cli\n"
            f"rc = cli.main({argv!r})\n"
            "print(rc, sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    rc, mods = out.split(maxsplit=1)
    assert mods.strip() == "[]"
    assert int(rc) == (cli.EXIT_VIOLATION if "--check-budget" in argv
                       else cli.EXIT_OK)


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
