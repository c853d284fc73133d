"""Golden digests: the output contract, pinned from one commit to the next.

Each invocation runs in process.  Its output file, stdout, stderr (the JSON
diagnostic, empty on success) and exit code are hashed with SHA-256 and
compared with the digests kept below.  A change that moves output on
purpose updates the digests it moves, and its CHANGES.md entry names them
and says why; a failing case prints the digests it measured.
"""
import contextlib
import hashlib
import io
import os
import runpy
import sys

import pytest

from fermi2d import cli

MAKE_FAMILY = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts", "make_family.py")

SWEEP = "[scenario]\nnpoints = 16\nlambda = {lam}\ngprofile = cosine\n" \
        "tol = 1e-3\n"

# the SHA-256 of an empty stream and of each exit code
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
RC = {0: "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
      2: "d4735e3a265e16eee03f59718b9b5d03019c07d8b6c51f90da3a666eec13ab35",
      3: "4e07408562bedb8b60ce05c1decfe3ad16b72230967de01f640b7e4729b49fce"}

# command line: digests of (output file, stdout, stderr, exit code); None
# for an output file the command does not write.  {out} is the output path,
# {sweep_low} and {sweep_high} the jump-sweep configs (lambda 0.1 and 0.3),
# {family} and {violating} the make_family.py --jmax 5 family and its
# --scale 3 copy
GOLDEN = {
    "ladder-demo --scales 2 --seed 0 --out {out}": (
        "5ba05e02745392de0742fd14b6290a8e3b362f188ffbfbd38fe444eae587c911",
        EMPTY, EMPTY, RC[0]),
    "ladder-demo --scales 2 --seed 1 --out {out}": (
        "b9e411ab233f460ccc552d8b2a9dead7cad6622d7370cf8eaeb3d3c124a5aacf",
        EMPTY, EMPTY, RC[0]),
    "ladder-demo --scales 2 --seed 2 --out {out}": (
        "b90451eac4c88e2be0eba116974c6937e198fa4a372cd8eb5bb40a7d4ff1038c",
        EMPTY, EMPTY, RC[0]),
    "ladder-demo --scales 2 --seed 3 --out {out}": (
        "03385136423ab0803b9a1140673c78e5ac21b17c58a73a21f64ae904ef5567c9",
        EMPTY, EMPTY, RC[0]),
    "ladder-demo --scales 2 --seed 4 --out {out}": (
        "693f529371184c5f4f5fd9616a1c1cec9cfb05db82cfdb2d6ffe68e992351886",
        EMPTY, EMPTY, RC[0]),
    "ladder-demo --grid 2 --seed 0 --out {out}": (
        "f082588d5f1a17b284f1a2ccdde96a637c72e8313bc9ee4690802f6f0e75c9fb",
        EMPTY, EMPTY, RC[0]),
    "ladder-demo --scales 4 --seed 0 --out {out}": (
        None,
        EMPTY,
        "f244e37517b6b8c00b66d17634ff7f18101715dbee0868972183a23766340ba3",
        RC[3]),
    "ladder-demo --scales 4 --seed 3 --out {out}": (
        None,
        EMPTY,
        "e4ec5abc8f368baa98744e7d7b506f9da645c535e4d1a51b6670fd4160118aad",
        RC[3]),
    "ladder-demo --scales 4 --seed 2 --out {out}": (
        None,
        EMPTY,
        "31ac05f42ed7a3cf3357edc57eef44df372cb5a5fb5b4eb1001945328d5edbad",
        RC[3]),
    "jump-sweep --config {sweep_low} --out {out}": (
        "ec6b104aae2592a60f5072cc3c3e9d818eb8705b1023f4c92ef4bce4cbe60f5a",
        EMPTY, EMPTY, RC[0]),
    "jump-sweep --config {sweep_high} --out {out}": (
        "8ca353427ad4a2e6e1495c76a42497417c550efdcd347c4397f14144f60bd3e0",
        EMPTY, EMPTY, RC[0]),
    "norm-budget --family {family} --jmax 5 --out {out}": (
        "2a4eda0e35860b2f894a64b4cf2ffe9fd2d2f07bb182eb72c2b17778e3e998d8",
        EMPTY, EMPTY, RC[0]),
    "norm-budget --family {violating} --jmax 5 --out {out}": (
        "f6058323a011928a5469d7a12f02435d97b18b51246b584c53fdcd476ac1052d",
        EMPTY,
        "fa531a644b34e51eecf55f7a6622c708ed0ba790ef6d46e34a07e6a40d788c12",
        RC[2]),
    "resum --family {family} --jmax 5 --out {out}": (
        "fe9694651dd6f8d1a6462c9343b1f287b6f669d5ccbe429f9b81faeaeacdbb46",
        EMPTY, EMPTY, RC[0]),
    "ladder-demo --scales 2 --seed 0 --format json --out {out}": (
        "33169a80b10d8fa470d600ad458ed73c1d51bb48fd6afabbc2143eda0c917cbc",
        EMPTY, EMPTY, RC[0]),
    "resum --family {violating} --jmax 5 --check-budget --out {out}": (
        "5dfc50dd03a52337a7c82319e8db7bf1f2bb33466a85ff8325d85e45610510a9",
        EMPTY,
        "14780c9ce908d3d77f93f0f46ea66252f8291899f3d3fd49206c0fc944a96bee",
        RC[2]),
    "hoelder-check --alpha 1.5 --beta 0.5 --c0 2 --c1 0.5 --m 2": (
        None,
        "0244c3e4b1d6f44291f8a7e2d6554866f4b3d2be7bd489f5f24ef07073633e31",
        EMPTY,
        RC[0]),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, lam in (("sweep_low", "0.1"), ("sweep_high", "0.3")):
        paths[name] = root / f"{name}.cfg"
        paths[name].write_text(SWEEP.format(lam=lam))
    for name, extra in (("family", []), ("violating", ["--scale", "3"])):
        paths[name] = root / f"{name}.txt"
        with pytest.MonkeyPatch.context() as mp, \
                pytest.raises(SystemExit) as exc:
            mp.setattr(sys, "argv", [MAKE_FAMILY, "--jmax", "5", *extra,
                                     "--out", str(paths[name])])
            runpy.run_path(MAKE_FAMILY, run_name="__main__")
        assert exc.value.code == 0
    return root, paths


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _case_id(command: str) -> str:
    return "-".join(w.strip("-{}") for w in command.split() if "out" not in w)


def run(command, root, paths):
    """Run one GOLDEN command in process, writing its output file under
    root; returns the digests of (output file, stdout, stderr, exit code)."""
    out = root / "out"
    out.unlink(missing_ok=True)
    argv = command.format(out=out, **paths).split()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        rc = cli.main(argv)
    return (_sha(out.read_bytes()) if out.exists() else None,
            _sha(stdout.getvalue().encode()), _sha(stderr.getvalue().encode()),
            _sha(str(rc).encode()))


@pytest.mark.parametrize("command", sorted(GOLDEN), ids=_case_id)
def test_output_digests(inputs, command):
    got = run(command, *inputs)
    assert got == GOLDEN[command], f"{command!r}: {got!r}"
