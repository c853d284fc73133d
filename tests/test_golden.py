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
        "b01ff783103143209e2df2755ba4f8f0069b7382d5f40ef77b4863012b24da57",
        EMPTY, EMPTY, RC[0]),
    "ladder-demo --scales 2 --seed 1 --out {out}": (
        "22529a6d52972098e1079c7813f42d5d828af522b116c04e44d9b84d4a64835c",
        EMPTY, EMPTY, RC[0]),
    "ladder-demo --scales 2 --seed 2 --out {out}": (
        "2e837e750b3319c778af8d2c3f584b9c60d6ac1cb29ac53fd050c3532bc5d279",
        EMPTY, EMPTY, RC[0]),
    "ladder-demo --scales 2 --seed 3 --out {out}": (
        "93fee28551bef113b17d942cf5996427d6fedf31bc491b147c4fb1bb06544739",
        EMPTY, EMPTY, RC[0]),
    "ladder-demo --scales 2 --seed 4 --out {out}": (
        "5aef7293bcb88f088c362720267dafc543b323af1f920162ff43f4ec8ada2253",
        EMPTY, EMPTY, RC[0]),
    "ladder-demo --grid 2 --seed 0 --out {out}": (
        "081c4c1469660918b745f3296df6152c0ccb95aa3ddfea9e6f0917c89acdadc9",
        EMPTY, EMPTY, RC[0]),
    "ladder-demo --scales 4 --seed 0 --out {out}": (
        "6149b5abf6429085a2923bc7a3c807e4cc27945de20fd6eedadbada8c918f4fb",
        EMPTY, EMPTY, RC[0]),
    "ladder-demo --scales 4 --seed 2 --out {out}": (
        None,
        EMPTY,
        "e82bb36936562fe3add7953521eef84225c91c17424e439cae1206088b2bfc09",
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
        "64ddf4d6de415b0babadaa5acaedda0df633c7d8cb6f45d8479680490a86586c",
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
