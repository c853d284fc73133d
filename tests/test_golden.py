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
        "d4244bcbefe934edbd5bbe6719967dcb6dad41e1b6ed88b0cb8eaf6f43c63c9d",
        EMPTY, EMPTY, RC[0]),
    "ladder-demo --scales 2 --seed 1 --out {out}": (
        "60fe1e2ba9011904725275f56792bdf5a66ae5f735ef0aa912337aae0c8fdcd2",
        EMPTY, EMPTY, RC[0]),
    "ladder-demo --scales 2 --seed 2 --out {out}": (
        "0b1929769b012d4cda6b279f117174aefbbc099f6ecfdfb2761d119ee3b7cd9e",
        EMPTY, EMPTY, RC[0]),
    "ladder-demo --scales 2 --seed 3 --out {out}": (
        "debab6b3e3ea8a2edde9d1f745610152abba4d32788967286ea71cdd86c9a528",
        EMPTY, EMPTY, RC[0]),
    "ladder-demo --scales 2 --seed 4 --out {out}": (
        "469346b9e3f13b47e740ed728f053a3e3533e78a036cb24cfd9b9546d16455a5",
        EMPTY, EMPTY, RC[0]),
    "ladder-demo --scales 3 --grid 3 --seed 0 --out {out}": (
        "dcc9a1873167eef93ab24948348ade73577078891ff06cdf3c31a17dbd4efe81",
        EMPTY, EMPTY, RC[0]),
    "ladder-demo --grid 2 --seed 0 --out {out}": (
        "17e0bbceeb32a2be32c67cf2c1eb7ac4099104951e911f257463fe8b7531bcdc",
        EMPTY, EMPTY, RC[0]),
    "ladder-demo --scales 4 --seed 0 --out {out}": (
        "386a2fc62fd11080e6069b98cb471d71c6aaa7aac882b7ba8ddf5743edc9e826",
        EMPTY, EMPTY, RC[0]),
    "ladder-demo --scales 4 --seed 3 --out {out}": (
        "6cfa12f2ac245e7b6d4c977e0dc3f11aedf025f99b6d3788e36dc8915cabe539",
        EMPTY, EMPTY, RC[0]),
    "ladder-demo --scales 4 --seed 2 --out {out}": (
        "87221e849fefdc053fdbd7fbcb05d6c94ca28c93b3808ef7609548493fd533ab",
        EMPTY, EMPTY, RC[0]),
    "ladder-demo --scales 4 --seed 7 --out {out}": (
        None,
        EMPTY,
        "bb1a1bf3e3792ee1365cf1db6c4088ce79f2348eabdc3d27fa724b894dcb8b35",
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
        "74a7de6cd4f33064c0bd39f93151015f1ed6f5d4ff42c4e86a4a11c8749a5f37",
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
