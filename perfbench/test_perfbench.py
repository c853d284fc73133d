"""Tests of the benchmark itself:  python3 -m pytest perfbench -q

Each workload runs at a tiny size (constants patched in the parent; the
kernel-algebra op is small already); the file takes about two minutes on two
cores.
"""
import json
import os
import sys

import pytest

import run
import tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run, "NPOINTS", 4)
    monkeypatch.setattr(run, "LADDER_SCALES", 1)
    monkeypatch.setattr(run, "JMAX", 3)


def _result(capsys, *argv):
    rc = run.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    return json.loads(lines[-1]), lines


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_lists_what_the_run_reports():
    bench = _benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == run.per_layer_metrics()


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_metric_appears_with_its_unit(tiny, capsys, workload):
    bench = _benchmark_json()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, _ = _result(capsys, "--workload", workload, "--seed", "3",
                            "--seconds", "0", "--trace", str(trace))
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= run.MIN_OPS
        assert {n: m["unit"] for n, m in result["metrics"].items()} \
            == {m["name"]: m["unit"] for m in bench[key]}
        assert all(m["value"] > 0 for n, m in result["metrics"].items()
                   if key == "end_to_end")


def test_traced_counters(tiny, capsys):
    result, _ = _result(capsys, "--workload", "fermi-sweep", "--seed", "0",
                        "--seconds", "0", "--trace", "1")
    m = {n: v["value"] for n, v in result["metrics"].items()}
    assert m["occupation.jump_at.calls"] == 4
    assert m["occupation.occupation_limit.per_point"] == 8
    assert m["occupation.quad.per_point"] == 32
    assert m["occupation.occupation_limit.unique_ratio"] == 0.75
    assert m["ladders.compose.calls"] == 0
    result, _ = _result(capsys, "--workload", "budget-resum", "--seed", "0",
                        "--seconds", "0", "--trace", "1")
    m = {n: v["value"] for n, v in result["metrics"].items()}
    assert m["selfenergy.gradient.per_member"] == 15
    assert m["selfenergy.check_q_budget.calls"] == 2
    assert m["occupation.quad.calls"] == 0


def test_traced_ladder_counts_at_full_size(capsys):
    result, _ = _result(capsys, "--workload", "ladder-telescope", "--seed", "0",
                        "--seconds", "0", "--trace", "1")
    m = {n: v["value"] for n, v in result["metrics"].items()}
    assert m["ladders.compose.calls"] == 40
    assert m["ladders.delta_ladder_telescope.calls"] == 1
    assert 0 < m["ladders.compose.unique_ratio"] < 1
    assert m["occupation.occupation_limit.calls"] == 0


class _ExpectsWrongCode(run.KernelAlgebra):
    def commands(self, op_dir):
        return [run.Command(c.args, 1) for c in super().commands(op_dir)]


class _TamperedOutput(run.KernelAlgebra):
    def check(self, op_dir):
        path = os.path.join(op_dir, "kernels.json")
        with open(path, encoding="utf-8") as fh:
            r = json.load(fh)
        r["reconstruction"] = 1e-3
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(r, fh)
        return super().check(op_dir)


class _ChangedBytes(run.KernelAlgebra):
    ops = 0

    def check(self, op_dir):
        self.ops += 1
        if self.ops > 1:  # valid output, but not the first op's bytes
            with open(os.path.join(op_dir, "kernels.json"), "a") as fh:
                fh.write(" ")
        return super().check(op_dir)


@pytest.mark.parametrize("cls,first_fails", [(_ExpectsWrongCode, True),
                                             (_TamperedOutput, True),
                                             (_ChangedBytes, False)])
def test_failures_are_counted(monkeypatch, capsys, cls, first_fails):
    monkeypatch.setitem(run.WORKLOADS, "kernel-algebra", cls)
    result, lines = _result(capsys, "--workload", "kernel-algebra", "--seed",
                            "1", "--seconds", "0", "--trace", "0")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] - (0 if first_fails else 1)
    assert any("FAILED" in line for line in lines)


def test_every_wrapped_name_resolves():
    for module, qual in tracer.SPANS:
        assert callable(tracer.resolve(module, qual)[2])
    for module, qual, _ in tracer.COUNTED:
        assert callable(tracer.resolve(module, qual)[2])
    assert callable(tracer.resolve(*tracer.MODEL_FACTORY)[2])
    with pytest.raises(AttributeError):
        tracer.resolve("fermi2d.ladders", "compose_renamed")
    with pytest.raises(AttributeError):
        tracer.resolve("fermi2d.ladders", "LadderScheme.renamed")


def test_no_result_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    rc = run.main(["--workload", "fermi-sweep", "--seed", "0",
                   "--seconds", "1", "--trace", "0"])
    assert rc != 0
    assert capsys.readouterr().out == ""
