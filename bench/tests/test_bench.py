"""The benchmark's own tests: python3 -m pytest bench/tests

Each workload runs at reduced size (a few operations of one round) through
the same measure/report path as a real run.
"""

import json
import shutil
import subprocess
import sys
import time
from argparse import Namespace
from types import SimpleNamespace

import pytest

import run
import session
import tracing
import workloads
from conftest import BENCH

ROOT = BENCH.parent

# per workload: how many operations of each kind one reduced round keeps
REDUCED = {
    "regions": {"xor2": 1, "shift2:3,3,1": 1, "concat3": 1},
    "chains": {"identity:concat3": 2, "identity:shift2:5,5,2": 1, "search:4a": 1, "joint-search:concat3": 1},
    "prove": {"n5": 2, "n6": 2, "n7": 1},
    "refute": {"n4": 3, "n5": 1, "n6-dic": 1},
}


class Reduced:
    def __init__(self, workload, caps):
        self.workload, self.caps = workload, caps

    def round(self, index):
        kept, ops = {}, []
        for op in self.workload.round(index):
            if kept.get(op.label, 0) < self.caps.get(op.label, 0):
                kept[op.label] = kept.get(op.label, 0) + 1
                ops.append(op)
        return ops


def reduced(name, seed=7):
    return Reduced(workloads.build(name, seed), REDUCED[name])


def dicbound_attributes():
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "dicbound" or name.startswith("dicbound.")
        for attr, value in vars(mod).items()
    }


@pytest.fixture(scope="module")
def declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_reduced_workload_emits_every_metric_and_passes_checks(name, declared, alarm, tmp_path):
    before = dicbound_attributes()
    payload = session.measure(
        reduced(name), seconds=0.01, trace=True, min_ops=0, spans_path=tmp_path / "spans.tsv"
    )
    assert payload["failures"] == []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        args = Namespace(workload=name, seed=7, seconds=1, trace=trace)
        detail, result = run.report(args, [(0.5, 0.4), (0.6, 0.5), (0.7, 0.6)], payload)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        expected = {m["name"]: m["unit"] for m in declared[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
        assert detail["fail_share"] == 0.0 and detail["absent_layers"] == []
    assert payload["detail"]["spans"] > 0
    assert (tmp_path / "spans.tsv").read_text().count("\n") == payload["detail"]["spans"] + 1
    # tracing must leave every dicbound attribute exactly as it found it
    after = dicbound_attributes()
    assert [key for key, value in before.items() if after[key] is not value] == []


def test_layers_exercised_where_the_table_says(alarm):
    layers = session.measure(reduced("prove"), seconds=0.01, trace=True, min_ops=0)["layers"]
    assert layers["prover.prove.calls"] == 1.0
    assert layers["prover.verdict.provable"] == 1.0
    assert layers["prover.linprog.calls"] >= 1.0 and layers["prover.elemental_inequalities.columns"] > 0
    assert layers["entropy.induce_joint.calls"] == 0.0
    layers = session.measure(reduced("refute"), seconds=0.01, trace=True, min_ops=0)["layers"]
    assert layers["prover.verdict.not_provable"] == 1.0
    assert layers["exactlp.solve_feasibility.infeasible"] >= 1.0
    layers = session.measure(reduced("regions"), seconds=0.01, trace=True, min_ops=0)["layers"]
    assert layers["entropy.induce_joint.calls"] > 1.0 and layers["entropy.induce_joint.atoms"] > 0
    assert layers["regions.bound_vector.self_s"] > 0.0
    assert layers["prover.prove.calls"] == 0.0


def test_missing_function_reported_absent(monkeypatch):
    gcs = sys.modules["dicbound.gcs"]
    monkeypatch.delattr(gcs, "enumerate_chains")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["gcs.enumerate_chains"]
    metrics = tracer.layer_metrics({0: 1.0})
    assert metrics["gcs.enumerate_chains.calls"] == 0
    assert set(metrics) | {"trace.untraced_ops_per_s", "trace.traced_ops_per_s", "trace.overhead_share"} == set(
        tracing.metric_units()
    )


def test_timeout_is_a_named_failure(alarm):
    op = workloads.Op("sleepy", lambda: time.sleep(5), lambda result: None)
    record = session.timed(op, 0, cap=0.05)
    assert record.failure.startswith("timeout: sleepy")
    assert record.latency < 1.0


def test_exception_and_wrong_result_are_failures(alarm):
    boom = workloads.Op("boom", lambda: 1 / 0, lambda result: None)
    wrong = workloads.Op("wrong", lambda: 41, lambda result: None if result == 42 else f"got {result}")
    records = [session.timed(boom, 0), session.timed(wrong, 1)]
    session.run_checks(records)
    assert records[0].failure.startswith("error: boom: ZeroDivisionError")
    assert records[1].failure == "wrong: wrong: got 41"


def test_refute_checks_do_not_trust_the_prover():
    op = workloads.build("refute", 3).round(0)[0]
    assert "witness refutes" in op.check(SimpleNamespace(status="Provable"))
    # a true claim: its witness cannot make I(Z1;Z2) negative
    problem, witness = workloads.negated_elemental(4, 0, 1, ())
    positive = type(problem)(problem.variables, (), {m: -c for m, c in problem.target.items()})
    assert "not below zero" in workloads._witness_failure(positive, witness)
    assert workloads._witness_failure(problem, witness) is None


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "regions", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_the_code(declared):
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == tracing.metric_units()
    assert declared["command"] == ["python3", "bench/run.py"]
