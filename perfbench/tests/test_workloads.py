import json
from pathlib import Path

import pytest

import run
import workloads as W


def test_failed_call_and_failed_check_are_recorded_not_raised():
    runner = W.Runner()

    def boom():
        raise ValueError("bad input")

    runner.op("a", 0, boom, lambda r: 1)
    runner.op("b", 0, lambda: 3, lambda r: W.require(r == 4, "wrong output"))
    runner.op("c", 0, lambda: 3, lambda r: r)
    assert [o.ok for o in runner.ops] == [False, False, True]
    assert "bad input" in runner.ops[0].error
    assert "wrong output" in runner.ops[1].error
    assert runner.ops[2].work == 3


def test_wrong_reference_value_fails_the_operation(tmp_path):
    reference = W.load_reference(W.DEFAULT_SEED)
    wrong = dict(reference)
    key = "demos.wrap.ell_final"
    wrong[key] = {"value": 1.01 * reference[key]["value"], "rtol": reference[key]["rtol"]}
    runner = W.Runner(wrong)
    W.Demos(W.DEFAULT_SEED, tmp_path).run_round(runner, 0)
    assert [(o.kind, o.ok) for o in runner.ops] == \
        [("wrap", False), ("pinch", True), ("relax", True)]
    assert key in runner.ops[0].error
    assert max(runner.rel_diffs) == pytest.approx(0.01 / 1.01, rel=1e-6)


def test_references_only_at_default_seed():
    assert W.load_reference(W.DEFAULT_SEED)
    assert W.load_reference(W.DEFAULT_SEED + 1) == {}


def test_benchmark_json_matches_the_reported_metrics():
    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.per_layer_spec()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES) \
        == list(W.WORKLOADS)
