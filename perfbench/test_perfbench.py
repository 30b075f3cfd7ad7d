"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

Smoke runs go through the command line, as a benchmark run does;
the other tests call the workload modules directly.
"""
from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import (CHECKED, END, ERROR, NAME, OP, PARENT, REFUTED, START,  # noqa: E402
                   Api, layer_metrics, per_layer_names)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _in_checkout(monkeypatch):
    # the workloads read tests/corpus relative to the checkout root
    monkeypatch.chdir(ROOT)
    (ROOT / ".perfbench").mkdir(exist_ok=True)


# a layer each workload calls in its first few ops
TOUCHED = {"set-certify": "limits", "tabulated": "kan", "cli-corpus": "cli"}


def _run(workload: str, trace: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(run.DEFAULT_SEED), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    result = _run(workload, trace, 2.0 if trace else 0.5)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if trace:
        assert values[f"{TOUCHED[workload]}.calls"] > 0
        assert values[f"{TOUCHED[workload]}.busy_s"] > 0
        assert values["trace.overhead_ratio"] > 0
    else:
        assert all(v > 0 for v in values.values())


def test_declared_names_match_the_program():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == per_layer_names()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def _canonical(value):
    """Specs as comparable plain data; fincat values by their structural key."""
    if hasattr(value, "key"):
        return value.key()
    if isinstance(value, dict):
        return tuple(sorted((k, _canonical(v)) for k, v in value.items() if k != "env"))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    return value


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_seed_fixes_the_inputs(workload):
    module = __import__(run.WORKLOADS[workload])
    first = _canonical(module.make_specs(Api(), 7))
    assert first == _canonical(module.make_specs(Api(), 7))
    assert first != _canonical(module.make_specs(Api(), 8))


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_corrupted_expectation_fails_ops(workload):
    api = Api()
    wl = run.Workload(workload, run.DEFAULT_SEED, api)
    assert wl.expected is not None and len(wl.expected) == len(wl.specs)
    (clean,), _ = run.timed_loop(wl, 0.2, (api,))
    assert clean.failed == 0
    wl.expected = copy.deepcopy(wl.expected)
    wl.expected[0]["checked"] = (wl.expected[0]["checked"] or 0) + 1
    (tally,), _ = run.timed_loop(wl, 0.2, (api,))
    assert tally.failed / tally.attempted > 0


@pytest.mark.parametrize("workload", ["tabulated", "cli-corpus"])
def test_fixed_outcomes_are_checked_at_any_seed(workload):
    api = Api()
    wl = run.Workload(workload, 7, api)
    assert wl.expected is None
    r = next(r for r, spec in enumerate(wl.specs) if "fixed" in spec)
    wl.run(api, r)
    key = wl.specs[r]["fixed"]
    wl.fixed = {**wl.fixed, key: {**wl.fixed[key], "verdict": "corrupted"}}
    with pytest.raises(run.OutcomeMismatch):
        wl.run(api, r)
    wl.fixed = {}
    with pytest.raises(run.OutcomeMismatch):
        wl.run(api, r)


def test_setup_time_is_the_sum_of_fastest_steps():
    assert run.best_setup([[1.0, 3.0, 2.0], [2.0, 1.0, 2.5]]) == 4.0
    with pytest.raises(RuntimeError):
        run.best_setup([[1.0, 2.0], [1.0]])


def test_recipes_of_one_identity_share_their_fastest_time():
    class Stub:
        specs = [{"fixed": "a"}, {}, {"fixed": "a"}, {}]
        identity = run.Workload.identity

    tally = run.Tally()
    tally.best = {"a": 0.001, 1: 0.002}
    assert run.recipe_times(Stub(), tally) == [1.0, 1.0, 2.0]


def _span(name, start, end, parent=-1, op=0, checked=0, refuted=False, error=False):
    span = [None] * 8
    span[NAME], span[START], span[END], span[PARENT] = name, start, end, parent
    span[OP], span[CHECKED], span[REFUTED], span[ERROR] = op, checked, refuted, error
    return span


def test_layer_metrics_from_spans():
    spans = [
        _span("finset.materialize", 0.0, 4.0),
        _span("core.validate_category", 1.0, 2.0, parent=0),
        _span("limits.limit", 4.0, 5.0, checked=7),
        _span("limits.limit", 5.0, 5.5, refuted=True),
        _span("kan.density_check", 6.0, 7.0, error=True),
        _span("randgen.random_set_diagram", -2.0, -1.0, op=-1),
        _span("limits.limit_finset", -1.0, -0.5, op=-1),   # set-up: not a layer metric
    ]
    m = layer_metrics(spans)
    assert m["finset.busy_s"] == 4.0 and m["finset.self_s"] == 3.0
    assert m["finset.materialize.calls"] == 1 and m["core.busy_s"] == 1.0
    assert m["limits.calls"] == 2 and m["limits.busy_s"] == 1.5
    assert m["limits.checked"] == 7 and m["limits.refuted"] == 1
    assert m["limits.limit_finset.calls"] == 0
    assert m["kan.errors"] == 1 and m["randgen.busy_s"] == 1.0
