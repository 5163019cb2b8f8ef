"""Tests of the benchmark's own code: spans, wrapper restoration, counts.

Run from the repository root:
    python3 -m pytest perfbench/tests -q
"""

import json
from pathlib import Path

import pytest

import run
import spans
import worker

ROOT = Path(__file__).resolve().parents[2]


def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_is_duration_minus_child_spans():
    rec = spans.Recorder(clock=_fake_clock([0, 10, 30, 40, 45, 100]))
    with rec.span("outer"):
        with rec.span("child"):
            pass
        with rec.span("other"):
            pass
    assert rec.total_ns == {"outer": 100, "child": 20, "other": 5}
    assert rec.self_ns == {"outer": 75, "child": 20, "other": 5}
    assert rec.top_level_ns == 100
    assert rec.calls == {"outer": 1, "child": 1, "other": 1}


def test_nested_span_of_same_name_counts_once_in_total():
    rec = spans.Recorder(clock=_fake_clock([0, 10, 30, 50]))
    with rec.span("a"):
        with rec.span("a"):
            pass
    assert rec.total_ns["a"] == 50
    assert rec.self_ns["a"] == 50
    assert rec.calls["a"] == 2


def test_counted_calls_land_in_the_parent_self_time(monkeypatch):
    import bondlab.portfolio as portfolio

    rec = spans.Recorder()
    probes = (
        spans.Probe("outer", (("bondlab.portfolio", "value"),)),
        spans.Probe("pair", (("bondlab.portfolio", "pair"),), timed=False),
    )
    monkeypatch.setattr(portfolio, "value", lambda atoms, p, s: portfolio.pair(atoms, p, s))
    monkeypatch.setattr(portfolio, "pair", lambda atoms, p, s: 1.0)
    with spans.traced(rec, probes) as missing:
        assert portfolio.value([], None, None) == 1.0
    assert missing == []
    assert rec.calls == {"outer": 1, "pair": 1}
    assert set(rec.total_ns) == {"outer"}
    assert rec.self_ns["outer"] == rec.total_ns["outer"]


def _bindings():
    out = {}
    for probe in spans.PROBES:
        for module, path in probe.bindings:
            found = spans._resolve(module, path)
            assert found is not None, f"{module}:{path} not found"
            out[(module, path)] = found[2]
    return out


def test_wrappers_are_removed_after_a_traced_run():
    before = _bindings()
    with spans.traced(spans.Recorder()) as missing:
        assert missing == []
        assert len(spans.wrapped_bindings()) == len(before)
    assert spans.wrapped_bindings() == []
    assert _bindings() == before
    with pytest.raises(RuntimeError):
        with spans.traced(spans.Recorder()):
            raise RuntimeError("run failed")
    assert _bindings() == before


def test_missing_bindings_are_reported_not_fatal():
    probe = spans.Probe("gone", (("bondlab.portfolio", "no_such_fn"), ("bondlab.no_such_mod", "f")))
    with spans.traced(spans.Recorder(), (probe,)) as missing:
        assert missing == ["bondlab.portfolio:no_such_fn", "bondlab.no_such_mod:f"]


COUNTS = [k for k, u in spans.layer_units().items() if u == "count"]


@pytest.mark.parametrize(
    "name, paths, expected",
    [
        ("ensemble_q10k", 200, {"kernels.step_calls": 256, "dynamics.simulate_calls": 1}),
        # pairings: claim strategy 769 (deterministic) plus 769 per path for the hedge
        ("cli_hedge", 16, {"portfolio.pair_calls": 769 * 17, "hedging.pinv_calls": 256}),
        # optimal plan: value path, two gains legs and the value_path audit per path
        ("cli_plan", 16, {"portfolio.pair_calls": 1026 * 16, "optimizer.plan_calls": 4}),
    ],
)
def test_counts_repeat_exactly_across_traced_runs(tmp_path, name, paths, expected):
    runs = [
        worker.run_workload(name, 5, tmp_path / str(i), trace=True, paths=paths) for i in (0, 1)
    ]
    for r in runs:
        assert r["ok"], r["checks"]
        assert r["missing"] == []
        for key, value in expected.items():
            assert r["layers"][key] == value
    assert {k: runs[0]["layers"][k] for k in COUNTS} == {k: runs[1]["layers"][k] for k in COUNTS}
    assert spans.wrapped_bindings() == []


def test_failed_output_check_marks_the_run_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "Z_MAX", 0.0)
    r = worker.run_workload("ensemble_q10k", 5, tmp_path, paths=100)
    assert not r["ok"]
    assert r["failed_checks"] == ["max_abs_z"]


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.layer_units()
