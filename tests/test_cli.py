"""End-to-end tests of the command-line harness.

Each test drives bondlab.cli.main in process with a small scenario file and
inspects the emitted artifacts. Scenarios are seeded, so every numeric
assertion is replay-stable.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bondlab import kernels
from bondlab.cli import _initial_curve, _path_mean, _resolve_scenario, _write_csv, main
from bondlab.curve_space import MaturityGrid
from bondlab.dynamics import flat_forward_curve
from conftest import csv_text, slice_mean, slice_mean_se


def _scenario(**over) -> dict:
    scn = {
        "grid": {"x_max": 3.0, "n_points": 97},
        "sobolev_order": 1,
        "horizon": 0.5,
        "steps": 32,
        "paths": 48,
        "detail_paths": 8,
        "seed": 7,
        "initial_curve": {"kind": "flat_forward", "rate": 0.05},
        "volatility": {"factors": [{"kind": "humped", "scale": 0.01, "decay": 1.0}]},
        "drift": {"kind": "arbitrage_free", "gamma": [0.2]},
        "report_maturities": [0.25, 1.0],
        "rollover_maturity": 0.5,
    }
    scn.update(over)
    return scn


def _run(tmp_path: Path, verb: str, scn: dict, *extra: str, name="scn.json", out="out"):
    scn_path = tmp_path / name
    scn_path.write_text(json.dumps(scn))
    out_dir = tmp_path / out
    rc = main([verb, "--scenario", str(scn_path), "--out", str(out_dir), *extra])
    return rc, out_dir, scn_path


def _read_table(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _payload(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_simulate_emits_artifacts_with_verified_hashes(tmp_path):
    rc, out, scn_path = _run(tmp_path, "simulate", _scenario())
    assert rc == 0
    expected = {
        "resolved_scenario.json",
        "schema.json",
        "metadata.json",
        "summary.json",
        "curves.csv",
        "terminal_curves.csv",
        "rates.csv",
        "rollover.csv",
        "moments.json",
    }
    assert {p.name for p in out.iterdir()} == expected
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["scenario_sha256"] == hashlib.sha256(scn_path.read_bytes()).hexdigest()
    assert meta["command"] == "simulate"
    assert meta["kernel_flags"] == kernels.kernel_flags()
    assert meta["backend"] == "compiled"
    assert set(meta["artifacts"]) == expected - {"metadata.json"}
    for fname, digest in meta["artifacts"].items():
        assert hashlib.sha256((out / fname).read_bytes()).hexdigest() == digest
    schema = json.loads((out / "schema.json").read_text())
    for fname in ("curves.csv", "terminal_curves.csv", "rates.csv", "rollover.csv"):
        header, _ = _read_table(out / fname)
        assert header == schema[fname]["columns"]


def test_resolved_scenario_makes_defaults_and_overrides_explicit(tmp_path):
    rc, out, _ = _run(
        tmp_path, "simulate", _scenario(), "--seed", "11", "--paths", "16", "--steps", "8"
    )
    assert rc == 0
    scn = json.loads((out / "resolved_scenario.json").read_text())
    assert (scn["seed"], scn["paths"], scn["steps"]) == (11, 16, 8)
    for key in ("utility", "comparison_utilities", "claim", "hedge", "hjb", "detail_paths"):
        assert key in scn
    assert scn["detail_paths"] <= 16
    meta = json.loads((out / "metadata.json").read_text())
    assert (meta["seed"], meta["paths"], meta["steps"]) == (11, 16, 8)
    _, rows = _read_table(out / "terminal_curves.csv")
    assert len(rows) == 16 * 2
    _, rows = _read_table(out / "curves.csv")
    assert len(rows) == (8 + 1) * 2


_UTILITY_SPECS = st.one_of(
    st.builds(lambda b: {"family": "log", "budget": b}, st.floats(0.5, 5.0)),
    st.builds(
        lambda family, mu: {"family": family, "mu": mu},
        st.sampled_from(["power", "exponential", "quadratic"]),
        st.floats(0.1, 0.9),
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    raw=st.fixed_dictionaries(
        {},
        optional={
            "seed": st.integers(0, 2**31),
            "paths": st.integers(1, 4096),
            "steps": st.integers(1, 512),
            "detail_paths": st.integers(1, 4096),
            "measure": st.sampled_from(["P", "Q"]),
            "rollover_maturity": st.floats(0.1, 2.0),
            "utility": _UTILITY_SPECS,
            "hedge": st.fixed_dictionaries(
                {}, optional={"eps_rank": st.floats(1e-14, 1e-6), "weight_order": st.floats(0.0, 3.0)}
            ),
            "hjb": st.fixed_dictionaries(
                {}, optional={"n_t": st.integers(10, 800), "w_min": st.floats(0.1, 1.0)}
            ),
        },
    ),
    overrides=st.fixed_dictionaries(
        {key: st.none() | st.integers(1, 64) for key in ("seed", "paths", "steps")}
    ),
)
def test_resolve_scenario_is_idempotent_on_its_output(raw, overrides):
    # what resolved_scenario.json holds resolves to itself, overrides included
    resolved = json.loads(json.dumps(_resolve_scenario(raw, overrides)))
    again = json.loads(json.dumps(_resolve_scenario(json.loads(json.dumps(resolved)), {})))
    assert again == resolved


def test_fixed_order_reruns_are_byte_identical(tmp_path):
    rc_a, out_a, _ = _run(tmp_path, "simulate", _scenario(), "--fixed-order", out="a")
    rc_b, out_b, _ = _run(tmp_path, "simulate", _scenario(), "--fixed-order", out="b")
    assert rc_a == 0 and rc_b == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    for fname in names:
        assert (out_a / fname).read_bytes() == (out_b / fname).read_bytes(), fname
    assert json.loads((out_a / "metadata.json").read_text())["fixed_order"] is True


def test_seed_changes_the_sample_and_overrides_match_explicit_seeds(tmp_path):
    _, out_a, _ = _run(tmp_path, "simulate", _scenario(), out="a", name="a.json")
    _, out_b, _ = _run(tmp_path, "simulate", _scenario(seed=8), out="b", name="b.json")
    assert (out_a / "curves.csv").read_bytes() != (out_b / "curves.csv").read_bytes()
    # --seed 8 over the seed-7 scenario reproduces the explicit seed-8 run
    _, out_c, _ = _run(tmp_path, "simulate", _scenario(), "--seed", "8", out="c", name="c.json")
    assert (out_b / "curves.csv").read_bytes() == (out_c / "curves.csv").read_bytes()


def test_standard_error_shrinks_with_path_count(tmp_path):
    _, out_a, _ = _run(tmp_path, "simulate", _scenario(paths=48), out="a")
    _, out_b, _ = _run(tmp_path, "simulate", _scenario(paths=192), out="b", name="b.json")
    header, rows_a = _read_table(out_a / "curves.csv")
    _, rows_b = _read_table(out_b / "curves.csv")
    i_se = header.index("se_p")
    se_a = float(rows_a[-1][i_se])
    se_b = float(rows_b[-1][i_se])
    assert se_a > 0.0 and se_b > 0.0
    # quadrupling the paths halves the standard error
    assert 0.35 <= se_b / se_a <= 0.65


def test_zero_volatility_run_reproduces_curve_translation(tmp_path):
    n = 129
    scn = _scenario(
        grid={"x_max": 2.0, "n_points": n},
        steps=32,
        paths=4,
        detail_paths=2,
        volatility={"factors": [{"kind": "samples", "values": [0.0] * n, "constant": 0.0}]},
        drift={"kind": "zero"},
    )
    rc, out, _ = _run(tmp_path, "simulate", scn)
    assert rc == 0
    header, rows = _read_table(out / "curves.csv")
    cols = [header.index(c) for c in ("t", "x", "mean_p", "se_p")]
    # dt equals dx, so each step is an exact index translation of the curve
    for row in rows:
        t, x, p, se = (float(row[j]) for j in cols)
        assert abs(p - math.exp(-0.05 * (t + x))) <= 5e-13
        assert se == 0.0


def test_simulate_writes_strategy_ledgers(tmp_path):
    scn = _scenario(
        strategies=[
            {"kind": "zero_coupon", "maturity": 1.5, "weight": 1.0},
            [{"kind": "cash", "weight": 0.5}, {"kind": "rollover", "maturity": 0.5, "weight": 0.5}],
        ]
    )
    rc, out, _ = _run(tmp_path, "simulate", scn)
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["ledgers"]) == {"ledger_0", "ledger_1"}
    for i in (0, 1):
        header, rows = _read_table(out / f"ledger_{i}.csv")
        assert header == ["path", "t", "V", "G", "residual"]
        # one block of n_steps + 1 rows per detail path
        assert len(rows) == 8 * 33
        worst = max(float(r[4]) for r in rows)
        assert worst <= summary["ledgers"][f"ledger_{i}"]["max_residual"] + 1e-15


def test_hedge_constant_claim_replicates_exactly(tmp_path):
    scn = _scenario(claim={"kind": "constant", "value": 1.0})
    rc, out, _ = _run(tmp_path, "hedge", scn)
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["claim"] == "constant"
    assert summary["rms_propagation_error"] == 0.0
    assert summary["max_gram_residual"] <= 1e-15
    header, rows = _read_table(out / "replication.csv")
    i_err = header.index("error")
    assert max(abs(float(r[i_err])) for r in rows) == 0.0
    header, rows = _read_table(out / "hedge_report.csv")
    assert header == ["t", "residual", "cash", "w_0", "w_1", "w_2"]
    for col, name in enumerate(header):
        if name.startswith("w_"):
            assert max(abs(float(r[col])) for r in rows) == 0.0
    # the cash-only roll still carries the usual O(dt) ledger defect
    assert summary["rms_replication_error"] <= 10.0 * 0.5 / 32


def test_hedge_zero_coupon_rms_error_decreases_with_steps(tmp_path):
    claim = {"kind": "strategy_terminal", "strategy": {"kind": "zero_coupon", "maturity": 2.0}}
    summaries = {}
    # refine dt and dx together: with dt = dx the shift kernel translates
    # exactly and no fixed interpolation floor masks the O(dt) ledger error
    for steps, n_points, tag in ((16, 97, "a"), (64, 385, "b")):
        scn = _scenario(
            steps=steps, paths=32, claim=claim, grid={"x_max": 3.0, "n_points": n_points}
        )
        rc, out, _ = _run(tmp_path, "hedge", scn, out=tag, name=f"s{steps}.json")
        assert rc == 0
        summaries[steps] = json.loads((out / "summary.json").read_text())
    for summary in summaries.values():
        assert summary["rms_replication_error"] <= 2.0 * summary["claim_reference_residual"]
        assert summary["max_gram_residual"] <= 1e-8
    assert (
        summaries[64]["rms_replication_error"]
        < 0.75 * summaries[16]["rms_replication_error"]
    )


def test_hedge_out_of_range_claim_emits_structured_numerical_error(tmp_path, capsys):
    # eps_rank > 1 retains no spectrum, so any nonzero target is unattainable
    rc, out, _ = _run(tmp_path, "hedge", _scenario(hedge={"eps_rank": 2.0}))
    assert rc == 3
    payload = _payload(capsys)
    assert payload["error"] == "OutOfRange"
    assert payload["exit_code"] == 3
    assert "residual" in payload["message"]
    assert json.loads((out / "error.json").read_text()) == payload


def test_linalg_failure_in_hedge_exits_as_numerical_failure(tmp_path, capsys, monkeypatch):
    import numpy as np

    def broken_eigh(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", broken_eigh)
    rc, out, _ = _run(tmp_path, "hedge", _scenario())
    assert rc == 3
    payload = _payload(capsys)
    assert payload["exit_code"] == 3
    assert "LinAlgError" in payload["message"]
    assert json.loads((out / "error.json").read_text()) == payload


def test_error_payload_carries_step_and_path_of_a_degenerate_curve(
    tmp_path, capsys, monkeypatch
):
    import bondlab.cli as cli
    from bondlab.errors import DegenerateCurve

    def degenerate(*args, **kwargs):
        raise DegenerateCurve("curve non-positive or NaN at x = 0", step=3, path=7)

    monkeypatch.setattr(cli, "simulate_mild", degenerate)
    rc, out, _ = _run(tmp_path, "simulate", _scenario())
    assert rc == 3
    payload = _payload(capsys)
    assert payload["error"] == "DegenerateCurve"
    assert (payload["step"], payload["path"]) == (3, 7)
    assert json.loads((out / "error.json").read_text()) == payload


def test_program_error_inside_a_verb_exits_as_internal_error(tmp_path, capsys, monkeypatch):
    import bondlab.cli as cli

    def broken(*args, **kwargs):
        raise KeyError("missing_column")

    monkeypatch.setattr(cli, "boundary_residual", broken)
    rc, out, _ = _run(tmp_path, "simulate", _scenario())
    assert rc == 4
    captured = capsys.readouterr()
    payload = json.loads(captured.out.strip().splitlines()[-1])
    assert payload["error"] == "KeyError"
    assert payload["exit_code"] == 4
    assert "missing_column" in payload["message"]
    assert "Traceback" in captured.err and "broken" in captured.err
    assert json.loads((out / "error.json").read_text()) == payload


@pytest.mark.parametrize("numpy_like", [False, True])
def test_allocation_failure_exits_as_resources_exhausted(tmp_path, capsys, monkeypatch, numpy_like):
    import bondlab.cli as cli
    import numpy as np

    class ArrayMemoryError(MemoryError):
        """Stands in for numpy's allocation error, which names the array."""

        shape = (8192, 257, 513)
        dtype = np.dtype(np.float64)

    def exhausted(*args, **kwargs):
        if numpy_like:
            raise ArrayMemoryError("Unable to allocate 8.05 GiB")
        raise MemoryError()

    monkeypatch.setattr(cli, "simulate_mild", exhausted)
    rc, out, _ = _run(tmp_path, "hedge", _scenario())
    assert rc == 5
    payload = _payload(capsys)
    assert payload["exit_code"] == 5
    if numpy_like:
        assert payload["shape"] == [8192, 257, 513]
        assert payload["bytes"] == 8192 * 257 * 513 * 8
    else:
        assert "shape" not in payload and "bytes" not in payload
    assert json.loads((out / "error.json").read_text()) == payload


def test_a_node_the_request_missed_exits_as_internal_error(tmp_path, capsys, monkeypatch):
    import bondlab.cli as cli

    request_of = cli.node_request

    def without_hedge_atoms(grid, times, reads):
        return request_of(grid, times, reads[:1])  # cash only

    monkeypatch.setattr(cli, "node_request", without_hedge_atoms)
    rc, out, _ = _run(tmp_path, "hedge", _scenario())
    assert rc == 4
    payload = _payload(capsys)
    assert payload["error"] == "NodeNotRecorded"
    assert payload["step"] == 0 and isinstance(payload["node"], int)
    assert json.loads((out / "error.json").read_text()) == payload


def test_hedge_retains_the_same_few_columns_at_every_grid_size(tmp_path, monkeypatch):
    import bondlab.cli as cli

    runs = []
    simulate = cli.simulate_mild

    def recorded(*args, **kwargs):
        runs.append(simulate(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(cli, "simulate_mild", recorded)
    counts = []
    for n_points in (257, 513, 1025):
        scn = {"grid": {"x_max": 4.0, "n_points": n_points}, "paths": 6, "steps": 32}
        rc, _, _ = _run(tmp_path, "hedge", scn, out=f"out_{n_points}")
        assert rc == 0
        path = runs[-1]
        K, P, C = path.states.shape[0] - 1, path.n_paths, path.states.shape[2]
        assert path.states.nbytes == (K + 1) * P * C * 8
        counts.append([np.unique(row).size for row in path.nodes])
    assert len(runs) == 3
    # cash, the claim's zero-coupon at 2 - t and the three hedge atoms: two
    # nodes each, fewer where the zero-coupon passes a hedge atom
    assert counts[0] == counts[1] == counts[2]
    assert max(counts[0]) == 10


@pytest.mark.parametrize(
    "budget, error, code", [(-1.0, "BudgetInfeasible", 2), (1.0, "ConditionCFails", 3)]
)
def test_optimize_keeps_the_primary_plan_error_when_condition_c_fails(
    tmp_path, capsys, budget, error, code
):
    # sigma(0) = 0: an atom at 0 cannot carry the market price of risk
    scn = _scenario(condition_c_maturities=[0.0], utility={"family": "log", "budget": budget})
    rc, _, _ = _run(tmp_path, "optimize", scn)
    assert rc == code
    assert _payload(capsys)["error"] == error


def test_import_does_not_load_scipy_optimize():
    code = "import sys, bondlab.cli; assert 'scipy.optimize' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_malformed_scenario_entries_read_by_verbs_stay_validation_errors(tmp_path, capsys):
    cases = [
        ("simulate", _scenario(initial_curve={"kind": "flat_forward"})),  # no rate
        ("simulate", _scenario(rollover_maturity="soon")),
        ("simulate", _scenario(strategies=[{"kind": "zero_coupon"}])),  # no maturity
        ("hedge", _scenario(hedge={"eps_rank": "small"})),
        ("hjb", _scenario(hjb={"n_t": "many"})),
        # entries that should be JSON objects but are not
        ("hedge", _scenario(initial_curve=5)),
        ("hedge", _scenario(claim=5)),
        ("hedge", _scenario(volatility={"factors": [3]})),
    ]
    for verb, scn in cases:
        rc, _, _ = _run(tmp_path, verb, scn)
        assert rc == 2, (verb, scn)
        assert _payload(capsys)["error"] == "ConfigInvalid"


def test_optimize_solves_condition_c_once_for_all_families(tmp_path, monkeypatch):
    import bondlab.optimizer as optimizer

    calls = []
    solve = optimizer.condition_C_portfolio

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(optimizer, "condition_C_portfolio", counted)
    rc, out, _ = _run(tmp_path, "optimize", _scenario())
    assert rc == 0
    _, rows = _read_table(out / "comparison.csv")
    assert len(rows) == 4 and all(row[2] == "ok" for row in rows)
    assert len(calls) == 1


@pytest.mark.parametrize("verb", ["hedge", "optimize"])
def test_each_strategy_is_paired_once_per_verb(tmp_path, monkeypatch, verb):
    import bondlab.cli as cli
    import bondlab.hedging as hedging
    import bondlab.portfolio as portfolio

    calls = []
    pair = portfolio.pairings

    def counted(strategy, path, schedule=None):
        calls.append((strategy.name, schedule is not None))
        return pair(strategy, path, schedule)

    # the verbs pair directly, through portfolio.ledger and through the hedging module
    for module in (cli, hedging, portfolio):
        monkeypatch.setattr(module, "pairings", counted)
    rc, _, _ = _run(tmp_path, verb, _scenario())
    assert rc == 0
    names = [name for name, _ in calls]
    assert len(names) == len(set(names)), calls
    if verb == "hedge":  # the claim, then the completed hedge
        assert calls == [("zero_coupon 2.0", True), ("completed_hedge", True)]
    else:  # the primary log plan with the schedule, the other plans without
        assert calls[0] == ("optimal_log", True) and len(calls) == 4
        assert not any(with_schedule for _, with_schedule in calls[1:])


def test_hedge_rejects_q_measure_scenarios(tmp_path, capsys):
    rc, _, _ = _run(tmp_path, "hedge", _scenario(measure="Q"))
    assert rc == 2
    payload = _payload(capsys)
    assert payload["error"] == "ConfigInvalid"
    assert payload["exit_code"] == 2


def test_unknown_scenario_key_fails_validation_with_payload(tmp_path, capsys):
    rc, out, _ = _run(tmp_path, "simulate", _scenario(bogus=1))
    assert rc == 2
    payload = _payload(capsys)
    assert payload["error"] == "ConfigInvalid"
    assert "bogus" in payload["message"]
    assert json.loads((out / "error.json").read_text()) == payload


def test_missing_and_malformed_scenarios_fail_validation(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["simulate", "--scenario", str(tmp_path / "absent.json"), "--out", str(out)])
    assert rc == 2
    payload = _payload(capsys)
    assert payload["error"] == "ValidationFailure"
    assert "not found" in payload["message"]
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["simulate", "--scenario", str(bad), "--out", str(out)])
    assert rc == 2
    assert "not valid JSON" in _payload(capsys)["message"]


def test_optimize_reports_log_plan_and_closed_form_calibrations(tmp_path):
    rc, out, _ = _run(tmp_path, "optimize", _scenario())
    assert rc == 0
    names = {p.name for p in out.iterdir()}
    assert {
        "plan.json",
        "comparison.csv",
        "coefficients.csv",
        "mutual_fund.csv",
        "ledger_optimal.csv",
        "summary.json",
    } <= names
    plan = json.loads((out / "plan.json").read_text())
    assert plan["family"] == "log"
    assert abs(plan["lambda_hat"] - 1.0) <= 1e-14
    assert plan["sign_flag"] is False
    assert plan["identity_residual"] <= 1e-9
    header, rows = _read_table(out / "comparison.csv")
    by_family = {row[0]: row for row in rows}
    assert set(by_family) == {"log", "power", "exponential", "quadratic"}
    assert all(row[header.index("status")] == "ok" for row in rows)
    lam_q = float(by_family["quadratic"][header.index("lambda_hat")])
    exact = 2.0 * math.exp(-0.04 * 0.5)
    assert abs(lam_q - exact) <= 1e-10 * exact
    header, rows = _read_table(out / "coefficients.csv")
    assert abs(float(rows[0][header.index("mean_Y")]) - 1.0) <= 1e-12
    fund = json.loads((out / "summary.json").read_text())["mutual_fund"]
    assert fund["max_sv_ratio"] <= 1e-8
    for entry in fund.values():
        if isinstance(entry, dict):
            assert entry["ok"] is True
            assert entry["residual"] <= 1e-8


def test_optimize_zero_gamma_plan_is_pure_cash(tmp_path):
    rc, out, _ = _run(tmp_path, "optimize", _scenario(drift={"kind": "zero"}))
    assert rc == 0
    header, rows = _read_table(out / "coefficients.csv")
    weight_cols = [i for i, name in enumerate(header) if name.startswith("theta0_w_")]
    assert weight_cols
    i_y = header.index("mean_Y")
    for row in rows:
        for i in weight_cols:
            assert float(row[i]) == 0.0
        assert abs(float(row[i_y]) - 1.0) <= 1e-12
    plan = json.loads((out / "plan.json").read_text())
    assert plan["lambda_hat"] == 1.0
    fund = json.loads((out / "summary.json").read_text())["mutual_fund"]
    assert fund["max_sv_ratio"] == 0.0


def test_hjb_zero_gamma_value_layers_equal_terminal_utility(tmp_path):
    rc, out, _ = _run(tmp_path, "hjb", _scenario(drift={"kind": "zero"}))
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["closed_form_error"] == 0.0
    assert summary["max_control_error"] == 0.0
    assert summary["clamp_fraction"] == 0.0
    header, rows = _read_table(out / "value_grid.csv")
    i_w, i_f = header.index("w"), header.index("F")
    for row in rows:
        assert float(row[i_f]) == pytest.approx(math.log(float(row[i_w])), abs=1e-14)


def test_hjb_cross_validation_table_bounds_duality_mismatch(tmp_path):
    rc, out, _ = _run(tmp_path, "hjb", _scenario())
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["family"] == "log"
    assert summary["closed_form_error"] <= 1e-3
    assert summary["max_control_error"] <= 5e-2
    header, rows = _read_table(out / "cross_validation.csv")
    i_h, i_d, i_e = (header.index(c) for c in ("hjb_0", "dual_0", "max_error"))
    worst = 0.0
    for row in rows:
        err = abs(float(row[i_h]) - float(row[i_d]))
        assert abs(err - float(row[i_e])) <= 1e-12
        worst = max(worst, float(row[i_e]))
    assert worst <= summary["max_control_error"] + 1e-15


def test_hjb_substep_overflow_reports_numerical_failure(tmp_path, capsys):
    rc, out, _ = _run(
        tmp_path, "hjb", _scenario(drift={"kind": "arbitrage_free", "gamma": [5.0]})
    )
    assert rc == 3
    payload = _payload(capsys)
    assert payload["error"] == "DegenerateConcavity"
    assert payload["exit_code"] == 3
    assert "substeps" in payload["message"]
    assert json.loads((out / "error.json").read_text()) == payload


def test_report_verifies_artifacts_and_scenario_hash(tmp_path):
    rc, out, scn_path = _run(tmp_path, "simulate", _scenario(paths=8, steps=8, detail_paths=4))
    assert rc == 0
    rc = main(["report", "--out", str(out), "--scenario", str(scn_path)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["verified"] is True
    assert set(report["artifacts"].values()) == {"ok"}
    assert "verified: yes" in (out / "report.txt").read_text()


def test_report_flags_tampered_artifacts(tmp_path, capsys):
    rc, out, _ = _run(tmp_path, "simulate", _scenario(paths=8, steps=8, detail_paths=4))
    assert rc == 0
    curves = out / "curves.csv"
    curves.write_text(curves.read_text() + "# tampered\n")
    rc = main(["report", "--out", str(out)])
    assert rc == 2
    payload = _payload(capsys)
    assert payload["error"] == "ValidationFailure"
    report = json.loads((out / "report.json").read_text())
    assert report["verified"] is False
    assert report["artifacts"]["curves.csv"] == "modified"


def test_report_rejects_mismatched_scenario_and_missing_runs(tmp_path, capsys):
    rc, out, _ = _run(tmp_path, "simulate", _scenario(paths=8, steps=8, detail_paths=4))
    assert rc == 0
    other = tmp_path / "other.json"
    other.write_text(json.dumps(_scenario(seed=9)))
    rc = main(["report", "--out", str(out), "--scenario", str(other)])
    assert rc == 2
    assert "hash" in _payload(capsys)["message"]
    rc = main(["report", "--out", str(tmp_path / "nowhere")])
    assert rc == 2
    assert "metadata.json" in _payload(capsys)["message"]


def test_module_entry_point_runs_in_a_subprocess(tmp_path):
    scn_path = tmp_path / "scn.json"
    scn_path.write_text(json.dumps(_scenario(paths=8, steps=8, detail_paths=4)))
    out = tmp_path / "out"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "bondlab.cli",
            "simulate",
            "--scenario",
            str(scn_path),
            "--out",
            str(out),
            "--fixed-order",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "artifacts" in proc.stdout
    assert (out / "metadata.json").is_file()


# --- column tables and path reductions -----------------------------------------


def test_write_csv_matches_the_cell_oracle(tmp_path):
    floats = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, 0.1, 1.0, -2.5e17, 1 / 3])
    columns = {
        "path": np.arange(floats.size),
        "id": np.arange(floats.size, dtype=np.int32) - 3,
        "x": floats,
        "name": np.array(["a", "bb", "nan", "1", "-0", "ok", "", "x y", "z", "last"]),
        "y": floats[::-1],
    }
    _write_csv(tmp_path / "t.csv", columns)
    rows = [list(row) for row in zip(*(c.tolist() for c in columns.values()))]
    assert (tmp_path / "t.csv").read_text() == csv_text(list(columns), rows)
    # numpy scalars in the oracle's cells format as the Python ones do
    assert csv_text(["x"], [[np.float64(0.1)], [np.int64(7)]]) == "x\n0.10000000000000001\n7\n"

    empty = {"t": np.zeros(0), "n": np.zeros(0, dtype=np.int64), "s": np.array([], dtype=str)}
    _write_csv(tmp_path / "e.csv", empty)
    assert (tmp_path / "e.csv").read_text() == csv_text(["t", "n", "s"], []) == "t,n,s\n"


def _path_tables(n_paths: int) -> dict:
    """(K+1, P) tables in the layouts the verbs reduce, with uneven row scales."""
    rng = np.random.default_rng(n_paths)
    scale = rng.uniform(0.1, 10.0, size=(5, 1))
    obs = rng.normal(1.0, 0.3, size=(5, n_paths, 3)) * scale[..., None]
    wide = np.zeros((5, n_paths, 4))
    wide[..., 1:] = rng.normal(size=(5, n_paths, 3))
    return {
        # strided rows of a (K+1, P, M) table, one maturity column at a time
        **{f"obs_{j}": obs[..., j] for j in range(3)},
        "table_column": wide[..., 2],
        "c_order": rng.normal(size=(5, n_paths)) * scale,
        "f_order": np.asfortranarray(rng.lognormal(size=(5, n_paths))),
        "row": rng.normal(size=n_paths),
        "broadcast_row": np.broadcast_to(0.7, (n_paths,)),
    }


@pytest.mark.parametrize("fixed", [True, False], ids=["fixed_order", "default"])
@pytest.mark.parametrize("n_paths", [1, 512, 10_000])
def test_path_mean_matches_the_per_slice_oracle(n_paths, fixed):
    for name, table in _path_tables(n_paths).items():
        mean = _path_mean(table, fixed)
        mean_se, se = _path_mean(table, fixed, se=True)
        assert mean.shape == se.shape == table.shape[:-1], name
        rows = np.atleast_2d(table)
        expected = np.array([slice_mean_se(r, fixed) for r in rows])
        expected = expected.reshape(table.shape[:-1] + (2,))
        assert np.asarray(mean).tobytes() == np.asarray(mean_se).tobytes(), name
        assert np.asarray(mean).tobytes() == expected[..., 0].tobytes(), name
        assert np.asarray(se).tobytes() == expected[..., 1].tobytes(), name
        assert [slice_mean(r, fixed) for r in rows] == np.atleast_1d(mean).tolist(), name
        if n_paths == 1:
            assert not np.any(se), name


def test_initial_curve_from_forward_samples(tmp_path, capsys):
    grid = MaturityGrid(3.0, 97)
    samples = {"kind": "forward_samples", "values": [0.05] * grid.n_points}
    scn = _scenario(initial_curve=samples)
    rc, _, _ = _run(tmp_path, "simulate", scn, "--paths", "8", "--steps", "8")
    assert rc == 0
    p0 = _initial_curve(samples, grid)
    flat = flat_forward_curve(grid, 0.05)
    assert np.max(np.abs(p0.values() - flat.values())) <= 1e-12

    short = {"kind": "forward_samples", "values": [0.05] * (grid.n_points - 1)}
    rc, _, _ = _run(tmp_path, "simulate", _scenario(initial_curve=short), out="short")
    assert rc == 2
    assert _payload(capsys)["error"] == "ConfigInvalid"
