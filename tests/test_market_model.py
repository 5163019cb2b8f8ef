"""Tests for market coefficients, gamma solve, and the measure change."""
import math

import numpy as np
import pytest
from scipy import stats

from bondlab.curve_space import Curve, MaturityGrid, SobolevIndex, sobolev_inner
from bondlab.dynamics import SimConfig, flat_forward_curve, simulate_mild
from bondlab.errors import ArbitrageDetected, ConfigInvalid, GridMismatch, ValidationFailure
from bondlab.hedging import gram_operators
from bondlab.optimizer import optimal_strategy_log_stochastic
from bondlab.market_model import (
    CoefficientSchedule,
    DriftCurve,
    VolatilityOperator,
    as_gamma_array,
    coefficient_table,
    decaying_volatility_family,
    girsanov_density_path,
    girsanov_log_path,
    humped_volatility,
    q_brownian_increments,
    solve_market_price_of_risk,
    strong_arbitrage_diagnostic,
)
from bondlab.portfolio import pairings, strategy_from_spec


def _grid():
    return MaturityGrid(4.0, 257)


def _draw_increments(rng, n_paths, n_steps, n_factors, dt):
    return rng.standard_normal((n_paths, n_steps, n_factors)) * math.sqrt(dt)


# --- market price of risk -----------------------------------------------------


def test_gamma_recovers_exact_factor_combination():
    grid = _grid()
    sigma = VolatilityOperator((humped_volatility(grid, 0.01),))
    m = DriftCurve(Curve(grid, sigma.factors[0].values(), 0.0))
    sol = solve_market_price_of_risk(sigma, m, SobolevIndex(1))
    assert sol.gamma == pytest.approx([1.0], rel=1e-12)
    assert sol.residual <= 1e-12 * sol.drift_norm


def test_gamma_on_orthogonalized_two_factor_family():
    grid = _grid()
    s = SobolevIndex(1)
    f1 = humped_volatility(grid, 0.01)
    raw = Curve(grid, 0.01 * grid.nodes**2 * np.exp(-2.0 * grid.nodes), 0.0)
    # Gram-Schmidt in E^s so the loading coefficients are read off directly
    proj = sobolev_inner(raw, f1, s) / sobolev_inner(f1, f1, s)
    f2 = Curve(grid, raw.g - proj * f1.g, 0.0)
    sigma = VolatilityOperator((f1, f2))
    m_vals = 0.3 * f1.values() + 0.1 * f2.values()
    sol = solve_market_price_of_risk(sigma, DriftCurve(Curve(grid, m_vals, 0.0)), s)
    oracle = np.array([0.3, 0.1])
    assert np.allclose(sol.gamma, oracle, rtol=1e-9)
    assert sol.gram_rank == 2


def test_gamma_is_minimum_norm_on_dependent_factors():
    grid = _grid()
    s = SobolevIndex(1)
    f1 = humped_volatility(grid, 0.01)
    f2 = Curve(grid, 2.0 * f1.g, 0.0)  # rank-one family
    sigma = VolatilityOperator((f1, f2))
    m = DriftCurve(Curve(grid, 0.5 * f1.values(), 0.0))
    sol = solve_market_price_of_risk(sigma, m, s)
    assert sol.gram_rank == 1
    # any solution satisfies g1 + 2 g2 = 0.5; minimum norm picks (0.1, 0.2)
    assert np.allclose(sol.gamma, [0.1, 0.2], rtol=1e-9)


def test_gamma_raises_on_unattainable_drift():
    grid = _grid()
    zero = Curve(grid, np.zeros(grid.n_points), 0.0)
    sigma = VolatilityOperator((zero,))
    m = DriftCurve(Curve(grid, 0.01 * grid.nodes * np.exp(-grid.nodes), 0.0))
    with pytest.raises(ArbitrageDetected):
        solve_market_price_of_risk(sigma, m, SobolevIndex(1))


def test_volatility_must_vanish_at_zero():
    grid = _grid()
    bad = Curve(grid, np.exp(-grid.nodes), 0.0)  # value 1 at x = 0
    with pytest.raises(ValidationFailure):
        VolatilityOperator((bad,))
    with pytest.raises(ValidationFailure):
        DriftCurve(bad)


def test_decaying_family_vanishes_at_zero_and_is_independent():
    grid = _grid()
    s = SobolevIndex(1)
    fam = decaying_volatility_family(grid, 3, s, weight_order=1.0)
    assert fam.n_factors == 3
    for f in fam.factors:
        assert f.values()[0] == 0.0
    gram = np.array(
        [[sobolev_inner(a, b, s) for b in fam.factors] for a in fam.factors]
    )
    eigs = np.linalg.eigvalsh(gram)
    assert eigs[0] > 1e-10 * eigs[-1]


# --- gamma schedules ------------------------------------------------------------


def test_as_gamma_array_accepts_vector_array_and_callable():
    const = as_gamma_array([0.2, -0.1], 4, 0.25)
    assert const.shape == (4, 2)
    assert np.all(const == np.array([0.2, -0.1]))
    table = as_gamma_array(np.arange(8.0).reshape(4, 2), 4, 0.25)
    assert table[3, 1] == 7.0
    func = as_gamma_array(lambda t: [t, 1.0], 4, 0.25)
    assert np.allclose(func[:, 0], [0.0, 0.25, 0.5, 0.75])
    with pytest.raises(ValidationFailure):
        as_gamma_array(np.zeros((3, 2)), 4, 0.25)


# --- Girsanov density ------------------------------------------------------------


def test_zero_gamma_gives_unit_density():
    rng = np.random.default_rng(31)
    dw = _draw_increments(rng, 16, 8, 1, 0.125)
    xi = girsanov_density_path(np.array([0.0]), dw, 0.125)
    assert np.array_equal(xi, np.ones((16, 9)))


def test_density_is_positive_and_mean_one():
    rng = np.random.default_rng(32)
    n_paths, n_steps, dt = 10_000, 64, 1.0 / 64
    dw = _draw_increments(rng, n_paths, n_steps, 1, dt)
    xi = girsanov_density_path(np.array([0.3]), dw, dt)
    assert np.all(xi > 0.0)
    terminal = xi[:, -1]
    se = terminal.std(ddof=1) / math.sqrt(n_paths)
    assert abs(terminal.mean() - 1.0) <= 3.0 * se


def test_log_density_law_is_gaussian_with_known_moments():
    rng = np.random.default_rng(33)
    n_paths, n_steps, dt = 10_000, 64, 1.0 / 64
    dw = _draw_increments(rng, n_paths, n_steps, 1, dt)
    ln_xi = girsanov_log_path(np.array([0.3]), dw, dt)[:, -1]
    total_var = 0.09
    assert abs(ln_xi.mean() + 0.5 * total_var) <= 3.0 * ln_xi.std(ddof=1) / math.sqrt(n_paths)
    assert abs(ln_xi.var(ddof=1) - total_var) <= 0.05 * total_var
    _, p_value = stats.normaltest(ln_xi)
    assert p_value > 1e-3


def test_per_path_gamma_matches_schedule_when_constant():
    rng = np.random.default_rng(34)
    dw = _draw_increments(rng, 8, 16, 2, 0.0625)
    const = np.array([0.2, -0.3])
    per_path = np.broadcast_to(const, (8, 16, 2)).copy()
    a = girsanov_log_path(const, dw, 0.0625)
    b = girsanov_log_path(per_path, dw, 0.0625)
    assert np.allclose(a, b, rtol=1e-14, atol=1e-15)


# --- Q increments ---------------------------------------------------------------


def test_q_increments_shift_by_gamma_dt():
    rng = np.random.default_rng(35)
    dt = 0.125
    dw = _draw_increments(rng, 4, 8, 1, dt)
    assert np.array_equal(q_brownian_increments(dw, np.array([0.0]), dt), dw)
    shifted = q_brownian_increments(dw, np.array([0.4]), dt)
    assert np.allclose(shifted - dw, 0.4 * dt, rtol=0, atol=1e-15)


def test_q_increments_have_gamma_drift_under_p_and_none_under_q():
    rng = np.random.default_rng(36)
    n_paths, n_steps, dt = 10_000, 32, 1.0 / 32
    gamma = np.array([0.3])
    dw = _draw_increments(rng, n_paths, n_steps, 1, dt)
    w_tilde = q_brownian_increments(dw, gamma, dt).sum(axis=1)[:, 0]
    se = w_tilde.std(ddof=1) / math.sqrt(n_paths)
    assert abs(w_tilde.mean() - 0.3) <= 3.0 * se
    # reweighting by xi_T restores mean zero
    xi_T = girsanov_density_path(gamma, dw, dt)[:, -1]
    weighted = xi_T * w_tilde
    se_w = weighted.std(ddof=1) / math.sqrt(n_paths)
    assert abs(weighted.mean()) <= 3.0 * se_w


# --- strong arbitrage diagnostic --------------------------------------------------


def test_diagnostic_closed_form_for_deterministic_gamma():
    n_steps, dt = 32, 1.0 / 32
    schedule = np.full((n_steps, 1), 0.3)
    report = strong_arbitrage_diagnostic(schedule, dt)
    assert report["integral_max"] == pytest.approx(0.09, rel=1e-12)
    assert report["exp_moments"][2.0] == pytest.approx(math.exp(0.18), rel=1e-12)
    assert report["stable"]


def test_diagnostic_zero_gamma_moments_are_one():
    report = strong_arbitrage_diagnostic(np.zeros((16, 2)), 1.0 / 16)
    for value in report["exp_moments"].values():
        assert value == 1.0
    assert report["stable"]


def test_diagnostic_flags_heavy_tailed_ensemble():
    rng = np.random.default_rng(37)
    # half the sample carries a much larger integral: the doubled-sample
    # estimate cannot stabilize and the report should say so
    g = np.zeros((64, 8, 1))
    g[32:] = 3.0
    g += 0.01 * rng.standard_normal(g.shape)
    report = strong_arbitrage_diagnostic(g, 0.125)
    assert not report["stable"]


# --- the coefficient table checks every sample ---------------------------------------

_TABLE_GRID = MaturityGrid(4.0, 65)
_OTHER_GRID = MaturityGrid(8.0, 65)


def _sigma(grid, n_factors=1):
    return VolatilityOperator(
        tuple(humped_volatility(grid, 0.01, decay=1.0 + i) for i in range(n_factors))
    )


def _schedule(drift_grid=_TABLE_GRID, late_sigma=None, kind="deterministic"):
    """Deterministic schedule on _TABLE_GRID; from t = 0.5 on, late_sigma if given."""
    m = DriftCurve(Curve(drift_grid, 0.2 * humped_volatility(drift_grid, 0.01).g, 0.0))
    sigma = _sigma(_TABLE_GRID)

    def sampler(t, p):
        return m, (late_sigma if late_sigma is not None and t >= 0.5 else sigma)

    return CoefficientSchedule(kind, sampler)


def _consumers(schedule):
    """simulate_mild, pairings, gram_operators and the log plan, each sampling the schedule."""
    config = SimConfig(_TABLE_GRID, SobolevIndex(1), 1.0, 4, 3, seed=1)
    p0 = flat_forward_curve(_TABLE_GRID, 0.05)
    path = simulate_mild(p0, _schedule(), config, keep_states=True)
    cash = strategy_from_spec({"kind": "cash"})
    return {
        "simulate_mild": lambda: simulate_mild(p0, schedule, config),
        "pairings": lambda: pairings(cash, path, schedule),
        "gram_operators": lambda: gram_operators(p0, schedule, config.times, config.s),
        "log_plan": lambda: optimal_strategy_log_stochastic(1.0, path, schedule, [0.5, 1.0]),
    }


@pytest.mark.parametrize(
    "schedule, error, message",
    [
        # a drift on another grid of the same node count
        (_schedule(drift_grid=_OTHER_GRID), GridMismatch, r"at t = 0 "),
        # a drift with another node count
        (_schedule(drift_grid=MaturityGrid(4.0, 129)), GridMismatch, r"at t = 0 "),
        # the factor count changes at t = 0.5
        (
            _schedule(late_sigma=_sigma(_TABLE_GRID, 2)),
            ConfigInvalid,
            r"2 factors at t = 0.5 but 1 at t = 0",
        ),
        # the factors move to another grid at t = 0.5
        (_schedule(late_sigma=_sigma(_OTHER_GRID)), GridMismatch, r"at t = 0.5 "),
    ],
    ids=["drift_grid", "drift_nodes", "factor_count", "late_factor_grid"],
)
def test_every_coefficient_sample_is_checked(schedule, error, message):
    times = np.linspace(0.0, 1.0, 5)
    with pytest.raises(error, match=message):
        coefficient_table(schedule, _TABLE_GRID, times)
    for call in _consumers(schedule).values():
        with pytest.raises(error, match=message):
            call()


def test_a_state_dependent_factor_count_change_is_named():
    schedule = _schedule(late_sigma=_sigma(_TABLE_GRID, 2), kind="state-dependent")
    with pytest.raises(ConfigInvalid, match=r"2 factors at t = 0.5 but 1 at t = 0"):
        _consumers(schedule)["simulate_mild"]()


@pytest.mark.parametrize("consumer", ["pairings", "log_plan"])
def test_a_state_dependent_factor_count_change_is_named_per_step(consumer):
    # these build one table per step, each checked against step 0's count
    schedule = _schedule(late_sigma=_sigma(_TABLE_GRID, 2), kind="state-dependent")
    with pytest.raises(ConfigInvalid, match=r"2 factors at t = 0.5 but 1 at t = 0"):
        _consumers(schedule)[consumer]()


def test_coefficient_table_stacks_grid_and_constant_parts():
    factor = Curve(_TABLE_GRID, humped_volatility(_TABLE_GRID, 0.01).g - 0.002, 0.002)
    sigma = VolatilityOperator((factor, humped_volatility(_TABLE_GRID, 0.02)))
    m = DriftCurve(Curve(_TABLE_GRID, 0.1 * factor.g - 0.001, 0.001 + 0.1 * factor.a))
    schedule = CoefficientSchedule("deterministic", lambda t, p: (m, sigma))
    g, a = coefficient_table(schedule, _TABLE_GRID, [0.0, 0.25, 0.5])
    assert g.shape == (3, 3, 65) and a.shape == (3, 3)
    curves = (m.curve,) + sigma.factors
    for row_g, row_a in zip(g, a):
        for f, fg, fa in zip(curves, row_g, row_a):
            assert fg.tobytes() == f.g.tobytes() and fa == f.a
            assert (fg + fa).tobytes() == f.values().tobytes()
