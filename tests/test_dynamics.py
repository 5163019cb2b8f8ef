"""Tests for the curve simulation: stepping, rates, rollovers, diagnostics."""
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bondlab import dynamics
from bondlab._kernels_py import exponent
from bondlab.curve_space import (
    Curve,
    MaturityGrid,
    SobolevIndex,
    atoms_value_matrix,
    node_derivative,
    translate,
)
from bondlab.dynamics import (
    SimConfig,
    boundary_residual,
    brownian_increments,
    curve_from_forward,
    flat_forward_curve,
    forward_rate,
    moment_diagnostic,
    simulate_mild,
    simulate_rollover,
    spot_rate,
    undiscount_curve,
    undiscount_path,
)
from bondlab.errors import ConfigInvalid, DegenerateCurve, NonPositiveInitialCurve
from bondlab.market_model import (
    CoefficientSchedule,
    DriftCurve,
    VolatilityOperator,
    constant_coefficients,
    decaying_volatility_family,
    coefficient_table,
    humped_volatility,
    q_brownian_increments,
)

from conftest import (
    deterministic_exponent_rows,
    make_market,
    make_zero_vol_market,
    per_path_exponent_rows,
)


def _config(grid, s, horizon=1.0, n_steps=64, n_paths=16, seed=7):
    return SimConfig(grid=grid, s=s, horizon=horizon, n_steps=n_steps, n_paths=n_paths, seed=seed)


# --- initial curves -------------------------------------------------------------


def test_flat_forward_curve_is_exponential():
    grid = MaturityGrid(4.0, 257)
    p0 = flat_forward_curve(grid, 0.05)
    assert np.allclose(p0.values(), np.exp(-0.05 * grid.nodes), rtol=1e-14)
    assert p0.values()[0] == 1.0


def test_curve_from_forward_matches_quadrature():
    grid = MaturityGrid(4.0, 513)
    p0 = curve_from_forward(grid, lambda x: 0.02 + 0.01 * x)
    expected = np.exp(-(0.02 * grid.nodes + 0.005 * grid.nodes**2))
    assert np.max(np.abs(p0.values() - expected)) <= 5 * grid.dx**2
    assert spot_rate(p0) == pytest.approx(0.02, abs=5 * grid.dx**2)


# --- rates ----------------------------------------------------------------------


def test_spot_rate_examples():
    grid = MaturityGrid(4.0, 513)
    p = flat_forward_curve(grid, 0.05)
    assert spot_rate(p) == pytest.approx(0.05, abs=5 * grid.dx**2)
    ones = Curve(grid, np.zeros(grid.n_points), 1.0)
    assert spot_rate(ones) == pytest.approx(0.0, abs=1e-14)
    bad = Curve(grid, -np.ones(grid.n_points), 0.0)
    with pytest.raises(DegenerateCurve):
        spot_rate(bad)


def test_forward_rate_mirrors_spot_rate():
    grid = MaturityGrid(4.0, 513)
    p = flat_forward_curve(grid, 0.05)
    assert forward_rate(p, 2.0) == pytest.approx(0.05, abs=5 * grid.dx**2)
    ones = Curve(grid, np.zeros(grid.n_points), 1.0)
    assert forward_rate(ones, 2.0) == pytest.approx(0.0, abs=1e-14)


def test_forward_rate_is_additive_under_products():
    grid = MaturityGrid(4.0, 513)
    p = flat_forward_curve(grid, 0.03)
    q = curve_from_forward(grid, lambda x: 0.01 + 0.02 * np.exp(-x))
    prod = Curve(grid, p.values() * q.values() - 0.0, 0.0)
    x = 1.5
    assert forward_rate(prod, x) == pytest.approx(
        forward_rate(p, x) + forward_rate(q, x), abs=5 * grid.dx**2
    )


# --- deterministic stepping -------------------------------------------------------


def test_zero_coefficients_translate_initial_curve_aligned_steps():
    # dt = 2 dx: each step shifts whole nodes, so the scheme is exact
    grid = MaturityGrid(4.0, 513)
    p0, schedule, _ = make_zero_vol_market(grid)
    config = _config(grid, SobolevIndex(1), n_steps=64, n_paths=2)
    path = simulate_mild(p0, schedule, config, keep_states=True)
    for k in (16, 64):
        t = config.times[k]
        keep = grid.nodes + t <= grid.x_max
        expected = np.exp(-0.05 * (grid.nodes[keep] + t))
        err = np.max(np.abs(path.states[k, 0, keep] - expected))
        assert err <= 1e-13


def test_zero_coefficients_translate_initial_curve_misaligned_steps():
    # fractional shifts interpolate; the error compounds at second order in
    # dx away from the truncation point and at first order in the one-cell
    # layer around it (zero-fill leaves a slope kink at x_max - t)
    grid = MaturityGrid(4.0, 513)
    p0, schedule, _ = make_zero_vol_market(grid)
    config = _config(grid, SobolevIndex(1), n_steps=100, n_paths=2)
    path = simulate_mild(p0, schedule, config, keep_states=True)
    max_curv = 0.0025  # |p0''| = r^2 e^{-rx} <= 0.05^2
    max_slope = 0.05
    for k in (25, 50, 100):
        t = config.times[k]
        expected = np.exp(-0.05 * (grid.nodes + t))
        err = np.abs(path.states[k, 0] - expected)
        interior = grid.nodes + t <= grid.x_max - 0.25
        boundary = (grid.nodes + t > grid.x_max - 0.25) & (grid.nodes + t <= grid.x_max)
        assert np.max(err[interior]) <= config.n_steps * grid.dx**2 * max_curv
        assert np.max(err[boundary]) <= 10.0 * grid.dx * max_slope


def test_unit_initial_curve_is_invariant():
    grid = MaturityGrid(4.0, 257)
    p0, schedule, _ = make_zero_vol_market(grid, rate=0.0)
    config = _config(grid, SobolevIndex(1), n_steps=32, n_paths=2)
    path = simulate_mild(p0, schedule, config, keep_states=True)
    assert np.max(np.abs(path.states - 1.0)) == 0.0
    assert np.max(np.abs(path.spot)) <= 1e-14


def test_positivity_is_preserved_pathwise(market):
    assert np.all(market["path"].states > 0.0)


def test_q_martingale_identity_at_moderate_size():
    grid = MaturityGrid(4.0, 257)
    s = SobolevIndex(1)
    p0, schedule, gamma = make_market(grid)
    config = _config(grid, s, n_steps=64, n_paths=4000, seed=11)
    path = simulate_mild(
        p0, schedule, config, measure="Q", gamma=gamma, record_locations=[0.5, 1.0, 2.0]
    )
    for i, x in enumerate([0.5, 1.0, 2.0]):
        sample = path.observations[-1, :, i]
        se = sample.std(ddof=1) / math.sqrt(config.n_paths)
        assert abs(sample.mean() - p0.value_at(1.0 + x)) <= 3.0 * se


def test_log_price_variance_matches_loading_integral():
    grid = MaturityGrid(4.0, 257)
    s = SobolevIndex(1)
    p0, schedule, _ = make_market(grid, gamma=0.0)
    config = _config(grid, s, n_steps=64, n_paths=4000, seed=13)
    x0 = 1.0
    path = simulate_mild(p0, schedule, config, record_locations=[x0])
    ln_p = np.log(path.observations[-1, :, 0])
    dt = config.dt
    sig = schedule.at(0.0)[1].factors[0]
    # moving-frame kernel: loading evaluated at T - s + x along the step grid
    expected = sum(
        sig.value_at(1.0 - k * dt + x0) ** 2 * dt for k in range(config.n_steps)
    )
    sample_var = ln_p.var(ddof=1)
    se = sample_var * math.sqrt(2.0 / (config.n_paths - 1))
    assert abs(sample_var - expected) <= 3.0 * se


# --- boundary condition and rollover ----------------------------------------------


def test_boundary_residual_zero_rates():
    grid = MaturityGrid(4.0, 257)
    p0, schedule, _ = make_zero_vol_market(grid, rate=0.0)
    path = simulate_mild(p0, schedule, _config(grid, SobolevIndex(1), n_paths=2))
    assert boundary_residual(path) <= 1e-13


def test_boundary_value_flat_forward():
    grid = MaturityGrid(4.0, 513)
    p0, schedule, _ = make_zero_vol_market(grid, rate=0.05)
    config = _config(grid, SobolevIndex(1), n_steps=256, n_paths=1)
    path = simulate_mild(p0, schedule, config)
    assert abs(path.value0[-1, 0] - math.exp(-0.05)) <= 1e-3


def _drifted_deterministic_path(n_steps):
    # sigma = 0 with a genuine drift makes the residual a pure dt effect
    grid = MaturityGrid(4.0, 513)
    s = SobolevIndex(1)
    from bondlab.market_model import DriftCurve, VolatilityOperator, constant_coefficients

    zero = Curve(grid, np.zeros(grid.n_points), 0.0)
    m = DriftCurve(Curve(grid, 0.02 * grid.nodes * np.exp(-grid.nodes), 0.0))
    schedule = constant_coefficients(m, VolatilityOperator((zero,)))
    p0 = flat_forward_curve(grid, 0.05)
    config = _config(grid, s, n_steps=n_steps, n_paths=1)
    return simulate_mild(p0, schedule, config, keep_states=True), schedule


def test_boundary_residual_halves_with_dt():
    coarse, _ = _drifted_deterministic_path(64)
    fine, _ = _drifted_deterministic_path(128)
    ratio = boundary_residual(fine) / boundary_residual(coarse)
    assert 0.35 <= ratio <= 0.65


def test_rollover_zero_rates_is_flat():
    grid = MaturityGrid(4.0, 257)
    p0, schedule, _ = make_zero_vol_market(grid, rate=0.0)
    path = simulate_mild(p0, schedule, _config(grid, SobolevIndex(1), n_paths=2), keep_states=True)
    roll = simulate_rollover(path, 0.5)
    assert np.max(np.abs(roll.account - 1.0)) <= 1e-13
    assert np.max(np.abs(roll.wealth - 1.0)) <= 1e-13


def test_rollover_account_flat_forward():
    grid = MaturityGrid(4.0, 513)
    p0, schedule, _ = make_zero_vol_market(grid, rate=0.05)
    config = _config(grid, SobolevIndex(1), n_steps=256, n_paths=1)
    path = simulate_mild(p0, schedule, config, keep_states=True)
    roll = simulate_rollover(path, 0.5)
    assert abs(roll.account[-1, 0] - math.exp(0.05)) <= 1e-3


def test_rollover_near_zero_maturity_recovers_bank_account(market):
    # S at the first node: q_t(S) ~ p_t(0) exp(int r) = 1 + O(dx + dt)
    path = market["path"]
    roll = simulate_rollover(path, path.config.grid.dx)
    assert np.max(np.abs(roll.wealth - 1.0)) <= 0.01


def test_rollover_rejects_contaminated_maturities(market):
    with pytest.raises(ConfigInvalid):
        simulate_rollover(market["path"], 3.9)  # inside the truncation window


def test_rollover_derivative_stencil_matches_gradient_bit_for_bit():
    rng = np.random.default_rng(5)
    values = rng.uniform(0.5, 1.5, size=(3, 4, 17))
    dx = 0.0625
    full = np.gradient(values, dx, axis=2, edge_order=2)

    def tap(i):
        return values[..., i]

    for j in range(17):
        assert node_derivative(tap, j, 17, dx).tobytes() == full[..., j].tobytes()
    # per-path index arrays, as the batched pairing taps them
    idx = rng.integers(0, 17, size=(4, 5))
    rows = values[0]

    def tap_rows(i):
        return np.take_along_axis(rows, i, axis=1)

    expected = np.take_along_axis(full[0], idx, axis=1)
    assert node_derivative(tap_rows, idx, 17, dx).tobytes() == expected.tobytes()


# --- undiscounting ---------------------------------------------------------------


def test_undiscount_normalizes_boundary(market):
    hat = undiscount_path(market["path"])
    assert np.max(np.abs(hat[:, :, 0] - 1.0)) <= 1e-13


def test_undiscount_flat_forward_is_stationary():
    grid = MaturityGrid(4.0, 513)
    p0, schedule, _ = make_zero_vol_market(grid, rate=0.05)
    config = _config(grid, SobolevIndex(1), n_steps=128, n_paths=1)
    path = simulate_mild(p0, schedule, config, keep_states=True)
    hat = undiscount_path(path)
    stationary = np.exp(-0.05 * grid.nodes)
    keep = grid.nodes <= grid.x_max - 1.0
    for k in (32, 64, 128):
        err = np.max(np.abs(hat[k, 0, keep] - stationary[keep]))
        assert err <= 5e-4


def test_undiscount_curve_zero_rates_is_identity():
    grid = MaturityGrid(4.0, 257)
    p = Curve(grid, np.zeros(grid.n_points), 1.0)
    hat = undiscount_curve(p)
    assert np.array_equal(hat.values(), p.values())
    with pytest.raises(DegenerateCurve):
        undiscount_curve(Curve(grid, -2.0 * np.ones(grid.n_points), 1.0))


# --- noise and determinism ---------------------------------------------------------


def test_brownian_increments_prefix_property():
    grid = MaturityGrid(4.0, 65)
    s = SobolevIndex(1)
    small = brownian_increments(_config(grid, s, n_paths=4, seed=5), 2)
    large = brownian_increments(_config(grid, s, n_paths=16, seed=5), 2)
    assert np.array_equal(small, large[:4])
    other = brownian_increments(_config(grid, s, n_paths=4, seed=6), 2)
    assert not np.array_equal(small, other)


def test_simulation_is_seed_deterministic(market):
    again = simulate_mild(
        market["p0"], market["schedule"], market["config"], keep_states=True
    )
    assert np.array_equal(again.states, market["path"].states)
    assert np.array_equal(again.dw, market["path"].dw)


def test_q_measure_run_consumes_same_noise(market):
    # same seed under Q: increments identical, drift adjusted inside the step
    q_path = simulate_mild(
        market["p0"],
        market["schedule"],
        market["config"],
        measure="Q",
        gamma=market["gamma"],
    )
    assert np.array_equal(q_path.dw, market["path"].dw)
    assert q_path.measure == "Q"


def test_record_locations_match_states(market):
    locs = [0.25, 1.0, 2.5]
    path = simulate_mild(
        market["p0"],
        market["schedule"],
        market["config"],
        keep_states=True,
        record_locations=locs,
    )
    expected = atoms_value_matrix(locs, path.states, market["config"].grid)
    assert np.allclose(path.observations, expected, rtol=1e-14, atol=1e-16)


# --- moment diagnostic --------------------------------------------------------------


def test_moment_diagnostic_zero_vol_values_are_deterministic():
    grid = MaturityGrid(4.0, 257)
    p0, schedule, _ = make_zero_vol_market(grid)
    config = _config(grid, SobolevIndex(1), n_steps=32, n_paths=128)
    path = simulate_mild(p0, schedule, config, record_norms=True)
    report = moment_diagnostic(path)
    assert report["n_paths"] == 128
    sup_p = path.sup_norm_p
    assert np.max(sup_p) - np.min(sup_p) <= 1e-12  # all paths identical
    for u in (1, 2, 4, 8):
        assert report["p"]["moments"][u] == pytest.approx(sup_p[0] ** u, rel=1e-12)
        assert report["p"]["stable"]


def test_moment_diagnostic_power_mean_monotone(market):
    path = simulate_mild(
        market["p0"],
        market["schedule"],
        market["config"],
        record_norms=True,
    )
    report = moment_diagnostic(path)
    for label in ("p", "q", "q_inv"):
        moments = report[label]["moments"]
        means = [moments[u] ** (1.0 / u) for u in (1, 2, 4, 8)]
        assert all(b >= a - 1e-12 for a, b in zip(means, means[1:]))


def test_moment_diagnostic_ratio_bound(market):
    # empirical A with A^{-1} <= q <= A: both sup-norm families bounded by
    # the same constant read off the recorded norms
    path = simulate_mild(
        market["p0"], market["schedule"], market["config"], record_norms=True
    )
    a_emp = max(np.max(path.sup_norm_q), np.max(path.sup_norm_qinv))
    assert np.isfinite(a_emp)
    assert np.min(path.sup_norm_q) >= 1.0 / a_emp - 1e-12
    assert np.min(path.sup_norm_qinv) >= 1.0 / a_emp - 1e-12


# --- norm diagnostic --------------------------------------------------------------

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def _reference_norms(values, const, dx, order):
    """E^order norms along the last axis: np.gradient and one trapezoid per level."""
    g = values - const[..., None]
    total = _trapezoid(g * g, dx=dx, axis=-1)
    d = g
    for _ in range(order):
        d = np.gradient(d, dx, axis=-1, edge_order=2)
        total = total + _trapezoid(d * d, dx=dx, axis=-1)
    return np.sqrt(np.maximum(total + const * const, 0.0))


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("tail", ["constant", "zero"])
def test_recorded_sup_norms_match_the_gradient_trapezoid_reference(order, tail, monkeypatch):
    grid = MaturityGrid(4.0, 65)
    # a volatility with a constant part moves the constant part of p, so
    # q and 1/q have constant parts other than 1
    hump = humped_volatility(grid, 0.2)
    sigma = Curve(grid, hump.g - 0.1, 0.1)  # vanishes at x = 0
    drift = DriftCurve(Curve(grid, 0.2 * sigma.g, 0.2 * sigma.a))
    schedule = constant_coefficients(drift, VolatilityOperator((sigma,)))
    x = grid.nodes
    if tail == "constant":
        p0 = flat_forward_curve(grid, 0.05)
    else:  # a = 0: L_t p0 vanishes on the truncation tail, where q is pinned to 1
        p0 = Curve(grid, np.exp(-0.05 * x), 0.0)
    config = SimConfig(
        grid=grid, s=SobolevIndex(order), horizon=1.0, n_steps=16, n_paths=300, seed=3
    )
    # blocks of 256 and 44 paths, each on its own pool thread
    monkeypatch.setattr(dynamics.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    path = simulate_mild(p0, schedule, config, keep_states=True, record_norms=True)

    states, fill, dx = path.states, path.fill, grid.dx
    l_vals = np.stack([translate(p0, float(t)).values() for t in config.times])[:, None, :]
    if tail == "constant":
        q, aq = states / l_vals, fill / p0.a
    else:
        valid = l_vals > 1e-300
        q = np.where(valid, states / np.where(valid, l_vals, 1.0), 1.0)
        aq = np.ones_like(fill)
        assert not np.all(valid)
    expected = {
        "sup_norm_p": _reference_norms(states, fill, dx, order + 1),
        "sup_norm_q": _reference_norms(q, aq, dx, order + 1),
        "sup_norm_qinv": _reference_norms(1.0 / q, 1.0 / aq, dx, order + 1),
    }
    for name, norms in expected.items():
        want = norms.max(axis=0)
        got = getattr(path, name)
        assert np.max(np.abs(got - want) / want) <= 1e-14, name


@pytest.mark.parametrize("block", [256, 4])  # the bad path in the only block, or a later one
def test_non_positive_q_is_reported_at_its_step_and_path(block, monkeypatch):
    grid = MaturityGrid(4.0, 65)
    p0, schedule, _ = make_market(grid)
    config = _config(grid, SobolevIndex(1), n_steps=8, n_paths=12)
    bad_step, bad_path = 5, 9
    step = dynamics.kernels.step_exp_shift
    calls = []

    def poisoned(states, dw, sig, base, fill, k0, frac, out):
        # blocks run in order on one thread: call c is step c % K + 1 of block c // K
        step(states, dw, sig, base, fill, k0, frac, out)
        c = len(calls)
        calls.append(c)
        first = (c // config.n_steps) * block
        if c % config.n_steps + 1 == bad_step and first <= bad_path < first + len(states):
            out[bad_path - first, 30] = 0.0  # x = 1.875, not x = 0

    monkeypatch.setattr(dynamics, "_BLOCK_PATHS", block)
    monkeypatch.setattr(dynamics.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(dynamics.kernels, "step_exp_shift", poisoned)
    simulate_mild(p0, schedule, config)  # no norms: nothing checks q
    calls.clear()
    with pytest.raises(DegenerateCurve, match="q = p / L_t p0 non-positive") as info:
        simulate_mild(p0, schedule, config, record_norms=True)
    assert (info.value.step, info.value.path) == (bad_step, bad_path)


# --- validation ------------------------------------------------------------------


def test_simulate_validates_inputs():
    grid = MaturityGrid(4.0, 257)
    s = SobolevIndex(1)
    p0, schedule, gamma = make_market(grid)
    with pytest.raises(ConfigInvalid):
        SimConfig(grid=grid, s=s, horizon=5.0, n_steps=8, n_paths=2, seed=0)
    config = _config(grid, s, n_paths=2)
    shifted = Curve(grid, p0.g + 0.1, 0.0)
    with pytest.raises(ConfigInvalid):
        simulate_mild(shifted, schedule, config)
    negative = Curve(grid, np.linspace(1.0, -0.5, grid.n_points) - 0.0, 0.0)
    with pytest.raises(NonPositiveInitialCurve):
        simulate_mild(negative, schedule, config)
    with pytest.raises(ConfigInvalid):
        simulate_mild(p0, schedule, config, measure="R")
    with pytest.raises(ConfigInvalid):
        simulate_mild(p0, schedule, config, measure="Q")  # gamma missing
    with pytest.raises(ConfigInvalid):
        simulate_mild(p0, schedule, config, noise=np.zeros((2, 3, 1)))


def test_q_increment_equivalence_between_measures():
    # simulating under Q with gamma equals simulating under P with the
    # Q-shifted noise and the Q drift; cross-check on a tiny ensemble
    grid = MaturityGrid(4.0, 257)
    s = SobolevIndex(1)
    p0, schedule, gamma = make_market(grid)
    config = _config(grid, s, n_steps=16, n_paths=4)
    q_path = simulate_mild(p0, schedule, config, measure="Q", gamma=gamma, keep_states=True)
    dw_q = q_brownian_increments(q_path.dw, gamma, config.dt)
    assert np.allclose(dw_q - q_path.dw, gamma[0] * config.dt, atol=1e-15)


def test_nan_noise_is_reported_at_its_step_and_path():
    grid = MaturityGrid(4.0, 65)
    s = SobolevIndex(1)
    p0, schedule, _ = make_market(grid)
    config = _config(grid, s, n_steps=8, n_paths=12)
    noise = brownian_increments(config, 1)
    noise[9, 4, 0] = np.nan  # step 4 -> 5 of path 9
    for block in (256, 4):  # the bad path in the only block, and in a later one
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "_BLOCK_PATHS", block)
            with pytest.raises(DegenerateCurve, match="step 5, path 9") as info:
                simulate_mild(p0, schedule, config, noise=noise)
        assert (info.value.step, info.value.path) == (5, 9)


# --- properties of the blocked ensemble loop ------------------------------------------

_PROP_GRID = MaturityGrid(4.0, 33)
_PROP_S = SobolevIndex(1)
_PROP_LOCATIONS = np.array([0.0, 0.3, 1.0, 2.5])
_BY_TIME = ("spot", "value0", "observations", "states", "fill")  # (K+1, P, ...)
_BY_PATH = ("dw", "terminal", "terminal_fill", "sup_norm_p", "sup_norm_q", "sup_norm_qinv")


def _prop_schedule(n_factors: int, state_dependent: bool):
    """Humped 1-factor or decaying_family 3-factor market, drift sigma gamma."""
    grid = _PROP_GRID
    if n_factors == 1:
        sigma = VolatilityOperator((humped_volatility(grid, 0.01),))
    else:
        sigma = decaying_volatility_family(grid, 3, _PROP_S, weight_order=1.0)
    gamma = np.linspace(0.2, -0.1, n_factors)
    drift = Curve(grid, gamma @ np.stack([f.values() for f in sigma.factors]), 0.0)
    if not state_dependent:
        return CoefficientSchedule("deterministic", lambda t, p: (DriftCurve(drift), sigma)), gamma

    def sampler(t, p):
        # volatility scaled by the path's own curve at x = 1
        c = float(p.value_at(1.0))
        factors = tuple(Curve(grid, c * f.g, c * f.a) for f in sigma.factors)
        return DriftCurve(Curve(grid, c * drift.g, 0.0)), VolatilityOperator(factors)

    return CoefficientSchedule("state-dependent", sampler), gamma


def _prop_run(n_paths, seed, n_factors, measure, horizon, state_dependent=False):
    schedule, gamma = _prop_schedule(n_factors, state_dependent)
    config = SimConfig(
        grid=_PROP_GRID, s=_PROP_S, horizon=horizon, n_steps=8, n_paths=n_paths, seed=seed
    )
    return simulate_mild(
        flat_forward_curve(_PROP_GRID, 0.05),
        schedule,
        config,
        measure=measure,
        gamma=gamma,
        keep_states=True,
        record_norms=True,
        record_locations=_PROP_LOCATIONS,
    )


_prop_cases = dict(
    seed=st.integers(0, 2**32 - 1),
    n_factors=st.sampled_from([1, 3]),
    measure=st.sampled_from(["P", "Q"]),
    horizon=st.sampled_from([0.8, 1.0]),  # fractional and whole-node shifts
)


@settings(max_examples=15, deadline=None)
@given(n_paths=st.integers(1, 40), state_dependent=st.booleans(), **_prop_cases)
def test_outputs_do_not_depend_on_block_size(n_paths, state_dependent, **case):
    runs = []
    for block in (1, 7, 64, 256):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "_BLOCK_PATHS", block)
            runs.append(_prop_run(n_paths, state_dependent=state_dependent, **case))
    for run in runs[1:]:
        for name in _BY_TIME + _BY_PATH:
            assert getattr(run, name).tobytes() == getattr(runs[0], name).tobytes(), name


@settings(max_examples=15, deadline=None)
@given(n_paths=st.integers(2, 40), data=st.data(), **_prop_cases)
def test_first_paths_equal_a_smaller_run(n_paths, data, **case):
    m = data.draw(st.integers(1, n_paths - 1), label="m")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_BLOCK_PATHS", 7)  # several blocks, on threads
        full = _prop_run(n_paths, **case)
        part = _prop_run(m, **case)
    for name in _BY_TIME:
        assert getattr(full, name)[:, :m].tobytes() == getattr(part, name).tobytes(), name
    for name in _BY_PATH:
        assert getattr(full, name)[:m].tobytes() == getattr(part, name).tobytes(), name


def test_many_threads_with_frequent_switches_match_one_block():
    # more pool threads than cores and a tiny switch interval, so blocks
    # interleave as much as the interpreter allows
    expected = _prop_run(40, seed=11, n_factors=3, measure="Q", horizon=0.8)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "_BLOCK_PATHS", 1)
            mp.setattr(dynamics.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
            got = _prop_run(40, seed=11, n_factors=3, measure="Q", horizon=0.8)
    finally:
        sys.setswitchinterval(interval)
    for name in _BY_TIME + _BY_PATH:
        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name


# --- exponent coefficients from the coefficient table ---------------------------------


def assert_same_bits(got, expected):
    """Tuples of arrays equal in shape and bits (also the sign of zero)."""
    assert len(got) == len(expected)
    for name, g, e in zip(("base", "sig", "base_a", "sig_a"), got, expected):
        assert g.shape == e.shape, name
        assert g.tobytes() == e.tobytes(), name


def _time_varying_schedule(n_factors: int) -> CoefficientSchedule:
    """Drift and factors that change with t; factor 0 has a nonzero constant part."""
    grid = _PROP_GRID
    if n_factors == 1:
        sigma = VolatilityOperator((humped_volatility(grid, 0.01),))
    else:
        sigma = decaying_volatility_family(grid, 3, _PROP_S, weight_order=1.0)

    def sampler(t, p):
        c = 1.0 + 0.7 * t
        first = Curve(grid, c * sigma.factors[0].g - 0.003, 0.003)  # vanishes at 0
        factors = (first,) + tuple(Curve(grid, c * f.g, 0.0) for f in sigma.factors[1:])
        drift = Curve(grid, np.sin(grid.nodes) * 0.01 * c - 0.001 * t, 0.001 * t)
        return DriftCurve(drift), VolatilityOperator(factors)

    return CoefficientSchedule("deterministic", sampler)


@pytest.mark.parametrize("n_factors", [1, 3])
@pytest.mark.parametrize("with_gamma", [False, True])
def test_exponent_coefficients_of_a_deterministic_table_match_the_per_step_formula(
    n_factors, with_gamma
):
    schedule = _time_varying_schedule(n_factors)
    times = np.linspace(0.0, 0.8, 9)
    dt = 0.1
    gamma = None
    if with_gamma:
        gamma = np.linspace(0.2, -0.1, n_factors) * (1.0 + times[:-1, None])
    table = coefficient_table(schedule, _PROP_GRID, times[:-1])
    got = dynamics._exponent_coefficients(*table, gamma, dt)
    assert_same_bits(got, deterministic_exponent_rows(schedule, times, gamma, dt))


@pytest.mark.parametrize("n_factors", [1, 3])
@pytest.mark.parametrize("with_gamma", [False, True])
def test_exponent_coefficients_of_per_path_rows_match_the_per_path_formula(
    n_factors, with_gamma
):
    schedule, gamma = _prop_schedule(n_factors, state_dependent=True)
    path = _prop_run(12, seed=4, n_factors=n_factors, measure="P", horizon=0.8)
    k = 5
    t = float(path.times[k])
    curves = [path.curve_at(k, j) for j in range(path.n_paths)]
    gamma_k = gamma if with_gamma else None
    table = coefficient_table(schedule, _PROP_GRID, t, curves)
    got = dynamics._exponent_coefficients(*table, gamma_k, path.config.dt)
    expected = per_path_exponent_rows(schedule, t, curves, gamma_k, path.config.dt)
    assert_same_bits(got, expected)


@pytest.mark.parametrize("measure", ["P", "Q"])
def test_state_dependent_simulation_steps_with_the_per_path_formula(measure):
    # one step of simulate_mild, redone with the per-path oracle and the kernel
    schedule, gamma = _prop_schedule(3, state_dependent=True)
    path = _prop_run(9, seed=2, n_factors=3, measure=measure, horizon=0.8, state_dependent=True)
    cfg = path.config
    shift = cfg.dt / cfg.grid.dx
    k0 = int(math.floor(shift))
    for k in (0, 3):
        curves = [path.curve_at(k, j) for j in range(path.n_paths)]
        base, sig, base_a, sig_a = per_path_exponent_rows(
            schedule, float(path.times[k]), curves, gamma if measure == "Q" else None, cfg.dt
        )
        dw = path.dw[:, k]
        expo = np.empty((path.n_paths, 1))
        exponent(dw, sig_a[:, :, None], base_a[:, None], expo)
        fill = path.fill[k] * np.exp(expo[:, 0])
        out = np.empty_like(path.states[k])
        dynamics.kernels.step_exp_shift(path.states[k], dw, sig, base, fill, k0, shift - k0, out)
        assert out.tobytes() == path.states[k + 1].tobytes()
        assert fill.tobytes() == path.fill[k + 1].tobytes()
