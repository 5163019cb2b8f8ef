"""Tests for hedge operators, the pseudo-inverse solve, and completion."""
import math

import numpy as np
import pytest

from bondlab.curve_space import (
    Curve,
    DualAtom,
    MaturityGrid,
    SobolevIndex,
    multiply,
    sobolev_inner,
    sobolev_norm,
    translate,
)
from bondlab.dynamics import SimConfig, simulate_mild
from bondlab.errors import ConfigInvalid, OutOfRange
from bondlab.hedging import (
    WeightedSequenceIndex,
    clark_ocone_integrand_deterministic,
    complete_hedge,
    conditional_wealth_tables,
    eta_curve,
    gram_operators,
    integrand_from_strategy,
    remaining_variance,
    solve_hedge_step,
    weighted_condition_diagnostic,
)
from bondlab.market_model import (
    DriftCurve,
    VolatilityOperator,
    constant_coefficients,
    decaying_volatility_family,
    girsanov_density_path,
    humped_volatility,
)
from bondlab.portfolio import buy_and_hold_zero_coupon, ledger, value_path
from bondlab.utility import log_utility, quadratic_utility

from conftest import make_market, per_level_inner


def _two_factor_schedule(grid):
    f1 = humped_volatility(grid, 0.01)
    f2 = Curve(grid, 0.008 * grid.nodes**2 * np.exp(-2.0 * grid.nodes), 0.0)
    sigma = VolatilityOperator((f1, f2))
    zero = Curve(grid, np.zeros(grid.n_points), 0.0)
    return constant_coefficients(DriftCurve(zero), sigma)


# --- gram operators ---------------------------------------------------------------


def test_gram_zero_volatility_gives_zero_operator(grid, s1):
    from conftest import make_zero_vol_market

    p0, schedule, _ = make_zero_vol_market(grid)
    ops = gram_operators(p0, schedule, np.linspace(0.0, 1.0, 5), s1)
    assert np.max(np.abs(ops.A)) == 0.0


def test_gram_single_factor_matches_norm(grid, s1):
    p0, schedule, _ = make_market(grid)
    times = np.linspace(0.0, 1.0, 5)
    ops = gram_operators(p0, schedule, times, s1)
    sig = schedule.at(0.0)[1].factors[0]
    for k, t in enumerate(times):
        b = multiply(translate(p0, float(t)), sig)
        assert ops.A[k, 0, 0] == pytest.approx(sobolev_norm(b, s1) ** 2, rel=1e-12)


def test_gram_orthogonal_factors_give_diagonal(grid, s1):
    p0, _, _ = make_market(grid)
    f1 = humped_volatility(grid, 0.01)
    raw = Curve(grid, 0.01 * grid.nodes**2 * np.exp(-2.0 * grid.nodes), 0.0)
    # orthogonalize the products l_0 f_i at t = 0, where l_0 = p0
    b1, braw = multiply(p0, f1), multiply(p0, raw)
    coef = sobolev_inner(braw, b1, s1) / sobolev_inner(b1, b1, s1)
    f2 = Curve(grid, raw.g - coef * f1.g, 0.0)
    sigma = VolatilityOperator((f1, f2))
    zero = Curve(grid, np.zeros(grid.n_points), 0.0)
    schedule = constant_coefficients(DriftCurve(zero), sigma)
    ops = gram_operators(p0, schedule, np.array([0.0]), s1)
    off = abs(ops.A[0, 0, 1])
    assert off <= 1e-12 * math.sqrt(ops.A[0, 0, 0] * ops.A[0, 1, 1])


@pytest.mark.parametrize("order", [1, 2])
def test_gram_entries_are_inner_products_of_the_product_curves(grid, order):
    # B_t^i must be multiply(L_t p0, sigma^i) bit for bit, and A_t its
    # one-row inner products; the per-level trapezoid differs by rounding
    s = SobolevIndex(order)
    p0, _, _ = make_market(grid)
    factors = (
        humped_volatility(grid, 0.01),
        humped_volatility(grid, 0.008, 0.5),
        Curve(grid, -0.005 * np.exp(-grid.nodes), 0.005),  # nonzero constant part
    )
    zero = Curve(grid, np.zeros(grid.n_points), 0.0)
    schedule = constant_coefficients(DriftCurve(zero), VolatilityOperator(factors))
    times = np.linspace(0.0, 1.0, 5)
    ops = gram_operators(p0, schedule, times, s)
    for k, t in enumerate(times):
        B = [multiply(translate(p0, float(t)), f) for f in factors]
        for i in range(3):
            assert ops.B[k, i].tobytes() == B[i].g.tobytes() and ops.B_a[k, i] == B[i].a
            for j in range(3):
                assert ops.A[k, i, j] == sobolev_inner(B[i], B[j], s)
                bound = 1e-12 * math.sqrt(ops.A[k, i, i] * ops.A[k, j, j])
                assert abs(ops.A[k, i, j] - per_level_inner(B[i], B[j], s)) <= bound


# --- hedge-step solve ----------------------------------------------------------------


def test_solve_zero_target_gives_zero(grid, s1):
    p0, schedule, _ = make_market(grid)
    ops = gram_operators(p0, schedule, np.array([0.0, 0.5]), s1)
    c, resid = solve_hedge_step(ops, 0, np.zeros(1))
    assert np.all(c == 0.0) and resid == 0.0


def test_solve_forward_map_round_trip(grid, s1):
    # x = B*g (pairings of a chosen curve) is attainable by construction
    p0, _, _ = make_market(grid)
    schedule = _two_factor_schedule(grid)
    times = np.linspace(0.0, 1.0, 9)
    ops = gram_operators(p0, schedule, times, s1)
    rng = np.random.default_rng(51)
    for k in range(len(times)):
        g_curve = Curve(
            grid,
            rng.uniform(-1.0, 1.0) * np.exp(-grid.nodes)
            + rng.uniform(-1.0, 1.0) * grid.nodes * np.exp(-grid.nodes),
            float(rng.uniform(-0.5, 0.5)),
        )
        B_k = [Curve(grid, g, a) for g, a in zip(ops.B[k], ops.B_a[k])]
        x = np.array([sobolev_inner(b, g_curve, s1) for b in B_k])
        c, resid = solve_hedge_step(ops, k, x)
        assert resid <= 1e-10 * np.linalg.norm(x)
        # eta reproduces the same pairings
        eta = eta_curve(ops, k, c)
        x_eta = np.array([sobolev_inner(b, eta, s1) for b in B_k])
        assert np.allclose(x_eta, x, rtol=1e-9, atol=1e-16)


def test_solve_batch_matches_single(grid, s1):
    p0, _, _ = make_market(grid)
    schedule = _two_factor_schedule(grid)
    ops = gram_operators(p0, schedule, np.array([0.0]), s1)
    rng = np.random.default_rng(52)
    targets = (rng.uniform(-1.0, 1.0, size=(5, 2)) @ ops.A[0]).astype(np.float64)
    c_batch, r_batch = solve_hedge_step(ops, 0, targets)
    for j in range(5):
        c_j, r_j = solve_hedge_step(ops, 0, targets[j])
        assert np.allclose(c_batch[j], c_j, rtol=1e-14)
        assert r_batch[j] == pytest.approx(r_j, abs=1e-18)


def test_solve_dead_factor_target_is_out_of_range(grid, s1):
    p0, _, _ = make_market(grid)
    f1 = humped_volatility(grid, 0.01)
    dead = Curve(grid, np.zeros(grid.n_points), 0.0)
    sigma = VolatilityOperator((f1, dead))
    schedule = constant_coefficients(DriftCurve(dead), sigma)
    ops = gram_operators(p0, schedule, np.array([0.0]), s1)
    with pytest.raises(OutOfRange):
        solve_hedge_step(ops, 0, np.array([0.0, 1.0]))


# --- integrands -----------------------------------------------------------------------


def test_integrand_of_zero_and_cash_strategies(market):
    from bondlab.portfolio import PortfolioStrategy

    path, schedule = market["path"], market["schedule"]
    zero = PortfolioStrategy("zero", lambda k, prefix: [], deterministic=True)
    x = integrand_from_strategy(zero, path, schedule)
    assert np.max(np.abs(x)) == 0.0
    cash = PortfolioStrategy(
        "cash", lambda k, prefix: [DualAtom(0.0, 1.0, 0)], deterministic=True
    )
    x = integrand_from_strategy(cash, path, schedule)
    assert np.max(np.abs(x)) <= 1e-16  # sigma(0) = 0


def test_integrand_of_fixed_atom_matches_direct_pairing(market):
    from bondlab.portfolio import PortfolioStrategy

    path, schedule = market["path"], market["schedule"]
    S = 1.5
    strat = PortfolioStrategy(
        "atom", lambda k, prefix: [DualAtom(S, 2.0, 0)], deterministic=True
    )
    x = integrand_from_strategy(strat, path, schedule)
    sig = schedule.at(0.0)[1].factors[0]
    for k in (0, 31):
        for j in (0, 7):
            p_k = path.curve_at(k, j)
            expected = 2.0 * p_k.value_at(S) * sig.value_at(S)
            assert x[k, j, 0] == pytest.approx(expected, rel=1e-10)


def test_clark_ocone_log_and_quadratic_closed_forms(market):
    path = market["path"]
    gamma = market["gamma"]
    dt = market["config"].dt
    xi = girsanov_density_path(gamma, path.dw, dt)
    v = 1.0
    x_log = clark_ocone_integrand_deterministic(log_utility(), 1.0 / v, gamma, xi, dt)
    expected = gamma[0] * v / xi[:, :-1].T[:, :, None]
    assert np.allclose(x_log, expected, rtol=1e-12)
    # quadratic: x_t = gamma (mu - Y_t) with Y_t the conditional wealth
    u = quadratic_utility(2.0)
    lam = 0.9
    Y, _ = conditional_wealth_tables(u, lam, gamma, xi, dt)
    x_quad = clark_ocone_integrand_deterministic(u, lam, gamma, xi, dt)
    assert np.allclose(x_quad[:, :, 0], gamma[0] * (2.0 - Y[:-1]), rtol=1e-12)


def test_clark_ocone_zero_gamma_is_zero(market):
    path = market["path"]
    dt = market["config"].dt
    xi = np.ones((path.n_paths, path.n_steps + 1))
    x = clark_ocone_integrand_deterministic(log_utility(), 1.0, np.array([0.0]), xi, dt)
    assert np.max(np.abs(x)) == 0.0


def test_remaining_variance_is_reversed_cumsum():
    g = np.array([[0.2], [0.3], [0.1]])
    h = remaining_variance(g, 3, 0.5)
    expected = np.array([0.5 * (0.04 + 0.09 + 0.01), 0.5 * (0.09 + 0.01), 0.5 * 0.01, 0.0])
    assert np.allclose(h, expected, rtol=1e-14)


# --- hedge completion -------------------------------------------------------------------


def test_complete_hedge_constant_claim_is_pure_cash(market):
    path, schedule = market["path"], market["schedule"]
    config = market["config"]
    ops = gram_operators(market["p0"], schedule, path.times, config.s)
    K, P = path.n_steps, path.n_paths
    c = 0.97
    integrands = np.zeros((K, P, 1))
    result = complete_hedge(
        ops, path, integrands, price0=c, gamma=market["gamma"], atom_maturities=[1.0, 2.0]
    )
    assert np.max(np.abs(result.weights)) <= 1e-12
    assert np.allclose(result.cash, c / path.value0, rtol=1e-12)
    led = ledger(result.strategy, path, schedule)
    assert np.allclose(led.wealth[-1], c, rtol=1e-10)


def test_complete_hedge_stores_weights_once(market):
    path, schedule = market["path"], market["schedule"]
    ops = gram_operators(market["p0"], schedule, path.times, market["config"].s)
    integrands = integrand_from_strategy(buy_and_hold_zero_coupon(2.0), path, schedule)
    result = complete_hedge(ops, path, integrands, 0.9, gamma=market["gamma"])
    table = result.strategy.weights
    K, M = path.n_steps, result.atom_maturities.size
    assert table.shape == (K + 1, path.n_paths, M + 1)
    assert np.shares_memory(result.weights, table)
    assert not result.weights.flags.writeable
    assert result.weights.tobytes() == table[:K, :, 1:].tobytes()
    assert np.all(table[K, :, 1:] == 0.0)
    assert table[:, :, 0].tobytes() == result.cash.tobytes()


def test_complete_hedge_round_trip_replicates_strategy(market):
    # claim = terminal wealth of a known self-financing strategy; its own
    # integrands close the loop and the hedge should match its residual
    path, schedule = market["path"], market["schedule"]
    config = market["config"]
    target = buy_and_hold_zero_coupon(2.0)
    target_led = ledger(target, path, schedule)
    claim = target_led.wealth[-1]
    integrands = integrand_from_strategy(target, path, schedule)
    ops = gram_operators(market["p0"], schedule, path.times, config.s)
    result = complete_hedge(
        ops,
        path,
        integrands,
        price0=float(target_led.wealth[0, 0]),
        gamma=market["gamma"],
    )
    hedge_led = ledger(result.strategy, path, schedule)
    errors = hedge_led.wealth[-1] - claim
    rms = float(np.sqrt(np.mean(errors**2)))
    assert rms <= 2.0 * max(target_led.max_residual, 1e-12)
    # conditional value is the running wealth identity V_t = E_Q[X|F_t]
    assert np.allclose(hedge_led.wealth[:-1], result.conditional_value[:-1], rtol=1e-8, atol=1e-10)


def test_complete_hedge_cash_completion_identity(market):
    # cash * p_t(0) + sum_j w_j p_t(S_j) = conditional value at every step
    path, schedule = market["path"], market["schedule"]
    config = market["config"]
    target = buy_and_hold_zero_coupon(2.0)
    integrands = integrand_from_strategy(target, path, schedule)
    led = ledger(target, path, schedule)
    ops = gram_operators(market["p0"], schedule, path.times, config.s)
    result = complete_hedge(
        ops, path, integrands, price0=float(led.wealth[0, 0]), gamma=market["gamma"]
    )
    from bondlab.curve_space import atoms_value_matrix

    for k in (0, 17, 40):
        p_at = atoms_value_matrix(result.atom_maturities, path.states[k], config.grid)
        total = result.cash[k] * path.value0[k] + np.sum(result.weights[k] * p_at, axis=1)
        assert np.allclose(total, result.conditional_value[k], rtol=1e-10)


def test_complete_hedge_matches_the_product_curve_atom_system(grid, s1):
    # reference: the per-factor atom system read off whole (P, N) products
    from bondlab.curve_space import atoms_value_matrix
    from bondlab.dynamics import flat_forward_curve
    from bondlab.market_model import q_brownian_increments

    schedule = _two_factor_schedule(grid)
    p0 = flat_forward_curve(grid, 0.05)
    config = SimConfig(grid=grid, s=s1, horizon=1.0, n_steps=16, n_paths=12, seed=3)
    path = simulate_mild(p0, schedule, config, keep_states=True)
    ops = gram_operators(p0, schedule, path.times, s1)
    integrands = integrand_from_strategy(buy_and_hold_zero_coupon(2.0), path, schedule)
    gamma = np.array([0.1, 0.05])
    result = complete_hedge(ops, path, integrands, 0.9, gamma=gamma)
    S = result.atom_maturities
    dw_q = q_brownian_increments(path.dw, gamma, config.dt)
    vbar = np.full(path.n_paths, 0.9)
    for k in range(path.n_steps):
        c, _ = solve_hedge_step(ops, k, integrands[k])
        targets = c @ ops.A[k]
        mat = np.stack(
            [atoms_value_matrix(S, path.states[k] * sig, grid) for sig in ops.sigma_values[k]],
            axis=1,
        )
        w = (np.linalg.pinv(mat) @ targets[:, :, None])[:, :, 0]
        p_at = atoms_value_matrix(S, path.states[k], grid)
        cash = (vbar - np.sum(w * p_at, axis=1)) / path.value0[k]
        assert result.weights[k].tobytes() == w.tobytes()
        assert result.cash[k].tobytes() == cash.tobytes()
        vbar = vbar + np.einsum("pn,pn->p", targets, dw_q[:, k, :])
    assert result.conditional_value[-1].tobytes() == vbar.tobytes()


def test_complete_hedge_validates_inputs(market):
    path, schedule = market["path"], market["schedule"]
    config = market["config"]
    ops = gram_operators(market["p0"], schedule, path.times, config.s)
    K, P = path.n_steps, path.n_paths
    with pytest.raises(ConfigInvalid):
        complete_hedge(ops, path, np.zeros((K, P, 1)), price0=1.0)  # no gamma
    with pytest.raises(ConfigInvalid):
        complete_hedge(ops, path, np.zeros((K, P, 2)), price0=1.0, gamma=market["gamma"])
    stateless = simulate_mild(market["p0"], schedule, config)
    with pytest.raises(ConfigInvalid):
        complete_hedge(ops, stateless, np.zeros((K, P, 1)), price0=1.0, gamma=market["gamma"])


# --- weighted sequence diagnostic ------------------------------------------------------


def test_weighted_diagnostic_identity_operator():
    report = weighted_condition_diagnostic(np.eye(3), WeightedSequenceIndex(0.0))
    assert report["k"] == pytest.approx(1.0, rel=1e-12)
    assert report["bounded"]
    assert report["worst_trial_ratio"] <= report["k"] + 1e-12


def test_weighted_diagnostic_cancelling_weights():
    s_seq = 1.5
    idx = WeightedSequenceIndex(s_seq)
    w = idx.weights(4)
    A = np.diag(1.0 / w**2)  # A^{1/2} W^2 A^{1/2} = I
    report = weighted_condition_diagnostic(A, idx)
    assert report["k"] == pytest.approx(1.0, rel=1e-10)


def test_weighted_diagnostic_flags_singular_operator():
    A = np.diag([1.0, 0.0])
    report = weighted_condition_diagnostic(A, WeightedSequenceIndex(1.0))
    assert not report["bounded"]
    assert report["k"] == math.inf


def test_weighted_diagnostic_stack_takes_worst_step():
    idx = WeightedSequenceIndex(0.0)
    stack = np.stack([np.eye(2), np.diag([1.0, 0.25])])
    report = weighted_condition_diagnostic(stack, idx)
    assert report["k"] == pytest.approx(2.0, rel=1e-12)  # 1/sqrt(0.25)
    assert len(report["min_weighted_eigs"]) == 2


def test_singular_values_decay_at_configured_rate(grid, s1):
    # compactness witness: the family scales factor i to norm
    # ~ (1+i^2)^{-(order+1)/2}, so Gram diagonals A_ii = |l_t sigma^i|^2
    # follow slope -(order+1) in log A_ii vs log(1+i^2); eigenvalues of
    # the near-collinear humps decay at least that fast
    p0, _, _ = make_market(grid)
    order = 1.5
    family = decaying_volatility_family(grid, 6, s1, weight_order=order)
    zero = Curve(grid, np.zeros(grid.n_points), 0.0)
    schedule = constant_coefficients(DriftCurve(zero), family)
    ops = gram_operators(p0, schedule, np.array([0.0]), s1)
    diag = np.diag(ops.A[0])
    i = np.arange(1, 7, dtype=np.float64)
    slope = np.polyfit(np.log(1.0 + i * i), np.log(diag), 1)[0]
    assert -(order + 1.0) - 0.3 <= slope <= -(order + 1.0) + 0.3
    eigs = np.sort(np.linalg.eigvalsh(ops.A[0]))[::-1]
    assert eigs[-1] > 0.0
    eig_slope = np.polyfit(np.log(i), np.log(eigs), 1)[0]
    assert eig_slope <= -(order + 1.0)
