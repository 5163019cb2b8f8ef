"""Tests for multiplier calibration and the optimal bond portfolio."""

import numpy as np
import pytest
from conftest import make_market

from bondlab.curve_space import Curve, atoms_value_matrix
from bondlab.dynamics import SimConfig, flat_forward_curve, simulate_mild
from bondlab.errors import (
    BracketFailure,
    BudgetInfeasible,
    ConditionCFails,
    ConfigInvalid,
    DecompositionFails,
    ValidationFailure,
)
from bondlab.hedging import default_atom_maturities, gram_operators
from bondlab.market_model import (
    CoefficientSchedule,
    DriftCurve,
    VolatilityOperator,
    humped_volatility,
)
from bondlab.optimizer import (
    LognormalTerminalLaw,
    calibrate_lambda,
    condition_C_portfolio,
    mutual_fund_decompose,
    optimal_strategy_deterministic,
    optimal_strategy_log_stochastic,
    optimal_terminal_wealth,
)
from bondlab.portfolio import ledger, self_financing_tolerance, value_path
from bondlab.utility import (
    concavity_gap,
    exponential_utility,
    log_utility,
    power_utility,
    quadratic_utility,
)

CLOSED_FORM_FAMILIES = [
    quadratic_utility(2.0),
    exponential_utility(1.0),
    power_utility(0.5),
    log_utility(),
]


def _lognormal_samples(total_variance, n, seed):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    z = rng.standard_normal(n)
    return np.exp(-0.5 * total_variance + np.sqrt(total_variance) * z)


def _plan_ops(market, s):
    return gram_operators(
        market["p0"], market["schedule"], market["path"].times, s
    )


# --- calibration -------------------------------------------------------------------


def test_lognormal_law_validation():
    assert LognormalTerminalLaw(0.0).total_variance == 0.0
    with pytest.raises(ValidationFailure):
        LognormalTerminalLaw(-0.1)
    with pytest.raises(ValidationFailure):
        LognormalTerminalLaw(float("inf"))


def test_calibrate_log_is_exact_for_any_law():
    for law in (LognormalTerminalLaw(0.25), np.array([0.5, 1.0, 2.0])):
        cal = calibrate_lambda(log_utility(), law, 4.0)
        assert cal.lambda_hat == 0.25
        assert cal.method == "exact"
        assert cal.phi_residual == 0.0


def test_calibrate_quadratic_closed_form():
    mu, v, H = 2.0, 1.25, 0.04
    cal = calibrate_lambda(quadratic_utility(mu), LognormalTerminalLaw(H), v)
    assert cal.method == "closed_form"
    assert cal.lambda_hat == pytest.approx((mu - v) * np.exp(-H), rel=1e-12)
    assert abs(cal.phi_residual) <= 1e-10
    assert not cal.sign_flag


def test_calibrate_zero_gamma_matches_marginal():
    # xi_T = 1: phi(lambda) = I(lambda), so lambda-hat = U'(v)
    law = LognormalTerminalLaw(0.0)
    for u in CLOSED_FORM_FAMILIES:
        v = 1.25 if u.family != "quadratic" else 1.5
        cal = calibrate_lambda(u, law, v)
        assert cal.lambda_hat == pytest.approx(u.marginal(v), rel=1e-10)


def test_calibrate_sample_law_bisection():
    xi = _lognormal_samples(0.04, 200_000, 31)
    for u in (power_utility(0.5), exponential_utility(1.0), quadratic_utility(2.0)):
        v = 1.1
        cal = calibrate_lambda(u, xi, v)
        assert cal.method == "bisection"
        budget = float(np.mean(xi * u.inverse_marginal(cal.lambda_hat * xi)))
        assert abs(budget - v) <= 1e-9 * v
        closed = calibrate_lambda(u, LognormalTerminalLaw(0.04), v).lambda_hat
        assert cal.lambda_hat == pytest.approx(closed, rel=0.05)


def test_calibrate_budget_infeasible():
    with pytest.raises(BudgetInfeasible):
        calibrate_lambda(log_utility(), LognormalTerminalLaw(0.0), 0.0)
    with pytest.raises(BudgetInfeasible):
        calibrate_lambda(power_utility(0.5), LognormalTerminalLaw(0.0), -1.0)
    with pytest.raises(BudgetInfeasible):
        calibrate_lambda(log_utility(), LognormalTerminalLaw(0.0), float("inf"))


def test_calibrate_quadratic_satiation_sets_sign_flag():
    cal = calibrate_lambda(quadratic_utility(2.0), LognormalTerminalLaw(0.04), 2.5)
    assert cal.sign_flag
    assert cal.lambda_hat <= 0.0


def test_calibrate_bracket_failure_beyond_sample_satiation():
    # quadratic sample budget phi(lambda) = mu - lambda < v for every lambda > 0
    xi = np.ones(8)
    with pytest.raises(BracketFailure):
        calibrate_lambda(quadratic_utility(2.0), xi, 3.0)


def test_calibrate_rejects_bad_sample_law():
    with pytest.raises(ValidationFailure):
        calibrate_lambda(power_utility(0.5), np.array([1.0, -0.5]), 1.0)
    with pytest.raises(ValidationFailure):
        calibrate_lambda(power_utility(0.5), np.ones((4, 4)), 1.0)


# --- optimal terminal wealth --------------------------------------------------------


def test_optimal_terminal_wealth_closed_identities():
    H, v = 0.09, 1.25
    xi = _lognormal_samples(H, 50_000, 5)

    u_log = log_utility()
    lam = calibrate_lambda(u_log, LognormalTerminalLaw(H), v).lambda_hat
    x_hat, mean_u = optimal_terminal_wealth(u_log, lam, xi)
    assert np.allclose(x_hat, v / xi, rtol=1e-12)
    assert mean_u == pytest.approx(float(np.mean(np.log(x_hat))), rel=1e-12)

    u_q = quadratic_utility(2.0)
    lam_q = calibrate_lambda(u_q, LognormalTerminalLaw(H), v).lambda_hat
    x_hat_q, _ = optimal_terminal_wealth(u_q, lam_q, xi)
    z = xi * np.exp(-H)
    assert np.allclose(x_hat_q, u_q.mu + (v - u_q.mu) * z, rtol=1e-12)


def test_optimal_wealth_budget_closed_form_and_mc():
    from bondlab.utility import phi_closed_form

    H, v = 0.04, 1.2
    xi = _lognormal_samples(H, 200_000, 17)
    for u in CLOSED_FORM_FAMILIES:
        lam = calibrate_lambda(u, LognormalTerminalLaw(H), v).lambda_hat
        assert phi_closed_form(u, lam, H) == pytest.approx(v, abs=1e-10)
        x_hat, _ = optimal_terminal_wealth(u, lam, xi)
        funded = xi * x_hat
        se = float(np.std(funded) / np.sqrt(xi.size))
        assert abs(float(np.mean(funded)) - v) <= 3.0 * se + 1e-12


def test_optimal_wealth_dominates_feasible_competitors():
    H, v = 0.09, 1.2
    xi = _lognormal_samples(H, 100_000, 23)
    competitors = [np.ones_like(xi), xi ** -0.5, xi ** -2.0, 1.0 / (1.0 + xi)]
    for u in CLOSED_FORM_FAMILIES:
        lam = calibrate_lambda(u, LognormalTerminalLaw(H), v).lambda_hat
        x_hat, mean_u = optimal_terminal_wealth(u, lam, xi)
        for w in competitors:
            x = v * w / float(np.mean(xi * w))  # rescaled onto the budget
            gap = concavity_gap(u, x_hat, x, lam * xi)
            assert float(np.max(gap)) <= 1e-10
            diff = u.u(x_hat) - u.u(x)
            se = float(np.std(diff) / np.sqrt(diff.size))
            assert mean_u >= float(np.mean(u.u(x))) - 3.0 * se


# --- condition (C) portfolio --------------------------------------------------------


def _two_factor_ops(grid, s, times):
    f1 = humped_volatility(grid, 0.01)
    x = grid.nodes
    f2 = Curve(grid, 0.008 * x * x * np.exp(-2.0 * x), 0.0)
    zero = Curve(grid, np.zeros(grid.n_points), 0.0)
    schedule = CoefficientSchedule(
        "deterministic", lambda t, p: (DriftCurve(zero), VolatilityOperator((f1, f2)))
    )
    p0 = flat_forward_curve(grid, 0.05)
    return gram_operators(p0, schedule, times, s), p0


def test_condition_c_zero_gamma_gives_zero_portfolio(grid, s1):
    times = np.array([0.0, 0.5, 1.0])
    ops, _ = _two_factor_ops(grid, s1, times)
    theta0 = condition_C_portfolio(ops, np.zeros((3, 2)))
    assert np.all(theta0.weights == 0.0)
    assert np.all(theta0.l_pair == 0.0)


def test_condition_c_one_factor_scalar_solve(grid, s1, market):
    times = market["path"].times
    ops = _plan_ops(market, s1)
    K1 = len(times)
    gamma_nodes = np.full((K1, 1), 0.2)
    S = np.array([2.0])
    theta0 = condition_C_portfolio(ops, gamma_nodes, maturities=S)
    sigma = market["schedule"].at(0.0)[1].factors[0]
    for k in (0, K1 // 2, K1 - 1):
        l_S = float(atoms_value_matrix(S, ops.l[k] + ops.l_a, ops.grid)[0])
        s_S = float(atoms_value_matrix(S, sigma.values(), ops.grid)[0])
        assert theta0.weights[k, 0] == pytest.approx(0.2 / (l_S * s_S), rel=1e-12)
    assert np.allclose(theta0.condition_numbers, 1.0)


def test_condition_c_residual_certificate(grid, s1):
    times = np.linspace(0.0, 1.0, 5)
    ops, _ = _two_factor_ops(grid, s1, times)
    rng = np.random.default_rng(np.random.SeedSequence([41, 0]))
    gamma_nodes = 0.3 * rng.standard_normal((5, 2))
    mats = np.array([1.0, 3.0])
    theta0 = condition_C_portfolio(ops, gamma_nodes, maturities=mats)
    for k in range(5):
        mat = np.stack(
            [atoms_value_matrix(mats, ops.B[k, i] + ops.B_a[k, i], ops.grid) for i in range(2)]
        )
        resid = mat @ theta0.weights[k] - gamma_nodes[k]
        assert float(np.max(np.abs(resid))) <= 1e-10
        assert theta0.l_pair[k] == pytest.approx(
            float(theta0.weights[k] @ atoms_value_matrix(mats, ops.l[k] + ops.l_a, ops.grid)),
            rel=1e-12,
        )


def test_condition_c_min_norm_with_extra_atoms(grid, s1):
    times = np.array([0.0, 0.5])
    ops, _ = _two_factor_ops(grid, s1, times)
    gamma_nodes = np.array([[0.1, -0.2], [0.05, 0.3]])
    mats = np.array([1.0, 2.0, 3.0])
    theta0 = condition_C_portfolio(ops, gamma_nodes, maturities=mats)
    for k in range(2):
        mat = np.stack(
            [atoms_value_matrix(mats, ops.B[k, i] + ops.B_a[k, i], ops.grid) for i in range(2)]
        )
        assert float(np.max(np.abs(mat @ theta0.weights[k] - gamma_nodes[k]))) <= 1e-10
        expected = np.linalg.lstsq(mat, gamma_nodes[k], rcond=None)[0]
        assert np.allclose(theta0.weights[k], expected, rtol=1e-9, atol=1e-12)


def test_condition_c_failures(grid, s1):
    times = np.array([0.0])
    ops, _ = _two_factor_ops(grid, s1, times)
    gamma_nodes = np.array([[0.1, 0.2]])
    with pytest.raises(ConditionCFails):
        condition_C_portfolio(ops, gamma_nodes, maturities=np.array([1.5, 1.5]))
    with pytest.raises(ConfigInvalid):
        condition_C_portfolio(ops, gamma_nodes, maturities=np.array([1.5]))
    with pytest.raises(ConfigInvalid):
        condition_C_portfolio(ops, np.zeros((2, 2)))


def test_default_theta0_maturities(grid):
    # condition (C) uses one atom per factor: m = n
    mats = default_atom_maturities(3, grid, 1.0, m=3)
    assert np.allclose(mats, [0.5, 1.75, 3.0])
    with pytest.raises(ValidationFailure):
        default_atom_maturities(2, grid, 3.6, m=2)


# --- optimal strategy, deterministic gamma ------------------------------------------


def _log_ratio_scenario(grid, n_steps=64, n_paths=16, seed=11):
    # gamma generated by theta0 = delta_S with unit weight: gamma_t = l_t(S) sigma(S)
    from bondlab.curve_space import SobolevIndex

    p0 = flat_forward_curve(grid, 0.05)
    sigma = humped_volatility(grid, 0.1)
    sig_op = VolatilityOperator((sigma,))
    nodes = grid.nodes
    S = 2.0
    idx_S = int(round(S / grid.dx))
    assert abs(nodes[idx_S] - S) < 1e-14
    sig_S = float(sigma.values()[idx_S])

    def gamma_fn(t):
        l_S = float(np.interp(S + t, nodes, p0.g, right=0.0)) + p0.a
        return np.array([l_S * sig_S])

    def sampler(t, p):
        g = float(gamma_fn(t)[0])
        return DriftCurve(Curve(grid, g * sigma.values(), 0.0)), sig_op

    schedule = CoefficientSchedule("deterministic", sampler)
    config = SimConfig(grid, SobolevIndex(1), 1.0, n_steps, n_paths, seed)
    path = simulate_mild(p0, schedule, config, keep_states=True)
    return p0, schedule, gamma_fn, config, path, S


def test_optimal_log_plan_wealth_and_ratio_law(grid, s1):
    p0, schedule, gamma_fn, config, path, S = _log_ratio_scenario(grid)
    ops = gram_operators(p0, schedule, path.times, s1)
    v = 1.25
    plan = optimal_strategy_deterministic(
        log_utility(), v, ops, path, gamma_fn, maturities=np.array([S])
    )
    assert plan.lambda_hat == pytest.approx(1.0 / v, rel=1e-14)
    # theta0 recovers the generating unit atom
    assert np.allclose(plan.theta0.weights, 1.0, rtol=1e-10)
    # log kernel: Y_t = y_t = v / xi_t
    assert np.allclose(plan.Y, (v / plan.xi).T, rtol=1e-12)
    assert np.allclose(plan.y, plan.Y, rtol=1e-12)
    # wealth identity V_t = Y_t through the pairing
    V = value_path(plan.strategy, path)
    assert np.allclose(V, plan.Y, rtol=1e-9)
    # ratio law: fraction of wealth at maturity S is the initial curve at S+t
    frac = plan.weights[:, :, 0] * np.vstack(
        [atoms_value_matrix(np.array([S]), st, grid)[:, 0] for st in path.states]
    ) / plan.Y
    for k, t in enumerate(path.times):
        target = float(np.interp(S + t, grid.nodes, p0.g, right=0.0)) + p0.a
        assert np.allclose(frac[k], target, atol=1e-8)


def test_optimal_log_plan_self_financing(grid, s1):
    p0, schedule, gamma_fn, config, path, S = _log_ratio_scenario(grid)
    ops = gram_operators(p0, schedule, path.times, s1)
    plan = optimal_strategy_deterministic(
        log_utility(), 1.25, ops, path, gamma_fn, maturities=np.array([S])
    )
    led = ledger(plan.strategy, path, schedule)
    assert led.max_residual <= self_financing_tolerance(led, config.dt)


def test_optimal_quadratic_plan_kernel_identity(market, s1):
    ops = _plan_ops(market, s1)
    u = quadratic_utility(2.0)
    plan = optimal_strategy_deterministic(
        u, 1.0, ops, market["path"], market["gamma"]
    )
    assert np.allclose(plan.y, u.mu - plan.Y, rtol=1e-12)
    assert np.array_equal(plan.x_hat, plan.Y[-1])
    assert plan.expected_utility == pytest.approx(
        float(np.mean(u.u(plan.x_hat))), rel=1e-12
    )
    xi_T = plan.xi[:, -1]
    funded = xi_T * plan.x_hat
    se = float(np.std(funded) / np.sqrt(funded.size))
    assert abs(float(np.mean(funded)) - 1.0) <= 3.0 * se + 1e-12


def test_optimal_plan_self_financing_all_families(market, s1):
    ops = _plan_ops(market, s1)
    path = market["path"]
    dt = market["config"].dt
    for u in CLOSED_FORM_FAMILIES:
        plan = optimal_strategy_deterministic(u, 1.0, ops, path, market["gamma"])
        led = ledger(plan.strategy, path, market["schedule"])
        tol = self_financing_tolerance(led, dt)
        assert led.max_residual <= tol, (u.family, led.max_residual, tol)
        assert np.allclose(led.wealth, plan.Y, rtol=1e-9)


def test_optimal_plan_calibration_reuse(market, s1):
    ops = _plan_ops(market, s1)
    u = power_utility(0.5)
    first = optimal_strategy_deterministic(u, 1.0, ops, market["path"], market["gamma"])
    second = optimal_strategy_deterministic(
        u, 1.0, ops, market["path"], market["gamma"], calibration=first.calibration
    )
    assert second.calibration is first.calibration
    assert np.array_equal(second.Y, first.Y)


def test_optimal_plan_validation(market, s1, grid):
    ops = _plan_ops(market, s1)
    path = market["path"]
    with pytest.raises(BudgetInfeasible):
        optimal_strategy_deterministic(
            quadratic_utility(2.0), 2.5, ops, path, market["gamma"]
        )
    stateless = simulate_mild(market["p0"], market["schedule"], market["config"])
    with pytest.raises(ConfigInvalid):
        optimal_strategy_deterministic(
            log_utility(), 1.0, ops, stateless, market["gamma"]
        )


# --- mutual fund decomposition ------------------------------------------------------


def _three_plans(market, s1, maturities):
    ops = _plan_ops(market, s1)
    path, gamma = market["path"], market["gamma"]
    make = lambda u, v: optimal_strategy_deterministic(
        u, v, ops, path, gamma, maturities=maturities
    )
    fund = make(log_utility(), 1.0)  # unit-wealth reference with a = 0
    return fund, make(power_utility(0.5), 1.2), make(exponential_utility(1.0), 0.8)


def test_mutual_fund_self_decomposition(market, s1):
    fund, _, _ = _three_plans(market, s1, np.array([1.0, 2.5]))
    dec = mutual_fund_decompose(fund, fund)
    assert np.all(dec.fund_part == 1.0)
    assert np.all(dec.cash_part == 0.0)
    assert dec.residual == 0.0


def test_mutual_fund_decomposes_other_utilities(market, s1):
    mats = np.array([1.0, 2.5])
    fund, plan_pow, plan_exp = _three_plans(market, s1, mats)
    for plan in (plan_pow, plan_exp):
        dec = mutual_fund_decompose(plan, fund)
        assert dec.residual <= 1e-8
        assert np.allclose(dec.fund_part, plan.y / fund.y, rtol=1e-12)
        rebuilt = dec.fund_part[:, :, None] * fund.weights
        assert np.allclose(rebuilt, plan.weights, atol=1e-10)
        rebuilt_cash = dec.cash_part + dec.fund_part * fund.cash
        assert np.allclose(rebuilt_cash, plan.cash, rtol=1e-9, atol=1e-12)


def test_mutual_fund_risky_parts_have_rank_one(market, s1):
    fund, plan_pow, plan_exp = _three_plans(market, s1, np.array([1.0, 2.5]))
    K = fund.weights.shape[0] - 1
    for k in (0, K // 2, K):
        for j in (0, 3):
            stack = np.stack(
                [fund.weights[k, j], plan_pow.weights[k, j], plan_exp.weights[k, j]]
            )
            sv = np.linalg.svd(stack, compute_uv=False)
            assert sv[1] <= 1e-8 * sv[0]


def test_mutual_fund_failures(market, s1):
    ops = _plan_ops(market, s1)
    path, gamma = market["path"], market["gamma"]
    plan = optimal_strategy_deterministic(
        power_utility(0.5), 1.2, ops, path, gamma, maturities=np.array([1.0, 2.5])
    )
    other_basis = optimal_strategy_deterministic(
        log_utility(), 1.0, ops, path, gamma, maturities=np.array([0.8, 2.0])
    )
    with pytest.raises(DecompositionFails):
        mutual_fund_decompose(plan, other_basis)
    one_atom = optimal_strategy_deterministic(
        log_utility(), 1.0, ops, path, gamma, maturities=np.array([2.0])
    )
    with pytest.raises(ConfigInvalid):
        mutual_fund_decompose(plan, one_atom)


# --- log utility under state-dependent volatility -----------------------------------


def test_log_stochastic_reduces_to_deterministic(grid, s1):
    p0, schedule, gamma_fn, config, path, S = _log_ratio_scenario(grid)
    ops = gram_operators(p0, schedule, path.times, s1)
    v = 1.25
    det = optimal_strategy_deterministic(
        log_utility(), v, ops, path, gamma_fn, maturities=np.array([S])
    )
    wrapped = CoefficientSchedule("state-dependent", schedule.sampler)
    path_sd = simulate_mild(p0, wrapped, config, keep_states=True)
    plan = optimal_strategy_log_stochastic(
        v, path_sd, wrapped, np.array([S]), theta0_weights=np.array([1.0])
    )
    K = path.n_steps
    gamma_det = np.stack([gamma_fn(k * config.dt) for k in range(K)])
    assert np.allclose(plan.gamma_paths, gamma_det[None, :, :], rtol=1e-12)
    assert np.allclose(plan.xi, det.xi, rtol=1e-10)
    assert np.allclose(plan.Y, det.Y, rtol=1e-9)
    assert np.allclose(plan.weights, det.weights, rtol=1e-8)
    assert np.allclose(plan.cash, det.cash, rtol=1e-8, atol=1e-12)


def test_log_stochastic_state_dependent_scenario(grid, s1):
    from bondlab.curve_space import SobolevIndex

    p0 = flat_forward_curve(grid, 0.05)
    base = humped_volatility(grid, 0.1)
    nodes = grid.nodes
    S = 2.0
    idx_S = int(round(S / grid.dx))
    idx_ref = int(round(1.0 / grid.dx))
    ref = float(p0.g[idx_ref]) + p0.a

    def sampler(t, p):
        # volatility scale reacts to the current level at x = 1
        level = float(p.g[idx_ref]) + p.a
        sv = base.values() * (1.0 + 4.0 * (level - ref))
        l_S = float(np.interp(S + t, nodes, p0.g, right=0.0)) + p0.a
        g = l_S * sv[idx_S]
        return DriftCurve(Curve(grid, g * sv, 0.0)), VolatilityOperator(
            (Curve(grid, sv, 0.0),)
        )

    schedule = CoefficientSchedule("state-dependent", sampler)
    config = SimConfig(grid, SobolevIndex(1), 1.0, 64, 16, 13)
    path = simulate_mild(p0, schedule, config, keep_states=True)
    v = 1.0
    plan = optimal_strategy_log_stochastic(
        v, path, schedule, np.array([S]), theta0_weights=np.array([1.0])
    )
    # gamma varies across paths (genuinely state-dependent)
    spread = np.ptp(plan.gamma_paths[:, -1, 0])
    assert spread > 0.0
    # ratio law pathwise: invested fraction matches the deterministic target
    p_at = np.stack([atoms_value_matrix(np.array([S]), st, grid) for st in path.states])
    frac = plan.weights * p_at / plan.Y[:, :, None]
    assert np.allclose(frac, plan.ratio_target[:, None, :], atol=1e-8)
    # martingale identity V_T xi_T = v through the ledger wealth
    led = ledger(plan.strategy, path, schedule)
    tol = self_financing_tolerance(led, config.dt)
    assert led.max_residual <= tol
    xi_T = plan.xi[:, -1]
    assert np.max(np.abs(led.wealth[-1] * xi_T - v)) <= tol * float(np.max(xi_T))


def test_log_stochastic_gamma_matches_the_per_path_loop(grid, s1):
    # reference: pair theta0 with the whole product curve L_t p0 sigma_t^i,
    # one (step, path, factor) at a time
    from bondlab.curve_space import translate

    p0 = flat_forward_curve(grid, 0.05)
    f1, f2 = humped_volatility(grid, 0.1).values(), humped_volatility(grid, 0.05, 0.4).values()
    idx_ref = int(round(1.0 / grid.dx))
    zero = DriftCurve(Curve(grid, np.zeros(grid.n_points), 0.0))

    def sampler(t, p):
        level = float(p.g[idx_ref]) + p.a
        factors = (Curve(grid, f1 * (1.0 + 4.0 * level), 0.0), Curve(grid, f2 / level, 0.0))
        return zero, VolatilityOperator(factors)

    schedule = CoefficientSchedule("state-dependent", sampler)
    path = simulate_mild(p0, schedule, SimConfig(grid, s1, 1.0, 12, 9, 5), keep_states=True)
    S, w0 = np.array([0.5, 1.25, 2.0]), np.array([0.5, -0.2, 1.0])
    plan = optimal_strategy_log_stochastic(1.0, path, schedule, S, theta0_weights=w0)
    expected = np.empty_like(plan.gamma_paths)
    for k in range(path.n_steps):
        l_vals = translate(p0, float(path.times[k])).values()
        for j in range(path.n_paths):
            _, sig = schedule.at(float(path.times[k]), path.curve_at(k, j))
            for i, f in enumerate(sig.factors):
                at = atoms_value_matrix(S, l_vals * f.values(), grid)
                expected[j, k, i] = float(at @ w0)
    assert np.ptp(expected[:, -1, 0]) > 0.0
    assert plan.gamma_paths.tobytes() == expected.tobytes()


def test_log_stochastic_validation(grid, market):
    path = market["path"]
    with pytest.raises(BudgetInfeasible):
        optimal_strategy_log_stochastic(
            0.0, path, market["schedule"], np.array([2.0])
        )
    stateless = simulate_mild(market["p0"], market["schedule"], market["config"])
    with pytest.raises(ConfigInvalid):
        optimal_strategy_log_stochastic(
            1.0, stateless, market["schedule"], np.array([2.0])
        )
