"""Tests for portfolio valuation, gains, and self-financing accounting."""
import csv
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bondlab.curve_space import Curve, DualAtom, MaturityGrid, SobolevIndex, multiply
from bondlab.dynamics import SimConfig, forward_rate, simulate_mild, simulate_rollover
from bondlab.errors import (
    AdaptednessViolation,
    AtomBeyondGrid,
    ConfigInvalid,
    OrderUnsupported,
    ValidationFailure,
)
from bondlab.hedging import complete_hedge, gram_operators, integrand_from_strategy
from bondlab.market_model import (
    CoefficientSchedule,
    DriftCurve,
    VolatilityOperator,
    constant_coefficients,
    humped_volatility,
    q_brownian_increments,
)
from bondlab.optimizer import optimal_strategy_deterministic
from bondlab.portfolio import (
    Holdings,
    PathPrefix,
    PortfolioStrategy,
    admissibility_norm,
    as_holdings,
    buy_and_hold_zero_coupon,
    gains,
    ledger,
    pairings,
    self_financing_residual,
    self_financing_tolerance,
    strategy_from_spec,
    value,
    value_path,
)

from bondlab.utility import log_utility
from conftest import interp_pair, make_market, make_zero_vol_market


def _cash(weight=1.0):
    return strategy_from_spec({"kind": "cash", "weight": weight})


def _frozen_atom(x, weight=1.0):
    return PortfolioStrategy(
        f"frozen {x}",
        lambda k, prefix: [DualAtom(x, weight, 0)],
        deterministic=True,
    )


# --- valuation -------------------------------------------------------------------


def test_value_examples(market):
    path = market["path"]
    s = market["config"].s
    p = path.curve_at(7, 3)
    # one zero-coupon theta = delta_{T-t}: value = p_t(T-t)
    assert value([DualAtom(1.5)], p, s) == pytest.approx(p.value_at(1.5), rel=1e-14)
    # delta_0 reads the discount factor
    assert value([DualAtom(0.0)], p, s) == pytest.approx(
        float(path.value0[7, 3]), rel=1e-14
    )


def test_derivative_atom_value_is_minus_forward_times_price():
    grid = MaturityGrid(4.0, 513)
    s = SobolevIndex(2)
    p0, schedule, _ = make_zero_vol_market(grid, rate=0.05)
    x = 1.5
    atom_val = value([DualAtom(x, 1.0, 1)], p0, s)
    expected = -forward_rate(p0, x) * p0.value_at(x)
    assert atom_val == pytest.approx(expected, abs=5 * grid.dx**2)


def test_value_path_matches_per_step_valuation(market):
    path = market["path"]
    strat = buy_and_hold_zero_coupon(2.0)
    V = value_path(strat, path)
    s = market["config"].s
    for k in (0, 13, 64):
        t = float(path.times[k])
        expected = value([DualAtom(2.0 - t)], path.curve_at(k, 5), s)
        assert V[k, 5] == pytest.approx(expected, rel=1e-12)


# --- gains -----------------------------------------------------------------------


def test_cash_strategy_has_zero_gains(market):
    # m(0) = sigma(0) = 0 makes delta_0 a homogeneous solution
    G = gains(_cash(), market["path"], market["schedule"])
    assert np.max(np.abs(G)) <= 1e-16


def test_deterministic_drift_gains_match_quadrature():
    grid = MaturityGrid(4.0, 513)
    s = SobolevIndex(1)
    from bondlab.market_model import DriftCurve, VolatilityOperator, constant_coefficients
    from bondlab.dynamics import flat_forward_curve

    zero = Curve(grid, np.zeros(grid.n_points), 0.0)
    m_curve = Curve(grid, 0.02 * grid.nodes * np.exp(-grid.nodes), 0.0)
    schedule = constant_coefficients(DriftCurve(m_curve), VolatilityOperator((zero,)))
    p0 = flat_forward_curve(grid, 0.05)
    config = SimConfig(grid=grid, s=s, horizon=1.0, n_steps=128, n_paths=1, seed=0)
    path = simulate_mild(p0, schedule, config, keep_states=True)
    x0 = 1.0
    G = gains(_frozen_atom(x0), path, schedule)
    # direct left-point quadrature of p_t(x0) m(x0) dt along the same path
    dt = config.dt
    quad = 0.0
    for k in range(config.n_steps):
        p_k = path.curve_at(k, 0)
        quad += p_k.value_at(x0) * m_curve.value_at(x0) * dt
    assert G[-1, 0] == pytest.approx(quad, rel=1e-10)


def test_gains_are_linear_in_the_strategy(market):
    path, schedule = market["path"], market["schedule"]
    a = buy_and_hold_zero_coupon(2.0)
    b = _frozen_atom(0.5)
    combined = PortfolioStrategy(
        "combo",
        lambda k, prefix: [
            DualAtom(2.0 - prefix.time, 2.0, 0),
            DualAtom(0.5, -3.0, 0),
        ],
        deterministic=True,
    )
    G = 2.0 * gains(a, path, schedule) - 3.0 * gains(b, path, schedule)
    assert np.allclose(gains(combined, path, schedule), G, rtol=1e-12, atol=1e-14)


def test_expected_gains_vanish_under_q():
    # E_Q[G_T] = 0 for a bounded strategy: accumulate the same gains against
    # Q-increments by reweighting a P-ensemble with the density
    grid = MaturityGrid(4.0, 257)
    s = SobolevIndex(1)
    p0, schedule, gamma = make_market(grid)
    config = SimConfig(grid=grid, s=s, horizon=1.0, n_steps=32, n_paths=4000, seed=23)
    path = simulate_mild(
        p0, schedule, config, measure="Q", gamma=gamma, keep_states=True
    )
    # under Q the drift is m - sigma gamma = 0 here, so gains reduce to the
    # volatility leg against the Q-increments already stored in path.dw
    strat = buy_and_hold_zero_coupon(2.0)
    sig = schedule.at(0.0)[1].factors[0]
    G_T = np.zeros(config.n_paths)
    for k in range(config.n_steps):
        t = float(path.times[k])
        x = 2.0 - t
        vol_vals = path.states[k] * sig.values()[None, :]
        paired = np.interp(x, grid.nodes, np.ones(grid.n_points))  # placeholder
        # pair delta_x against p_k sigma: linear interpolation of the product
        pos = x / grid.dx
        idx = min(int(pos), grid.n_points - 2)
        w = pos - idx
        paired = (1 - w) * vol_vals[:, idx] + w * vol_vals[:, idx + 1]
        G_T += paired * path.dw[:, k, 0]
    se = G_T.std(ddof=1) / math.sqrt(config.n_paths)
    assert abs(G_T.mean()) <= 3.0 * se


# --- self-financing ---------------------------------------------------------------


def test_buy_and_hold_residual_stays_within_tolerance():
    grid = MaturityGrid(4.0, 513)
    s = SobolevIndex(1)
    p0, schedule, gamma = make_market(grid)
    for n_steps in (32, 64):
        config = SimConfig(grid=grid, s=s, horizon=1.0, n_steps=n_steps, n_paths=8, seed=3)
        path = simulate_mild(p0, schedule, config, keep_states=True)
        strat = buy_and_hold_zero_coupon(2.0)
        led = ledger(strat, path, schedule)
        assert led.max_residual <= self_financing_tolerance(led, config.dt)


def test_buy_and_hold_residual_is_first_order_in_dt():
    # deterministic drifted scenario isolates the O(dt) quadrature error
    # (with noise the residual is dominated by an O(sqrt(dt)) martingale term)
    grid = MaturityGrid(4.0, 513)
    s = SobolevIndex(1)
    from bondlab.market_model import DriftCurve, VolatilityOperator, constant_coefficients
    from bondlab.dynamics import flat_forward_curve

    zero = Curve(grid, np.zeros(grid.n_points), 0.0)
    m_curve = Curve(grid, 0.02 * grid.nodes * np.exp(-grid.nodes), 0.0)
    schedule = constant_coefficients(DriftCurve(m_curve), VolatilityOperator((zero,)))
    p0 = flat_forward_curve(grid, 0.05)
    residuals = {}
    for n_steps in (32, 64):
        config = SimConfig(grid=grid, s=s, horizon=1.0, n_steps=n_steps, n_paths=1, seed=0)
        path = simulate_mild(p0, schedule, config, keep_states=True)
        residuals[n_steps] = self_financing_residual(
            buy_and_hold_zero_coupon(2.0), path, schedule
        )
    ratio = residuals[64] / residuals[32]
    assert 0.35 <= ratio <= 0.65


def test_rollover_residual_halves_with_dt():
    # sloped forward curve: the left-point accrual quadrature error is the
    # only residual source and scales linearly in dt (a flat curve makes the
    # rollover wealth exactly constant, leaving nothing to converge)
    grid = MaturityGrid(4.0, 513)
    s = SobolevIndex(1)
    from bondlab.dynamics import curve_from_forward
    from bondlab.market_model import DriftCurve, VolatilityOperator, constant_coefficients

    zero = Curve(grid, np.zeros(grid.n_points), 0.0)
    schedule = constant_coefficients(DriftCurve(zero), VolatilityOperator((zero,)))
    p0 = curve_from_forward(grid, lambda x: 0.02 + 0.01 * x)
    strat = strategy_from_spec({"kind": "rollover", "maturity": 0.5})
    residuals = {}
    for n_steps in (32, 64):
        config = SimConfig(grid=grid, s=s, horizon=1.0, n_steps=n_steps, n_paths=1, seed=0)
        path = simulate_mild(p0, schedule, config, keep_states=True)
        residuals[n_steps] = self_financing_residual(strat, path, schedule)
    ratio = residuals[64] / residuals[32]
    assert 0.35 <= ratio <= 0.65


def test_constant_rollover_portfolio_is_self_financing(market):
    path, schedule = market["path"], market["schedule"]
    strat = strategy_from_spec({"kind": "rollover", "maturity": 0.5})
    led = ledger(strat, path, schedule)
    tol = self_financing_tolerance(led, market["config"].dt)
    assert led.max_residual <= tol
    # wealth equals the rollover wealth table
    roll = simulate_rollover(path, 0.5)
    assert np.allclose(led.wealth, roll.wealth, rtol=1e-10, atol=1e-12)


def test_frozen_atom_is_not_self_financing():
    # a fixed delta_x in a rate-bearing deterministic scenario: the residual
    # stays bounded away from zero as dt -> 0
    grid = MaturityGrid(4.0, 513)
    s = SobolevIndex(1)
    p0, schedule, _ = make_zero_vol_market(grid, rate=0.05)
    floor = None
    for n_steps in (32, 64, 128):
        config = SimConfig(grid=grid, s=s, horizon=1.0, n_steps=n_steps, n_paths=1, seed=0)
        path = simulate_mild(p0, schedule, config, keep_states=True)
        res = self_financing_residual(_frozen_atom(1.0), path, schedule)
        floor = res if floor is None else min(floor, res)
    assert floor > 1e-3  # p(1.0) moves by ~ r p dt-sums, never matched by gains


def test_ledger_wealth_is_martingale_under_q():
    grid = MaturityGrid(4.0, 257)
    s = SobolevIndex(1)
    p0, schedule, gamma = make_market(grid)
    config = SimConfig(grid=grid, s=s, horizon=1.0, n_steps=32, n_paths=4000, seed=29)
    path = simulate_mild(p0, schedule, config, measure="Q", gamma=gamma, keep_states=True)
    strat = buy_and_hold_zero_coupon(2.0)
    V = value_path(strat, path)
    terminal = V[-1]
    se = terminal.std(ddof=1) / math.sqrt(config.n_paths)
    assert abs(terminal.mean() - V[0, 0]) <= 3.0 * se + 2.0 * config.dt


# --- admissibility ---------------------------------------------------------------


def test_admissibility_norm_examples(market):
    path, schedule = market["path"], market["schedule"]
    zero = PortfolioStrategy("zero", lambda k, prefix: [], deterministic=True)
    assert admissibility_norm(zero, path, schedule) == 0.0
    assert admissibility_norm(_cash(), path, schedule) <= 1e-16


def test_admissibility_norm_matches_quadrature_deterministic():
    grid = MaturityGrid(4.0, 513)
    s = SobolevIndex(1)
    p0, schedule, gamma = make_market(grid)
    config = SimConfig(grid=grid, s=s, horizon=1.0, n_steps=64, n_paths=4, seed=5)
    path = simulate_mild(p0, schedule, config, keep_states=True)
    strat = _frozen_atom(0.5)
    norm = admissibility_norm(strat, path, schedule)
    dt = config.dt
    sig = schedule.at(0.0)[1].factors[0]
    m_curve = schedule.at(0.0)[0].curve
    drift_int = np.zeros(config.n_paths)
    vol_int = np.zeros(config.n_paths)
    for k in range(config.n_steps):
        for j in range(config.n_paths):
            p_k = path.curve_at(k, j)
            pm = p_k.value_at(0.5) * m_curve.value_at(0.5)
            ps = p_k.value_at(0.5) * sig.value_at(0.5)
            drift_int[j] += abs(pm) * dt
            vol_int[j] += ps**2 * dt
    expected = math.sqrt(np.mean(drift_int**2) + np.mean(vol_int))
    assert norm == pytest.approx(expected, rel=1e-6)


# --- adaptedness -----------------------------------------------------------------


def test_prefix_blocks_future_reads(market):
    path = market["path"]
    prefix = PathPrefix(path, 5, 0)
    assert prefix.time == pytest.approx(float(path.times[5]))
    prefix.curve(5)
    prefix.spot(0)
    with pytest.raises(AdaptednessViolation):
        prefix.curve(6)
    with pytest.raises(AdaptednessViolation):
        prefix.increment(5)  # increment over [5, 6] is future data
    prefix.increment(4)


def test_peeking_strategy_raises(market):
    peeker = PortfolioStrategy(
        "peek",
        lambda k, prefix: [DualAtom(0.5, float(prefix.spot(k + 1)), 0)],
        deterministic=False,
    )
    with pytest.raises(AdaptednessViolation):
        value_path(peeker, market["path"])


# --- spec-driven construction -----------------------------------------------------


def test_strategy_from_spec_combines_legs(market):
    spec = [
        {"kind": "cash", "weight": 2.0},
        {"kind": "zero_coupon", "maturity": 2.0, "weight": -1.0},
    ]
    strat = strategy_from_spec(spec)
    path = market["path"]
    V = value_path(strat, path)
    expected = 2.0 * path.value0 - value_path(buy_and_hold_zero_coupon(2.0), path)
    assert np.allclose(V, expected, rtol=1e-12, atol=1e-14)
    with pytest.raises(ValidationFailure):
        strategy_from_spec({"kind": "swap"})
    with pytest.raises(ValidationFailure):
        strategy_from_spec([{"weight": 1.0}])


def test_ledger_csv_schema(tmp_path, market):
    led = ledger(_cash(), market["path"], market["schedule"])
    target = tmp_path / "ledger.csv"
    led.to_csv(target)
    with open(target, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == ["path", "t", "V", "G", "residual"]
    K1 = market["config"].n_steps + 1
    assert len(rows) == K1 * market["config"].n_paths
    assert float(rows[0]["V"]) == pytest.approx(led.wealth[0, 0])


def test_ledger_csv_bytes_match_the_csv_writer(tmp_path, market):
    led = ledger(_cash(), market["path"], market["schedule"])
    led.wealth[3, 5] = -1.0 / 3.0  # a negative and a long value
    target = tmp_path / "ledger.csv"
    led.to_csv(target)
    reference = tmp_path / "reference.csv"
    defect = np.abs(led.wealth - led.wealth[0] - led.gains)
    with open(reference, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "t", "V", "G", "residual"])
        for j in range(led.wealth.shape[1]):
            for k, t in enumerate(led.times):
                cells = (t, led.wealth[k, j], led.gains[k, j], defect[k, j])
                writer.writerow([j] + [f"{c:.17g}" for c in cells])
    assert target.read_bytes() == reference.read_bytes()


# --- holdings tables and batched pairings -------------------------------------------

_SMALL_GRID = MaturityGrid(2.0, 33)


@lru_cache(maxsize=None)
def _two_factor_ensemble(state_dependent: bool):
    """s = 2 ensemble, 2 factors; optionally volatility scaled by the state."""
    grid = _SMALL_GRID
    sig = (
        humped_volatility(grid, 0.02, 1.0),
        Curve(grid, 0.01 * grid.nodes**2 * np.exp(-grid.nodes), 0.0),
    )
    gamma = (0.3, -0.2)

    def coefficients(scale: float):
        factors = tuple(Curve(grid, scale * f.g, scale * f.a) for f in sig)
        g = sum(gm * f.g for gm, f in zip(gamma, factors))
        a = sum(gm * f.a for gm, f in zip(gamma, factors))
        return DriftCurve(Curve(grid, g, a)), VolatilityOperator(factors)

    if state_dependent:
        schedule = CoefficientSchedule(
            "state-dependent", lambda t, p: coefficients(1.0 + p.value_at(1.0))
        )
    else:
        m, vol = coefficients(1.0)
        schedule = constant_coefficients(m, vol)
    config = SimConfig(grid=grid, s=SobolevIndex(2), horizon=0.5, n_steps=4, n_paths=3, seed=11)
    p0 = Curve(grid, np.exp(-0.04 * grid.nodes) - 0.9, 0.9)
    return simulate_mild(p0, schedule, config, keep_states=True), schedule


@st.composite
def _random_holdings(draw):
    K1, P, x_max = 5, 3, _SMALL_GRID.x_max
    m = draw(st.integers(1, 5))
    orders = draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    # grid ends and nodes as well as interior points: every stencil branch
    special = st.sampled_from([0.0, _SMALL_GRID.dx, 0.5 * _SMALL_GRID.dx, x_max, x_max - 0.01])
    loc = st.one_of(special, st.floats(0.0, x_max))

    def rows(element, n):
        return st.lists(element, min_size=n, max_size=n)

    locations = draw(rows(rows(loc, m), K1))
    weights = draw(rows(rows(rows(st.floats(-3.0, 3.0, allow_subnormal=False), m), P), K1))
    return Holdings(
        name="random", grid=_SMALL_GRID, locations=locations, orders=orders, weights=weights
    )


@settings(max_examples=60, deadline=None)
@given(hold=_random_holdings(), state_dependent=st.booleans())
def test_pairings_agree_with_reference_pair(hold, state_dependent):
    path, schedule = _two_factor_ensemble(state_dependent)
    pr = pairings(hold, path, schedule)
    for k in range(path.n_steps + 1):
        for j in range(path.n_paths):
            atoms = [
                DualAtom(float(x), float(w), int(o))
                for x, w, o in zip(hold.locations[k], hold.weights[k, j], hold.orders)
            ]
            curve = path.curve_at(k, j)
            targets = [(curve, pr.value[k, j])]
            if k < path.n_steps:
                m, sig = schedule.at(float(path.times[k]), curve)
                targets.append((multiply(curve, m.curve), pr.drift[k, j]))
                for i, factor in enumerate(sig.factors):
                    targets.append((multiply(curve, factor), pr.vol[k, j, i]))
            for f, got in targets:
                # relative to the node values each atom reads: a derivative
                # tap differences them over dx, and the reference differentiates the
                # grid part g where the batched taps difference g + a
                size = float(np.max(np.abs(f.values())))
                dx = path.config.grid.dx
                scale = sum(abs(a.weight) * size / (dx if a.order else 1.0) for a in atoms)
                assert abs(got - interp_pair(atoms, f)) <= 1e-12 * scale


_COEFFICIENT = st.floats(-3.0, 3.0, allow_subnormal=False)


@settings(max_examples=40, deadline=None)
@given(
    hold=_random_holdings(),
    data=st.data(),
    a=_COEFFICIENT,
    b=_COEFFICIENT,
    state_dependent=st.booleans(),
)
def test_pairings_are_linear_in_the_weights(hold, data, a, b, state_dependent):
    path, schedule = _two_factor_ensemble(state_dependent)
    w1 = hold.weights
    w2 = np.asarray(
        data.draw(st.lists(_COEFFICIENT, min_size=w1.size, max_size=w1.size), label="w2")
    ).reshape(w1.shape)

    def with_weights(weights):
        return Holdings(
            name="h", grid=hold.grid, locations=hold.locations, orders=hold.orders, weights=weights
        )

    combined = pairings(with_weights(a * w1 + b * w2), path, schedule)
    first = pairings(hold, path, schedule)
    second = pairings(with_weights(w2), path, schedule)
    # every pairing is bounded by sum |w| |node value| / dx^order over the atoms
    size = float(np.max(np.abs(path.states))) / path.config.grid.dx
    scale = size * w1.shape[-1] * (abs(a) * np.max(np.abs(w1)) + abs(b) * np.max(np.abs(w2)))
    for name in ("value", "drift", "vol"):
        got = getattr(combined, name)
        want = a * getattr(first, name) + b * getattr(second, name)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(scale, 1e-300), name


def test_holdings_validate_once_at_construction(market):
    grid = market["config"].grid
    ok = dict(name="h", grid=grid, locations=[0.0, 1.0], orders=[0, 1], weights=np.ones((3, 2)))
    Holdings(**ok)
    with pytest.raises(AtomBeyondGrid):
        Holdings(**dict(ok, locations=[0.0, grid.x_max + 0.5]))
    with pytest.raises(AtomBeyondGrid):
        Holdings(**dict(ok, locations=[0.0, np.nan]))
    with pytest.raises(AtomBeyondGrid):
        Holdings(**dict(ok, weights=np.array([[1.0, np.nan]] * 3)))
    with pytest.raises(OrderUnsupported):
        Holdings(**dict(ok, orders=[0, 2]))
    with pytest.raises(ConfigInvalid):
        Holdings(**dict(ok, weights=np.ones((3, 3))))


def test_user_builders_become_tables(market):
    path = market["path"]
    # per-path weights, per-path locations and a step with fewer atoms
    builder = PortfolioStrategy(
        "user",
        lambda k, prefix: [DualAtom(0.5 + 0.01 * prefix.path_index, prefix.boundary(k), 0)]
        + ([DualAtom(1.0, 2.0, 0)] if k % 2 else []),
    )
    hold = as_holdings(builder, path)
    assert hold.weights.shape == (path.n_steps + 1, path.n_paths, 2)
    assert hold.locations.shape == hold.weights.shape
    assert np.all(hold.weights[0, :, 1] == 0.0)
    V = value_path(builder, path)
    for k, j in ((0, 0), (3, 5), (64, 63)):
        atoms = builder.builder(k, PathPrefix(path, k, j))
        assert V[k, j] == pytest.approx(value(atoms, path.curve_at(k, j), path.config.s), rel=1e-12)


def test_ledger_of_table_strategies_constructs_no_dual_atoms(market, monkeypatch):
    path, schedule, config = market["path"], market["schedule"], market["config"]
    target = buy_and_hold_zero_coupon(2.0)
    integrands = integrand_from_strategy(target, path, schedule)
    price0 = float(value_path(target, path)[0, 0])
    ops = gram_operators(market["p0"], schedule, path.times, config.s)
    made = []
    original = DualAtom.__post_init__

    def counting(self):
        made.append(self)
        original(self)

    monkeypatch.setattr(DualAtom, "__post_init__", counting)
    hedge = complete_hedge(ops, path, integrands, price0, gamma=market["gamma"])
    plan = optimal_strategy_deterministic(log_utility(), 1.0, ops, path, market["gamma"])
    for strategy in (hedge.strategy, plan.strategy):
        ledger(strategy, path, schedule)
    assert made == []
