"""Column-only ensembles: simulate_mild retains only the requested node columns.

The full-state run is the oracle: every tap on recorded columns must give its
bits, and a tap that needs a node the run did not record must fail loudly.
"""
import numpy as np
import pytest

from bondlab import dynamics
from bondlab.curve_space import (
    Curve,
    MaturityGrid,
    SobolevIndex,
    atom_nodes,
    atoms_value_matrix,
)
from bondlab.dynamics import (
    SimConfig,
    simulate_mild,
    simulate_rollover,
    undiscount_path,
)
from bondlab.errors import ConfigInvalid, NodeNotRecorded, ValidationFailure
from bondlab.hedging import complete_hedge, default_atom_maturities, gram_operators
from bondlab.market_model import (
    CoefficientSchedule,
    DriftCurve,
    VolatilityOperator,
    coefficient_table,
)
from bondlab.optimizer import optimal_strategy_deterministic, solve_condition_C
from bondlab.portfolio import (
    PathPrefix,
    coefficient_rows,
    ledger,
    node_request,
    strategy_from_spec,
)
from bondlab.utility import log_utility

from conftest import make_market, per_path_exponent_rows

_GRID = MaturityGrid(4.0, 129)  # dx = 1 / 32: node locations are exact
_K, _P = 8, 5


def _pair_of_runs(request, schedule=None, block=None, monkeypatch=None):
    """The full-state run and the run with a node request, same noise."""
    p0, sched, _ = make_market(_GRID)
    schedule = schedule or sched
    config = SimConfig(_GRID, SobolevIndex(2), 1.0, _K, _P, seed=3)
    full = simulate_mild(p0, schedule, config, keep_states=True)
    if block is not None:
        monkeypatch.setattr(dynamics, "_BLOCK_PATHS", block)
    cols = simulate_mild(p0, schedule, config, keep_states=request)
    return full, cols


def _locations(layout: str, rng) -> np.ndarray:
    """Both ends, a node in from each end, exactly on a node, interior points."""
    dx, x_max = _GRID.dx, _GRID.x_max
    base = np.array([0.0, x_max, dx, x_max - dx, 40 * dx, 1.3, 2.71])
    if layout == "shared":
        return base  # (M,)
    rows = _K + 1 if layout == "per_step" else _P  # (K+1, M) or (P, M)
    return np.stack([rng.permutation(base) for _ in range(rows)])


def _request_for(locations, layout: str, order: int) -> np.ndarray:
    if layout == "per_step":
        return atom_nodes(locations, _GRID, order)
    read = atom_nodes(locations.reshape(-1), _GRID, order)  # every row's points
    return np.broadcast_to(read, (_K + 1, _GRID.n_points)).copy()


@pytest.mark.parametrize("layout", ["shared", "per_step", "per_path"])
@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("coefficient", [None, "row", "stack"])
def test_taps_on_recorded_columns_equal_the_full_state_taps(layout, order, coefficient):
    rng = np.random.default_rng(5)
    locations = _locations(layout, rng)
    full, cols = _pair_of_runs(_request_for(locations, layout, order))
    N = _GRID.n_points
    coeff = {
        None: None,
        "row": rng.uniform(-1.0, 1.0, size=N),
        "stack": rng.uniform(-1.0, 1.0, size=(3, 1, N)),
    }[coefficient]
    assert cols.states.shape[:2] == (_K + 1, _P) and cols.states.shape[2] < N
    for k in range(_K + 1):
        loc = locations[k] if layout == "per_step" else locations
        expected = atoms_value_matrix(loc, full.states[k], _GRID, order, coeff)
        got = atoms_value_matrix(loc, cols.states[k], _GRID, order, coeff, cols.nodes[k], k)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes(), k
    if layout == "shared" and coefficient != "stack":
        # all steps at once: row k of the node table serves states[k]
        expected = atoms_value_matrix(locations, full.states, _GRID, order, coeff)
        got = atoms_value_matrix(locations, cols.states, _GRID, order, coeff, cols.nodes)
        assert got.shape == expected.shape == (_K + 1, _P, locations.size)
        assert got.tobytes() == expected.tobytes()


def test_recorded_columns_are_the_requested_nodes_of_the_full_states(monkeypatch):
    rng = np.random.default_rng(8)
    request = rng.random((_K + 1, _GRID.n_points)) < 0.05
    request[3] = False  # a step that requests nothing
    # blocks of 2 paths: the columns are filled block by block, on two threads
    full, cols = _pair_of_runs(request, block=2, monkeypatch=monkeypatch)
    C = max(1, int(request.sum(axis=1).max()))
    assert cols.nodes.shape == (_K + 1, C)
    assert cols.states.shape == (_K + 1, _P, C)
    for k in range(_K + 1):
        assert set(cols.nodes[k]) == (set(np.flatnonzero(request[k])) or {0})
        assert np.all(np.diff(cols.nodes[k]) >= 0)
        assert cols.states[k].tobytes() == full.states[k][:, cols.nodes[k]].tobytes()
    for name in ("spot", "value0", "terminal", "terminal_fill", "dw"):
        assert getattr(cols, name).tobytes() == getattr(full, name).tobytes(), name
    assert cols.fill is None  # read only by whole curves


def test_node_request_must_be_a_boolean_step_by_node_array():
    p0, schedule, _ = make_market(_GRID)
    config = SimConfig(_GRID, SobolevIndex(1), 1.0, _K, _P, seed=3)
    for bad in (np.ones((_K, _GRID.n_points), bool), np.ones((_K + 1, _GRID.n_points))):
        with pytest.raises(ConfigInvalid):
            simulate_mild(p0, schedule, config, keep_states=bad)


def test_spec_ledgers_and_rollover_read_only_the_requested_nodes():
    spec = [
        {"kind": "cash"},
        {"kind": "zero_coupon", "maturity": 2.0},
        {"kind": "rollover", "maturity": 0.5},
        {"kind": "derivative_atom", "location": 1.0},
    ]
    strat = strategy_from_spec(spec)
    times = np.linspace(0.0, 1.0, _K + 1)
    request = node_request(_GRID, times, strat.reads(times))
    full, cols = _pair_of_runs(request)
    _, schedule, _ = make_market(_GRID)
    for a, b in zip(ledger(strat, full, schedule).__dict__.values(),
                    ledger(strat, cols, schedule).__dict__.values()):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    # the rollover leg reads S's derivative atom: its request serves simulate_rollover
    roll_full, roll_cols = simulate_rollover(full, 0.5), simulate_rollover(cols, 0.5)
    assert roll_cols.account.tobytes() == roll_full.account.tobytes()
    with pytest.raises(NodeNotRecorded):
        simulate_rollover(cols, 0.75)


def test_hedge_and_plan_on_columns_equal_the_full_state_ones():
    p0, schedule, gamma = make_market(_GRID)
    times = np.linspace(0.0, 1.0, _K + 1)
    ops = gram_operators(p0, schedule, times, SobolevIndex(2))
    hedge_atoms = default_atom_maturities(1, _GRID, 1.0)
    theta0 = solve_condition_C(ops, gamma, 1.0 / _K)
    reads = [([0.0], 0), (hedge_atoms, 0), (theta0.maturities, 0)]
    full, cols = _pair_of_runs(node_request(_GRID, times, reads))
    integrands = np.random.default_rng(2).normal(0.0, 0.01, size=(_K, _P, 1))
    hedges = [complete_hedge(ops, path, integrands, 1.0, gamma=gamma) for path in (full, cols)]
    for name in ("weights", "cash", "conditional_value", "achieved"):
        assert getattr(hedges[1], name).tobytes() == getattr(hedges[0], name).tobytes(), name
    plans = [
        optimal_strategy_deterministic(log_utility(), 1.0, ops, path, gamma, theta0=theta0)
        for path in (full, cols)
    ]
    for name in ("weights", "cash", "Y"):
        assert getattr(plans[1], name).tobytes() == getattr(plans[0], name).tobytes(), name
    for hold in (hedges[1].strategy, plans[1].strategy):
        assert ledger(hold, cols, schedule).wealth.tobytes() == ledger(
            hold, full, schedule
        ).wealth.tobytes()


def test_a_tap_of_an_unrecorded_node_names_its_step_and_node():
    request = node_request(_GRID, np.linspace(0.0, 1.0, _K + 1), [([1.0], 0)])
    _, cols = _pair_of_runs(request)
    node = int(2.0 / _GRID.dx)
    with pytest.raises(NodeNotRecorded) as info:
        atoms_value_matrix([2.0], cols.states[4], _GRID, nodes=cols.nodes[4], step=4)
    assert (info.value.step, info.value.node) == (4, node)
    assert "step 4" in str(info.value) and f"node {node}" in str(info.value)
    assert not isinstance(info.value, ValidationFailure)
    # the whole-path form names the first step that misses it
    with pytest.raises(NodeNotRecorded) as info:
        atoms_value_matrix([1.0, 2.0], cols.states, _GRID, nodes=cols.nodes)
    assert (info.value.step, info.value.node) == (0, node)
    # the derivative stencil of a recorded point atom reaches one node further
    with pytest.raises(NodeNotRecorded):
        atoms_value_matrix([1.0], cols.states, _GRID, order=1, nodes=cols.nodes)


def _state_dependent_schedule():
    _, schedule, _ = make_market(_GRID)
    m, sigma = schedule.at(0.0)

    def sampler(t, p):
        c = float(p.value_at(1.0))
        factors = tuple(Curve(_GRID, c * f.g, c * f.a) for f in sigma.factors)
        return DriftCurve(Curve(_GRID, c * m.curve.g, 0.0)), VolatilityOperator(factors)

    return CoefficientSchedule("state-dependent", sampler)


def test_whole_curve_accessors_ask_for_keep_states_on_a_column_only_path():
    schedule = _state_dependent_schedule()
    request = node_request(_GRID, np.linspace(0.0, 1.0, _K + 1), [([1.0], 0)])
    full, cols = _pair_of_runs(request, schedule=schedule)
    calls = {
        "curve_at": lambda path: path.curve_at(2, 1),
        "PathPrefix.curve": lambda path: PathPrefix(path, 3, 0).curve(2),
        "undiscount_path": undiscount_path,
        "coefficient_rows": lambda path: coefficient_rows(schedule, path, 2),
    }
    for name, call in calls.items():
        call(full)  # the full path serves them
        with pytest.raises(ConfigInvalid, match="keep_states=True"):
            call(cols)


@pytest.mark.parametrize("gamma", [None, np.array([0.2])])
def test_exponent_coefficients_of_the_state_dependent_sampler_match_the_per_path_formula(gamma):
    schedule = _state_dependent_schedule()
    full, _ = _pair_of_runs(np.ones((_K + 1, _GRID.n_points), dtype=bool), schedule=schedule)
    for k in (0, 4):
        t = float(full.times[k])
        curves = [full.curve_at(k, j) for j in range(_P)]
        table = coefficient_table(schedule, _GRID, t, curves)
        got = dynamics._exponent_coefficients(*table, gamma, full.config.dt)
        expected = per_path_exponent_rows(schedule, t, curves, gamma, full.config.dt)
        for g, e in zip(got, expected):
            assert g.shape == e.shape and g.tobytes() == e.tobytes()
