"""Portfolios of dual atoms over a simulated curve ensemble.

A strategy holds, at each step, a finite atom measure theta_k: point
holdings in bonds of given time-to-maturity (cash is the point atom at 0)
and derivative atoms. Every strategy is evaluated as one Holdings table of
atom locations, orders and weights over all steps and paths. Wealth is the
pairing V_t = <theta_t, p_t>; the gains process adds, per step,

    <theta_k, p_k m_k> dt + sum_i <theta_k, p_k sigma_k^i> dW_k^i

with coefficients frozen at the left endpoint (matching the simulator).
`pairings` computes the three pairings for every step and path at once;
wealth, gains, ledgers, admissibility norms and hedge integrands are
reductions of its output. Self-financing is |V_t - V_0 - G_t| small over
the whole grid; the residual is a diagnostic, not an enforcement, since
discrete strategies are only self-financing up to O(dt).

Strategies come in three forms, all turned into a table by `as_holdings`:
a Holdings table itself (the hedge and the optimal plans), a TableStrategy
that tabulates itself on a given ensemble (the spec legs), and a
PortfolioStrategy whose builder is called step by step. Since pairing reads
p_t only at the nodes of finitely many atoms, an ensemble may retain just
those nodes: `node_request` turns the atoms a run will pair into the
simulator's keep_states request. Adaptedness of
builders is structural: they receive a PathPrefix whose accessors refuse
step indices beyond the current one, so a strategy cannot read the future
without raising AdaptednessViolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .curve_space import (
    Curve,
    DualAtom,
    MaturityGrid,
    SobolevIndex,
    atom_nodes,
    atoms_value_matrix,
    pair,
)
from .dynamics import CurvePath, rollover_account
from .errors import (
    AdaptednessViolation,
    AtomBeyondGrid,
    ConfigInvalid,
    GridMismatch,
    OrderUnsupported,
    ValidationFailure,
)
from .market_model import CoefficientSchedule, coefficient_table

__all__ = [
    "PathPrefix",
    "PortfolioStrategy",
    "Holdings",
    "TableStrategy",
    "Strategy",
    "LedgerPath",
    "Pairings",
    "as_holdings",
    "node_request",
    "pairings",
    "coefficient_rows",
    "value",
    "value_path",
    "gains",
    "ledger",
    "self_financing_residual",
    "self_financing_tolerance",
    "admissibility_norm",
    "strategy_from_spec",
    "buy_and_hold_zero_coupon",
]


class PathPrefix:
    """Read-only view of one path up to and including step `step`.

    Every accessor validates its step argument; asking for j > step raises
    AdaptednessViolation. This is the only data a strategy builder sees.
    """

    def __init__(self, path: CurvePath, step: int, path_index: int):
        self._path = path
        self.step = step
        self.path_index = path_index

    def _check(self, j: int) -> None:
        if j > self.step:
            raise AdaptednessViolation(
                f"step {j} requested while constructing the step-{self.step} portfolio"
            )
        if j < 0:
            raise ValidationFailure(f"negative step {j}")

    @property
    def time(self) -> float:
        return float(self._path.times[self.step])

    def time_at(self, j: int) -> float:
        self._check(j)
        return float(self._path.times[j])

    def curve(self, j: int) -> Curve:
        self._check(j)
        return self._path.curve_at(j, self.path_index)

    def spot(self, j: int) -> float:
        self._check(j)
        return float(self._path.spot[j, self.path_index])

    def boundary(self, j: int) -> float:
        self._check(j)
        return float(self._path.value0[j, self.path_index])

    def increment(self, j: int) -> np.ndarray:
        """Brownian increment over [t_j, t_{j+1}]; needs j < step."""
        if j >= self.step:
            raise AdaptednessViolation(
                f"increment over [{j}, {j + 1}] requested at step {self.step}"
            )
        self._check(j)
        return self._path.dw[self.path_index, j].copy()


@dataclass(frozen=True)
class PortfolioStrategy:
    """Atom-valued strategy built step by step from path prefixes.

    deterministic=True promises the builder ignores the prefix data (the
    atoms depend on the step only), enabling ensemble-vectorized evaluation.
    """

    name: str
    builder: Callable[[int, PathPrefix], Sequence[DualAtom]]
    deterministic: bool = False


@dataclass(frozen=True, eq=False)  # arrays: compare tables by identity
class Holdings:
    """Atom holdings of a strategy at every step of an ensemble.

    Atom m has time-to-maturity locations[..., m], derivative order
    orders[m] (0: point holding, 1: derivative atom) and weight
    weights[..., m]; cash is the order-0 atom at 0. With K steps, P paths
    and M atoms:

        locations: (M,), (K+1, M) per step, or (K+1, P, M) per step and path
        orders: (M,)
        weights: (K+1, M) shared by all paths, or (K+1, P, M) per path

    Per-path locations come only from user builders whose atoms differ
    across paths. Construction validates once what pairing relies on:
    locations finite and in [0, x_max] of `grid`, orders in {0, 1}, weights
    finite.
    """

    name: str
    grid: MaturityGrid
    locations: np.ndarray
    orders: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        locations = np.asarray(self.locations, dtype=np.float64)
        orders = np.asarray(self.orders)
        weights = np.asarray(self.weights, dtype=np.float64)
        if (
            orders.ndim != 1
            or weights.ndim not in (2, 3)
            or locations.ndim > weights.ndim
            or locations.shape[-1:] != orders.shape
            or weights.shape[-1:] != orders.shape
            or locations.shape[:-1] != weights.shape[: locations.ndim - 1]
        ):
            raise ConfigInvalid(
                f"holdings shapes do not match: locations {locations.shape}, "
                f"orders {orders.shape}, weights {weights.shape}"
            )
        if not np.all((orders == 0) | (orders == 1)):
            raise OrderUnsupported(f"atom orders must be 0 or 1, got {np.unique(orders)}")
        inside = (locations >= 0.0) & (locations <= self.grid.x_max)  # False at NaN
        if not np.all(inside):
            bad = locations[~inside][:3]
            raise AtomBeyondGrid(f"atom locations {bad} outside [0, {self.grid.x_max}]")
        if not np.all(np.isfinite(weights)):
            raise AtomBeyondGrid("atom weights must be finite")
        object.__setattr__(self, "locations", locations)
        object.__setattr__(self, "orders", orders.astype(np.int64))
        object.__setattr__(self, "weights", weights)

    @classmethod
    def cash_and_bonds(cls, name: str, grid: MaturityGrid, maturities, table: np.ndarray):
        """Cash at 0, then bonds at fixed maturities (M,).

        table is (K+1, P, M+1) with the cash in column 0. It is kept as the
        weights, not copied, so a plan's cash and bond weights can be views
        of it.
        """
        return cls(
            name=name,
            grid=grid,
            locations=np.concatenate([[0.0], maturities]),
            orders=np.zeros(len(maturities) + 1, dtype=np.int64),
            weights=table,
        )


@dataclass(frozen=True)
class TableStrategy:
    """Strategy given by a rule that tabulates its holdings on an ensemble.

    table(path) returns the Holdings on path's time grid; the spec legs
    (cash, zero-coupon, rollover, derivative atoms) are of this kind.
    reads(times) lists, as (locations, order) pairs with (M,) or (K+1, M)
    locations, every atom that tabulating and pairing the table reads on
    that time grid; its locations come from the same function as the
    table's, so a node_request built from them serves both.
    """

    name: str
    table: Callable[[CurvePath], Holdings]
    reads: Callable[[np.ndarray], list]


Strategy = Union[Holdings, TableStrategy, PortfolioStrategy]


@dataclass
class LedgerPath:
    """Wealth/gains bookkeeping for one strategy over an ensemble."""

    strategy_name: str
    times: np.ndarray
    wealth: np.ndarray  # (K+1, P)
    gains: np.ndarray  # (K+1, P)
    residual: np.ndarray  # (P,) sup_t |V_t - V_0 - G_t|

    @classmethod
    def from_pairings(cls, name: str, pr: Pairings, path: CurvePath) -> LedgerPath:
        """Wealth, gains and self-financing residual of a strategy's pairings on a P-ensemble.

        The gains are running sums of <theta, p m> dt + sum_i <theta, p sigma^i> dW^i.
        """
        if path.measure != "P":
            raise ConfigInvalid(
                "gains uses P-dynamics; for Q-ensembles accumulate against q_brownian_increments"
            )
        inc = pr.drift * path.config.dt
        for i in range(pr.vol.shape[2]):
            inc += pr.vol[:, :, i] * path.dw[:, :, i].T
        V, G = pr.value, np.cumsum(np.concatenate([np.zeros((1, inc.shape[1])), inc]), axis=0)
        return cls(name, path.times, V, G, np.max(np.abs(V - V[0] - G), axis=0))

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residual))

    def to_csv(self, path) -> None:
        """Rows (path, t, V, G, residual) with full float precision."""
        defect = np.abs(self.wealth - self.wealth[0] - self.gains)
        # the bytes csv.writer gave: no field needs quoting, rows end in \r\n
        row = "{},{:.17g},{:.17g},{:.17g},{:.17g}\r\n".format
        times = self.times.tolist()
        with open(path, "w", newline="") as fh:
            fh.write("path,t,V,G,residual\r\n")
            for j in range(self.wealth.shape[1]):
                columns = (self.wealth[:, j], self.gains[:, j], defect[:, j])
                cells = zip(times, *(column.tolist() for column in columns))
                fh.write("".join([row(j, *c) for c in cells]))


def value(atoms: Sequence[DualAtom], p: Curve, s: SobolevIndex) -> float:
    """Wealth of an atom list against one curve: <theta, p>."""
    return pair(atoms, p, s)


# --- holdings tables and batched pairings ----------------------------------------


def as_holdings(strategy: Strategy, path: CurvePath) -> Holdings:
    """The Holdings table of any strategy on path's time grid.

    A Holdings passes through and a TableStrategy tabulates itself. A
    PortfolioStrategy's builder is called through PathPrefix, once per step
    when it is deterministic and once per (step, path) otherwise; each
    step's atoms keep their order within each derivative order, and steps
    or paths with fewer atoms are padded with zero weights.

    On a column-only ensemble (a node request) every form works as long as
    the request holds the nodes the table and its pairing read (for a
    TableStrategy, those of its reads); a builder that reads curves through
    PathPrefix.curve needs keep_states=True and raises ConfigInvalid.
    """
    if path.states is None:
        raise ConfigInvalid("portfolio evaluation needs keep_states=True")
    if isinstance(strategy, Holdings):
        return strategy
    if isinstance(strategy, TableStrategy):
        return strategy.table(path)
    K = path.n_steps
    paths = range(1) if strategy.deterministic else range(path.n_paths)
    atoms = [
        [list(strategy.builder(k, PathPrefix(path, k, j))) for j in paths] for k in range(K + 1)
    ]
    locs, weights, orders = [], [], []
    for order in (0, 1):
        sel = [[[a for a in row if a.order == order] for row in step] for step in atoms]
        m = max(len(row) for step in sel for row in step)
        loc, w = np.zeros((2, K + 1, len(paths), m))
        for k, step in enumerate(sel):
            for j, row in enumerate(step):
                for i, a in enumerate(row):
                    loc[k, j, i], w[k, j, i] = a.location, a.weight
        locs.append(loc)
        weights.append(w)
        orders += [order] * m
    loc, w = np.concatenate(locs, axis=2), np.concatenate(weights, axis=2)
    if np.all(loc == loc[:, :1]):
        loc = loc[:, 0]
    if strategy.deterministic:
        w = w[:, 0]
    return Holdings(
        name=strategy.name, grid=path.config.grid, locations=loc, orders=orders, weights=w
    )


class Pairings(NamedTuple):
    """Pairings of a strategy with the ensemble; drift and vol need a schedule."""

    value: np.ndarray  # (K+1, P) <theta_k, p_k>
    drift: np.ndarray | None  # (K, P) <theta_k, p_k m_k>
    vol: np.ndarray | None  # (K, P, n) <theta_k, p_k sigma_k^i>


def coefficient_rows(
    schedule: CoefficientSchedule, path: CurvePath, k: int, n_factors: int | None = None
) -> np.ndarray:
    """Node values of m_k, then of each sigma_k^i, stacked: (1 + n, N).

    A state-dependent schedule is sampled on every path's curve: (1 + n, P, N);
    that needs keep_states=True (ConfigInvalid on a column-only ensemble).
    Both come from market_model.coefficient_table, which raises ConfigInvalid
    when n_factors (the count at step 0) is given and step k has another.
    """
    curves = None if schedule.deterministic else [path.curve_at(k, j) for j in range(path.n_paths)]
    g, a = coefficient_table(schedule, path.config.grid, path.times[k], curves, n_factors)
    rows = np.ascontiguousarray(np.moveaxis(g + a[..., None], 0, 1))  # (1 + n, 1 or P, N)
    return rows[:, 0] if schedule.deterministic else rows


def _pair_step(p: np.ndarray, coeff, groups, grid: MaturityGrid, nodes, k: int) -> np.ndarray:
    """Pairings <theta_k, p_k c_k> of one step.

    (P,) with c_k = 1 when coeff is None; (S, P) for a stack of S
    coefficients, (S, 1, N) or (S, P, N). nodes is step k's node table of
    p's columns, or None for all nodes.
    """
    out = None
    for locations, order, w in groups:
        at = atoms_value_matrix(locations, p, grid, order, coeff, nodes, k)
        if w.ndim == 1:
            part = at @ w
        else:
            # contiguous rows: a strided BLAS dot product rounds differently
            at = np.ascontiguousarray(at)
            part = np.matmul(at[..., None, :], w[:, :, None])[..., 0, 0]
        out = part if out is None else out + part
    return np.zeros(np.shape(coeff)[:1] + p.shape[:1]) if out is None else out


def pairings(
    strategy: Strategy, path: CurvePath, schedule: CoefficientSchedule | None = None
) -> Pairings:
    """Pairings of a strategy with every step and path of an ensemble.

    Returns value <theta_k, p_k>; with a schedule also drift <theta_k, p_k
    m_k> and vol <theta_k, p_k sigma_k^i> for k < K, coefficients frozen at
    the left endpoint of each step. One loop over steps, vectorized over
    paths. The atoms of each derivative order read p_k, and then in one more
    call the products of p_k with the stacked rows of m_k and sigma_k^i,
    through curve_space.atoms_value_matrix, which never builds a product
    curve. Weights shared by all paths contract by one matrix-vector product
    per row, per-path weights by one dot product per path and row.

    On a column-only ensemble the atoms read the retained columns, with the
    coefficient rows still indexed by node, so every pairing has the same
    bits as on the full states.

    Raises:
        ConfigInvalid: states not retained, or a table of another ensemble.
        GridMismatch: holdings tabulated on another grid.
        OrderUnsupported: an order-1 atom while the Sobolev order s < 2.
        NodeNotRecorded: an atom reads a node the ensemble did not retain.
    """
    hold = as_holdings(strategy, path)
    grid = path.config.grid
    if hold.grid != grid:
        raise GridMismatch(f"holdings {hold.name!r} were tabulated on another grid")
    K, P = path.n_steps, path.n_paths
    if hold.weights.shape[:-1] not in ((K + 1,), (K + 1, P)):
        raise ConfigInvalid(
            f"holdings {hold.name!r} have weights {hold.weights.shape} on {K} steps, {P} paths"
        )
    if path.config.s.s < 2 and np.any(hold.orders == 1):
        raise OrderUnsupported("derivative atoms require Sobolev order >= 2")
    locations = hold.locations
    if locations.ndim == 1:
        locations = np.broadcast_to(locations, (K + 1,) + locations.shape)
    groups = []
    for order in (0, 1):
        sel = hold.orders == order
        if sel.any():
            sel = slice(None) if sel.all() else sel  # a view: one group copies nothing
            weights = np.ascontiguousarray(hold.weights[..., sel])
            groups.append((locations[..., sel], order, weights))

    value = np.empty((K + 1, P))
    drift = vol = None
    for k in range(K + 1):
        step_groups = [(loc[k], order, w[k]) for loc, order, w in groups]
        p = path.states[k]
        nodes = None if path.nodes is None else path.nodes[k]
        value[k] = _pair_step(p, None, step_groups, grid, nodes, k)
        if schedule is None or k == K:
            continue
        rows = coefficient_rows(schedule, path, k, None if vol is None else vol.shape[2])
        if vol is None:
            drift, vol = np.empty((K, P)), np.empty((K, P, len(rows) - 1))
        coeff = rows if rows.ndim == 3 else rows[:, None]
        paired = _pair_step(p, coeff, step_groups, grid, nodes, k)
        drift[k], vol[k] = paired[0], paired[1:].T
    return Pairings(value, drift, vol)


# --- wealth, gains and ledgers ----------------------------------------------------


def value_path(strategy: Strategy, path: CurvePath) -> np.ndarray:
    """(K+1, P) wealth V_k = <theta_k, p_k> along the ensemble."""
    return pairings(strategy, path).value


def gains(strategy: Strategy, path: CurvePath, schedule: CoefficientSchedule) -> np.ndarray:
    """(K+1, P) accumulated gains process of the strategy.

    The drift and volatility legs are paired against the product curves
    p_k m_k and p_k sigma_k^i (consistent with curve multiplication), frozen
    at the left endpoint of each step.
    """
    return ledger(strategy, path, schedule).gains


def ledger(strategy: Strategy, path: CurvePath, schedule: CoefficientSchedule) -> LedgerPath:
    """Wealth, gains, and per-path self-financing residual in one pass."""
    return LedgerPath.from_pairings(strategy.name, pairings(strategy, path, schedule), path)


def self_financing_residual(
    strategy: Strategy, path: CurvePath, schedule: CoefficientSchedule
) -> float:
    """sup over steps and paths of |V_t - V_0 - G_t|."""
    return ledger(strategy, path, schedule).max_residual


def self_financing_tolerance(led: LedgerPath, dt: float, factor: float = 10.0) -> float:
    """Default residual budget: factor * dt * observed wealth scale."""
    scale = max(1.0, float(np.max(np.abs(led.wealth))))
    return factor * dt * scale


def admissibility_norm(
    strategy: Strategy, path: CurvePath, schedule: CoefficientSchedule
) -> float:
    """Sample admissibility norm of the strategy.

    ||theta||^2 = E[(int |<theta, p m>| dt)^2] + E[int sum_i <theta, p sigma^i>^2 dt],
    both integrals left-point sums on the simulation grid.
    """
    pr = pairings(strategy, path, schedule)
    dt = path.config.dt
    drift_abs = np.sum(np.abs(pr.drift), axis=0) * dt
    vol_sq = np.sum(pr.vol**2, axis=(0, 2)) * dt
    return float(np.sqrt(np.mean(drift_abs**2) + np.mean(vol_sq)))


# --- strategy primitives -------------------------------------------------------


def _leg(
    name: str, order: int, locate: Callable, weigh: Callable, orders_read=None
) -> TableStrategy:
    """One-atom strategy at locate(times) per step; weigh(path) gives its weights.

    orders_read lists the atom orders that tabulating and pairing read at
    those locations (default: the atom's own order).
    """

    def table(path: CurvePath) -> Holdings:
        return Holdings(
            name=name,
            grid=path.config.grid,
            locations=locate(path.times),
            orders=[order],
            weights=weigh(path),
        )

    def reads(times: np.ndarray) -> list:
        return [(locate(times), o) for o in (orders_read or (order,))]

    return TableStrategy(name, table, reads)


def _fixed_atom(name: str, location: float, order: int, weight: float) -> TableStrategy:
    """weight units of one atom at a fixed time-to-maturity, every step."""
    return _leg(
        name,
        order,
        lambda times: np.array([location]),
        lambda path: np.full((path.n_steps + 1, 1), weight),
    )


def buy_and_hold_zero_coupon(maturity: float, weight: float = 1.0) -> TableStrategy:
    """Hold `weight` bonds maturing at calendar time `maturity`.

    At step k the holding is an atom at time-to-maturity maturity - t_k;
    self-financing up to O(dt) without rebalancing cash.
    """

    def locate(times: np.ndarray) -> np.ndarray:
        x = maturity - times
        if np.any(x < 0.0):
            raise ValidationFailure(f"zero-coupon maturity {maturity} before the horizon")
        return x[:, None]

    return _leg(
        f"zero_coupon {maturity}",
        0,
        locate,
        lambda path: np.full((path.n_steps + 1, 1), weight),
    )


def _rollover_strategy(maturity: float, weight: float) -> TableStrategy:
    """Roll bonds at constant time-to-maturity S, reinvesting continuously.

    The holding at step k is x_k * delta_S with x_k = exp(sum_{j<k} f_j(S) dt)
    the rollover account of each path (adapted by construction); the account
    reads S's order-1 atom as well.
    """

    def weigh(path: CurvePath) -> np.ndarray:
        cfg = path.config
        _, _, account = rollover_account(path.states, maturity, cfg.grid, cfg.dt, path.nodes)
        return (weight * account)[:, :, None]

    return _leg(f"rollover {maturity}", 0, lambda times: np.array([maturity]), weigh, (0, 1))


def node_request(grid: MaturityGrid, times: np.ndarray, reads) -> np.ndarray:
    """The simulate_mild(keep_states=...) request for atoms a run will pair.

    Args:
        times: the ensemble's K+1 time nodes.
        reads: (locations, order) pairs with (M,) or (K+1, M) locations, as
            TableStrategy.reads lists them.

    Returns:
        (K+1, N) boolean array, row k True at every node that the atoms of
        step k read (curve_space.atom_nodes).
    """
    request = np.zeros((len(times), grid.n_points), dtype=bool)
    for locations, order in reads:
        request |= atom_nodes(locations, grid, order)
    return request


def _join(arrays: list) -> np.ndarray:
    """Concatenate (M_i,) / (K+1, M_i) / (K+1, P, M_i) tables along atoms."""
    ndim = max(a.ndim for a in arrays)
    arrays = [a.reshape(a.shape[:-1] + (1,) * (ndim - a.ndim) + a.shape[-1:]) for a in arrays]
    lead = np.broadcast_shapes(*(a.shape[:-1] for a in arrays))
    return np.concatenate([np.broadcast_to(a, lead + a.shape[-1:]) for a in arrays], axis=-1)


def strategy_from_spec(spec: dict | list) -> TableStrategy:
    """Build a strategy from its JSON description.

    A leg is {"kind": ..., "weight": w} with kind one of
      "cash"                      : w * delta_0
      "zero_coupon", "maturity" T : w bonds maturing at calendar time T
      "rollover", "maturity" S    : rolling account at time-to-maturity S
      "derivative_atom", "location" x : w * delta'_x
    A list of legs combines them into one table, atoms in leg order.
    """
    legs = spec if isinstance(spec, list) else [spec]
    parts: list[TableStrategy] = []
    for leg in legs:
        if not isinstance(leg, dict) or "kind" not in leg:
            raise ValidationFailure(f"strategy leg not understood: {leg!r}")
        kind = leg["kind"]
        w = float(leg.get("weight", 1.0))
        if kind == "cash":
            parts.append(_fixed_atom("cash", 0.0, 0, w))
        elif kind == "zero_coupon":
            parts.append(buy_and_hold_zero_coupon(float(leg["maturity"]), w))
        elif kind == "rollover":
            parts.append(_rollover_strategy(float(leg["maturity"]), w))
        elif kind == "derivative_atom":
            x = float(leg["location"])
            parts.append(_fixed_atom(f"derivative_atom {x}", x, 1, w))
        else:
            raise ValidationFailure(f"unknown strategy kind {kind!r}")
    if len(parts) == 1:
        return parts[0]
    name = "+".join(p.name for p in parts)

    def table(path: CurvePath) -> Holdings:
        tables = [part.table(path) for part in parts]
        return Holdings(
            name=name,
            grid=path.config.grid,
            locations=_join([t.locations for t in tables] or [np.zeros(0)]),
            orders=np.concatenate([t.orders for t in tables] or [np.zeros(0, np.int64)]),
            weights=_join([t.weights for t in tables] or [np.zeros((path.n_steps + 1, 0))]),
        )

    def reads(times: np.ndarray) -> list:
        return [read for part in parts for read in part.reads(times)]

    return TableStrategy(name, table, reads)
