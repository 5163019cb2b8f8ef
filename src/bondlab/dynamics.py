"""Discounted-curve simulation in the moving frame.

One step of the exact log-Euler scheme maps the ensemble of discounted curves
p_t (node values per path) to

    p_{t+dt} = L_dt [ p_t * exp((m - 1/2 sum_i (sigma^i)^2) dt
                                + sum_i sigma^i dW^i) ],

coefficients frozen at the left endpoint; L_dt is left translation with
linear interpolation on the shared maturity grid. Positivity is preserved
node-by-node because the update is a positive multiplier followed by convex
interpolation (the truncation tail inherits the curve's constant part).
Under the martingale measure the same step runs with drift m - sigma gamma
and Q-Brownian increments.

The coefficients come from market_model.coefficient_table: once for all
steps of a deterministic schedule, once per step and block of paths for a
state-dependent one; one expression, _exponent_coefficients, turns either
table into the exponent's coefficients. The norm diagnostics divide by
L_t p0 from curve_space.translate_rows.

Rates are read off the curve: forward rate f_t(x) = -p_t'(x)/p_t(x), short
rate r_t = f_t(0). The boundary identity p_t(0) = exp(-int_0^t r) and the
rollover identity connect the simulation to its continuum model and are
exposed as residual diagnostics, discretized with left-point sums.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import kernels
from ._kernels_py import exponent
from .curve_space import (
    Curve,
    MaturityGrid,
    SobolevIndex,
    atoms_value_matrix,
    hs_inner_samples,
    translate_rows,
)
from .errors import ConfigInvalid, DegenerateCurve, NonPositiveInitialCurve
from .market_model import CoefficientSchedule, as_gamma_array, coefficient_table

__all__ = [
    "SimConfig",
    "CurvePath",
    "RolloverPath",
    "flat_forward_curve",
    "curve_from_forward",
    "brownian_increments",
    "simulate_mild",
    "spot_rate",
    "forward_rate",
    "boundary_residual",
    "simulate_rollover",
    "check_rollover_maturity",
    "rollover_account",
    "undiscount_curve",
    "undiscount_path",
    "moment_diagnostic",
]


@dataclass(frozen=True)
class SimConfig:
    """Ensemble simulation parameters.

    horizon T and n_steps fix dt = T/n_steps; seed feeds a counter-based
    generator per path index, so path j's noise does not depend on n_paths.
    """

    grid: MaturityGrid
    s: SobolevIndex
    horizon: float
    n_steps: int
    n_paths: int
    seed: int

    def __post_init__(self) -> None:
        if not (self.horizon > 0.0 and np.isfinite(self.horizon)):
            raise ConfigInvalid(f"horizon must be positive, got {self.horizon}")
        if self.n_steps < 1 or self.n_paths < 1:
            raise ConfigInvalid("n_steps and n_paths must be >= 1")
        if self.horizon > self.grid.x_max:
            raise ConfigInvalid(
                f"horizon {self.horizon} exceeds grid end {self.grid.x_max}; "
                "translated curves would be pure truncation fill"
            )

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)


@dataclass
class CurvePath:
    """Simulated ensemble: recorded observables plus optionally retained states.

    Retained states come in two layouts. With keep_states=True, states is
    the full (K+1, P, N) node array and nodes is None. With a node request,
    states is (K+1, P, C) and nodes the (K+1, C) node table: states[k, :, c]
    holds node nodes[k, c] of step k, and fill is None. A column-only ensemble serves every
    tap through curve_space.atoms_value_matrix(..., nodes=...) whose nodes
    were requested: pairings, ledgers, the rollover, complete_hedge and the
    optimal plans. Whole curves (curve_at, PathPrefix.curve, undiscount_path,
    state-dependent coefficient rows) need keep_states=True.
    """

    config: SimConfig
    p0: Curve
    measure: str
    dw: np.ndarray  # (P, K, n) increments of the driving Brownian motion
    terminal: np.ndarray  # (P, N) node values at the horizon
    terminal_fill: np.ndarray  # (P,) constant part at the horizon
    spot: np.ndarray  # (K+1, P) short rate r_t
    value0: np.ndarray  # (K+1, P) boundary value p_t(0)
    states: np.ndarray | None = None  # (K+1, P, N), or (K+1, P, C) columns, if retained
    fill: np.ndarray | None = None  # (K+1, P) constant parts if every node is retained
    sup_norm_p: np.ndarray | None = None  # (P,) sup_t ||p_t||_{E^{s+1}}
    sup_norm_q: np.ndarray | None = None
    sup_norm_qinv: np.ndarray | None = None
    obs_locations: np.ndarray | None = None  # (M,) recorded maturities
    observations: np.ndarray | None = None  # (K+1, P, M) p_t at obs_locations
    nodes: np.ndarray | None = None  # (K+1, C) node of each states column; None: all N

    @property
    def times(self) -> np.ndarray:
        return self.config.times

    @property
    def n_paths(self) -> int:
        return self.dw.shape[0]

    @property
    def n_steps(self) -> int:
        return self.dw.shape[1]

    def require_full_states(self, what: str) -> None:
        """Raise ConfigInvalid unless every node of every step was retained."""
        if self.states is None:
            raise ConfigInvalid(f"{what} needs retained states; rerun with keep_states=True")
        if self.nodes is not None:
            raise ConfigInvalid(
                f"{what} needs whole curves, but only the requested node columns were "
                "retained; rerun with keep_states=True"
            )

    def curve_at(self, step: int, path: int) -> Curve:
        self.require_full_states("curve_at")
        a = float(self.fill[step, path])
        return Curve(self.config.grid, self.states[step, path] - a, a)


@dataclass
class RolloverPath:
    """Rolling bank account at a fixed time-to-maturity S."""

    times: np.ndarray
    maturity: float
    forward: np.ndarray  # (K+1, P) f_t(S)
    account: np.ndarray  # (K+1, P) x_t = exp(int f_s(S) ds), left-point sums
    bond_value: np.ndarray  # (K+1, P) p_t(S)
    wealth: np.ndarray  # (K+1, P) q_t = x_t p_t(S)


# --- initial curves ----------------------------------------------------------


def flat_forward_curve(grid: MaturityGrid, rate: float) -> Curve:
    """Discount curve exp(-rate * x), constant part pinned at the far value.

    The split a = p(x_max) keeps the beyond-grid fill positive, so translation
    preserves positivity at every node.
    """
    vals = np.exp(-rate * grid.nodes)
    a = float(vals[-1])
    return Curve(grid, vals - a, a)


def curve_from_forward(grid: MaturityGrid, forward) -> Curve:
    """Discount curve exp(-int_0^x f) from forward rates, by the trapezoid rule.

    Args:
        forward: callable evaluated at the grid nodes, or its (N,) samples
            there.
    """
    if callable(forward):
        forward = [forward(x) for x in grid.nodes]
    f_vals = np.asarray(forward, dtype=np.float64)
    integral = np.concatenate(
        [[0.0], np.cumsum(0.5 * (f_vals[1:] + f_vals[:-1]) * grid.dx)]
    )
    vals = np.exp(-integral)
    a = float(vals[-1])
    return Curve(grid, vals - a, a)


# --- noise -------------------------------------------------------------------


def brownian_increments(config: SimConfig, n_factors: int) -> np.ndarray:
    """(P, K, n) increments; path j is seeded by SeedSequence([seed, j]).

    Counter-based (Philox) per-path streams: the same (seed, path index)
    always yields the same increments, independent of ensemble size or
    threading, which is what the byte-identical rerun contract needs.
    """
    if n_factors < 1:
        raise ConfigInvalid(f"n_factors must be >= 1, got {n_factors}")
    out = np.empty((config.n_paths, config.n_steps, n_factors))
    root = math.sqrt(config.dt)
    for j in range(config.n_paths):
        gen = np.random.Generator(
            np.random.Philox(np.random.SeedSequence([config.seed, j]))
        )
        out[j] = gen.standard_normal((config.n_steps, n_factors)) * root
    return out


# --- rates -------------------------------------------------------------------


def _spot_from_values(
    values: np.ndarray, dx: float, step: int | None = None, first_path: int = 0
) -> np.ndarray:
    """r = -p'(0)/p(0) with a one-sided second-order stencil; batched.

    step and first_path (the ensemble index of values[0]) only label the
    error raised for a (P, N) batch.
    """
    v0 = values[..., 0]
    bad = ~(v0 > 0.0)  # also catches NaN
    if np.any(bad):
        if step is None:
            raise DegenerateCurve("curve non-positive or NaN at x = 0")
        path = first_path + int(np.argmax(bad))
        raise DegenerateCurve(
            f"curve non-positive or NaN at x = 0 at step {step}, path {path}",
            step=step,
            path=path,
        )
    deriv0 = (-3.0 * v0 + 4.0 * values[..., 1] - values[..., 2]) / (2.0 * dx)
    return -deriv0 / v0


def spot_rate(p: Curve) -> float:
    """Short rate r = f(0) = -p'(0)/p(0)."""
    return float(_spot_from_values(p.values()[None, :], p.grid.dx)[0])


def forward_rate(p: Curve, x: float) -> float:
    """Instantaneous forward rate f(x) = -p'(x)/p(x).

    Raises:
        DegenerateCurve: p(x) <= 0.
    """
    px = p.value_at(x)
    if px <= 0.0:
        raise DegenerateCurve(f"curve non-positive at x = {x}: {px}")
    return -p.derivative_at(x) / px


# --- simulation --------------------------------------------------------------


# Paths per block of the ensemble loop. A block runs all K steps on its own
# (B, N) buffers, about 1 MB each at N = 513, so they stay in L2.
_BLOCK_PATHS = 256


def _exponent_coefficients(g: np.ndarray, a: np.ndarray, gamma, dt: float):
    """Exponent coefficients of coefficient_table rows g (R, 1+n, N), a (R, 1+n).

    gamma is None (measure P), one (n,) vector for every row or (R, n) rows.
    Returns base (R, N), sig (R, n, N), base_a (R,) and sig_a (R, n): row r
    multiplies the nodes by exp(dW sig[r] + base[r]) and the constant part by
    exp(dW sig_a[r] + base_a[r]), with base = (m - gamma sigma - 1/2 sum_i
    (sigma^i)^2) dt. base and sig are views of g, which is overwritten, so
    the table costs no second copy. The gamma and constant-part products are
    matmuls: they round as the one-row products do, which an einsum does not.
    Both products go through one (R, N) scratch: every large temporary freed
    ahead of the block loop can move glibc's mmap threshold, so later
    allocations land on the heap and the peak RSS grows.
    """
    g += a[..., None]  # node values
    base, sig = g[:, 0], g[:, 1:]
    drift_a, sig_a = a[:, 0], a[:, 1:]
    scratch = np.empty_like(base)
    if gamma is not None:
        gamma = np.asarray(gamma)[..., None, :]
        base -= np.matmul(gamma, sig, out=scratch[:, None, :])[:, 0]
        drift_a = drift_a - np.matmul(gamma, sig_a[:, :, None])[..., 0, 0]
    base -= np.multiply(np.einsum("rin,rin->rn", sig, sig, out=scratch), 0.5, out=scratch)
    base *= dt
    base_a = (drift_a - 0.5 * np.matmul(sig_a[:, None, :], sig_a[:, :, None])[:, 0, 0]) * dt
    return base, sig, base_a, sig_a


def _norm_batch(
    values: np.ndarray, const: np.ndarray, dx: float, order: int, scratch: np.ndarray
) -> np.ndarray:
    """E^order norms of the rows of values (node values) with constant parts const.

    scratch is the block's (3, B, N) norm buffer: g = values - const goes to
    scratch[0], the derivative levels to scratch[1:].
    """
    g = scratch[0]
    np.subtract(values, const[:, None], out=g)
    sq = hs_inner_samples(g, g, dx, order, scratch[1:]) + const * const
    return np.sqrt(np.maximum(sq, 0.0))


def simulate_mild(
    p0: Curve,
    schedule: CoefficientSchedule,
    config: SimConfig,
    noise: np.ndarray | None = None,
    *,
    measure: str = "P",
    gamma=None,
    keep_states: bool | np.ndarray = False,
    record_norms: bool = False,
    record_locations=None,
) -> CurvePath:
    """Simulate the discounted-curve ensemble by the exact log-Euler scheme.

    Paths run in blocks of _BLOCK_PATHS, each through all K steps on its own
    cache-sized buffers; for a deterministic schedule the blocks run on one
    thread per available core. Every path's result is computed from its own
    noise only, so the outputs do not depend on the block size or the thread
    count, and the first m paths of a run equal an m-path run.

    Args:
        p0: initial curve with p0(0) = 1 and positive node values.
        schedule: market coefficients; deterministic schedules are sampled
            once per step, state-dependent ones once per step and path.
        config: grid/time/ensemble parameters.
        noise: optional (n_paths, n_steps, n_factors) Brownian increments;
            drawn from the per-path counter generator when omitted.
        measure: "P" or "Q". Under "Q" the drift is m - sigma gamma and the
            increments are read as Q-Brownian; gamma is then required.
        gamma: market price of risk (vector, (K, n) array, or callable).
        keep_states: True retains the full (K+1, P, N) state array, as
            builders of PortfolioStrategy and state-dependent schedules need.
            A node request, a (K+1, N) boolean array (see
            portfolio.node_request), retains at step k only the nodes where
            row k is True: states (K+1, P, C) and the (K+1, C) node table
            nodes, C the largest row count; shorter rows repeat their last
            node. Taps of requested atoms give the same bits either way; the
            constant parts fill, read only by whole curves, are not kept.
        record_norms: track sup_t of the E^{s+1} norms of p, q = p / L_t p0
            and 1/q per path.
        record_locations: optional maturities at which p_t is recorded every
            step, giving (K+1, P, M) observations without keeping states.

    Returns:
        CurvePath with recorded observables.

    Raises:
        ConfigInvalid: inconsistent shapes, measure, or p0(0) != 1; or a
            volatility factor count that changes with time.
        GridMismatch: market coefficients sampled on another grid.
        NonPositiveInitialCurve: p0 has a non-positive node value.
        DegenerateCurve: a simulated curve is non-positive or NaN at x = 0
            (or q is non-positive when recording norms); carries the step
            and path of the first one found, in the first failing block.
    """
    grid, s = config.grid, config.s
    if p0.grid != grid:
        raise ConfigInvalid("initial curve grid differs from simulation grid")
    vals0 = p0.values()
    if np.any(vals0 <= 0.0):
        raise NonPositiveInitialCurve("initial curve must be positive at every node")
    if abs(vals0[0] - 1.0) > 1e-9:
        raise ConfigInvalid(f"initial curve must satisfy p(0) = 1, got {vals0[0]}")
    if measure not in ("P", "Q"):
        raise ConfigInvalid(f"measure must be 'P' or 'Q', got {measure!r}")

    K, P, N, dt, dx = config.n_steps, config.n_paths, grid.n_points, config.dt, grid.dx
    times = config.times
    # the whole table of a deterministic schedule; row 0 (at p0) of a state-dependent one
    det = schedule.deterministic
    table = coefficient_table(schedule, grid, times[:K] if det else 0.0, None if det else [p0])
    n_factors = table[0].shape[1] - 1
    if noise is None:
        noise = brownian_increments(config, n_factors)
    else:
        noise = np.ascontiguousarray(noise, dtype=np.float64)
        if noise.shape != (P, K, n_factors):
            raise ConfigInvalid(
                f"noise shape {noise.shape} != {(P, K, n_factors)}"
            )

    gamma_arr = None
    if measure == "Q":
        if gamma is None:
            raise ConfigInvalid("measure='Q' requires a gamma schedule")
        gamma_arr = as_gamma_array(gamma, K, dt)
        if gamma_arr.shape[1] != n_factors:
            raise ConfigInvalid("gamma factor count differs from volatility")

    shift = dt / dx
    k0 = int(math.floor(shift))
    frac = shift - k0

    steps = _exponent_coefficients(*table, gamma_arr, dt) if det else None

    spot = np.empty((K + 1, P))
    value0 = np.empty((K + 1, P))
    terminal = np.empty((P, N))
    terminal_fill = np.empty(P)

    states_all = fill_all = nodes = None
    if isinstance(keep_states, np.ndarray):
        nodes = _node_table(keep_states, K, N)
        states_all = np.empty((K + 1, P, nodes.shape[1]))
    elif keep_states:
        states_all = np.empty((K + 1, P, N))
        fill_all = np.empty((K + 1, P))

    obs_loc = observations = None
    if record_locations is not None:
        obs_loc = np.atleast_1d(np.asarray(record_locations, dtype=np.float64))
        observations = np.empty((K + 1, P, obs_loc.size))

    sup_p = sup_q = sup_qinv = None
    norm_order = s.s + 1
    if record_norms:
        sup_p, sup_q, sup_qinv = np.empty(P), np.empty(P), np.empty(P)
        # L_t p0 on the nodes at every time
        l_vals = translate_rows(p0, times)
        l_vals += p0.a

    def record(k: int, cols: slice, states: np.ndarray, fill: np.ndarray, norm_buf) -> None:
        """Store time k's observables of the paths in cols.

        norm_buf is the block's (4, B, N) scratch for the norms: q, then the
        three buffers of _norm_batch.
        """
        spot[k, cols] = _spot_from_values(states, dx, step=k, first_path=cols.start)
        value0[k, cols] = states[:, 0]
        if states_all is not None:
            states_all[k, cols] = states if nodes is None else states[:, nodes[k]]
        if fill_all is not None:
            fill_all[k, cols] = fill
        if observations is not None:
            observations[k, cols] = atoms_value_matrix(obs_loc, states, grid)
        if not record_norms:
            return
        q, scratch = norm_buf[0], norm_buf[1:]
        norm_p = _norm_batch(states, fill, dx, norm_order, scratch)
        if k == 0:
            sup_p[cols] = norm_p
            sup_q[cols] = 1.0  # q_0 = 1 has g = 0 and a = 1, so norm exactly 1
            sup_qinv[cols] = 1.0
            return
        np.maximum(sup_p[cols], norm_p, out=sup_p[cols])
        if p0.a > 0.0:
            np.divide(states, l_vals[k], out=q)
            aq = fill / p0.a
        else:
            # truncation tail is 0/0 where L_t p0 degenerates; pin q = 1 there
            valid = l_vals[k] > 1e-300
            np.divide(states, l_vals[k], out=q, where=valid)
            q[:, ~valid] = 1.0
            aq = np.ones(len(fill))
        # a NaN-skipping row minimum flags the rows of np.any(q <= 0, axis=1)
        bad = np.fmin.reduce(q, axis=1) <= 0.0
        if np.any(bad):
            path = cols.start + int(np.argmax(bad))
            raise DegenerateCurve(
                f"q = p / L_t p0 non-positive at step {k}, path {path}; norms undefined",
                step=k,
                path=path,
            )
        np.maximum(sup_q[cols], _norm_batch(q, aq, dx, norm_order, scratch), out=sup_q[cols])
        np.divide(1.0, q, out=q)
        norm_qinv = _norm_batch(q, 1.0 / aq, dx, norm_order, scratch)
        np.maximum(sup_qinv[cols], norm_qinv, out=sup_qinv[cols])

    def run_block(cols: slice) -> None:
        """All K steps of the paths in cols, on buffers private to the block."""
        n_block = cols.stop - cols.start
        states = np.empty((n_block, N))
        states[:] = vals0
        out = np.empty_like(states)
        fill = np.full(n_block, p0.a)
        fill_expo = np.empty(n_block)
        norm_buf = np.empty((4,) + states.shape) if record_norms else None
        record(0, cols, states, fill, norm_buf)
        for k in range(K):
            dwk = noise[cols, k, :]
            if det:
                base_k, sig_k, base_ak, sig_ak = (c[k] for c in steps)
            else:
                # every path's coefficients at t_k, sampled on its own curve
                curves = [Curve(grid, states[j] - fill[j], float(fill[j])) for j in range(n_block)]
                g, a = coefficient_table(schedule, grid, times[k], curves, n_factors)
                gamma_k = None if gamma_arr is None else gamma_arr[k]
                base_k, sig_k, base_ak, sig_ak = _exponent_coefficients(g, a, gamma_k, dt)

            exponent(dwk, sig_ak[..., None], base_ak[..., None], fill_expo[:, None])
            fill = fill * np.exp(fill_expo)
            kernels.step_exp_shift(states, dwk, sig_k, base_k, fill, k0, frac, out)
            states, out = out, states
            record(k + 1, cols, states, fill, norm_buf)
        terminal[cols] = states
        terminal_fill[cols] = fill

    blocks = [slice(j, min(j + _BLOCK_PATHS, P)) for j in range(0, P, _BLOCK_PATHS)]
    # state-dependent schedules call user code per path: keep it on this thread
    n_threads = 1
    if det:
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        n_threads = min(cores or 1, len(blocks))
    if n_threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            # results in block order, so the first failing block's error is raised
            for _ in pool.map(run_block, blocks):
                pass
    else:
        for cols in blocks:
            run_block(cols)

    return CurvePath(
        config=config,
        p0=p0,
        measure=measure,
        dw=noise,
        terminal=terminal,
        terminal_fill=terminal_fill,
        spot=spot,
        value0=value0,
        states=states_all,
        fill=fill_all,
        sup_norm_p=sup_p,
        sup_norm_q=sup_q,
        sup_norm_qinv=sup_qinv,
        obs_locations=obs_loc,
        observations=observations,
        nodes=nodes,
    )


def _node_table(request: np.ndarray, K: int, N: int) -> np.ndarray:
    """(K+1, C) sorted node table of a (K+1, N) boolean node request.

    C is the largest row count (at least 1); a shorter row repeats its last
    node, or node 0 when it requests none, so every column holds a node.
    """
    if request.dtype != bool or request.shape != (K + 1, N):
        raise ConfigInvalid(
            f"node request must be a ({K + 1}, {N}) boolean array, got "
            f"{request.dtype} {request.shape}"
        )
    rows = [np.flatnonzero(row) for row in request]
    table = np.zeros((K + 1, max(1, max(row.size for row in rows))), dtype=np.int64)
    for k, row in enumerate(rows):
        if row.size:
            table[k, : row.size] = row
            table[k, row.size :] = row[-1]
    return table


# --- identities and diagnostics ------------------------------------------------


def boundary_residual(path: CurvePath) -> float:
    """sup over steps and paths of |p_t(0) - exp(-sum_{s<t} r_s dt)|."""
    dt = path.config.dt
    integral = np.zeros_like(path.value0)
    np.cumsum(path.spot[:-1] * dt, axis=0, out=integral[1:])
    return float(np.max(np.abs(path.value0 - np.exp(-integral))))


def rollover_account(
    states: np.ndarray, maturity: float, grid: MaturityGrid, dt: float, nodes=None
):
    """Bond value, forward rate and account of the rollover at time-to-maturity S.

    Args:
        states: (K+1, ..., N) node values along the time grid, or (K+1, ..., C)
            columns with their (K+1, C) node table nodes; these need the
            nodes of S's order-0 and order-1 atoms.

    Returns:
        (p_t(S), f_t(S), x_t), each shaped like states without the node axis,
        with f_t(S) = -p_t'(S)/p_t(S) (derivative from the 3-node gradient
        stencil) and x_t = exp(sum_{s<t} f_s(S) dt) (left-point sums).

    Raises:
        AtomBeyondGrid: S outside [0, x_max].
        DegenerateCurve: p_t(S) <= 0 somewhere.
    """
    p_at = atoms_value_matrix([maturity], states, grid, nodes=nodes)[..., 0]
    dp_at = atoms_value_matrix([maturity], states, grid, order=1, nodes=nodes)[..., 0]
    if np.any(p_at <= 0.0):
        raise DegenerateCurve(f"p_t({maturity}) non-positive on some path")
    fwd = -dp_at / p_at
    log_x = np.zeros_like(fwd)
    np.cumsum(fwd[:-1] * dt, axis=0, out=log_x[1:])
    return p_at, fwd, np.exp(log_x)


def simulate_rollover(path: CurvePath, maturity: float) -> RolloverPath:
    """Roll a bank account at constant time-to-maturity S = maturity.

    x_t = exp(sum_{s<t} f_s(S) dt) (left-point), q_t = x_t p_t(S). Requires
    retained states: every node, or a node request holding S's order-0 and
    order-1 atoms.

    Raises:
        ConfigInvalid: S outside the uncontaminated window [dx, x_max - T].
        DegenerateCurve: p_t(S) <= 0 somewhere.
        NodeNotRecorded: the node request left out a node S reads.
    """
    cfg = path.config
    if path.states is None:
        raise ConfigInvalid("rollover needs keep_states=True")
    check_rollover_maturity(cfg, maturity)
    p_at, fwd, account = rollover_account(path.states, maturity, cfg.grid, cfg.dt, path.nodes)
    return RolloverPath(
        times=cfg.times,
        maturity=maturity,
        forward=fwd,
        account=account,
        bond_value=p_at,
        wealth=account * p_at,
    )


def check_rollover_maturity(config: SimConfig, maturity: float) -> None:
    """Raise ConfigInvalid unless S lies in the uncontaminated window [dx, x_max - T]."""
    if not (config.grid.dx <= maturity <= config.grid.x_max - config.horizon):
        raise ConfigInvalid(
            f"rollover maturity {maturity} outside [{config.grid.dx}, "
            f"{config.grid.x_max - config.horizon}]"
        )


def undiscount_curve(p: Curve) -> Curve:
    """p-hat = p / p(0): forward curve unchanged, boundary value 1."""
    v0 = p.values()[0]
    if v0 <= 0.0:
        raise DegenerateCurve(f"p(0) = {v0} <= 0")
    return Curve(p.grid, (p.g + p.a) / v0 - p.a / v0, p.a / v0)


def undiscount_path(path: CurvePath) -> np.ndarray:
    """(K+1, P, N) undiscounted node values; requires keep_states=True."""
    path.require_full_states("undiscount_path")
    v0 = path.value0[:, :, None]
    if np.any(v0 <= 0.0):
        raise DegenerateCurve("p_t(0) non-positive on some path")
    return path.states / v0


def moment_diagnostic(path: CurvePath, orders=(1, 2, 4, 8)) -> dict:
    """Sample moments E[sup_t ||.||^u] for p, q, 1/q with stability flags.

    Each flag compares the first-half-sample estimate to the full-sample one;
    a >10% move marks the moment as unstable at this ensemble size.
    """
    if path.sup_norm_p is None:
        raise ConfigInvalid("moment_diagnostic needs record_norms=True")
    out: dict = {"orders": list(orders), "n_paths": path.n_paths}
    for label, sup in (
        ("p", path.sup_norm_p),
        ("q", path.sup_norm_q),
        ("q_inv", path.sup_norm_qinv),
    ):
        half = sup[: max(1, sup.shape[0] // 2)]
        moments = {}
        stable = True
        for u in orders:
            full_m = float(np.mean(sup**u))
            half_m = float(np.mean(half**u))
            moments[int(u)] = full_m
            if abs(full_m - half_m) > 0.1 * abs(half_m):
                stable = False
        out[label] = {"moments": moments, "stable": stable}
    return out
