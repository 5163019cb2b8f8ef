"""Replication of terminal claims by bond portfolios.

Under the martingale measure a square-integrable claim X is
E_Q[X] + sum_i int x_t^i dW~^i; the hedge turns the integrand x_t into a
portfolio in two moves, both per time step:

1. Range inversion. With l_t = L_t p_0, B_t^i = l_t sigma_t^i and the Gram
   operator A_t = ((B^i, B^j))_{ij} in the ambient inner product, solve
   A_t c = x_t on the retained spectrum (relative eigenvalue cutoff
   eps_rank); a residual above eps_residual * ||x_t|| means the target is
   not attainable by bond portfolios and raises OutOfRange.

2. Atom realization. The curve eta_t = sum_i c_i B_t^i acting through the
   inner product is re-expressed as finitely many point holdings: weights w
   on a maturity basis {S_1..S_M} solve <w-atoms, p_t sigma^i_t> =
   (A_t c)_i, minimum-norm via pseudo-inverse. A cash atom at 0 (the bond
   p_t(0) carries no risk since sigma(0) = 0) completes the wealth to the
   conditional claim value, propagated by the running value identity
   V_{k+1} = V_k + sum_i x_k^i dW~_k^i.

For deterministic market prices of risk the Clark-Ocone integrand of the
optimal-wealth claims has the closed form x_t^i = gamma_t^i y_t with y_t
from the utility kernel tables; that path is exercised by the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curve_space import (
    Curve,
    SobolevIndex,
    atoms_value_matrix,
    sobolev_gram,
    translate_rows,
)
from .dynamics import CurvePath
from .errors import ConfigInvalid, OutOfRange, ValidationFailure
from .market_model import (
    CoefficientSchedule,
    as_gamma_array,
    coefficient_table,
    q_brownian_increments,
)
from .portfolio import Holdings, Strategy, pairings
from .utility import Utility, conditional_coefficients

__all__ = [
    "HedgeOperators",
    "HedgeResult",
    "gram_operators",
    "solve_hedge_step",
    "eta_curve",
    "default_atom_maturities",
    "integrand_from_strategy",
    "remaining_variance",
    "conditional_wealth_tables",
    "clark_ocone_integrand_deterministic",
    "complete_hedge",
    "weighted_condition_diagnostic",
]


@dataclass
class HedgeOperators:
    """Deterministic hedge operators at the K+1 time nodes, with spectral data.

    Curves are kept as Curve keeps them, grid parts plus constants, stacked
    over the time nodes.
    """

    times: np.ndarray
    grid: object
    s: SobolevIndex
    l: np.ndarray  # (K+1, N) grid parts of l_t = L_t p0
    l_a: float  # constant part of every l_t, that of p0
    B: np.ndarray  # (K+1, n, N) grid parts of B_t^i = l_t sigma_t^i
    B_a: np.ndarray  # (K+1, n) constant parts of B_t^i
    sigma_values: np.ndarray  # (K+1, n, N) node values of sigma_t^i
    A: np.ndarray  # (K+1, n, n) Gram matrices
    eigvals: np.ndarray  # (K+1, n)
    eigvecs: np.ndarray  # (K+1, n, n)

    @property
    def n_factors(self) -> int:
        return self.A.shape[1]


def gram_operators(
    p0: Curve, schedule: CoefficientSchedule, times: np.ndarray, s: SobolevIndex
) -> HedgeOperators:
    """Build l_t, B_t^i and A_t = B*B on the time grid (deterministic sigma).

    sigma_t comes from market_model.coefficient_table and l_t from
    curve_space.translate_rows; A holds every step and factor pair from one
    sobolev_gram call.
    """
    if not schedule.deterministic:
        raise ConfigInvalid("gram_operators needs a deterministic coefficient schedule")
    g, a = coefficient_table(schedule, p0.grid, times)
    sig_g, sig_a = g[:, 1:], a[:, 1:]
    l = translate_rows(p0, times)[:, None, :]
    # multiply(l_t, sigma_t^i) for every step and factor: the same expression
    B = l * sig_g + p0.a * sig_g + sig_a[:, :, None] * l
    B_a = p0.a * sig_a
    A = sobolev_gram(B, B_a, p0.grid.dx, s)
    eigvals, eigvecs = np.linalg.eigh(A)
    return HedgeOperators(
        times=np.asarray(times, dtype=np.float64),
        grid=p0.grid,
        s=s,
        l=l[:, 0],
        l_a=p0.a,
        B=B,
        B_a=B_a,
        sigma_values=sig_g + sig_a[:, :, None],
        A=A,
        eigvals=eigvals,
        eigvecs=eigvecs,
    )


def solve_hedge_step(
    ops: HedgeOperators,
    step: int,
    x: np.ndarray,
    eps_rank: float = 1e-10,
    eps_residual: float = 1e-8,
):
    """Solve A_t c = x on the retained spectrum.

    Args:
        x: (n,) target or (P, n) batch of targets.

    Returns:
        (c, residual): coefficients with the same leading shape as x and the
        Euclidean residual ||A c - x|| per target.

    Raises:
        OutOfRange: some residual exceeds eps_residual * ||x||.
    """
    lam = ops.eigvals[step]
    V = ops.eigvecs[step]
    cutoff = eps_rank * max(float(lam.max()), 0.0)
    keep = lam > cutoff
    inv = np.where(keep, 1.0 / np.where(keep, lam, 1.0), 0.0)
    x_arr = np.asarray(x, dtype=np.float64)
    single = x_arr.ndim == 1
    xb = x_arr[None, :] if single else x_arr
    c = ((xb @ V) * inv) @ V.T
    resid = np.linalg.norm(c @ ops.A[step] - xb, axis=1)
    scale = np.linalg.norm(xb, axis=1)
    bad = resid > eps_residual * np.maximum(scale, 1e-300)
    if np.any(bad):
        worst = int(np.argmax(resid - eps_residual * scale))
        raise OutOfRange(
            f"hedge target outside operator range at step {step}: residual "
            f"{resid[worst]:.3e} vs allowance {eps_residual * scale[worst]:.3e}"
        )
    return (c[0], float(resid[0])) if single else (c, resid)


def eta_curve(ops: HedgeOperators, step: int, c: np.ndarray) -> Curve:
    """Riesz representative eta = sum_i c_i B_t^i of the solved hedge."""
    return Curve(ops.grid, c @ ops.B[step], float(c @ ops.B_a[step]))


def default_atom_maturities(n_factors: int, grid, horizon: float, m: int | None = None) -> np.ndarray:
    """Equally spaced atom basis in [0.5, x_max - horizon]; default M = 2n + 1."""
    m = 2 * n_factors + 1 if m is None else m
    hi = grid.x_max - horizon
    if hi <= 0.5:
        raise ValidationFailure(
            f"grid end {grid.x_max} leaves no room for atoms beyond the horizon {horizon}"
        )
    return np.linspace(0.5, hi, m)


def integrand_from_strategy(
    strategy: Strategy, path: CurvePath, schedule: CoefficientSchedule
) -> np.ndarray:
    """(K, P, n) volatility pairings x_k^i = <theta_k, p_k sigma_k^i>.

    These are the exact hedge targets of a claim defined as the strategy's
    terminal wealth; feeding them to complete_hedge closes the round trip.
    """
    if not schedule.deterministic:
        raise ConfigInvalid("integrand extraction needs a deterministic schedule")
    return pairings(strategy, path, schedule).vol


# --- Clark-Ocone closed forms ---------------------------------------------------


def remaining_variance(gamma, n_steps: int, dt: float) -> np.ndarray:
    """(K+1,) tail sums h_k = sum_{j>=k} ||gamma_j||^2 dt (left-point)."""
    g = as_gamma_array(gamma, n_steps, dt)
    sq = np.sum(g * g, axis=1) * dt
    out = np.zeros(n_steps + 1)
    out[:-1] = np.cumsum(sq[::-1])[::-1]
    return out


def conditional_wealth_tables(
    u: Utility, lam: float, gamma, xi: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """(Y, y) tables (K+1, P) from the lognormal kernels along xi paths."""
    K = xi.shape[1] - 1
    h = remaining_variance(gamma, K, dt)
    Y = np.empty_like(xi.T)
    y = np.empty_like(xi.T)
    for k in range(K + 1):
        Y[k], y[k] = conditional_coefficients(u, lam, xi[:, k], h[k])
    return Y, y


def clark_ocone_integrand_deterministic(
    u: Utility, lam: float, gamma, xi: np.ndarray, dt: float
) -> np.ndarray:
    """(K, P, n) integrand x_k^i = gamma_k^i y_k for the optimal-wealth claim.

    xi is the (P, K+1) density path under P; gamma must be deterministic
    (vector, (K, n) array, or callable). Utilities outside the registered
    families raise UnsupportedUtility inside the kernel call.
    """
    K = xi.shape[1] - 1
    g = as_gamma_array(gamma, K, dt)
    _, y = conditional_wealth_tables(u, lam, g, xi, dt)
    return y[:K, :, None] * g[:, None, :]


# --- hedge completion -----------------------------------------------------------


@dataclass
class HedgeResult:
    """Completed hedge: atoms plus cash per step, with audit trails."""

    atom_maturities: np.ndarray
    weights: np.ndarray  # (K, P, M) atom weights, a read-only view of strategy.weights
    cash: np.ndarray  # (K+1, P) holdings of the maturing bond delta_0, another view
    conditional_value: np.ndarray  # (K+1, P) V-bar_k
    gram_residual: np.ndarray  # (K, P)
    achieved: np.ndarray  # (K, P, n) targets A c actually met
    strategy: Holdings  # cash at 0, then the atom basis; no risky atoms at step K


def complete_hedge(
    ops: HedgeOperators,
    path: CurvePath,
    integrands: np.ndarray,
    price0,
    gamma=None,
    atom_maturities: Sequence[float] | None = None,
    eps_rank: float = 1e-10,
    eps_residual: float = 1e-8,
) -> HedgeResult:
    """Turn integrands into an atom strategy replicating the claim.

    Args:
        ops: precomputed hedge operators on path.times.
        path: P-measure ensemble with retained states: every node, or a
            node request holding the order-0 atoms at atom_maturities (and,
            for pairing the result's strategy, the cash atom at 0).
        integrands: (K, P, n) hedge targets at the left endpoints.
        price0: claim price E_Q[X] (scalar or per-path array).
        gamma: market price of risk (required); propagates the conditional
            value V-bar via Q-increments.
        atom_maturities: maturity basis; default 2n+1 points in
            [0.5, x_max - T].

    Returns:
        HedgeResult; `strategy` is its Holdings table, ready for the ledger.

    Raises:
        OutOfRange: an integrand is not attainable within eps_residual.
        NodeNotRecorded: the node request left out an atom maturity.
    """
    if path.states is None:
        raise ConfigInvalid("complete_hedge needs keep_states=True")
    cfg = path.config
    K, P = path.n_steps, path.n_paths
    n = ops.n_factors
    if integrands.shape != (K, P, n):
        raise ConfigInvalid(f"integrands shape {integrands.shape} != {(K, P, n)}")
    if gamma is None:
        raise ConfigInvalid("complete_hedge needs gamma")
    maturities = (
        default_atom_maturities(n, cfg.grid, cfg.horizon)
        if atom_maturities is None
        else np.asarray(atom_maturities, dtype=np.float64)
    )
    M = maturities.shape[0]

    dw_q = q_brownian_increments(path.dw, gamma, cfg.dt)

    # the strategy's table: cash at 0, then the atom basis; the claim pays at
    # T in cash, so no bonds are held at the last step
    table = np.zeros((K + 1, P, M + 1))
    weights, cash = table[:K, :, 1:], table[:, :, 0]
    vbar = np.empty((K + 1, P))
    gram_residual = np.empty((K, P))
    achieved = np.empty((K, P, n))
    vbar[0] = np.broadcast_to(np.asarray(price0, dtype=np.float64), (P,))

    for k in range(K):
        nodes = None if path.nodes is None else path.nodes[k]
        c, resid = solve_hedge_step(ops, k, integrands[k], eps_rank, eps_residual)
        gram_residual[k] = resid
        targets = c @ ops.A[k]
        achieved[k] = targets
        # per-path atom system rows: (p_k sigma^i)(S_j)
        mat = atoms_value_matrix(
            maturities,
            path.states[k][:, None, :],
            cfg.grid,
            coefficient=ops.sigma_values[k],
            nodes=nodes,
            step=k,
        )
        w = (np.linalg.pinv(mat) @ targets[:, :, None])[:, :, 0]
        weights[k] = w
        p_at = atoms_value_matrix(maturities, path.states[k], cfg.grid, nodes=nodes, step=k)
        risky = np.sum(w * p_at, axis=1)
        cash[k] = (vbar[k] - risky) / path.value0[k]
        vbar[k + 1] = vbar[k] + np.einsum("pn,pn->p", targets, dw_q[:, k, :])
    cash[K] = vbar[K] / path.value0[K]
    weights.flags.writeable = cash.flags.writeable = False
    strategy = Holdings.cash_and_bonds("completed_hedge", cfg.grid, maturities, table)
    return HedgeResult(
        atom_maturities=maturities,
        weights=weights,
        cash=cash,
        conditional_value=vbar,
        gram_residual=gram_residual,
        achieved=achieved,
        strategy=strategy,
    )


# --- weighted sequence-space diagnostic -----------------------------------------


@dataclass(frozen=True)
class WeightedSequenceIndex:
    """Polynomial weights (1 + i^2)^{s/2}, i = 1..n, of the coefficient space."""

    order: float

    def weights(self, n: int) -> np.ndarray:
        i = np.arange(1, n + 1, dtype=np.float64)
        return np.power(1.0 + i * i, 0.5 * self.order)


def weighted_condition_diagnostic(
    A_stack: np.ndarray,
    index: WeightedSequenceIndex,
    n_trials: int = 64,
    seed: int = 0,
    eps_rank: float = 1e-12,
) -> dict:
    """Smallest k with ||z|| <= k ||A^{1/2} z|| in the weighted sequence norm.

    Args:
        A_stack: (n, n) Gram matrix or (K, n, n) stack.
        index: weight order of the coefficient norm.
        n_trials: random unit vectors cross-checking the spectral bound.

    Returns:
        dict with k (inf when A is singular on the retained spectrum, i.e.
        no finite constant exists), the per-step minimum eigenvalues of
        A^{1/2} W^2 A^{1/2}, and the worst random-trial ratio (must be <= k).
    """
    A = np.asarray(A_stack, dtype=np.float64)
    if A.ndim == 2:
        A = A[None, :, :]
    n = A.shape[1]
    w2 = index.weights(n) ** 2
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed])))
    k_worst = 0.0
    min_eigs = []
    trial_worst = 0.0
    for Ak in A:
        lam, V = np.linalg.eigh(Ak)
        lam_clip = np.maximum(lam, 0.0)
        root = (V * np.sqrt(lam_clip)) @ V.T
        Mk = root @ (w2[:, None] * root)
        m_eigs = np.linalg.eigvalsh(Mk)
        min_eigs.append(float(m_eigs[0]))
        scale = float(m_eigs[-1])
        if m_eigs[0] <= eps_rank * max(scale, 1e-300):
            k_worst = np.inf
        else:
            k_worst = max(k_worst, 1.0 / np.sqrt(m_eigs[0]))
        z = rng.standard_normal((n_trials, n))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        denom_sq = np.einsum("tn,nm,tm->t", z, Mk, z)
        good = denom_sq > 0
        if np.any(good):
            trial_worst = max(
                trial_worst, float(np.max(1.0 / np.sqrt(denom_sq[good])))
            )
    return {
        "k": float(k_worst) if np.isfinite(k_worst) else np.inf,
        "bounded": bool(np.isfinite(k_worst)),
        "min_weighted_eigs": min_eigs,
        "worst_trial_ratio": trial_worst,
    }
