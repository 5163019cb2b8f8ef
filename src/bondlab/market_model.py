"""Market coefficients and the no-arbitrage change of measure.

The discounted-curve dynamics are driven by a drift curve m_t and finitely
many volatility factor curves sigma_t^i, all vanishing at maturity 0 (the
discounted bond at x = 0 is the accumulated discount, which carries no local
risk or drift). Strong no-arbitrage asks for a market price of risk gamma
with m_t = sum_i gamma_t^i sigma_t^i; the solver below returns the
minimum-norm solution of that linear system in the ambient Sobolev inner
product and rejects drifts with a residual outside the span.

A CoefficientSchedule maps a time (and, for state-dependent markets, the
current curve) to m_t and sigma_t^i. coefficient_table is the one place
where these samples become arrays: it stacks them for many times, or for
many curves at one time, into a table of grid parts and a table of constant
parts, and checks every row on the way. The simulator, the pairings, the
hedge operators, the optimizer and the solver below all read that table.

The Girsanov helpers turn a gamma path into the martingale density

    xi_t = exp(-1/2 int ||gamma||^2 ds - sum_i int gamma^i dW^i)

on the simulation time grid (left-point sums, matching the simulator's
frozen-coefficient convention) and shift Brownian increments to the measure
in which discounted bond prices are martingales.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .curve_space import Curve, MaturityGrid, SobolevIndex, sobolev_gram, sobolev_norm
from .errors import ArbitrageDetected, ConfigInvalid, GridMismatch, ValidationFailure

__all__ = [
    "VolatilityOperator",
    "DriftCurve",
    "MarketPriceOfRisk",
    "CoefficientSchedule",
    "coefficient_table",
    "constant_coefficients",
    "humped_volatility",
    "decaying_volatility_family",
    "solve_market_price_of_risk",
    "girsanov_density_path",
    "q_brownian_increments",
    "strong_arbitrage_diagnostic",
]


def _check_vanishes_at_zero(c: Curve, label: str) -> None:
    v0 = c.value_at(0.0)
    scale = max(1.0, float(np.max(np.abs(c.values()))))
    if abs(v0) > 1e-12 * scale:
        raise ValidationFailure(f"{label} must vanish at x = 0, got {v0}")


@dataclass(frozen=True)
class VolatilityOperator:
    """Finitely many factor curves sigma^i, each with sigma^i(0) = 0."""

    factors: tuple[Curve, ...]

    def __post_init__(self) -> None:
        if len(self.factors) == 0:
            raise ValidationFailure("volatility operator needs at least one factor")
        grid = self.factors[0].grid
        for i, f in enumerate(self.factors):
            if f.grid != grid:
                raise ValidationFailure("volatility factors live on different grids")
            _check_vanishes_at_zero(f, f"volatility factor {i}")
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def n_factors(self) -> int:
        return len(self.factors)

    @property
    def grid(self) -> MaturityGrid:
        return self.factors[0].grid

    def constant_parts(self) -> np.ndarray:
        return np.array([f.a for f in self.factors])


@dataclass(frozen=True)
class DriftCurve:
    """Drift coefficient curve with m(0) = 0."""

    curve: Curve

    def __post_init__(self) -> None:
        _check_vanishes_at_zero(self.curve, "drift")


@dataclass(frozen=True)
class MarketPriceOfRisk:
    """Minimum-norm gamma with m ~ sum_i gamma^i sigma^i plus diagnostics."""

    gamma: np.ndarray
    residual: float
    drift_norm: float
    gram_rank: int


@dataclass(frozen=True)
class CoefficientSchedule:
    """Map from (time, current curve) to the step's market coefficients.

    kind is "deterministic" (sampler ignores the curve argument; results are
    cached per time) or "state-dependent" (sampler is called per path with
    the path's current curve). The sampler returns (DriftCurve,
    VolatilityOperator).
    """

    kind: str
    sampler: Callable[[float, Curve | None], tuple[DriftCurve, VolatilityOperator]]
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in ("deterministic", "state-dependent"):
            raise ValidationFailure(
                f"schedule kind must be deterministic or state-dependent, got {self.kind!r}"
            )

    @property
    def deterministic(self) -> bool:
        return self.kind == "deterministic"

    def at(self, t: float, p: Curve | None = None) -> tuple[DriftCurve, VolatilityOperator]:
        if self.deterministic:
            hit = self._cache.get(t)
            if hit is None:
                hit = self.sampler(t, None)
                self._cache[t] = hit
            return hit
        if p is None:
            raise ValidationFailure("state-dependent schedule sampled without a curve")
        return self.sampler(t, p)


def coefficient_table(
    schedule: CoefficientSchedule, grid: MaturityGrid, times, curves=None, n_factors=None
) -> tuple[np.ndarray, np.ndarray]:
    """m_t and sigma_t^i of a schedule at stacked times, as grid and constant parts.

    Row j is schedule.at(times[j], curves[j]). A deterministic schedule takes
    no curves. A state-dependent one takes one curve per row; a single time
    then serves every row, as in one step of a block of paths. A caller that
    builds one table per step passes n_factors, the factor count it found at
    t = 0, so that every step is checked against it.

    Returns:
        g (T, 1 + n, N): grid parts of m_t, then of each sigma_t^i.
        a (T, 1 + n): their constant parts. Node values are g + a[..., None],
        the bits of Curve.values().

    Raises:
        GridMismatch: a row's drift or factors live on another grid than grid.
        ConfigInvalid: a row's factor count differs from n_factors, or by
            default from row 0's.
    """
    times = np.atleast_1d(times) if curves is None else np.broadcast_to(times, (len(curves),))
    samples = [schedule.at(float(t), p) for t, p in zip(times, curves or [None] * len(times))]
    n, t0 = (samples[0][1].n_factors, times[0]) if n_factors is None else (n_factors, 0.0)
    for t, (m, sig) in zip(times, samples):
        if m.curve.grid != grid or sig.grid != grid:
            raise GridMismatch(f"market coefficients at t = {t:g} live on another grid")
        if sig.n_factors != n:
            raise ConfigInvalid(
                f"volatility has {sig.n_factors} factors at t = {t:g} but {n} at t = {t0:g}"
            )
    rows = [(m.curve,) + sig.factors for m, sig in samples]
    return np.array([[f.g for f in r] for r in rows]), np.array([[f.a for f in r] for r in rows])


def constant_coefficients(m: DriftCurve, sigma: VolatilityOperator) -> CoefficientSchedule:
    """Time-constant deterministic schedule."""
    return CoefficientSchedule("deterministic", lambda t, p: (m, sigma))


def humped_volatility(grid: MaturityGrid, scale: float, decay: float = 1.0) -> Curve:
    """Single humped factor scale * x * exp(-decay x); vanishes at 0."""
    x = grid.nodes
    return Curve(grid, scale * x * np.exp(-decay * x), 0.0)


def decaying_volatility_family(
    grid: MaturityGrid,
    n_factors: int,
    s: SobolevIndex,
    weight_order: float,
    scale: float = 0.01,
) -> VolatilityOperator:
    """Humped factors with norms decaying like (1 + i^2)^(-(weight_order+1)/2).

    Models a truncation of a countable factor family whose norm sequence is
    summable against the (1 + i^2)^{weight_order} weights; factor i (1-based)
    gets its own decay rate so the family stays linearly independent.
    """
    factors = []
    for i in range(1, n_factors + 1):
        shape = humped_volatility(grid, 1.0, decay=0.5 + 0.5 * i)
        norm = sobolev_norm(shape, s)
        target = scale * (1.0 + i * i) ** (-(weight_order + 1.0) / 2.0)
        factors.append(Curve(grid, shape.g * (target / norm), 0.0))
    return VolatilityOperator(tuple(factors))


def solve_market_price_of_risk(
    sigma: VolatilityOperator,
    m: DriftCurve,
    s: SobolevIndex,
    eps_rank: float = 1e-10,
    eps_residual: float = 1e-8,
) -> MarketPriceOfRisk:
    """Minimum-norm gamma solving sum_i gamma^i sigma^i = m in E^s.

    The normal equations use the Gram matrix G_ij = (sigma^i, sigma^j)_{E^s}
    and the right-hand side (sigma^i, m)_{E^s}, from one sobolev_gram call
    over the coefficient table of (m, sigma);
    eigenvalues below eps_rank * max are treated as kernel directions, which
    makes gamma the kernel-orthogonal representative when the factors are
    dependent (other solutions differ by kernel elements).

    Raises:
        GridMismatch: the drift lives on another grid than the factors.
        ArbitrageDetected: residual norm ||m - sum gamma^i sigma^i|| exceeds
            eps_residual * ||m||.
    """
    g, a = coefficient_table(constant_coefficients(m, sigma), sigma.grid, 0.0)
    full = sobolev_gram(g[0], a[0], sigma.grid.dx, s)  # the drift first, then the factors
    gram, rhs = full[1:, 1:], full[1:, 0]

    eigvals, eigvecs = np.linalg.eigh(gram)
    cutoff = eps_rank * max(eigvals.max(initial=0.0), 0.0)
    keep = eigvals > cutoff
    inv = np.where(keep, 1.0 / np.where(keep, eigvals, 1.0), 0.0)
    gamma = eigvecs @ (inv * (eigvecs.T @ rhs))

    # residual measured on the curve itself, not through the normal equations
    res_g = g[0, 0] - np.tensordot(gamma, g[0, 1:], axes=1)
    res_a = a[0, 0] - float(gamma @ a[0, 1:])
    residual = sobolev_norm(Curve(sigma.grid, res_g, res_a), s)
    drift_norm = sobolev_norm(m.curve, s)
    if residual > eps_residual * max(drift_norm, 1e-300):
        raise ArbitrageDetected(
            f"drift outside volatility span: residual {residual:.3e} "
            f"> {eps_residual:.1e} * ||m|| = {eps_residual * drift_norm:.3e}"
        )
    return MarketPriceOfRisk(gamma, residual, drift_norm, int(np.sum(keep)))


def as_gamma_array(gamma, n_steps: int, dt: float) -> np.ndarray:
    """Normalize a gamma specification to a (n_steps, n_factors) array.

    Accepts a constant vector (n,), a per-step array (n_steps, n), or a
    callable t -> vector evaluated at the left endpoints k * dt.
    """
    if callable(gamma):
        rows = [np.atleast_1d(np.asarray(gamma(k * dt), dtype=np.float64)) for k in range(n_steps)]
        return np.stack(rows)
    arr = np.asarray(gamma, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr[None]
    if arr.ndim == 1:
        return np.broadcast_to(arr, (n_steps, arr.shape[0])).copy()
    if arr.ndim == 2:
        if arr.shape[0] != n_steps:
            raise ValidationFailure(
                f"gamma schedule has {arr.shape[0]} rows, expected {n_steps}"
            )
        return arr.copy()
    raise ValidationFailure(f"gamma specification of dimension {arr.ndim} not understood")


def girsanov_log_path(gamma, dw: np.ndarray, dt: float) -> np.ndarray:
    """ln xi on the time grid; left-point sums.

    Args:
        gamma: constant vector, (K, n) array, callable t -> vector, or a
            per-path (P, K, n) array for state-dependent markets.
        dw: (P, K, n) P-Brownian increments.
        dt: step size.

    Returns:
        (P, K+1) array of ln xi_{t_k}, starting at 0.
    """
    n_paths, n_steps, _ = dw.shape
    if not callable(gamma) and np.asarray(gamma).ndim == 3:
        g = np.asarray(gamma, dtype=np.float64)
        if g.shape != dw.shape:
            raise ValidationFailure(f"per-path gamma shape {g.shape} != {dw.shape}")
        increments = -0.5 * np.sum(g * g, axis=2) * dt - np.einsum("pkn,pkn->pk", g, dw)
    else:
        g = as_gamma_array(gamma, n_steps, dt)
        increments = -0.5 * np.sum(g * g, axis=1) * dt - np.einsum("kn,pkn->pk", g, dw)
    out = np.zeros((n_paths, n_steps + 1))
    np.cumsum(increments, axis=1, out=out[:, 1:])
    return out


def girsanov_density_path(gamma, dw: np.ndarray, dt: float) -> np.ndarray:
    """Martingale density xi_t on the time grid; see girsanov_log_path."""
    return np.exp(girsanov_log_path(gamma, dw, dt))


def q_brownian_increments(dw: np.ndarray, gamma, dt: float) -> np.ndarray:
    """Shift P-increments to the martingale measure: dW~ = dW + gamma dt."""
    n_steps = dw.shape[1]
    g = as_gamma_array(gamma, n_steps, dt)
    return dw + g[None, :, :] * dt


def strong_arbitrage_diagnostic(
    gamma_paths: np.ndarray, dt: float, exponents: Sequence[float] = (1.0, 2.0, 3.0, 4.0)
) -> dict:
    """Exponential-moment report for int_0^T ||gamma||^2 dt.

    Args:
        gamma_paths: (K, n) deterministic schedule or (P, K, n) per-path
            values.
        dt: step size.
        exponents: growth constants `a` to probe E[exp(a * integral)].

    Returns:
        dict with the per-path integral range, the sample exponential
        moments, and a `stable` flag comparing half-sample vs full-sample
        estimates (an unstable ratio flags a moment that the sample cannot
        certify as finite).
    """
    g = np.asarray(gamma_paths, dtype=np.float64)
    if g.ndim == 2:
        g = g[None, :, :]
    integral = np.sum(g * g, axis=(1, 2)) * dt
    half = integral[: max(1, integral.shape[0] // 2)]
    moments = {}
    stable = True
    for a in exponents:
        full_m = float(np.mean(np.exp(a * integral)))
        half_m = float(np.mean(np.exp(a * half)))
        ratio = full_m / half_m if half_m > 0 else np.inf
        moments[a] = full_m
        if not (0.5 < ratio < 2.0):
            stable = False
    return {
        "integral_max": float(integral.max()),
        "integral_mean": float(integral.mean()),
        "exp_moments": moments,
        "stable": stable,
    }
