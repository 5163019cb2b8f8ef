"""Reduced dynamic-programming value function on the wealth line.

For deterministic market price of risk the portfolio problem collapses to a
one-dimensional PDE for F(t, w):

    dF/dt * F_ww = 1/2 ||gamma_t||^2 (F_w)^2,    F(T, w) = U(w),

marched backward with an explicit scheme: F(t - dt) = F(t) - dt * 1/2
||gamma||^2 F_w * r where r = F_w / F_ww. Interior nodes use second-order
central stencils; at the two edge nodes the ratio r (the smooth feedback
profile, exactly linear in w for log utility) is linearly extrapolated
from the interior and paired with a second-order one-sided F_w. Updating
edges from their own one-sided curvature is unstable: the 1/dw^2
self-coupling at an edge node amplifies instead of diffusing. |F_ww| is
clamped away from zero at isolated interior nodes (clamps are counted;
too many of them means the scheme lost concavity and the result is
meaningless). Each layer is subdivided when dt violates the parabolic
stability estimate dw^2 / (2 a) with a = 1/2 ||gamma||^2 max r^2,
recomputed per substep.

The verified closed forms: log utility F = ln w + 1/2 int_t^T ||gamma||^2
with feedback control gamma^i w; exponential utility: control gamma^i / mu,
wealth-independent. The feedback control at any (t, w) is
x-hat^i = -gamma^i F_w / F_ww.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid, DegenerateConcavity, ValidationFailure
from .market_model import as_gamma_array
from .utility import Utility

__all__ = [
    "ValueGrid",
    "solve_reduced_hjb",
    "optimal_control_from_F",
    "feedback_controls",
    "closed_form_value",
]


def _central_stencils(F: np.ndarray, dw: float) -> tuple[np.ndarray, np.ndarray]:
    """Central F_w and F_ww at the interior wealth nodes (the last axis of F)."""
    fw = (F[..., 2:] - F[..., :-2]) / (2.0 * dw)
    fww = (F[..., 2:] - 2.0 * F[..., 1:-1] + F[..., :-2]) / dw**2
    return fw, fww


@dataclass
class ValueGrid:
    """Backward-marched value surface with clamp bookkeeping."""

    times: np.ndarray  # (Kt+1,)
    wealth: np.ndarray  # (Nw,)
    F: np.ndarray  # (Kt+1, Nw)
    gamma_sq: np.ndarray  # (Kt,) ||gamma||^2 at step left endpoints
    clamp_count: int
    clamp_fraction: float
    substeps_used: int

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def dw(self) -> float:
        return float(self.wealth[1] - self.wealth[0])


def solve_reduced_hjb(
    u: Utility,
    gamma,
    horizon: float,
    w_min: float,
    w_max: float,
    n_t: int,
    n_w: int,
    eps_curvature: float | None = None,
    clamp_budget: float = 0.01,
    max_substeps: int = 64,
) -> ValueGrid:
    """March the reduced value PDE backward from F(T, w) = U(w).

    Args:
        gamma: deterministic market price of risk (vector, array, callable).
        horizon: terminal time T.
        w_min, w_max: wealth window; must sit inside the utility domain.
        n_t, n_w: layers and wealth nodes (dt = T/n_t).
        eps_curvature: clamp floor for |F_ww|; default 1e-8 times the
            terminal curvature scale.
        clamp_budget: tolerated fraction of clamped node updates.
        max_substeps: refuse to subdivide a layer further than this.

    Raises:
        DegenerateConcavity: clamped fraction exceeds clamp_budget, or the
            stability estimate asks for more than max_substeps per layer.
        ConfigInvalid / ValidationFailure: malformed window or resolution.
    """
    if not (w_max > w_min):
        raise ConfigInvalid(f"need w_max > w_min, got [{w_min}, {w_max}]")
    if w_min <= u.domain_floor:
        raise ConfigInvalid(
            f"wealth window must stay inside the domain (> {u.domain_floor})"
        )
    if n_t < 1 or n_w < 5:
        raise ValidationFailure("need n_t >= 1 and n_w >= 5")

    times = np.linspace(0.0, horizon, n_t + 1)
    wealth = np.linspace(w_min, w_max, n_w)
    dt = horizon / n_t
    dw = wealth[1] - wealth[0]
    gam = as_gamma_array(gamma, n_t, dt)
    gamma_sq = np.sum(gam * gam, axis=1)

    F = np.empty((n_t + 1, n_w))
    F[n_t] = u.u(wealth)
    if not np.all(np.isfinite(F[n_t])):
        raise ConfigInvalid("terminal utility not finite on the wealth window")

    # curvature scale from the terminal layer
    fww_T = _central_stencils(F[n_t], dw)[1]
    eps = eps_curvature if eps_curvature is not None else 1e-8 * float(np.max(np.abs(fww_T)))
    if eps <= 0.0:
        raise DegenerateConcavity("terminal layer carries no curvature to march with")

    clamps = 0
    updates = 0
    worst_substeps = 1
    for k in range(n_t, 0, -1):
        layer = F[k].copy()
        g2 = gamma_sq[k - 1]
        remaining = dt
        taken = 0
        while remaining > 0.0:
            # second-order F_w at every node, one-sided at the edges
            fw = np.empty_like(layer)
            fw[1:-1], fww = _central_stencils(layer, dw)
            fw[0] = (-3.0 * layer[0] + 4.0 * layer[1] - layer[2]) / (2.0 * dw)
            fw[-1] = (3.0 * layer[-1] - 4.0 * layer[-2] + layer[-3]) / (2.0 * dw)
            small = np.abs(fww) < eps
            clamps += int(np.sum(small))
            updates += fww.shape[0]
            fww_safe = np.where(small, np.where(fww < 0.0, -eps, eps), fww)
            ratio = np.empty_like(layer)
            ratio[1:-1] = fw[1:-1] / fww_safe
            ratio[0] = 2.0 * ratio[1] - ratio[2]
            ratio[-1] = 2.0 * ratio[-2] - ratio[-3]
            # parabolic stability estimate for this layer state
            a_max = 0.5 * g2 * float(np.max(ratio * ratio))
            dt_stable = 0.45 * dw * dw / a_max if a_max > 0.0 else remaining
            if dt_stable < dt / max_substeps:
                raise DegenerateConcavity(
                    f"stable step {dt_stable:.3e} needs more than {max_substeps} "
                    f"substeps per layer; refine dw or raise max_substeps"
                )
            # snap to the layer end once within roundoff of it
            step = remaining if dt_stable >= remaining * (1.0 - 1e-12) else dt_stable
            layer -= step * 0.5 * g2 * fw * ratio
            remaining -= step
            taken += 1
        worst_substeps = max(worst_substeps, taken)
        F[k - 1] = layer

    fraction = clamps / max(updates, 1)
    if fraction > clamp_budget:
        raise DegenerateConcavity(
            f"{clamps} curvature clamps over {updates} node updates "
            f"({fraction:.2%} > {clamp_budget:.2%})"
        )
    return ValueGrid(times, wealth, F, gamma_sq, clamps, fraction, worst_substeps)


def optimal_control_from_F(vg: ValueGrid, gamma_t: np.ndarray, t: float, w):
    """Feedback control x-hat^i = -gamma_t^i F_w / F_ww at (t, w).

    Bilinear in t (between layers) after evaluating the wealth stencils per
    layer; w may be an array. Points must lie strictly inside the wealth
    window so central stencils exist.

    Raises:
        DegenerateConcavity: interpolated curvature is not negative.
    """
    times, wealth, F = vg.times, vg.wealth, vg.F
    if not (times[0] <= t <= times[-1]):
        raise ConfigInvalid(f"time {t} outside [{times[0]}, {times[-1]}]")
    scalar = np.ndim(w) == 0
    w_arr = np.atleast_1d(np.asarray(w, dtype=np.float64))
    if np.any(w_arr <= wealth[1]) or np.any(w_arr >= wealth[-2]):
        raise ConfigInvalid("wealth outside the interior of the value grid")

    pos = (t - times[0]) / vg.dt
    k0 = min(int(pos), len(times) - 2)
    wt = pos - k0

    def layer_ratio(layer: np.ndarray) -> np.ndarray:
        fw, fww = _central_stencils(layer, vg.dw)
        fw_at = np.interp(w_arr, wealth[1:-1], fw)
        fww_at = np.interp(w_arr, wealth[1:-1], fww)
        if np.any(fww_at >= 0.0):
            raise DegenerateConcavity("non-concave value surface at the query point")
        return fw_at / fww_at

    ratio = (1.0 - wt) * layer_ratio(F[k0]) + wt * layer_ratio(F[k0 + 1])
    gamma_t = np.atleast_1d(np.asarray(gamma_t, dtype=np.float64))
    out = -gamma_t[:, None] * ratio[None, :]
    return out[:, 0] if scalar else out


def feedback_controls(vg: ValueGrid, gamma: np.ndarray) -> np.ndarray:
    """(Kt+1, Nw-2, n) controls x-hat^i = -gamma^i F_w / F_ww on the grid.

    At the interior wealth nodes of every layer, from the central stencils;
    NaN where F is not concave (F_ww >= 0).
    """
    fw, fww = _central_stencils(vg.F, vg.dw)
    concave = fww < 0.0
    ratio = np.where(concave, -fw / np.where(concave, fww, -1.0), np.nan)
    return ratio[..., None] * gamma


def closed_form_value(u: Utility, vg: ValueGrid) -> np.ndarray | None:
    """(Kt+1, Nw) exact F on vg's nodes for log and exponential utility, else None.

    With the tail sums h_t = sum_{s >= t} ||gamma_s||^2 dt (left-point):
    log F = ln w + h_t / 2, exponential F = 1 - exp(-mu w - h_t / 2) / mu.
    """
    tail = np.zeros(vg.times.shape[0])
    tail[:-1] = np.cumsum((vg.gamma_sq * vg.dt)[::-1])[::-1]
    if u.family == "log":
        return np.log(vg.wealth)[None, :] + 0.5 * tail[:, None]
    if u.family == "exponential":
        return 1.0 - np.exp(-u.mu * vg.wealth[None, :] - 0.5 * tail[:, None]) / u.mu
    return None
