"""Shared fixtures: grids, markets, and small simulated ensembles."""
import math

import numpy as np
import pytest

from bondlab.curve_space import Curve, MaturityGrid, SobolevIndex
from bondlab.dynamics import SimConfig, flat_forward_curve, simulate_mild
from bondlab.market_model import (
    CoefficientSchedule,
    DriftCurve,
    VolatilityOperator,
    constant_coefficients,
    humped_volatility,
)


@pytest.fixture
def grid():
    return MaturityGrid(x_max=4.0, n_points=257)


@pytest.fixture
def fine_grid():
    return MaturityGrid(x_max=4.0, n_points=1025)


@pytest.fixture
def s1():
    return SobolevIndex(1)


@pytest.fixture
def s2():
    return SobolevIndex(2)


def make_market(grid, gamma=0.2, rate=0.05, scale=0.01):
    """One-factor market: sigma(x) = scale * x * exp(-x), m = sigma * gamma."""
    sigma_curve = humped_volatility(grid, scale)
    sigma = VolatilityOperator((sigma_curve,))
    m_vals = gamma * sigma_curve.values()
    m = DriftCurve(Curve(grid, m_vals, 0.0))
    schedule = constant_coefficients(m, sigma)
    p0 = flat_forward_curve(grid, rate)
    return p0, schedule, np.array([gamma])


def make_zero_vol_market(grid, rate=0.05):
    """Deterministic market: sigma = 0 (one dead factor), m = 0."""
    zero = Curve(grid, np.zeros(grid.n_points), 0.0)
    sigma = VolatilityOperator((zero,))
    m = DriftCurve(zero)
    schedule = constant_coefficients(m, sigma)
    p0 = flat_forward_curve(grid, rate)
    return p0, schedule, np.array([0.0])


@pytest.fixture
def market(grid, s1):
    """Standard small ensemble with retained states under P."""
    p0, schedule, gamma = make_market(grid)
    config = SimConfig(grid=grid, s=s1, horizon=1.0, n_steps=64, n_paths=64, seed=7)
    path = simulate_mild(p0, schedule, config, keep_states=True)
    return {
        "p0": p0,
        "schedule": schedule,
        "gamma": gamma,
        "config": config,
        "path": path,
    }


# --- reference formulas ---------------------------------------------------------
# The library evaluates every atom through atoms_value_matrix and every inner
# product through hs_inner_samples; these are the textbook forms its tests
# compare against, so that no test checks a routine against itself.

# numpy renamed trapz; support both without a deprecation warning
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def per_level_inner(f: Curve, h: Curve, s: SobolevIndex) -> float:
    """E^s inner product with np.gradient per level and one trapezoid per level."""
    dx = f.grid.dx
    total = float(_trapezoid(f.g * h.g, dx=dx))
    d1, d2 = f.g, h.g
    for _ in range(s.s):
        d1 = np.gradient(d1, dx, edge_order=2)
        d2 = np.gradient(d2, dx, edge_order=2)
        total += float(_trapezoid(d1 * d2, dx=dx))
    return total + f.a * h.a


def interp_pair(atoms, f: Curve) -> float:
    """Atom pairing by np.interp: f(x) = interpolated g plus a, f'(x) = interpolated g'."""
    nodes = f.grid.nodes
    total = 0.0
    for atom in atoms:
        if atom.order == 0:
            total += atom.weight * (float(np.interp(atom.location, nodes, f.g, right=0.0)) + f.a)
        else:
            total += atom.weight * float(np.interp(atom.location, nodes, f.derivative_values()))
    return total


def interp_translate(f: Curve, t: float) -> np.ndarray:
    """Grid part of L_t f by one np.interp call per time, the rule snapping to x_max included."""
    if t == 0.0:
        return f.g
    x = f.grid.nodes + t
    x_max = f.grid.x_max
    x[(x > x_max) & (x <= x_max * (1.0 + 8.0 * np.finfo(np.float64).eps))] = x_max
    return np.interp(x, f.grid.nodes, f.g, right=0.0)


def _exponent_row(m, sig, gamma, dt):
    """Exponent coefficients of one (DriftCurve, VolatilityOperator) sample."""
    sig_vals = np.stack([f.values() for f in sig.factors])
    sig_a = sig.constant_parts()
    drift_vals = m.curve.values().copy()
    drift_a = m.curve.a
    if gamma is not None:
        drift_vals -= gamma @ sig_vals
        drift_a -= float(gamma @ sig_a)
    base = (drift_vals - 0.5 * np.einsum("in,in->n", sig_vals, sig_vals)) * dt
    base_a = (drift_a - 0.5 * float(sig_a @ sig_a)) * dt
    return base, sig_vals, base_a, sig_a


def deterministic_exponent_rows(schedule, times, gamma, dt):
    """(base, sig, base_a, sig_a) of a deterministic schedule, one step at a time.

    gamma is None or (K, n); the steps are times[:-1].
    """
    rows = [
        _exponent_row(*schedule.at(float(times[k])), None if gamma is None else gamma[k], dt)
        for k in range(len(times) - 1)
    ]
    return tuple(np.array(column) for column in zip(*rows))


def per_path_exponent_rows(schedule, t, curves, gamma, dt):
    """(base, sig, base_a, sig_a) of a state-dependent schedule, one path at a time."""
    rows = [_exponent_row(*schedule.at(t, p), gamma, dt) for p in curves]
    return tuple(np.array(column) for column in zip(*rows))


# --- CLI table oracles ----------------------------------------------------------
# The CLI writes each table from columns and takes every per-path statistic
# from one reduction over a table's path axis; these are the per-cell
# formatter and the per-slice statistics they replaced.


def fmt_cell(x) -> str:
    """One CSV cell: strings as they are, integers by str, floats to 17 digits."""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def csv_text(header, rows) -> str:
    """A CSV file's text from a header and row lists, one fmt_cell per cell."""
    lines = [",".join(header)]
    lines.extend(",".join(fmt_cell(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def slice_mean(arr, fixed_order: bool) -> float:
    """Mean of one slice: math.fsum with fixed_order, else np.mean of a copy."""
    arr = np.asarray(arr, dtype=np.float64).ravel()
    if fixed_order:
        return math.fsum(arr.tolist()) / arr.size
    return float(np.mean(arr))


def slice_mean_se(arr, fixed_order: bool) -> tuple[float, float]:
    """(mean, standard error) of one slice; the error is 0 for a single value."""
    arr = np.asarray(arr, dtype=np.float64).ravel()
    n = arr.size
    m = slice_mean(arr, fixed_order)
    if n < 2:
        return m, 0.0
    if fixed_order:
        var = math.fsum(((x - m) ** 2 for x in arr.tolist())) / (n - 1)
    else:
        var = float(np.var(arr, ddof=1))
    return m, math.sqrt(var / n)
