"""State space of discount curves on a truncated half-line.

A curve f on [0, infinity) is stored as f = g + a: a grid-sampled component g
on equally spaced nodes of [0, x_max] (treated as zero beyond x_max) plus an
explicit constant a capturing the level at infinity. The Sobolev-type inner
product of order s is

    (f, h) = integral of g_f g_h + g_f' g_h' + ... + g_f^(s) g_h^(s)  +  a_f a_h,

with derivatives by second-order central differences (one-sided
second-order stencils at both endpoints) and the integral by the trapezoid
rule, in one summation order: the level products are summed pointwise and
the sum is integrated by one trapezoid row sum. hs_inner_samples is that
discretisation, for blocks of curves; sobolev_inner, sobolev_norm and
sobolev_gram are calls of it.

Point evaluations and first-derivative evaluations act as dual atoms;
pairing an atom with a curve is plain (derivative-)evaluation, made legal by
the order bookkeeping below: point atoms need s >= 1, derivative atoms need
s >= 2. Every atom evaluation goes through atoms_value_matrix: between nodes
curves are interpolated linearly (order-1 atoms interpolate the node
derivative stencils); beyond x_max the grid component is zero, so f(x) = a
and f'(x) = 0 there.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import (
    AtomBeyondGrid,
    GridMismatch,
    NodeNotRecorded,
    OrderUnsupported,
    ValidationFailure,
)

__all__ = [
    "MaturityGrid",
    "SobolevIndex",
    "Curve",
    "DualAtom",
    "sobolev_norm",
    "sobolev_inner",
    "sobolev_gram",
    "hs_inner_samples",
    "node_derivative",
    "pair",
    "atoms_value_matrix",
    "atom_nodes",
    "translate",
    "translate_rows",
    "derivative",
    "multiply",
    "scale",
    "add",
    "curve_to_dict",
    "curve_from_dict",
    "curve_to_json",
    "curve_from_json",
    "curve_to_csv",
]


@dataclass(frozen=True)
class MaturityGrid:
    """Equally spaced maturity nodes 0 = x_0 < ... < x_{n-1} = x_max."""

    x_max: float
    n_points: int

    def __post_init__(self) -> None:
        if not (self.x_max > 0.0 and np.isfinite(self.x_max)):
            raise ValidationFailure(f"x_max must be positive and finite, got {self.x_max}")
        if self.n_points < 4:
            # second-order one-sided stencils need at least 3 points per end
            raise ValidationFailure(f"n_points must be >= 4, got {self.n_points}")

    @property
    def dx(self) -> float:
        return self.x_max / (self.n_points - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        x = np.linspace(0.0, self.x_max, self.n_points)
        x.flags.writeable = False
        return x

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MaturityGrid):
            return NotImplemented
        return self.x_max == other.x_max and self.n_points == other.n_points

    def __hash__(self) -> int:
        return hash((self.x_max, self.n_points))


@dataclass(frozen=True)
class SobolevIndex:
    """Integer derivative order s >= 1 of the ambient curve space."""

    s: int

    def __post_init__(self) -> None:
        if not isinstance(self.s, (int, np.integer)) or self.s < 1:
            raise OrderUnsupported(f"Sobolev order must be an integer >= 1, got {self.s}")


@dataclass(frozen=True)
class Curve:
    """Grid component g plus constant-at-infinity a; node values are g + a."""

    grid: MaturityGrid
    g: np.ndarray
    a: float = 0.0

    def __post_init__(self) -> None:
        g = np.asarray(self.g, dtype=np.float64)
        if g.shape != (self.grid.n_points,):
            raise ValidationFailure(
                f"grid component has shape {g.shape}, expected ({self.grid.n_points},)"
            )
        if not np.all(np.isfinite(g)) or not np.isfinite(self.a):
            raise ValidationFailure("curve data must be finite")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "a", float(self.a))

    def values(self) -> np.ndarray:
        """Node values f(x_j) = g(x_j) + a."""
        return self.g + self.a

    def value_at(self, x) -> np.ndarray | float:
        """Evaluate f at x by linear interpolation; f = a beyond x_max.

        Args:
            x: scalar or array of points, each >= 0.

        Returns:
            Interpolated value(s), same shape as x.

        Raises:
            AtomBeyondGrid: a point below 0 or NaN.
        """
        return self._atoms_at(x, 0)

    def derivative_values(self) -> np.ndarray:
        """Node values of f' = g' (second-order stencils, one-sided at ends)."""
        return np.gradient(self.g, self.grid.dx, edge_order=2)

    def derivative_at(self, x) -> np.ndarray | float:
        """Evaluate f' at x; beyond x_max the curve is constant, so f' = 0."""
        return self._atoms_at(x, 1)

    def _atoms_at(self, x, order: int) -> np.ndarray | float:
        """Unit atoms of one order at x, one row of atoms_value_matrix."""
        x_arr = np.asarray(x, dtype=np.float64)
        beyond = x_arr > self.grid.x_max  # False at NaN, which the taps reject
        locs = np.where(beyond, self.grid.x_max, x_arr).ravel()
        taps = atoms_value_matrix(locs, self.values(), self.grid, order)
        out = np.where(beyond.ravel(), self.a if order == 0 else 0.0, taps).reshape(x_arr.shape)
        return float(out) if x_arr.ndim == 0 else out


@dataclass(frozen=True)
class DualAtom:
    """Weighted point evaluation (order 0) or derivative evaluation (order 1).

    Pairing against f = g + a gives weight * f(location) for order 0 and
    weight * f'(location) for order 1. Order-1 atoms are only continuous on
    spaces with s >= 2; `pair` enforces that.
    """

    location: float
    weight: float = 1.0
    order: int = 0

    def __post_init__(self) -> None:
        if self.order not in (0, 1):
            raise OrderUnsupported(f"atom order must be 0 or 1, got {self.order}")
        if not (np.isfinite(self.location) and self.location >= 0.0):
            raise AtomBeyondGrid(f"atom location must be finite and >= 0, got {self.location}")
        if not np.isfinite(self.weight):
            raise AtomBeyondGrid("atom weight must be finite")


# --- norms and inner products ------------------------------------------------


def _row_gradient(f: np.ndarray, dx: float, out: np.ndarray) -> None:
    """out = np.gradient(f, dx, axis=1, edge_order=2) for C-contiguous (B, N) blocks.

    Bit for bit. The central differences run over the flattened block, so
    one contiguous pass serves every row; the two columns where they
    straddle a row boundary are then overwritten by the edge stencils.
    """
    flat_f, flat_out = f.reshape(-1), out.reshape(-1)
    np.subtract(flat_f[2:], flat_f[:-2], out=flat_out[1:-1])
    np.divide(flat_out[1:-1], 2.0 * dx, out=flat_out[1:-1])
    out[:, 0] = (-1.5 / dx) * f[:, 0] + (2.0 / dx) * f[:, 1] + (-0.5 / dx) * f[:, 2]
    out[:, -1] = (0.5 / dx) * f[:, -3] + (-2.0 / dx) * f[:, -2] + (1.5 / dx) * f[:, -1]


def hs_inner_samples(
    g: np.ndarray, h: np.ndarray, dx: float, s: int, scratch: np.ndarray
) -> np.ndarray:
    """Discrete H^s inner products of the rows of two (R, N) sample blocks.

    The trapezoid rule over g h + g' h' + ... + g^(s) h^(s), each derivative
    taken from the previous one with the np.gradient(edge_order=2) stencils;
    the level products are summed pointwise and integrated by one row sum.
    This is the only discretisation of the inner product. Passing h = g
    gives squared norms with one stencil pass per level, as the simulation
    diagnostics need; they allocate no (R, N) array here.

    Args:
        g: (R, N) samples, one curve per row; overwritten with the pointwise
            sum of level products.
        h: (R, N) samples, read only; or g itself.
        dx: node spacing.
        s: number of derivative levels, >= 1.
        scratch: (2, R, N) buffer for two derivative levels when h is g,
            (4, R, N) otherwise.

    Returns:
        (R,) weighted row sums.
    """
    levels = [list(scratch[:2])] if h is g else [list(scratch[:2]), list(scratch[2:4])]
    for f, buffers in zip((g, h), levels):
        _row_gradient(f, dx, buffers[0])
    np.multiply(g, h, out=g)
    for level in range(1, s + 1):
        if level < s:
            for d, spare in levels:
                _row_gradient(d, dx, spare)
        d = levels[0][0]
        np.multiply(d, levels[-1][0], out=d)
        g += d
        for buffers in levels:
            buffers.reverse()
    # trapezoid weights dx/2, dx, ..., dx, dx/2 as a row sum: a BLAS product
    # would pick its kernel, and so its rounding, by the block's shape
    g[:, 0] *= 0.5
    g[:, -1] *= 0.5
    return g.sum(axis=1) * dx


def sobolev_inner(f: Curve, h: Curve, s: SobolevIndex) -> float:
    """E^s inner product (f, h) = <g_f, g_h>_{H^s} + a_f * a_h: one row of hs_inner_samples."""
    if f.grid != h.grid:
        raise GridMismatch("curves live on different grids")
    g = f.g[None].copy()
    other = g if h is f else h.g[None]
    inner = hs_inner_samples(g, other, f.grid.dx, s.s, np.empty((4,) + g.shape))
    return float(inner[0]) + f.a * h.a


def sobolev_norm(f: Curve, s: SobolevIndex) -> float:
    """Norm sqrt(||g||_{H^s}^2 + a^2) with the discrete H^s norm of order s."""
    return float(np.sqrt(max(sobolev_inner(f, f, s), 0.0)))


def sobolev_gram(g: np.ndarray, a: np.ndarray, dx: float, s: SobolevIndex) -> np.ndarray:
    """Gram matrices ((f_i, f_j))_ij of stacked curves from one hs_inner_samples call.

    Args:
        g: (..., n, N) grid parts of n curves per stack entry.
        a: (..., n) their constant parts.

    Returns:
        (..., n, n) matrices; entry (i, j) has the bits of
        sobolev_inner(f_i, f_j), since each row is computed on its own, and
        so equals entry (j, i) exactly.
    """
    n, N = g.shape[-2:]
    rows = np.repeat(g, n, axis=-2).reshape(-1, N)  # f_i, each n times
    cols = np.broadcast_to(g[..., None, :, :], g.shape[:-1] + (n, N)).reshape(-1, N)
    inner = hs_inner_samples(rows, cols, dx, s.s, np.empty((4,) + rows.shape))
    return inner.reshape(g.shape[:-1] + (n,)) + a[..., :, None] * a[..., None, :]


def node_derivative(tap, j, n: int, dx: float):
    """np.gradient(f, dx, edge_order=2) at node indices j, bit for bit.

    Args:
        tap: tap(i) returns f at node indices i (an array shaped like j), so
            only the three nodes of each stencil are read and f never has to
            exist in full (f may be a product of curves).
        j: node index or array of node indices in [0, n).
        n: number of grid nodes.
    """
    j = np.asarray(j)
    lo = np.clip(j - 1, 0, n - 3)  # first node of the 3-node window
    f0, f1, f2 = tap(lo), tap(lo + 1), tap(lo + 2)
    interior = (f2 - f0) / (2.0 * dx)
    first = (-1.5 / dx) * f0 + (2.0 / dx) * f1 + (-0.5 / dx) * f2
    last = (0.5 / dx) * f0 + (-2.0 / dx) * f1 + (1.5 / dx) * f2
    return np.where(j == 0, first, np.where(j == n - 1, last, interior))


# --- dual pairing -------------------------------------------------------------


def pair(atoms: DualAtom | Iterable[DualAtom], f: Curve, s: SobolevIndex | None = None) -> float:
    """Duality pairing <sum of atoms, f>: one atoms_value_matrix row per order.

    Args:
        atoms: a single atom or an iterable of atoms.
        f: curve to evaluate against.
        s: ambient Sobolev order; required whenever an order-1 atom appears
            (derivative atoms are only admissible for s >= 2).

    Returns:
        sum of weight * f(x) over order-0 atoms plus weight * f'(x) over
        order-1 atoms.

    Raises:
        AtomBeyondGrid: an atom sits outside [0, x_max].
        OrderUnsupported: order-1 atom with s missing or s < 2.
    """
    atoms = (atoms,) if isinstance(atoms, DualAtom) else tuple(atoms)
    total = 0.0
    for order in (0, 1):
        group = [atom for atom in atoms if atom.order == order]
        if not group:
            continue
        if order == 1 and (s is None or s.s < 2):
            raise OrderUnsupported(
                "derivative atoms require Sobolev order >= 2 "
                f"(got {'none' if s is None else s.s})"
            )
        taps = atoms_value_matrix([a.location for a in group], f.values(), f.grid, order)
        total += float(taps @ np.array([a.weight for a in group]))
    return total


# --- curve operations ---------------------------------------------------------


def translate_rows(f: Curve, times) -> np.ndarray:
    """Grid parts of the left translations L_t f at stacked times: (T, N).

    The one computation of L_t f, e.g. of l_t = L_t p0: one np.interp call
    over the stacked grids nodes + t. The grid component is re-sampled by
    linear interpolation and is zero wherever x + t > x_max; the constant
    part of every L_t f is f.a. L_0 is the identity.
    """
    times = np.asarray(times, dtype=np.float64)
    if not np.all(times >= 0.0):  # False at NaN
        raise ValidationFailure(f"translation times must be >= 0, got {times}")
    x = f.grid.nodes + times[:, None]
    # a shift by whole nodes can round a node a few ulps past x_max; it reads
    # the last node there, not the zero tail
    x_max = f.grid.x_max
    x[(x > x_max) & (x <= x_max * (1.0 + 8.0 * np.finfo(np.float64).eps))] = x_max
    g = np.interp(x, f.grid.nodes, f.g, right=0.0)
    g[times == 0.0] = f.g
    return g


def translate(f: Curve, t: float) -> Curve:
    """Left translation (L_t f)(x) = f(x + t): one row of translate_rows."""
    return f if t == 0.0 else Curve(f.grid, translate_rows(f, [t])[0], f.a)


def derivative(f: Curve) -> Curve:
    """Differentiate: (g + a)' = g', a constant drops out."""
    return Curve(f.grid, f.derivative_values(), 0.0)


def multiply(f: Curve, h: Curve) -> Curve:
    """Pointwise product; the constant parts multiply, cross terms go to g."""
    if f.grid != h.grid:
        raise GridMismatch("curves live on different grids")
    g_new = f.g * h.g + f.a * h.g + h.a * f.g
    return Curve(f.grid, g_new, f.a * h.a)


def scale(f: Curve, c: float) -> Curve:
    return Curve(f.grid, c * f.g, c * f.a)


def add(f: Curve, h: Curve) -> Curve:
    if f.grid != h.grid:
        raise GridMismatch("curves live on different grids")
    return Curve(f.grid, f.g + h.g, f.a + h.a)


# --- serialization ------------------------------------------------------------


def curve_to_dict(f: Curve) -> dict:
    return {
        "x_max": f.grid.x_max,
        "n_points": f.grid.n_points,
        "a": f.a,
        "g": [float(v) for v in f.g],
    }


def curve_from_dict(d: dict) -> Curve:
    try:
        grid = MaturityGrid(float(d["x_max"]), int(d["n_points"]))
        return Curve(grid, np.asarray(d["g"], dtype=np.float64), float(d["a"]))
    except KeyError as exc:
        raise GridMismatch(f"curve dict missing field {exc}") from exc


def curve_to_json(f: Curve) -> str:
    return json.dumps(curve_to_dict(f))


def curve_from_json(text: str) -> Curve:
    return curve_from_dict(json.loads(text))


def curve_to_csv(f: Curve, path) -> None:
    """Write node table (x_j, value) with full float precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "value"])
        for x, v in zip(f.grid.nodes, f.values()):
            writer.writerow([f"{x:.17g}", f"{v:.17g}"])


def _take(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Node values at node indices: (M,) indices for every row, (P, M) one row each.

    With (P, M) indices, (..., P, N) or (..., 1, N) values give (..., P, M): a
    stack reads the same P rows of nodes, and a single row serves every path.
    """
    if idx.ndim == 1 or values.ndim == 1:
        return values[..., idx]
    return values[..., np.arange(values.shape[-2])[:, None], idx]


def _columns(nodes: np.ndarray, idx: np.ndarray, step: int | None) -> np.ndarray:
    """Columns holding node indices idx in a node table with sorted rows.

    nodes is (C,) or (R, C); the result is idx.shape, or (R,) + idx.shape
    with row r's columns for nodes[r]. A node missing from a row raises
    NodeNotRecorded; no neighbouring column is ever read in its place.
    """
    if nodes.ndim == 1:
        col = np.minimum(np.searchsorted(nodes, idx), nodes.shape[0] - 1)
        missing = nodes[col] != idx
    else:
        # one search over all rows: row r's nodes and queries shift by r * bound
        rows, n_cols = nodes.shape
        bound = int(max(nodes.max(), idx.max())) + 1
        shift = np.arange(rows).reshape((rows,) + (1,) * idx.ndim)
        flat = (nodes + shift.reshape(rows, 1) * bound).ravel()
        query = idx + shift * bound
        pos = np.minimum(np.searchsorted(flat, query), flat.size - 1)
        missing = flat[pos] != query
        col = pos - shift * n_cols
    if missing.any():
        first = tuple(np.argwhere(missing)[0])
        node = int(np.broadcast_to(idx, missing.shape)[first])
        k = step if nodes.ndim == 1 else int(first[0])
        raise NodeNotRecorded(
            f"node {node} was not recorded at step {k}: the node request missed an atom",
            step=k,
            node=node,
        )
    return col


def _take_columns(values: np.ndarray, nodes: np.ndarray, idx: np.ndarray, step) -> np.ndarray:
    """_take for values whose last axis holds the nodes of a node table."""
    col = _columns(nodes, idx, step)
    if nodes.ndim == 1:
        return _take(values, col)
    # row k of the table serves values[k]; a missing path axis broadcasts
    col = col.reshape(col.shape[:1] + (1,) * (values.ndim - col.ndim) + col.shape[1:])
    return np.take_along_axis(values, col, axis=-1)


def _atom_taps(locations, grid: MaturityGrid, order: int, tap):
    """Atoms of one order at locations, paired through tap(i), the values at nodes i.

    The one place where an atom location is turned into grid nodes: an
    order-0 atom at x reads the two nodes around x and interpolates them
    linearly; an order-1 atom interpolates, the same way, the 3-node
    np.gradient(edge_order=2) stencils of those two nodes.
    """
    locs = np.asarray(locations, dtype=np.float64)
    if not ((locs >= 0.0) & (locs <= grid.x_max)).all():  # False at NaN
        raise AtomBeyondGrid(f"locations {locations} outside [0, {grid.x_max}]")
    n, dx = grid.n_points, grid.dx
    pos = locs / dx
    idx = np.minimum(pos.astype(np.int64), n - 2)
    w = pos - idx
    if order == 0:
        left, right = tap(idx), tap(idx + 1)
    else:
        left, right = node_derivative(tap, idx, n, dx), node_derivative(tap, idx + 1, n, dx)
    return left * (1.0 - w) + right * w


def atoms_value_matrix(
    locations,
    values: np.ndarray,
    grid: MaturityGrid,
    order: int = 0,
    coefficient=None,
    nodes: np.ndarray | None = None,
    step: int | None = None,
) -> np.ndarray:
    """Unit dual atoms paired with batched node-value arrays.

    Every atom evaluation goes through here, and the nodes each atom reads
    are those of _atom_taps, the rule that atom_nodes reports.

    Args:
        locations: (M,) points in [0, x_max] shared by every row of values,
            or (P, M) points, one row per row of (P, N) values.
        values: (..., N) curve node values; with (P, M) locations, (..., P, N).
            With a node table, (..., C): column c holds node nodes[..., c].
        grid: the shared maturity grid.
        order: order of every atom, 0 (point) or 1 (derivative).
        coefficient: optional node values c, a row (N,) or a stack
            broadcasting against values, (..., P, N) or (..., 1, N) with
            (P, M) locations; e.g. (S, 1, N) against (P, N) values. The atoms
            then read the product curve f c: f and c are tapped at the same
            nodes and only the taps are multiplied, the same floating-point
            operations as tapping the product, which is never built. It is
            always indexed by node, also when values are columns.
        nodes: None when values hold every node. Otherwise the node table of
            values' columns, rows sorted: (C,) for one step, or (K+1, C) for
            (K+1, ...) values, row k serving values[k] (CurvePath.nodes of a
            column-only ensemble). Each atom reads the same nodes, and so the
            same numbers, as on the full values.
        step: the step of a (C,) table; it only labels NodeNotRecorded.

    Returns:
        (..., M) atom values: values and coefficient broadcast together,
        atoms last.

    Raises:
        AtomBeyondGrid: a location outside [0, x_max] or NaN.
        NodeNotRecorded: an atom reads a node missing from the table.
    """

    def tap(i):
        f = _take(values, i) if nodes is None else _take_columns(values, nodes, i, step)
        return f if coefficient is None else f * _take(coefficient, i)

    return _atom_taps(locations, grid, order, tap)


def atom_nodes(locations, grid: MaturityGrid, order: int = 0) -> np.ndarray:
    """The nodes that atoms_value_matrix reads for atoms at locations.

    _atom_taps runs with a tap that marks the nodes it is asked for, so this
    is the tap rule itself (order 0: the two bracketing nodes; order 1 their
    3-node stencils, one-sided at the ends), not a copy of it.

    Args:
        locations: (M,) points, or (K+1, M) points, one row per step.

    Returns:
        (N,) or (K+1, N) boolean mask, True at every node read.
    """
    locs = np.asarray(locations, dtype=np.float64)
    read = np.zeros(locs.shape[:-1] + (grid.n_points,), dtype=bool)

    def mark(i):
        np.put_along_axis(read, i, True, axis=-1)
        return np.zeros(i.shape)

    _atom_taps(locs, grid, order, mark)
    return read
