"""Tests for the curve space: norms, pairing, translation, products."""
import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bondlab.curve_space import (
    Curve,
    DualAtom,
    MaturityGrid,
    SobolevIndex,
    add,
    atoms_value_matrix,
    curve_from_json,
    curve_to_csv,
    curve_to_json,
    derivative,
    hs_inner_samples,
    multiply,
    pair,
    scale,
    sobolev_gram,
    sobolev_inner,
    sobolev_norm,
    translate,
    translate_rows,
)
from bondlab.errors import (
    AtomBeyondGrid,
    GridMismatch,
    OrderUnsupported,
    ValidationFailure,
)

from conftest import interp_pair, interp_translate, per_level_inner


def _exp_curve(grid: MaturityGrid, rate: float = 1.0, a: float = 0.0) -> Curve:
    return Curve(grid, np.exp(-rate * grid.nodes), a)


def _random_curve(grid: MaturityGrid, rng: np.random.Generator) -> Curve:
    # smooth decaying combination; keeps derivative stencils well resolved
    c = rng.uniform(-1.0, 1.0, size=3)
    x = grid.nodes
    g = c[0] * np.exp(-x) + c[1] * np.exp(-2.0 * x) + c[2] * x * np.exp(-x)
    return Curve(grid, g, float(rng.uniform(-1.0, 1.0)))


# --- norms -------------------------------------------------------------------


def test_norm_of_pure_constant_is_abs_a():
    grid = MaturityGrid(4.0, 129)
    for s in (1, 2, 3):
        f = Curve(grid, np.zeros(grid.n_points), 1.0)
        assert sobolev_norm(f, SobolevIndex(s)) == pytest.approx(1.0, abs=1e-14)
    assert sobolev_norm(Curve(grid, np.zeros(grid.n_points), 0.0), SobolevIndex(1)) == 0.0


def test_h1_norm_of_decaying_exponential_converges_to_one():
    # int_0^inf (e^{-2x} + e^{-2x}) dx = 1 exactly
    grid = MaturityGrid(40.0, 4001)
    norm = sobolev_norm(_exp_curve(grid), SobolevIndex(1))
    assert abs(norm - 1.0) <= 5e-5
    coarse = MaturityGrid(40.0, 1001)
    norm_coarse = sobolev_norm(_exp_curve(coarse), SobolevIndex(1))
    assert abs(norm - 1.0) < abs(norm_coarse - 1.0)


def test_norm_splits_into_grid_part_and_constant():
    grid = MaturityGrid(4.0, 257)
    rng = np.random.default_rng(3)
    s = SobolevIndex(2)
    for _ in range(20):
        f = _random_curve(grid, rng)
        g_only = Curve(grid, f.g, 0.0)
        expected = math.sqrt(sobolev_norm(g_only, s) ** 2 + f.a**2)
        assert sobolev_norm(f, s) == pytest.approx(expected, rel=1e-12)


def test_inner_product_is_bilinear_and_symmetric():
    grid = MaturityGrid(4.0, 257)
    rng = np.random.default_rng(4)
    s = SobolevIndex(1)
    for _ in range(20):
        f, h, k = (_random_curve(grid, rng) for _ in range(3))
        a, b = rng.uniform(-2.0, 2.0, size=2)
        lhs = sobolev_inner(add(scale(f, a), scale(h, b)), k, s)
        rhs = a * sobolev_inner(f, k, s) + b * sobolev_inner(h, k, s)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)
        assert sobolev_inner(f, h, s) == pytest.approx(sobolev_inner(h, f, s), rel=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_inner_product_matches_per_level_trapezoid(order):
    # the reference integrates each level on its own; only the summation
    # order differs, so the two agree to rounding
    grid = MaturityGrid(4.0, 257)
    rng = np.random.default_rng(order)
    s = SobolevIndex(order)
    for _ in range(10):
        f, h = _random_curve(grid, rng), _random_curve(grid, rng)
        scale_fh = sobolev_norm(f, s) * sobolev_norm(h, s)
        assert abs(sobolev_inner(f, h, s) - per_level_inner(f, h, s)) <= 1e-12 * scale_fh
        assert sobolev_norm(f, s) ** 2 == pytest.approx(per_level_inner(f, f, s), rel=1e-12)


@pytest.mark.parametrize("order", [1, 2])
def test_norm_block_is_the_inner_product_of_a_block_with_itself(order):
    # h = g takes one stencil pass per level and two scratch levels; a
    # separate copy of the block takes two passes and four: same bits
    rng = np.random.default_rng(20 + order)
    g = rng.standard_normal((5, 33))
    shared = g.copy()
    norms = hs_inner_samples(shared, shared, 0.03, order, np.empty((2, 5, 33)))
    pairs = hs_inner_samples(g.copy(), g.copy(), 0.03, order, np.empty((4, 5, 33)))
    assert norms.tobytes() == pairs.tobytes()
    h = rng.standard_normal((5, 33))
    gh = hs_inner_samples(g.copy(), h, 0.03, order, np.empty((4, 5, 33)))
    hg = hs_inner_samples(h.copy(), g, 0.03, order, np.empty((4, 5, 33)))
    assert gh.tobytes() == hg.tobytes()
    grid = MaturityGrid(0.96, 33)
    for r in range(5):
        f, k = Curve(grid, g[r], 0.0), Curve(grid, h[r], 0.0)
        assert per_level_inner(f, k, SobolevIndex(order)) == pytest.approx(gh[r], rel=1e-12)


def test_gram_entries_are_one_row_inner_products():
    grid = MaturityGrid(4.0, 129)
    rng = np.random.default_rng(6)
    s = SobolevIndex(2)
    curves = [[_random_curve(grid, rng) for _ in range(3)] for _ in range(4)]
    g = np.array([[f.g for f in row] for row in curves])
    a = np.array([[f.a for f in row] for row in curves])
    gram = sobolev_gram(g, a, grid.dx, s)
    assert gram.shape == (4, 3, 3)
    for e, row in enumerate(curves):
        for i in range(3):
            for j in range(3):
                assert gram[e, i, j] == sobolev_inner(row[i], row[j], s)


def test_inner_product_rejects_grid_mismatch():
    f = _exp_curve(MaturityGrid(4.0, 257))
    h = _exp_curve(MaturityGrid(4.0, 129))
    with pytest.raises(GridMismatch):
        sobolev_inner(f, h, SobolevIndex(1))


# --- pairing -----------------------------------------------------------------


def test_pair_point_atom_examples():
    grid = MaturityGrid(4.0, 257)
    f = _exp_curve(grid, rate=0.05)
    assert pair(DualAtom(0.0), f) == pytest.approx(1.0, abs=1e-14)
    # delta_2 against e^{-0.05x}
    val = pair(DualAtom(2.0), f)
    assert val == pytest.approx(math.exp(-0.1), abs=5 * grid.dx**2)
    ones = Curve(grid, np.zeros(grid.n_points), 1.0)
    total = pair([DualAtom(1.0, 2.0), DualAtom(3.0, -1.0)], ones)
    assert total == pytest.approx(1.0, abs=1e-14)


def test_pair_derivative_atom_needs_order_two():
    grid = MaturityGrid(4.0, 513)
    f = _exp_curve(grid, rate=0.5)
    atom = DualAtom(1.0, 1.0, order=1)
    with pytest.raises(OrderUnsupported):
        pair(atom, f)
    with pytest.raises(OrderUnsupported):
        pair(atom, f, SobolevIndex(1))
    val = pair(atom, f, SobolevIndex(2))
    assert val == pytest.approx(-0.5 * math.exp(-0.5), abs=5 * grid.dx**2)


def test_pair_is_linear_in_curve_and_additive_in_atoms():
    grid = MaturityGrid(4.0, 257)
    rng = np.random.default_rng(5)
    s = SobolevIndex(2)
    atoms = [
        DualAtom(float(rng.uniform(0.0, 4.0)), float(rng.uniform(-2.0, 2.0)), int(o))
        for o in (0, 0, 1)
    ]
    for _ in range(20):
        f, h = _random_curve(grid, rng), _random_curve(grid, rng)
        a, b = rng.uniform(-2.0, 2.0, size=2)
        lhs = pair(atoms, add(scale(f, a), scale(h, b)), s)
        rhs = a * pair(atoms, f, s) + b * pair(atoms, h, s)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)
        split = sum(pair(atom, f, s) for atom in atoms)
        assert pair(atoms, f, s) == pytest.approx(split, rel=1e-12, abs=1e-14)


def test_pair_matches_interpolation_reference():
    grid = MaturityGrid(4.0, 257)
    rng = np.random.default_rng(7)
    s = SobolevIndex(2)
    special = [0.0, grid.dx, 0.5 * grid.dx, 4.0 - grid.dx, 4.0]
    for _ in range(20):
        f = _random_curve(grid, rng)
        locs = special + list(rng.uniform(0.0, 4.0, size=5))
        orders = rng.integers(0, 2, size=len(locs))
        atoms = [DualAtom(x, float(rng.uniform(-2.0, 2.0)), int(o)) for x, o in zip(locs, orders)]
        # order-1 taps difference g + a where the reference differences g
        size = float(np.max(np.abs(f.values())))
        bound = sum(abs(atom.weight) * size / (grid.dx if atom.order else 1.0) for atom in atoms)
        assert abs(pair(atoms, f, s) - interp_pair(atoms, f)) <= 1e-12 * bound


def test_pair_rejects_atom_beyond_grid():
    f = _exp_curve(MaturityGrid(4.0, 257))
    with pytest.raises(AtomBeyondGrid):
        pair(DualAtom(4.5), f)
    with pytest.raises(AtomBeyondGrid):
        DualAtom(-0.5)


# --- translation -------------------------------------------------------------


def test_translate_zero_is_identity():
    grid = MaturityGrid(4.0, 257)
    f = _exp_curve(grid, a=0.3)
    out = translate(f, 0.0)
    assert np.array_equal(out.g, f.g) and out.a == f.a


def test_translate_constant_curve_is_fixed():
    grid = MaturityGrid(4.0, 257)
    f = Curve(grid, np.zeros(grid.n_points), 0.7)
    for t in (0.1, 1.0, 3.9):
        out = translate(f, t)
        assert np.all(out.g == 0.0) and out.a == 0.7


def test_translate_exponential_eigenfunction():
    grid = MaturityGrid(4.0, 257)
    f = _exp_curve(grid)
    t = 32 * grid.dx  # aligned shift: interpolation reduces to node lookup
    out = translate(f, t)
    keep = grid.nodes <= grid.x_max - t
    expected = math.exp(-t) * f.g[keep]
    assert np.max(np.abs(out.g[keep] - expected)) < 1e-15
    assert np.all(out.g[~keep] == 0.0)
    # off-grid shift picks up the O(dx^2) interpolation error only
    t = 0.5 + 0.37 * grid.dx
    out = translate(f, t)
    keep = grid.nodes + t <= grid.x_max
    expected = np.exp(-t) * np.exp(-grid.nodes[keep])
    assert np.max(np.abs(out.g[keep] - expected)) <= grid.dx**2


def test_translate_semigroup_law():
    grid = MaturityGrid(4.0, 513)
    rng = np.random.default_rng(6)
    x = grid.nodes
    f = Curve(grid, np.exp(-3.0 * x), 0.25)
    tol = 5.0 * grid.dx**2 * 9.0  # 9 = max |f''| for e^{-3x}
    for _ in range(10):
        t, u = rng.uniform(0.0, 1.5, size=2)
        two_step = translate(translate(f, t), u)
        one_step = translate(f, t + u)
        assert np.max(np.abs(two_step.values() - one_step.values())) <= tol
        assert two_step.a == one_step.a


@settings(max_examples=80, deadline=None)
@given(
    n_points=st.integers(4, 600),
    x_max=st.floats(0.1, 20.0),
    data=st.data(),
)
def test_translate_semigroup_on_whole_node_shifts(n_points, x_max, data):
    grid = MaturityGrid(x_max, n_points)
    i = data.draw(st.integers(0, n_points), label="i")
    j = data.draw(st.integers(0, n_points), label="j")
    g = np.asarray(
        data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n_points, max_size=n_points)),
        dtype=np.float64,
    )
    f = Curve(grid, g, data.draw(st.floats(-1.0, 1.0), label="a"))
    s, t = i * grid.dx, j * grid.dx
    two_step = translate(translate(f, s), t)
    one_step = translate(f, s + t)
    # both equal the node shift g[i + j:], zero-filled; a shift lands within
    # a few ulps of a node, so interpolation may move a value by its slope
    # times that distance
    shifted = np.concatenate([g[i + j :], np.zeros(min(i + j, n_points))])
    slope = np.max(np.abs(np.diff(g))) / grid.dx
    tol = 64.0 * np.finfo(np.float64).eps * (np.max(np.abs(g)) + slope * x_max)
    for out in (two_step, one_step):
        assert out.a == f.a
        assert np.max(np.abs(out.g - shifted)) <= tol
    assert np.max(np.abs(two_step.g - one_step.g)) <= tol


def test_translate_is_a_contraction_up_to_quadrature():
    # zero-fill puts a kink at x_max - t, so the quadrature tolerance holds
    # only once the grid part has decayed there; use a long enough grid
    grid = MaturityGrid(8.0, 513)
    rng = np.random.default_rng(7)
    s = SobolevIndex(1)
    for _ in range(20):
        f = _random_curve(grid, rng)
        t = float(rng.uniform(0.0, 2.0))
        assert sobolev_norm(translate(f, t), s) <= sobolev_norm(f, s) * 1.001


def test_translate_rejects_negative_times():
    f = _exp_curve(MaturityGrid(4.0, 257))
    with pytest.raises(ValidationFailure):
        translate(f, -0.1)
    for bad in ([0.5, -0.1], [float("nan")]):
        with pytest.raises(ValidationFailure):
            translate_rows(f, bad)


def _snapping_shift(grid: MaturityGrid) -> float:
    """A whole-node shift that rounds some node at most 8 ulp past x_max."""
    eps = np.finfo(np.float64).eps
    for k in range(1, grid.n_points):
        x = grid.nodes + k * grid.dx
        if np.any((x > grid.x_max) & (x <= grid.x_max * (1.0 + 8.0 * eps))):
            return k * grid.dx
    raise AssertionError("no whole-node shift rounds past x_max on this grid")


@pytest.mark.parametrize("x_max, n_points", [(3.3, 61), (2.9, 97), (5.0, 101)])
def test_translate_rows_match_one_interpolation_per_time(x_max, n_points):
    grid = MaturityGrid(x_max, n_points)
    f = _random_curve(grid, np.random.default_rng(n_points))
    dx = grid.dx
    times = np.array(
        [0.0, dx, 7 * dx, 0.37 * dx, 0.3 * x_max, _snapping_shift(grid), x_max - dx, x_max, 2 * x_max]
    )
    rows = translate_rows(f, times)
    assert rows.shape == (times.size, n_points)
    for t, row in zip(times, rows):
        expected = interp_translate(f, float(t))
        assert row.tobytes() == expected.tobytes(), t
        assert translate(f, float(t)).g.tobytes() == expected.tobytes(), t
    assert rows[0].tobytes() == f.g.tobytes()
    # the snapping shift reads the last node, not the zero tail
    snapped = rows[5]
    assert snapped[n_points - 1 - round(times[5] / dx)] == f.g[-1]


# --- derivative --------------------------------------------------------------


def test_derivative_of_constant_is_zero():
    grid = MaturityGrid(4.0, 257)
    f = Curve(grid, np.zeros(grid.n_points), 5.0)
    out = derivative(f)
    assert np.all(out.values() == 0.0) and out.a == 0.0


def test_derivative_of_exponential():
    grid = MaturityGrid(4.0, 513)
    f = _exp_curve(grid)
    out = derivative(f)
    assert np.max(np.abs(out.values() + f.g)) <= 5 * grid.dx**2


def test_derivative_is_generator_of_translation():
    grid = MaturityGrid(4.0, 513)
    f = _exp_curve(grid, rate=2.0)
    df = derivative(f)
    keep = grid.nodes <= 3.0
    for h in (0.02, 0.01, 0.005):
        taylor = f.values() + h * df.values()
        shifted = translate(f, h).values()
        err = np.max(np.abs(shifted[keep] - taylor[keep]))
        assert err <= 4.0 * h**2  # |f''| = 4 e^{-2x} <= 4


# --- multiplication ----------------------------------------------------------


def test_multiply_identity_and_square():
    grid = MaturityGrid(4.0, 257)
    f = _exp_curve(grid, a=1.0)
    one = Curve(grid, np.zeros(grid.n_points), 1.0)
    out = multiply(f, one)
    assert np.max(np.abs(out.values() - f.values())) == 0.0
    sq = multiply(f, f)
    assert sq.value_at(0.0) == pytest.approx(4.0, abs=1e-14)
    assert sq.a == 1.0


def test_multiply_matches_pointwise_product():
    grid = MaturityGrid(4.0, 257)
    rng = np.random.default_rng(8)
    for _ in range(20):
        f, h = _random_curve(grid, rng), _random_curve(grid, rng)
        out = multiply(f, h)
        assert np.allclose(out.values(), f.values() * h.values(), rtol=1e-12, atol=1e-14)
        assert out.a == pytest.approx(f.a * h.a, rel=1e-12)


def test_multiply_norm_submultiplicative_with_fixed_constant():
    grid = MaturityGrid(8.0, 513)
    rng = np.random.default_rng(9)
    s = SobolevIndex(1)
    ratios = []
    for _ in range(40):
        f, h = _random_curve(grid, rng), _random_curve(grid, rng)
        denom = sobolev_norm(f, s) * sobolev_norm(h, s)
        if denom > 1e-8:
            ratios.append(sobolev_norm(multiply(f, h), s) / denom)
    assert max(ratios) < 4.0  # empirical continuity constant for this family


def test_multiply_rejects_grid_mismatch():
    f = _exp_curve(MaturityGrid(4.0, 257))
    h = _exp_curve(MaturityGrid(8.0, 257))
    with pytest.raises(GridMismatch):
        multiply(f, h)


# --- evaluation and serialization ---------------------------------------------


def test_value_at_fills_constant_beyond_grid():
    grid = MaturityGrid(4.0, 257)
    f = _exp_curve(grid, a=0.5)
    assert f.value_at(10.0) == 0.5
    assert f.derivative_at(10.0) == 0.0
    both = f.value_at(np.array([[1.0, 10.0], [4.0, 4.5]]))
    assert both.shape == (2, 2)
    assert both[0, 1] == both[1, 1] == 0.5
    assert both[1, 0] == pytest.approx(math.exp(-4.0) + 0.5, rel=1e-15)
    assert np.array_equal(f.derivative_at(np.array([5.0, 1e300, np.inf])), np.zeros(3))
    with pytest.raises(AtomBeyondGrid):
        f.value_at(-1.0)


@pytest.mark.parametrize("method", ["value_at", "derivative_at"])
def test_point_evaluation_rejects_nan(method):
    f = _exp_curve(MaturityGrid(4.0, 257), a=0.5)
    with pytest.raises(AtomBeyondGrid):
        getattr(f, method)(float("nan"))
    with pytest.raises(AtomBeyondGrid):
        getattr(f, method)(np.array([0.5, np.nan, 5.0]))


def test_point_evaluation_matches_interpolation():
    grid = MaturityGrid(4.0, 257)
    rng = np.random.default_rng(11)
    f = _random_curve(grid, rng)
    x = np.concatenate([[0.0, grid.dx, 4.0], rng.uniform(0.0, 4.0, size=20)])
    expected = np.interp(x, grid.nodes, f.g) + f.a
    assert np.allclose(f.value_at(x), expected, rtol=1e-14, atol=1e-15)
    slope = np.interp(x, grid.nodes, f.derivative_values())
    assert np.allclose(f.derivative_at(x), slope, rtol=1e-12, atol=1e-12)
    assert isinstance(f.value_at(1.0), float)


def test_atoms_value_matrix_matches_value_at():
    grid = MaturityGrid(4.0, 257)
    rng = np.random.default_rng(10)
    values = rng.uniform(0.5, 1.5, size=(6, grid.n_points))
    locs = rng.uniform(0.0, 4.0, size=9)
    out = atoms_value_matrix(locs, values, grid)
    assert out.shape == (6, 9)
    for j in range(6):
        expected = np.interp(locs, grid.nodes, values[j])
        assert np.allclose(out[j], expected, rtol=1e-13, atol=1e-15)
        f = Curve(grid, values[j], 0.0)
        assert np.array_equal(f.value_at(locs), out[j])
    with pytest.raises(AtomBeyondGrid):
        atoms_value_matrix([4.5], values, grid)
    with pytest.raises(AtomBeyondGrid):
        atoms_value_matrix([np.nan], values, grid)


def _interpolate_nodes(locations: np.ndarray, full: np.ndarray, grid: MaturityGrid):
    """Reference: linear interpolation of whole node arrays at (M,) or (P, M) points."""
    pos = locations / grid.dx
    idx = np.minimum(pos.astype(np.int64), grid.n_points - 2)
    w = pos - idx
    if locations.ndim == 1:
        left, right = full[..., idx], full[..., idx + 1]
    else:
        idx = np.broadcast_to(idx, full.shape[:-1] + idx.shape[-1:])
        left = np.take_along_axis(full, idx, axis=-1)
        right = np.take_along_axis(full, idx + 1, axis=-1)
    return left * (1.0 - w) + right * w


@pytest.mark.parametrize("layout", ["shared", "per_path"])
@pytest.mark.parametrize("coefficient", [None, "row", "per_path", "stack", "path_stack"])
def test_atoms_value_matrix_taps_match_the_full_product_curve(layout, coefficient):
    # reference: build the product curve, take np.gradient of it, interpolate
    grid = MaturityGrid(3.0, 101)  # dx = 0.03: dividing by 2 dx differs from scaling by 0.5 / dx
    N, P, M = grid.n_points, 5, 12
    rng = np.random.default_rng(21)
    values = rng.uniform(0.5, 1.5, size=(P, N))
    coeff = {
        None: None,
        "row": rng.uniform(-1.0, 1.0, size=N),
        "per_path": rng.uniform(-1.0, 1.0, size=(P, N)),
        "stack": rng.uniform(-1.0, 1.0, size=(3, 1, N)),  # factors x one row for all paths
        "path_stack": rng.uniform(-1.0, 1.0, size=(3, P, N)),  # factors x paths
    }[coefficient]
    # both grid ends, the nodes next to them, and interior points
    ends = [0.0, grid.x_max, grid.dx, grid.x_max - grid.dx]
    base = np.concatenate([ends, rng.uniform(0.0, grid.x_max, size=M - len(ends))])
    if layout == "shared":
        locations = base
    else:  # (P, M): per path, or per step for a stack of steps
        locations = np.stack([rng.permutation(base) for _ in range(P)])
    full = values if coeff is None else values * coeff
    gradient = np.gradient(full, grid.dx, axis=-1, edge_order=2)
    for order, curve in ((0, full), (1, gradient)):
        out = atoms_value_matrix(locations, values, grid, order, coeff)
        expected = _interpolate_nodes(locations, curve, grid)
        assert out.shape == expected.shape == full.shape[:-1] + (M,)
        assert out.tobytes() == expected.tobytes()


def test_json_round_trip_is_exact():
    grid = MaturityGrid(4.0, 65)
    rng = np.random.default_rng(11)
    f = _random_curve(grid, rng)
    back = curve_from_json(curve_to_json(f))
    assert back.grid == f.grid
    assert np.array_equal(back.g, f.g) and back.a == f.a


def test_csv_round_trip_is_exact(tmp_path):
    grid = MaturityGrid(4.0, 65)
    rng = np.random.default_rng(12)
    f = _random_curve(grid, rng)
    target = tmp_path / "curve.csv"
    curve_to_csv(f, target)
    with open(target, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == grid.n_points
    xs = np.array([float(r["x"]) for r in rows])
    vals = np.array([float(r["value"]) for r in rows])
    assert np.array_equal(xs, grid.nodes)
    assert np.array_equal(vals, f.values())


def test_curve_validation_rejects_bad_shapes_and_values():
    grid = MaturityGrid(4.0, 65)
    with pytest.raises(ValidationFailure):
        Curve(grid, np.zeros(5), 0.0)
    with pytest.raises(ValidationFailure):
        Curve(grid, np.full(65, np.nan), 0.0)
    with pytest.raises(OrderUnsupported):
        SobolevIndex(0)
    with pytest.raises(OrderUnsupported):
        DualAtom(1.0, 1.0, order=2)
