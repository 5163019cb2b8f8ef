"""Tests for the simulation step kernel backends."""
import hashlib
from pathlib import Path

import numpy as np
import pytest

from bondlab import _kernels as _compiled
from bondlab import _kernels_py
from bondlab.kernels import backend_name, kernel_flags, step_exp_shift

_SHIFTS = [(k0, frac) for k0 in (0, 1, 3, 96, 150) for frac in (0.0, 0.375)]


def _random_inputs(rng, n_paths=16, n_points=97, n_factors=1, per_path=False):
    """states, dw, sig, base, fill for one step; dw is a strided noise view."""
    states = rng.uniform(0.2, 1.5, size=(n_paths, n_points))
    dw = rng.normal(0.0, 0.1, size=(n_paths, 4, n_factors))[:, 2, :]
    lead = (n_paths,) if per_path else ()
    sig = rng.uniform(-0.1, 0.1, size=lead + (n_factors, n_points))
    base = rng.uniform(-0.02, 0.02, size=lead + (n_points,))
    fill = rng.uniform(0.5, 1.0, size=n_paths)
    return states, dw, sig, base, fill


def _reference(states, dw, sig, base, fill, k0, frac, dx):
    """Oracle: per-path np.interp of p * exp(dw sig + base) shifted by (k0 + frac) * dx."""
    n = states.shape[1]
    nodes = np.arange(n) * dx
    target = nodes + (k0 + frac) * dx
    sig = np.broadcast_to(sig, (len(states),) + sig.shape[-2:])
    base = np.broadcast_to(base, states.shape)
    out = np.empty_like(states)
    for j in range(states.shape[0]):
        vals = states[j] * np.exp(dw[j] @ sig[j] + base[j])
        shifted = np.interp(target, nodes, vals - fill[j], right=0.0)
        out[j] = shifted + fill[j]
    return out


def _step(mod, inputs, k0, frac):
    out = np.empty_like(inputs[0])
    mod.step_exp_shift(*inputs, k0, frac, out)
    return out


def test_compiled_kernel_is_built_from_the_shipped_source():
    source = Path(_kernels_py.__file__).with_name("_kernels.c")
    assert _compiled.SOURCE_SHA256 == hashlib.sha256(source.read_bytes()).hexdigest(), (
        "bondlab._kernels was built from another source; rebuild with "
        "`python setup.py build_ext --inplace`"
    )
    assert _compiled.BACKEND == "compiled"
    assert "-ffp-contract=off" in _compiled.FLAGS.split()


def test_python_kernel_matches_interp_oracle():
    rng = np.random.default_rng(21)
    dx = 0.03125
    for n_factors, per_path in [(1, False), (3, False), (3, True)]:
        for k0, frac in [(0, 0.0), (0, 0.25), (1, 0.0), (2, 0.7), (95, 0.5), (200, 0.0)]:
            inputs = _random_inputs(rng, n_factors=n_factors, per_path=per_path)
            expected = _reference(*inputs, k0, frac, dx)
            assert np.allclose(_step(_kernels_py, inputs, k0, frac), expected, rtol=1e-13, atol=1e-15)


def test_compiled_kernel_matches_python_backend():
    rng = np.random.default_rng(22)
    for n_factors in (1, 3):
        for per_path in (False, True):
            for k0, frac in _SHIFTS:
                inputs = _random_inputs(rng, n_factors=n_factors, per_path=per_path)
                out_c = _step(_compiled, inputs, k0, frac)
                out_py = _step(_kernels_py, inputs, k0, frac)
                scale = np.maximum(np.abs(out_py), 1e-300)
                assert np.max(np.abs(out_c - out_py) / scale) <= 1e-12, (n_factors, per_path, k0, frac)


def test_shared_coefficients_equal_their_per_path_copies():
    # a shared sig or base is read with path stride 0: same bits as the stack
    rng = np.random.default_rng(25)
    for mod in (_compiled, _kernels_py):
        for k0, frac in _SHIFTS:
            states, dw, sig, base, fill = _random_inputs(rng, n_factors=3)
            stacked = (np.repeat(sig[None], len(states), 0), np.repeat(base[None], len(states), 0))
            shared = _step(mod, (states, dw, sig, base, fill), k0, frac)
            assert np.array_equal(shared, _step(mod, (states, dw, *stacked, fill), k0, frac))


def test_fractional_shift_fill_region_matches_interp_right_fill():
    # nodes with j + k0 >= n - 1 must take the fill value, as np.interp
    # does with right=0 on the fill-subtracted curve
    rng = np.random.default_rng(23)
    inputs = _random_inputs(rng, n_paths=4, n_points=33)
    fill = inputs[-1]
    for mod in (_compiled, _kernels_py):
        out = _step(mod, inputs, 30, 0.5)
        assert np.array_equal(out[:, 2:], np.broadcast_to(fill[:, None], (4, 31)))


def test_whole_node_shift_is_exact_slice():
    rng = np.random.default_rng(24)
    inputs = _random_inputs(rng, n_paths=4, n_points=33)
    states, dw, sig, base, fill = inputs
    for mod in (_compiled, _kernels_py):
        out = _step(mod, inputs, 2, 0.0)
        assert np.array_equal(out[:, :31], _step(mod, inputs, 0, 0.0)[:, 2:])
        assert np.array_equal(out[:, 31:], np.broadcast_to(fill[:, None], (4, 2)))
    work = np.empty_like(states)
    _kernels_py.exponent(dw, sig, base, work)
    assert np.array_equal(_step(_kernels_py, inputs, 0, 0.0), states * np.exp(work))


@pytest.mark.parametrize(
    "bad",
    [
        {"sig": np.zeros((2, 8))},  # two factors for one increment
        {"base": np.zeros(7)},
        {"fill": np.ones(3)},
        {"out": np.empty((2, 8), dtype=np.float32)},
        {"states": np.ones((2, 16))[:, ::2]},  # strided node axis
        {"k0": -1},
    ],
)
def test_compiled_kernel_rejects_inconsistent_inputs(bad):
    args = {
        "states": np.ones((2, 8)),
        "dw": np.zeros((2, 1)),
        "sig": np.zeros((1, 8)),
        "base": np.zeros(8),
        "fill": np.ones(2),
        "k0": 0,
        "frac": 0.0,
        "out": np.empty((2, 8)),
    }
    args.update(bad)
    with pytest.raises(ValueError):
        _compiled.step_exp_shift(*args.values())


def test_active_backend_is_reported():
    assert backend_name() == "compiled"
    assert kernel_flags() == _compiled.FLAGS
    out = np.empty((2, 8))
    states = np.ones((2, 8))
    step_exp_shift(states, np.zeros((2, 1)), np.zeros((1, 8)), np.zeros(8), np.ones(2), 0, 0.0, out)
    assert np.array_equal(out, states)
