"""The ensemble step kernel.

`step_exp_shift(states, dw, sig, base, fill, k0, frac, out)` is the one
kernel entry: it builds each path's exponent dw sig + base factor by factor,
multiplies the node values by its exponential and shifts them by dt, all in
one pass per path (contract in bondlab._kernels_py). Its one backend is the
compiled extension `bondlab._kernels`, built from the hand-written
`_kernels.c` by `python setup.py build_ext --inplace` (or by installing the
package); importing bondlab fails when it was not built. The numpy
implementation in `_kernels_py` is the reference the tests compare it
against.
"""

from __future__ import annotations

from . import _kernels

step_exp_shift = _kernels.step_exp_shift


def backend_name() -> str:
    """The kernel backend: 'compiled'."""
    return _kernels.BACKEND


def kernel_flags() -> str:
    """Compile flags the extension was built with."""
    return _kernels.FLAGS
