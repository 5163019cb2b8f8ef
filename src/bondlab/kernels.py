"""Backend selector for the ensemble step kernel.

`step_exp_shift(states, dw, sig, base, fill, k0, frac, out)` is the one
kernel entry: it builds each path's exponent dw sig + base factor by factor,
multiplies the node values by its exponential and shifts them by dt, all in
one pass per path (contract in bondlab._kernels_py). The compiled extension
`bondlab._kernels`, built from the hand-written `_kernels.c`, is preferred;
the numpy implementation in `_kernels_py` is the reference it is tested
against and the fallback when the extension was not built. Set
BONDLAB_KERNEL=python or =compiled to force a backend (forcing `compiled`
when the extension is missing raises, so CI can detect a broken build instead
of silently benchmarking the fallback).
"""

from __future__ import annotations

import os

_requested = os.environ.get("BONDLAB_KERNEL", "").strip().lower()

if _requested == "python":
    from . import _kernels_py as _impl
elif _requested == "compiled":
    from . import _kernels as _impl  # type: ignore[no-redef]
elif _requested == "":
    try:
        from . import _kernels as _impl  # type: ignore[no-redef]
    except ImportError:
        from . import _kernels_py as _impl
else:
    raise ImportError(
        f"BONDLAB_KERNEL must be 'python' or 'compiled', got {_requested!r}"
    )

step_exp_shift = _impl.step_exp_shift


def backend_name() -> str:
    """Active kernel backend: 'compiled' or 'python'."""
    return _impl.BACKEND


def kernel_flags() -> str | None:
    """Compile flags of the active backend; None for the numpy backend."""
    return _impl.FLAGS
