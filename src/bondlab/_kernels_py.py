"""Numpy reference for the ensemble step kernel.

The compiled bondlab._kernels implements the same contract with the same
branch structure, and its tests compare it with this one to floating-point
noise. One simulation step maps each path's node values p to

    (L_dt [p * exp(c)])(x_j),   c = dw sig + base,

where c is the path's exponent, summed factor by factor by `exponent`, and
L_dt translates left by dt with linear interpolation; nodes landing strictly
beyond x_max take the path's constant fill value. dt is encoded as
k0 * dx + frac * dx with 0 <= frac < 1.
"""

from __future__ import annotations

import numpy as np


def exponent(dw: np.ndarray, sig: np.ndarray, base, out: np.ndarray) -> None:
    """out = dw @ sig + base for (B, n) dw, summed factor by factor.

    sig is (n, N) shared by the paths or (B, n, N) per path, and base
    broadcasts against out. Elementwise products give each path the same bits
    whatever the block size; a BLAS product picks its kernel by matrix shape,
    so its rounding for a multi-factor sig would depend on how many paths
    share a block.
    """
    np.multiply(dw[:, :1], sig[..., 0, :], out=out)
    for i in range(1, sig.shape[-2]):
        out += dw[:, i : i + 1] * sig[..., i, :]
    out += base


def step_exp_shift(
    states: np.ndarray,
    dw: np.ndarray,
    sig: np.ndarray,
    base: np.ndarray,
    fill: np.ndarray,
    k0: int,
    frac: float,
    out: np.ndarray,
) -> None:
    """One exact log-Euler step for a block of paths.

    Args:
        states: (B, N) current node values; not modified.
        dw: (B, n) Brownian increments of the step.
        sig: (n, N) volatility factors shared by the paths, or (B, n, N)
            per path.
        base: (N,) shared or (B, N) per-path drift part of the exponent.
        fill: (B,) per-path value beyond x_max (constant part of the curve).
        k0: whole-node part of the shift, 0 <= k0.
        frac: fractional part of the shift in [0, 1).
        out: (B, N) output buffer; may not alias states.
    """
    n = states.shape[1]
    work = np.empty_like(out)
    exponent(dw, sig, base, work)
    np.exp(work, out=work)
    np.multiply(states, work, out=work)  # work now holds p * e^c
    if k0 >= n:
        out[:] = fill[:, None]
        return
    if frac == 0.0:
        m = n - k0
        out[:, :m] = work[:, k0:]
        out[:, m:] = fill[:, None]
    else:
        # nodes with j + k0 >= n - 1 land strictly beyond x_max -> fill
        m = n - k0 - 1
        np.multiply(work[:, k0 : k0 + m], 1.0 - frac, out=out[:, :m])
        out[:, :m] += frac * work[:, k0 + 1 : k0 + 1 + m]
        out[:, m:] = fill[:, None]
