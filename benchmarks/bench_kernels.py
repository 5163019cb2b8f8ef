"""Benchmark the compiled ensemble-step kernel against the numpy reference.

Runs the fused exponent/exp/multiply/shift step on a representative
one-factor ensemble and reports, for each available backend, nanoseconds per
element in two layouts: the whole ensemble as one (P, N) call, and the same
paths in blocks of `_BLOCK_PATHS` (256) paths, each block stepping on its own
small buffers the way `simulate_mild` runs them. Only the kernel call is
timed. Also prints the backends' maximum relative disagreement on identical
inputs.

Usage:
    python3 benchmarks/bench_kernels.py [--paths N] [--points N] [--reps N]
"""

import argparse
import time

import numpy as np

from bondlab import _kernels_py
from bondlab.dynamics import _BLOCK_PATHS


def load_backends():
    """Returns the list of (name, module) kernel backends available."""
    backends = [("python", _kernels_py)]
    try:
        from bondlab import _kernels

        backends.insert(0, ("compiled", _kernels))
    except ImportError:
        pass
    return backends


def kernel_seconds(mod, states, dw, sig, base, fill, out, reps):
    """Total kernel time over reps calls on one set of buffers.

    One untimed warm-up call first. The kernel only reads its inputs, so
    every call sees the same ones.
    """
    mod.step_exp_shift(states, dw, sig, base, fill, 1, 0.25, out)
    total = 0.0
    for _ in range(reps):
        start = time.perf_counter()
        mod.step_exp_shift(states, dw, sig, base, fill, 1, 0.25, out)
        total += time.perf_counter() - start
    return total


def bench(mod, states, dw, sig, base, fill, reps):
    """(whole-ensemble ns/element, blocked ns/element, whole-ensemble output)."""
    out = np.empty_like(states)
    elements = states.size * reps
    whole = kernel_seconds(mod, states, dw, sig, base, fill, out, reps) / elements * 1e9
    blocked = 0.0
    for j in range(0, states.shape[0], _BLOCK_PATHS):
        rows = slice(j, j + _BLOCK_PATHS)
        # private contiguous buffers per block, as in the simulator
        block_out = np.empty_like(states[rows])
        blocked += kernel_seconds(
            mod, states[rows].copy(), dw[rows].copy(), sig, base, fill[rows].copy(), block_out, reps
        )
    return whole, blocked / elements * 1e9, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--paths", type=int, default=10_000)
    parser.add_argument("--points", type=int, default=513)
    parser.add_argument("--reps", type=int, default=20)
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    states = np.exp(rng.normal(0.0, 0.01, (args.paths, args.points)))
    dw = rng.normal(0.0, 0.06, (args.paths, 1))
    sig = rng.normal(0.0, 0.03, (1, args.points))
    base = rng.normal(0.0, 1e-4, args.points)
    fill = np.exp(rng.normal(0.0, 0.01, args.paths))

    outputs = {}
    print(
        f"ensemble {args.paths} paths x {args.points} points, {args.reps} reps; "
        f"ns/element, kernel time only"
    )
    print(f"  {'backend':>8}  {'whole':>8}  {f'blocks of {_BLOCK_PATHS}':>14}")
    for name, mod in load_backends():
        whole, blocked, outputs[name] = bench(mod, states, dw, sig, base, fill, args.reps)
        print(f"  {name:>8}  {whole:8.3f}  {blocked:14.3f}")

    if len(outputs) == 2:
        a, b = outputs["compiled"], outputs["python"]
        rel = np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300))
        print(f"  max relative backend difference: {rel:.3e}")


if __name__ == "__main__":
    main()
