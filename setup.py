"""Build script: compiles the ensemble-step kernel extension.

The package is pure Python plus one C extension, `bondlab._kernels`, built
from the hand-written `src/bondlab/_kernels.c` with Python's headers only.
The compile flags and the source's sha256 are compiled in and exported as
FLAGS and SOURCE_SHA256, so a run records how its kernel was built and the
tests can tell an extension built from another source.
"""

import hashlib

from setuptools import setup
from setuptools.extension import Extension

SOURCE = "src/bondlab/_kernels.c"


def _cpu_flags() -> set:
    """Instruction-set flags of the build host (empty where unknown)."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("flags"):
                    return set(line.partition(":")[2].split())
    except OSError:
        pass
    return set()


def _kernel_extension() -> Extension:
    # -ffast-math lets gcc call the SIMD exp from libmvec inside the path
    # loop; without it the scalar libm exp dominates. -ffp-contract=off keeps
    # every product and sum of the exponent rounded on its own, as numpy does.
    compile_args = ["-O3", "-ffast-math", "-ffp-contract=off"]
    # AVX2/FMA code only for a host that can run it: the backend is imported
    # automatically, so an unsupported instruction would crash the import.
    if {"avx2", "fma"} <= _cpu_flags():
        compile_args.append("-march=x86-64-v3")
    with open(SOURCE, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return Extension(
        "bondlab._kernels",
        sources=[SOURCE],
        define_macros=[
            ("BONDLAB_FLAGS", '"%s"' % " ".join(compile_args)),
            ("BONDLAB_SOURCE_SHA256", '"%s"' % digest),
        ],
        extra_compile_args=compile_args,
        libraries=["mvec", "m"],
    )


setup(ext_modules=[_kernel_extension()])
