"""Build script: compiles the optional ensemble-step kernel.

The package is pure Python plus one optional C extension. With Cython
installed the extension is generated from `_kernels.pyx`; without it the
shipped `_kernels.c` is compiled directly. If numpy's headers or a C compiler
are unavailable the extension is skipped and bondlab falls back to the numpy
kernel at import time.
"""

from setuptools import setup
from setuptools.extension import Extension


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


def _kernel_extensions() -> list:
    try:
        import numpy
    except ImportError:
        return []
    try:
        from Cython.Build import cythonize
    except ImportError:
        cythonize = None

    # -ffast-math lets gcc call the SIMD exp from libmvec inside the path
    # loop; without it the scalar libm exp dominates and the extension is
    # slower than the numpy fallback. Accuracy stays within a few ulp.
    compile_args = ["-O3", "-ffast-math"]
    # AVX2/FMA code only for a host that can run it: the backend is imported
    # automatically, so an unsupported instruction would crash the import.
    if {"avx2", "fma"} <= _cpu_flags():
        compile_args.append("-march=x86-64-v3")
    ext = Extension(
        "bondlab._kernels",
        sources=["src/bondlab/_kernels.pyx" if cythonize else "src/bondlab/_kernels.c"],
        include_dirs=[numpy.get_include()],
        define_macros=[("NPY_NO_DEPRECATED_API", "NPY_1_7_API_VERSION")],
        extra_compile_args=compile_args,
        libraries=["mvec", "m"],
        optional=True,  # build failure degrades to the numpy fallback
    )
    return cythonize([ext], language_level="3") if cythonize else [ext]


setup(ext_modules=_kernel_extensions())
