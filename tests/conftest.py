"""Names the CPU class of a test run in pytest's report header.

Learner outputs are byte-identical only within one CPU class: one OpenBLAS
kernel and one set of numpy SIMD targets. A golden digest that fails on
another machine is read against these two lines.
"""

import ctypes

import numpy as np

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath


def openblas_core() -> str:
    """The kernel name of numpy's bundled OpenBLAS, "unknown" without that symbol."""
    try:
        corename = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_corename64_
    except (AttributeError, OSError):
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def pytest_report_header(config):
    features = _multiarray_umath.__cpu_features__
    found = [name for name in _multiarray_umath.__cpu_dispatch__ if features.get(name)]
    return [f"numpy {np.__version__} SIMD targets found: {' '.join(found) or 'none'}",
            f"OpenBLAS core: {openblas_core()}"]
