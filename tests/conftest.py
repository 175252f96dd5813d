import ctypes
import glob
import os

import numpy as np
import pytest

from snwave import MovingDomainSpec, compute_Tc


@pytest.fixture(scope="session")
def tc_quarter():
    return compute_Tc(0.25)


@pytest.fixture(scope="session")
def spec_quarter(tc_quarter):
    return MovingDomainSpec(k=0.25, T=tc_quarter)


@pytest.fixture(scope="session")
def blas_kernel() -> str:
    """The kernel numpy's bundled OpenBLAS chose for this CPU at load time,
    such as ``SkylakeX``, or ``"unknown"`` without that library."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"
