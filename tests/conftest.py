"""Fix numpy's SIMD dispatch level and OpenBLAS's kernels for the whole test session.

numpy picks float64 kernels for ``power``, ``exp``, ``expm1``, ``cbrt`` and
``log`` by CPU level, and the AVX-512 kernels round differently from the AVX2
ones.  numpy's and scipy's bundled OpenBLAS likewise pick their BLAS kernels
by core type, and the dense products and LAPACK's band Cholesky accumulate in
a different order per core.  The ``float.hex`` pins are recorded with numpy's
AVX-512 targets disabled and OpenBLAS on its Haswell (AVX2) kernels, so they
mean the same thing on any x86-64 CPU with AVX2.  Both libraries read their
variable once, when they are loaded; a session that imported numpy earlier
under another setting is refused instead of failing on a pin.

The pins live in the ledger under ``tests/pins/`` (see ``tests/ledger.py``);
a test reads its own through the ``pinned`` fixture.
"""

import functools
import os
import sys

import pytest

_SETTINGS = {
    "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4",
    "OPENBLAS_CORETYPE": "Haswell",
}

for _variable, _setting in _SETTINGS.items():
    if "numpy" in sys.modules and os.environ.get(_variable) != _setting:
        raise pytest.UsageError(
            f"numpy was imported before tests/conftest.py could set {_variable}={_setting!r} "
            f"(it is {os.environ.get(_variable)!r}); set it in the environment that starts pytest"
        )
    os.environ[_variable] = _setting

pytest.register_assert_rewrite("ledger")
import ledger  # noqa: E402  (imports no numpy)


@pytest.fixture
def pinned(request):
    """``pinned(value)`` asserts that ``value`` equals this test's entry in the pin ledger."""
    return functools.partial(ledger.compare, request.config, request.node.nodeid)
