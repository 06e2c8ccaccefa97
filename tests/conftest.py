"""Fix numpy's SIMD dispatch level for the whole test session.

numpy picks float64 kernels for ``power``, ``exp``, ``expm1``, ``cbrt`` and
``log`` by CPU level, and the AVX-512 kernels round differently from the AVX2
ones.  The ``float.hex`` pins are recorded with the AVX-512 targets disabled,
so they mean the same thing on any x86-64 CPU with AVX2.  numpy reads the
variable once, when it is imported; a session that imported it earlier under
another setting is refused instead of failing on a pin.
"""

import os
import sys

import pytest

_VARIABLE = "NPY_DISABLE_CPU_FEATURES"
_SETTING = "AVX512_SPR AVX512_ICL X86_V4"

if "numpy" in sys.modules and os.environ.get(_VARIABLE) != _SETTING:
    raise pytest.UsageError(
        f"numpy was imported before tests/conftest.py could set {_VARIABLE}={_SETTING!r} "
        f"(it is {os.environ.get(_VARIABLE)!r}); set it in the environment that starts pytest"
    )
os.environ[_VARIABLE] = _SETTING
