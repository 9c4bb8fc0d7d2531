"""Kernel backend selection.

Imports the compiled extension when available, otherwise the pure
Python twin.  Set TAMECOUNT_PURE=1 to force the pure backend (used by
the benchmark and the twin-equivalence tests).
"""
import os

from . import pure

if os.environ.get("TAMECOUNT_PURE"):
    impl = pure
else:
    try:
        from . import _speed as impl  # type: ignore[attr-defined]
    except ImportError:
        impl = pure

BACKEND = impl.BACKEND
compose = impl.compose
inverse = impl.inverse
conjugate = impl.conjugate
cycle_count = impl.cycle_count
closure = impl.closure
