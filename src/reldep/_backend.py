"""Backend selection for the hot kernels.

Prefers the compiled Cython module and falls back to the NumPy
implementation when the extension was not built.  Set ``RELDEP_BACKEND``
to ``python`` or ``compiled`` to pin a backend explicitly (``compiled``
raises if the extension is missing, which is the behaviour you want in a
deployment that insists on it).
"""

import os

from reldep import _core_numpy

try:
    from reldep import _core

    HAVE_COMPILED = True
except ImportError:
    _core = None
    HAVE_COMPILED = False

_requested = os.environ.get("RELDEP_BACKEND", "auto").lower()

if _requested == "python":
    _impl = _core_numpy
elif _requested == "compiled":
    if not HAVE_COMPILED:
        raise ImportError(
            "RELDEP_BACKEND=compiled but the reldep._core extension is not built"
        )
    _impl = _core
elif _requested == "auto":
    _impl = _core if HAVE_COMPILED else _core_numpy
else:
    raise ValueError(f"unknown RELDEP_BACKEND value: {_requested!r}")

BACKEND = _impl.BACKEND_NAME

pairwise_sq_dists = _impl.pairwise_sq_dists
sq_distance_order_stats = _impl.sq_distance_order_stats
hsic_h_reductions = _impl.hsic_h_reductions


def backend_name() -> str:
    """Name of the active backend: ``compiled`` or ``python``."""
    return BACKEND
