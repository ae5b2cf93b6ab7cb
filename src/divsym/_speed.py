"""Kernel backend selection.

Imports the compiled extension when available, otherwise the pure-Python
fallback.  Set DIVSYM_PURE=1 to force the fallback, e.g. to time both
backends from one build.
"""

import os

if os.environ.get("DIVSYM_PURE") == "1":
    from divsym import _kernels_py as _impl
else:
    try:
        from divsym import _kernels as _impl  # type: ignore[attr-defined]
    except ImportError:
        from divsym import _kernels_py as _impl

BACKEND = _impl.BACKEND
mix64 = _impl.mix64
fnv1a64 = _impl.fnv1a64
reseed = _impl.reseed
nop_gaps = _impl.nop_gaps
arm_imm_encodable = _impl.arm_imm_encodable
