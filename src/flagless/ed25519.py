"""Public Ed25519 API over whichever group-arithmetic kernel is built.

The compiled kernel is used when it is built (`python setup.py
build_ext --inplace` compiles `_ed25519_ckernel.c` next to this module),
the pure-Python one otherwise, and only then imported; `BACKEND` names
the one in use.  There is no switch: both kernels give the same bytes
and verdicts.
"""

from __future__ import annotations

from . import _ed25519_core as _core

try:
    from . import _ed25519_ckernel as _kernel

    BACKEND = "compiled"
except ImportError:  # the pure kernel builds its base-point table at import
    from . import _ed25519_pykernel as _kernel

    BACKEND = "pure"


def public_key(seed: bytes) -> bytes:
    """Derive the 32-byte public key for a 32-byte signing seed."""
    return _core.public_from_seed(seed, _kernel)


def sign(seed: bytes, message: bytes, public: bytes | None = None) -> bytes:
    """Detached 64-byte signature; deterministic for fixed (seed, message).

    `public`, when given, must be the seed's own public key; passing it
    saves the base-point multiply that would recompute it.
    """
    return _core.sign(seed, message, _kernel, public)


def verify(public: bytes, signature: bytes, message: bytes) -> bool:
    """True iff signature is valid; False for any other well-formed input."""
    return _core.verify(public, signature, message, _kernel)
