"""Public Ed25519 API with kernel selection.

Prefers the compiled group-arithmetic kernel when it is built (`python
setup.py build_ext --inplace` compiles `_ed25519_ckernel.c` next to this
module), otherwise falls back to the pure-Python one.  `FLAGLESS_ED25519_BACKEND`
(`compiled` or `pure`) forces a specific kernel and raises if it is
unavailable, which keeps benchmark comparisons honest.
"""

from __future__ import annotations

import os

from . import _ed25519_core as _core
from . import _ed25519_pykernel as _pykernel

try:
    from . import _ed25519_ckernel as _ckernel
except ImportError:
    _ckernel = None


def available_backends() -> dict[str, object]:
    backends: dict[str, object] = {"pure": _pykernel}
    if _ckernel is not None:
        backends["compiled"] = _ckernel
    return backends


def _select() -> tuple[str, object]:
    forced = os.environ.get("FLAGLESS_ED25519_BACKEND")
    backends = available_backends()
    if forced:
        if forced not in backends:
            raise RuntimeError(
                f"FLAGLESS_ED25519_BACKEND={forced!r} requested but only "
                f"{sorted(backends)} are available"
            )
        return forced, backends[forced]
    if "compiled" in backends:
        return "compiled", backends["compiled"]
    return "pure", backends["pure"]


BACKEND, _kernel = _select()


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
