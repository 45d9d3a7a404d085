"""Ed25519 signing logic (RFC 8032) over a pluggable group-arithmetic kernel.

The scheme-level work (key expansion, challenge hashing, scalar arithmetic
mod the group order, strict point decoding) lives here; the two expensive
group operations are delegated to a kernel module:

    scalarmult_base(k)            -> 32-byte encoding of k*B
    scalarmult_sub(s, h, ax, ay)  -> 32-byte encoding of s*B - h*A

where B is the curve base point and A the affine point (ax, ay).  Both a
pure-Python kernel and a compiled one ship with the package; they must be
byte-for-byte interchangeable, which the test suite enforces.

Verification recomputes R' = s*B - h*A and compares its canonical encoding
against the R carried in the signature.  This accepts every honestly
produced signature and additionally rejects non-canonical R encodings,
which keeps the accept/reject decision identical across kernels.

`verify`, and the team and challenge records that validate a key when
they are decoded, decode public keys through `decoded_key`, a 1024-entry
LRU memo of `decompress`: a competition checks thousands of signatures
under a few hundred team, challenge and organizer keys, so each key costs
one square root per process.  The pure kernel's `scalarmult_sub` keeps a
memo of the same size for the 192 doublings it spends on a new key, so
with that kernel each key also costs those doublings once per process.
Both memos hold pure functions of the key, so they change nothing but
timing; `decompress` itself stays uncached.
"""

from __future__ import annotations

import functools
import hashlib

P = 2**255 - 19
# group order of the prime-order subgroup
L = 2**252 + 27742317777372353535851937790883648493
D = (-121665 * pow(121666, P - 2, P)) % P
SQRT_M1 = pow(2, (P - 1) // 4, P)

B_Y = (4 * pow(5, P - 2, P)) % P
# x recovered with even sign, per the standard base point definition
_bx2 = ((B_Y * B_Y - 1) * pow(D * B_Y * B_Y + 1, P - 2, P)) % P
B_X = pow(_bx2, (P + 3) // 8, P)
if (B_X * B_X - _bx2) % P:
    B_X = B_X * SQRT_M1 % P
if B_X & 1:
    B_X = P - B_X


def _sha512(data: bytes) -> bytes:
    return hashlib.sha512(data).digest()


def _sha512_mod_l(data: bytes) -> int:
    return int.from_bytes(_sha512(data), "little") % L


def _clamp(h32: bytes) -> int:
    a = int.from_bytes(h32, "little")
    a &= (1 << 254) - 8
    a |= 1 << 254
    return a


def decompress(encoded: bytes) -> tuple[int, int] | None:
    """Strictly decode a point: canonical y < p, recoverable x, sign rules.

    Returns affine (x, y) or None when the encoding is not a valid point.
    """
    if len(encoded) != 32:
        return None
    y = int.from_bytes(encoded, "little")
    sign = y >> 255
    y &= (1 << 255) - 1
    if y >= P:
        return None
    y2 = y * y % P
    u = (y2 - 1) % P
    v = (D * y2 + 1) % P
    # candidate root of u/v via a single exponentiation
    x = u * pow(v, 3, P) % P * pow(u * pow(v, 7, P) % P, (P - 5) // 8, P) % P
    vx2 = v * x % P * x % P
    if vx2 == u:
        pass
    elif vx2 == P - u:
        x = x * SQRT_M1 % P
    else:
        return None
    if x == 0 and sign:
        return None
    if (x & 1) != sign:
        x = P - x
    return x, y


@functools.lru_cache(maxsize=1024)
def decoded_key(public: bytes) -> tuple[int, int] | None:
    """`decompress(public)`, memoized; `public` must be `bytes`."""
    return decompress(public)


def public_from_seed(seed: bytes, kernel) -> bytes:
    if len(seed) != 32:
        raise ValueError("seed must be exactly 32 bytes")
    a = _clamp(_sha512(seed)[:32])
    return kernel.scalarmult_base(a)


def sign(seed: bytes, message: bytes, kernel) -> bytes:
    """Produce the detached 64-byte signature R || S (deterministic)."""
    if len(seed) != 32:
        raise ValueError("seed must be exactly 32 bytes")
    h = _sha512(seed)
    a = _clamp(h[:32])
    prefix = h[32:]
    public = kernel.scalarmult_base(a)
    r = _sha512_mod_l(prefix + message)
    r_enc = kernel.scalarmult_base(r)
    k = _sha512_mod_l(r_enc + public + message)
    s = (r + k * a) % L
    return r_enc + s.to_bytes(32, "little")


def verify(public: bytes, signature: bytes, message: bytes, kernel) -> bool:
    if len(public) != 32:
        raise ValueError("public key must be exactly 32 bytes")
    if len(signature) != 64:
        raise ValueError("signature must be exactly 64 bytes")
    point = decoded_key(bytes(public))
    if point is None:
        return False
    r_enc = signature[:32]
    s = int.from_bytes(signature[32:], "little")
    if s >= L:
        return False
    k = _sha512_mod_l(r_enc + public + message)
    ax, ay = point
    return kernel.scalarmult_sub(s, k, ax, ay) == r_enc
