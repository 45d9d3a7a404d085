"""Ed25519 signing logic (RFC 8032) over a pluggable group-arithmetic kernel.

The scheme-level work (key expansion, challenge hashing, scalar arithmetic
mod the group order, strict point decoding) lives here; the two expensive
group operations are delegated to a kernel module:

    scalarmult_base(k)            -> 32-byte encoding of k*B
    scalarmult_sub(s, h, ax, ay)  -> 32-byte encoding of s*B - h*A

where B is the curve base point and A the affine point (ax, ay).  Two
kernels ship with the package: the pure-Python `_ed25519_pykernel`, and
`_ed25519_ckernel`, built by setup.py from one hand-written C file that
reads P, D, B_X and B_Y from this module at import.  They must be
byte-for-byte interchangeable, which the test suite enforces.

Verification recomputes R' = s*B - h*A and compares its canonical encoding
against the R carried in the signature.  This accepts every honestly
produced signature and additionally rejects non-canonical R encodings,
which keeps the accept/reject decision identical across kernels.

Public keys go through `decoded_key`, which also sets the key policy: a
key must decode strictly (canonical y, recoverable x, no negative zero)
and must not be one of the eight points of small order, [8]A = O.  Under
a small-order key the signature "encoding of the identity, then 32 zero
bytes" verifies for every message (s*B - h*A = O = R), so such a key would
let anyone sign for its owner; RFC 8032 section 5.1.7 does not refuse it
(Chalkias et al., "Taming the many EdDSAs", SSR 2020).  `verify` returns
False under a refused key, and the team and challenge records and the
genesis organizer key refuse one when they are decoded.  Keys of mixed
order (a prime-order point plus a small-order one) are still accepted:
signing under one still takes its secret scalar.

`decoded_key` is a 1024-entry LRU memo: a competition checks thousands
of signatures under a few hundred team, challenge and organizer keys, so
each key costs one square root per process.  The pure kernel's
`scalarmult_sub` keeps a memo of the same size holding each key's addend
tables (232 doublings and one inversion to build, 3 KiB), so with
that kernel each key also costs those once per process.  Both memos hold
pure functions of the key, so they change nothing but timing;
`decompress` itself stays uncached.

Past 1,024 keys both memos miss on nearly every team key, since a
competition reaches its teams in no fixed order.  Measured in one
process with the pure kernel, after n registrations: the first
scoreboard read, which decodes each team record's key, took 4.7 ms at
1,000 teams and about 440 ms at 4,000 (1.1 s at 10,000); in a second
round of one solve per team, 100% of team keys' tables were still cached
at 1,000 teams, 3.7% at 4,000 and 0.5% at 10,000, and a solve, its
proof's building included, took 1.7, 3.0 and 4.2 ms.
"""

from __future__ import annotations

import functools

from .canonical import sha512 as _sha512

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
    """`decompress(public)`, or None for a point of small order; memoized,
    and `public` must be `bytes`.

    A point has small order iff doubling it three times gives the identity.
    Doubling maps (x, y) to (2xy / (y^2 - x^2), (x^2 + y^2) / (2 + x^2 - y^2)),
    and the identity is the one point with x = 0 besides (0, -1), the point
    of order 2.  So x = 0 gives order at most 2, y = 0 order 4, and
    x^2 + y^2 = 0 order 8: exactly the eight points with x*y*(x^2 + y^2) = 0.
    """
    point = decompress(public)
    if point is None:
        return None
    x, y = point
    return point if x * y * (x * x + y * y) % P else None


def public_from_seed(seed: bytes, kernel) -> bytes:
    if len(seed) != 32:
        raise ValueError("seed must be exactly 32 bytes")
    a = _clamp(_sha512(seed)[:32])
    return kernel.scalarmult_base(a)


def sign(seed: bytes, message: bytes, kernel) -> bytes:
    """Produce the detached 64-byte signature R || S (deterministic).  The
    public key it hashes is derived from `seed` here, never taken from a
    caller."""
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
