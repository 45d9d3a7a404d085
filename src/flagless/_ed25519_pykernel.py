"""Pure-Python edwards25519 group arithmetic.

Points are (X, Y, Z, T) extended coordinates with x = X/Z, y = Y/Z,
x*y = T/Z; every addend of a multiply is kept in affine Niels form,
(y+x, y-x, 2d*x*y), which saves the multiplications the a=-1 addition
formula would spend on them (the tables are built with the projective
form, (Y+X, Y-X, 2Z, 2d*T)).  A table is one `bytes` object of 96-byte
entries, each field reduced mod P and stored in 32 little-endian bytes,
and `_joint` reads an addend with one `int.from_bytes` of its 96 bytes.
A key's table of 32 entries thus takes 3 KiB in one allocation, not 32
ints of 128 bytes each.  The formulas are complete on the curve, so
every input point (identity and low-order points included) takes the
same path.  Always available; the compiled kernel replaces it when the
extension built.

A multiply reduces mod P only its table entries, which a table build
does, and its encoded result.  Since 2^255 = 19 (mod P), `_double` and
the mixed addition in `_joint` instead fold a product v into
(v mod 2^255) + 19 * (v >> 255): once for the products that feed the
output multiplications, and twice for each output coordinate, which
keeps every coordinate below 2^256 in magnitude, the bound each input
may take (the lazy reduction of Bernstein et al., cited below).

One table of odd multiples of the base point B is built once at import,
with one batch inversion, as eight rows of one flat table:

    _ODD_B entry 64q + j    = (2j + 1) * 2^(32q) * B      for q < 8, j < 64

(512 entries, 48 KiB).  Both multiplies recode each scalar once, in
width-w NAF, and add every digit d at bit i as d * 2^(32q) * Q, q =
min(i >> 5, 7), at position i - 32q of one Straus loop (`_joint`): so
all the rows share one chain of about 31 doublings instead of the ~253
an unrecoded scalar needs (Lim and Lee, "More Flexible Exponentiation
with Precomputation", CRYPTO 1994); only the last doubling before an
addition computes T, and an addition computes it only when another
addition follows.  Row 7 takes every bit from 2^224 up, so any k >= 0
is exact.  `scalarmult_base` reduces k mod L and recodes it with w = 8
over `_ODD_B`: about 30 doublings and 28.5 mixed additions.
`scalarmult_sub` computes s*B - h*A from s mod L with w = 8 and h with
w = 4 over the per-key rows

    _neg_tables(A) entry 4q + j = (2j + 1) * 2^(32q) * -A   for q < 8, j < 4

Every addend is affine, so a verify spends about 31 doublings and 79
mixed additions (28.5 for s, 51 for h; means over 2,000 random s, h < L),
inline in `_joint`, which unpacks each addend as it recodes its digit,
and builds no table.  The rows of -A cost 232 doublings, 24 additions and
one batch inversion; `_neg_tables` memoizes them per key in a 1024-entry
LRU cache (3 KiB a key, 3 MiB when full), so a competition's few
hundred keys each pay that once per process.  See Bernstein, Duif,
Lange, Schwabe and Yang, "High-speed high-security signatures" (CHES
2011) for the NAF loop.
Python integers are not constant-time, so neither is this kernel.
"""

from __future__ import annotations

import functools

from ._ed25519_core import B_X, B_Y, D, L, P

_D2 = (2 * D) % P
_B = (B_X, B_Y, 1, B_X * B_Y % P)
_MASK = (1 << 255) - 1


def _double(pt, n: int):
    """2^n * pt for n >= 1.  Doubling ignores T, so T is computed for the
    last doubling only.

    For coordinates below 2^256 in magnitude, each of the four products
    feeding the output multiplications is folded once, to below 2^262, and
    each output twice, to below 2^256 again.  The second fold subtracts
    P * (v >> 255), the same number as (v & _MASK) + 19 * (v >> 255) and
    one operation fewer once v >> 255 is a few bits.
    """
    x, y, z, _ = pt
    mask = _MASK
    for _ in range(n):
        a = x * x
        a = (a & mask) + 19 * (a >> 255)
        b = y * y
        b = (b & mask) + 19 * (b >> 255)
        c = z * z
        c = (c & mask) + 19 * (c >> 255)
        e = x * y
        e = 2 * ((e & mask) + 19 * (e >> 255))
        g = b - a
        f = g - c - c
        h = -a - b
        x = e * f
        x = (x & mask) + 19 * (x >> 255)
        x -= P * (x >> 255)
        y = g * h
        y = (y & mask) + 19 * (y >> 255)
        y -= P * (y >> 255)
        z = f * g
        z = (z & mask) + 19 * (z >> 255)
        z -= P * (z >> 255)
    t = e * h
    t = (t & mask) + 19 * (t >> 255)
    return x, y, z, t - P * (t >> 255)


def _add(pt, niels):
    """Extended point plus a point in projective Niels form."""
    x, y, z, t = pt
    yp, ym, z2, t2d = niels
    a = (y - x) * ym % P
    b = (y + x) * yp % P
    c = t * t2d % P
    d = z * z2 % P
    e = b - a
    f = d - c
    g = d + c
    h = b + a
    return e * f % P, g * h % P, f * g % P, e * h % P


def _niels(pt):
    x, y, z, t = pt
    return (y + x) % P, (y - x) % P, 2 * z % P, t * _D2 % P


def _odd_multiples(pt, count: int) -> list:
    """[pt, 3*pt, 5*pt, ..., (2*count - 1)*pt] in extended coordinates."""
    twice = _niels(_double(pt, 1))
    out = [pt]
    for _ in range(count - 1):
        out.append(_add(out[-1], twice))
    return out


def _affine_niels(points) -> bytes:
    """Affine Niels form of each extended point, sharing one inversion, as
    one 96-byte little-endian entry each: y+x, y-x and 2d*x*y, 32 bytes a
    field, all reduced mod P."""
    prefix = []
    acc = 1
    for pt in points:
        prefix.append(acc)
        acc = acc * pt[2] % P
    inv = pow(acc, -1, P)
    out = [None] * len(points)
    for i in range(len(points) - 1, -1, -1):
        x, y, z, _ = points[i]
        zinv = inv * prefix[i] % P
        inv = inv * z % P
        x = x * zinv % P
        y = y * zinv % P
        packed = (y + x) % P | ((y - x) % P) << 256 | (x * y % P * _D2 % P) << 512
        out[i] = packed.to_bytes(96, "little")
    return b"".join(out)


def _odd_rows(pt, count: int) -> bytes:
    """Flat affine Niels table: entry `count * q + j` = (2j + 1) * 2^(32q)
    * pt, q < 8, j < count, sharing one inversion."""
    points = _odd_multiples(pt, count)
    for _ in range(7):
        pt = _double(pt, 32)
        points += _odd_multiples(pt, count)
    return _affine_niels(points)


_ODD_B = _odd_rows(_B, 64)


@functools.lru_cache(maxsize=1024)
def _neg_tables(ax: int, ay: int) -> bytes:
    """Flat affine Niels table for the affine point A = (ax, ay):
    `_neg_tables(ax, ay)[4q + j]` = (2j + 1) * 2^(32q) * -A, q < 8, j < 4."""
    nx = (P - ax) % P
    return _odd_rows((nx, ay, 1, nx * ay % P), 4)


def _encode(pt) -> bytes:
    x, y, z, _ = pt
    zinv = pow(z, -1, P)
    x = x * zinv % P
    y = y * zinv % P
    return (y | ((x & 1) << 255)).to_bytes(32, "little")


def _joint(terms) -> bytes:
    """Encoded sum of k * Q over the (k, w, table) in `terms`, for k >= 0
    and entry (q << (w-2)) + j of table = (2j + 1) * 2^(32q) * Q in affine
    Niels form for every q < 8 and j < 2^(w-2).

    Each k is written once in width-w NAF: odd digits d with |d| < 2^(w-1),
    at least w positions apart.  A digit at bit i is taken from row
    q = min(i >> 5, 7), so its addend d * 2^(32q) * Q goes into the bucket
    of chain position i - 32q.  The terms thus share one chain of doublings,
    about 31 long, that visits only the positions holding an addend (Lim
    and Lee's rows; row 7 takes every bit from 2^224 up, so any k is exact).
    """
    mask, from_bytes = _MASK, int.from_bytes
    buckets = {}  # chain position -> affine Niels addends, unpacked
    for k, w, table in terms:
        full = 1 << w
        i = 0
        while k:
            zeros = (k & -k).bit_length() - 1
            k >>= zeros
            i += zeros
            d = k & (full - 1)
            if d >= full >> 1:
                d -= full
            q = i >> 5 if i < 224 else 7
            # each field is below P < 2^255, so mask takes one whole; the
            # negated point swaps y+x and y-x and negates 2d*x*y
            o = 96 * ((q << (w - 2)) + (abs(d) >> 1))
            packed = from_bytes(table[o : o + 96], "little")
            if d > 0:
                addend = (packed & mask, packed >> 256 & mask, packed >> 512)
            else:
                addend = (packed >> 256 & mask, packed & mask, -(packed >> 512))
            buckets.setdefault(i - 32 * q, []).append(addend)
            k = (k - d) >> w
            i += w
    x, y, z, t = 0, 1, 1, 0
    above = max(buckets, default=0)
    for i in sorted(buckets, reverse=True):
        if above > i:
            x, y, z, t = _double((x, y, z, t), above - i)
            above = i
        # mixed addition of an affine Niels addend (Z = 1), folded as in
        # `_double`; a negated addend makes some products negative.  The
        # T = e*h of an addition is formed only when another addition
        # follows, since doubling and encoding never read T.
        for n, (yp, ym, t2d) in enumerate(buckets[i]):
            if n:
                t = e * h
                t = (t & mask) + 19 * (t >> 255)
                t -= P * (t >> 255)
            a = (y - x) * ym
            a = (a & mask) + 19 * (a >> 255)
            b = (y + x) * yp
            b = (b & mask) + 19 * (b >> 255)
            c = t * t2d
            c = (c & mask) + 19 * (c >> 255)
            e = b - a
            h = b + a
            f = z + z
            g = f + c
            f -= c
            x = e * f
            x = (x & mask) + 19 * (x >> 255)
            x -= P * (x >> 255)
            y = g * h
            y = (y & mask) + 19 * (y >> 255)
            y -= P * (y >> 255)
            z = f * g
            z = (z & mask) + 19 * (z >> 255)
            z -= P * (z >> 255)
    pt = (x, y, z, t)
    if above:
        pt = _double(pt, above)
    return _encode(pt)


def scalarmult_base(k: int) -> bytes:
    """Encoded k*B for the curve base point B."""
    return _joint(((k % L, 8, _ODD_B),))


def scalarmult_sub(s: int, h: int, ax: int, ay: int) -> bytes:
    """Encoded s*B - h*A for the affine point A = (ax, ay)."""
    return _joint(((s % L, 8, _ODD_B), (h, 4, _neg_tables(ax, ay))))
