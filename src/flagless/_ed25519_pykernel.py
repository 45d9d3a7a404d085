"""Pure-Python edwards25519 group arithmetic.

Points are (X, Y, Z, T) extended coordinates with x = X/Z, y = Y/Z,
x*y = T/Z; every addend of a multiply is kept in affine Niels form,
(y+x, y-x, 2d*x*y), which saves the multiplications the a=-1 addition
formula would spend on them (the tables are built with the projective
form, (Y+X, Y-X, 2Z, 2d*T)).  A table entry packs the three fields into
one int, (y+x) | (y-x) << 256 | 2d*x*y << 512: 128 bytes, where a tuple
of three ints takes about 250.  The formulas are complete on the curve, so
every input point (identity and low-order points included) takes the
same path.  Always available; the compiled kernel replaces it when the
extension built.

One table of odd multiples of the base point B is built once at import,
with one batch inversion, and only its packed entries are kept:

    _ODD_B[q][j]          = (2j + 1) * 2^(32q) * B      for q < 8, j < 64

(512 entries, about 70 KB).  Both multiplies split each scalar k into
eight 32-bit pieces, k = sum of k_q * 2^(32q), and add up every k_q times
2^(32q) times its point in one Straus loop over width-w NAF digits
(`_joint`): w = 8 for each piece of a multiple of B, over `_ODD_B[q]`.
`scalarmult_base` reduces k mod L and spends about 31 doublings and 31
mixed additions.  `scalarmult_sub` computes s*B - h*A from the eight
pieces of s mod L and the eight of h, with w = 4 for each h_q over the
per-key rows

    _neg_tables(A)[q][j]  = (2j + 1) * 2^(32q) * -A     for q < 8, j < 4

(the top piece of h keeps every bit above 2^224, so any h >= 0 is exact).
All sixteen pieces share one chain of about 34 doublings instead of the
~253 an unsplit scalar needs (Lim and Lee, "More Flexible Exponentiation
with Precomputation", CRYPTO 1994), and only the last doubling before an
addition computes T.  Every addend is affine, so a verify spends about 85
mixed additions (31 for s, 54 for h), inline in `_joint`, which unpacks
each addend as it recodes its digit, and builds no table.  The rows of
-A cost 232 doublings, 24 additions and one batch inversion;
`_neg_tables` memoizes them per key in a 1024-entry LRU cache (about
4.8 KB a key, 4.9 MB when full), so a competition's few hundred keys each
pay that once per process.  See Bernstein, Duif, Lange, Schwabe and Yang,
"High-speed high-security signatures" (CHES 2011) for the NAF loop.
Python integers are not constant-time, so neither is this kernel.
"""

from __future__ import annotations

import functools

from ._ed25519_core import B_X, B_Y, D, L, P

_D2 = (2 * D) % P
_B = (B_X, B_Y, 1, B_X * B_Y % P)
_MASK = (1 << 255) - 1
_PIECE = (1 << 32) - 1


def _double(pt, n: int):
    """2^n * pt for n >= 1.  Doubling ignores T, so T is computed for the
    last doubling only.

    The four products feeding the output multiplications are only folded
    once with 2^255 = 19 (mod P), which is cheaper than `% P` and leaves
    them below 2^261, still nine 30-bit digits; the outputs are reduced.
    """
    x, y, z, _ = pt
    for _ in range(n):
        a = x * x
        a = (a & _MASK) + 19 * (a >> 255)
        b = y * y
        b = (b & _MASK) + 19 * (b >> 255)
        c = z * z
        c = (c & _MASK) + 19 * (c >> 255)
        e = x * y
        e = 2 * ((e & _MASK) + 19 * (e >> 255))
        g = b - a
        f = g - c - c
        h = -a - b
        x = e * f % P
        y = g * h % P
        z = f * g % P
    return x, y, z, e * h % P


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


def _affine_niels(points) -> list:
    """Affine Niels form of each extended point, sharing one inversion,
    each packed into one int: (y+x) | (y-x) << 256 | 2d*x*y << 512."""
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
        out[i] = (y + x) % P | ((y - x) % P) << 256 | (x * y % P * _D2 % P) << 512
    return out


def _odd_rows(pt, count: int) -> tuple:
    """Affine Niels rows `[q][j]` = (2j + 1) * 2^(32q) * pt, q < 8,
    j < count, sharing one inversion."""
    points = _odd_multiples(pt, count)
    for _ in range(7):
        pt = _double(pt, 32)
        points += _odd_multiples(pt, count)
    table = _affine_niels(points)
    return tuple(tuple(table[i : i + count]) for i in range(0, 8 * count, count))


_ODD_B = _odd_rows(_B, 64)


@functools.lru_cache(maxsize=1024)
def _neg_tables(ax: int, ay: int) -> tuple:
    """Affine Niels rows for the affine point A = (ax, ay):
    `_neg_tables(ax, ay)[q][j]` = (2j + 1) * 2^(32q) * -A, q < 8, j < 4."""
    nx = (P - ax) % P
    return _odd_rows((nx, ay, 1, nx * ay % P), 4)


def _encode(pt) -> bytes:
    x, y, z, _ = pt
    zinv = pow(z, -1, P)
    x = x * zinv % P
    y = y * zinv % P
    return (y | ((x & 1) << 255)).to_bytes(32, "little")


def _joint(terms) -> bytes:
    """Encoded sum of k * Q over the (k, w, row) in `terms`, for k >= 0 and
    row[j] = (2j + 1) * Q in packed affine Niels form for every j < 2^(w-2).

    Each k is written in width-w NAF: odd digits d with |d| < 2^(w-1), at
    least w positions apart.  Every addend goes into a bucket by its bit
    position, so the terms share one chain of doublings, as long as the
    longest k, that visits only the positions holding an addend.
    """
    buckets = {}  # bit position -> affine Niels addends, unpacked
    for k, w, row in terms:
        full = 1 << w
        i = 0
        while k:
            zeros = (k & -k).bit_length() - 1
            k >>= zeros
            i += zeros
            d = k & (full - 1)
            if d >= full >> 1:
                d -= full
            # each field is below P < 2^255, so _MASK takes one whole; the
            # negated point swaps y+x and y-x and negates 2d*x*y
            if d > 0:
                packed = row[d >> 1]
                addend = (packed & _MASK, packed >> 256 & _MASK, packed >> 512)
            else:
                packed = row[-d >> 1]
                addend = (packed >> 256 & _MASK, packed & _MASK, -(packed >> 512))
            buckets.setdefault(i, []).append(addend)
            k = (k - d) >> w
            i += w
    x, y, z, t = 0, 1, 1, 0
    above = max(buckets, default=0)
    for i in sorted(buckets, reverse=True):
        if above > i:
            x, y, z, t = _double((x, y, z, t), above - i)
            above = i
        # mixed addition of an affine Niels addend (Z = 1).  As in
        # `_double`, the three input products are only folded once with
        # 2^255 = 19 (mod P); a negated addend makes some of them
        # negative, and the fold keeps each below 2^261 in magnitude.
        for yp, ym, t2d in buckets[i]:
            a = (y - x) * ym
            a = (a & _MASK) + 19 * (a >> 255)
            b = (y + x) * yp
            b = (b & _MASK) + 19 * (b >> 255)
            c = t * t2d
            c = (c & _MASK) + 19 * (c >> 255)
            e = b - a
            h = b + a
            f = z + z
            g = f + c
            f -= c
            x = e * f % P
            y = g * h % P
            z = f * g % P
            t = e * h % P
    pt = (x, y, z, t)
    if above:
        pt = _double(pt, above)
    return _encode(pt)


def scalarmult_base(k: int) -> bytes:
    """Encoded k*B for the curve base point B."""
    k %= L
    return _joint(((k >> (32 * q)) & _PIECE, 8, row) for q, row in enumerate(_ODD_B))


def scalarmult_sub(s: int, h: int, ax: int, ay: int) -> bytes:
    """Encoded s*B - h*A for the affine point A = (ax, ay)."""
    s %= L
    terms = [((s >> (32 * q)) & _PIECE, 8, row) for q, row in enumerate(_ODD_B)]
    for q, row in enumerate(_neg_tables(ax, ay)):
        terms.append((h >> (32 * q) if q == 7 else (h >> (32 * q)) & _PIECE, 4, row))
    return _joint(terms)
