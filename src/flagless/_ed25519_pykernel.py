"""Pure-Python edwards25519 group arithmetic.

Points are (X, Y, Z, T) extended coordinates with x = X/Z, y = Y/Z,
x*y = T/Z; the addends are kept in Niels form, (Y+X, Y-X, 2Z, 2d*T) or,
for the fixed tables, affine (y+x, y-x, 2d*x*y), which saves the
multiplications the a=-1 addition formula would spend on them.  The
formulas are complete on the curve, so every input point (identity and
low-order points included) takes the same path.  Always available; the
compiled kernel replaces it when the extension built.

Two tables of multiples of the base point B are built once at import,
each with one batch inversion, and only their final tuples are kept:

    _BASE_TABLE[i][j - 1] = j * 16^i * B   for i < 64, 1 <= j <= 8
    _ODD_B[j]             = (2j + 1) * B    for j < 64

`scalarmult_base` reduces k mod L and writes it in signed radix-16 digits
in [-8, 8); one mixed addition per nonzero digit from `_BASE_TABLE` gives
k*B with no doubling.  `scalarmult_sub` computes s*B - h*A in one
Straus/Shamir loop over width-w NAF digits (w = 8 for s over `_ODD_B`,
w = 5 for h over the odd multiples A, 3A, ..., 15A built per call), so
both scalars share one chain of about 253 doublings, and only the last
doubling before an addition computes T.  See Bernstein, Duif, Lange,
Schwabe and Yang, "High-speed high-security signatures" (CHES 2011).
Python integers are not constant-time, so neither is this kernel.
"""

from __future__ import annotations

from ._ed25519_core import B_X, B_Y, D, L, P

_D2 = (2 * D) % P
_B = (B_X, B_Y, 1, B_X * B_Y % P)
_MASK = (1 << 255) - 1


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


def _madd(pt, niels):
    """Extended point plus a point in affine Niels form (Z = 1)."""
    x, y, z, t = pt
    yp, ym, t2d = niels
    a = (y - x) * ym % P
    b = (y + x) * yp % P
    c = t * t2d % P
    e = b - a
    f = z + z - c
    g = z + z + c
    h = b + a
    return e * f % P, g * h % P, f * g % P, e * h % P


def _neg(niels):
    """The negated point, in the same Niels form: swap y+x and y-x, negate 2d*t."""
    return (niels[1], niels[0], *niels[2:-1], -niels[-1])


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
    """Affine Niels form of each extended point, sharing one inversion."""
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
        out[i] = ((y + x) % P, (y - x) % P, x * y % P * _D2 % P)
    return out


def _build_tables():
    points = []
    row = _B  # 16^i * B
    for _ in range(64):
        niels = _niels(row)
        multiples = [row]
        for _ in range(7):
            multiples.append(_add(multiples[-1], niels))
        points.extend(multiples)
        row = _double(multiples[-1], 1)
    points.extend(_odd_multiples(_B, 64))
    table = _affine_niels(points)
    base = tuple(tuple(table[i : i + 8]) for i in range(0, 512, 8))
    return base, tuple(table[512:])


_BASE_TABLE, _ODD_B = _build_tables()


def _encode(pt) -> bytes:
    x, y, z, _ = pt
    zinv = pow(z, -1, P)
    x = x * zinv % P
    y = y * zinv % P
    return (y | ((x & 1) << 255)).to_bytes(32, "little")


def _naf(k: int, w: int) -> dict[int, int]:
    """Nonzero width-w NAF digits of k >= 0, by bit position.

    Each digit is odd with |digit| < 2^(w-1), and nonzero digits are at
    least w positions apart.
    """
    digits = {}
    full = 1 << w
    i = 0
    while k:
        zeros = (k & -k).bit_length() - 1
        k >>= zeros
        i += zeros
        d = k & (full - 1)
        if d >= full >> 1:
            d -= full
        digits[i] = d
        k = (k - d) >> w
        i += w
    return digits


def _radix16(k: int) -> list[int]:
    """The 64 signed radix-16 digits of k mod L, each in [-8, 8), least
    significant first (the carry out of the top digit is 0 since L < 2^253)."""
    digits = []
    carry = 0
    for byte in (k % L).to_bytes(32, "little"):
        for v in (byte & 15, byte >> 4):
            v += carry
            carry = (v + 8) >> 4
            digits.append(v - (carry << 4))
    return digits


def scalarmult_base(k: int) -> bytes:
    """Encoded k*B for the curve base point B."""
    pt = (0, 1, 1, 0)
    for row, v in zip(_BASE_TABLE, _radix16(k)):
        if v > 0:
            pt = _madd(pt, row[v - 1])
        elif v < 0:
            pt = _madd(pt, _neg(row[-v - 1]))
    return _encode(pt)


def scalarmult_sub(s: int, h: int, ax: int, ay: int) -> bytes:
    """Encoded s*B - h*A for the affine point A = (ax, ay)."""
    nx = (P - ax) % P
    neg_a = [_niels(q) for q in _odd_multiples((nx, ay, 1, nx * ay % P), 8)]
    s_digits = _naf(s % L, 8)
    h_digits = _naf(h, 5)
    positions = sorted(s_digits.keys() | h_digits.keys(), reverse=True)
    above = positions[0] if positions else 0
    pt = (0, 1, 1, 0)
    for i in positions:
        if above > i:
            pt = _double(pt, above - i)
        above = i
        v = s_digits.get(i)
        if v:
            pt = _madd(pt, _ODD_B[v >> 1] if v > 0 else _neg(_ODD_B[-v >> 1]))
        v = h_digits.get(i)
        if v:
            pt = _add(pt, neg_a[v >> 1] if v > 0 else _neg(neg_a[-v >> 1]))
    if above:
        pt = _double(pt, above)
    return _encode(pt)
