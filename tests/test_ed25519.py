"""Signature conformance: published test vectors, kernel parity, and an
independent-library oracle."""

import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flagless
from flagless import _ed25519_core as core
from flagless import _ed25519_pykernel as pykernel
from flagless import ed25519

# RFC 8032 section 7.1, TEST 1-3: (seed, public key, message, signature)
RFC8032_VECTORS = [
    (
        "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
        "",
        "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
        "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
    ),
    (
        "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
        "72",
        "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
        "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
    ),
    (
        "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
        "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
        "af82",
        "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
        "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
    ),
]


@pytest.mark.parametrize("seed_hex,public_hex,msg_hex,sig_hex", RFC8032_VECTORS)
def test_rfc8032_vectors(kernel, seed_hex, public_hex, msg_hex, sig_hex):
    seed = bytes.fromhex(seed_hex)
    message = bytes.fromhex(msg_hex)
    assert core.public_from_seed(seed, kernel).hex() == public_hex
    signature = core.sign(seed, message, kernel)
    assert signature.hex() == sig_hex
    assert core.verify(bytes.fromhex(public_hex), signature, message, kernel)


def test_bit_flips_rejected(kernel):
    rng = random.Random(1)
    seed = rng.randbytes(32)
    message = b"the quick brown fox"
    public = core.public_from_seed(seed, kernel)
    signature = core.sign(seed, message, kernel)
    for _ in range(32):
        pos = rng.randrange(64)
        bit = 1 << rng.randrange(8)
        bad = bytearray(signature)
        bad[pos] ^= bit
        assert not core.verify(public, bytes(bad), message, kernel)
    for _ in range(16):
        pos = rng.randrange(len(message))
        bad_msg = bytearray(message)
        bad_msg[pos] ^= 1
        assert not core.verify(public, signature, bytes(bad_msg), kernel)


def test_wrong_key_rejected(kernel):
    rng = random.Random(2)
    seed_a, seed_b = rng.randbytes(32), rng.randbytes(32)
    message = b"ownership matters"
    signature = core.sign(seed_a, message, kernel)
    public_b = core.public_from_seed(seed_b, kernel)
    assert not core.verify(public_b, signature, message, kernel)


def test_scalar_range_enforced(kernel):
    seed = bytes(32)
    public = core.public_from_seed(seed, kernel)
    signature = core.sign(seed, b"m", kernel)
    # bump s by the group order: same point equation, non-canonical scalar
    s = int.from_bytes(signature[32:], "little") + core.L
    forged = signature[:32] + s.to_bytes(32, "little")
    assert not core.verify(public, forged, b"m", kernel)


def test_non_canonical_public_key_rejected(kernel):
    # y = p encodes the same point as y = 0 but is not a canonical encoding
    encoded = core.P.to_bytes(32, "little")
    assert core.decompress(encoded) is None
    signature = core.sign(bytes(32), b"m", kernel)
    assert not core.verify(encoded, signature, b"m", kernel)


def test_malformed_lengths_raise(kernel):
    with pytest.raises(ValueError):
        core.public_from_seed(b"short", kernel)
    with pytest.raises(ValueError):
        core.sign(b"short", b"m", kernel)
    with pytest.raises(ValueError):
        core.verify(b"short", bytes(64), b"m", kernel)
    with pytest.raises(ValueError):
        core.verify(bytes(32), bytes(63), b"m", kernel)


# ------------------------------------------------------------ reference kernel
# The double-and-add kernel that the windowed one replaced, kept as an oracle:
# every kernel must encode exactly the bytes it does.

_REF_IDENTITY = (0, 1, 1, 0)
_REF_D2 = 2 * core.D % core.P


def _ref_add(p, q):
    P = core.P
    x1, y1, z1, t1 = p
    x2, y2, z2, t2 = q
    a = (y1 - x1) * (y2 - x2) % P
    b = (y1 + x1) * (y2 + x2) % P
    c = t1 * t2 % P * _REF_D2 % P
    d = 2 * z1 * z2 % P
    e, f, g, h = b - a, d - c, d + c, b + a
    return e * f % P, g * h % P, f * g % P, e * h % P


def _ref_dbl(p):
    P = core.P
    x1, y1, z1, _ = p
    a = x1 * x1 % P
    b = y1 * y1 % P
    c = 2 * z1 * z1 % P
    e = ((x1 + y1) * (x1 + y1) - a - b) % P
    g = b - a
    f = g - c
    h = -a - b
    return e * f % P, g * h % P, f * g % P, e * h % P


def _ref_encode(p) -> bytes:
    P = core.P
    x, y, z, _ = p
    zinv = pow(z, P - 2, P)
    x = x * zinv % P
    y = y * zinv % P
    return (y | ((x & 1) << 255)).to_bytes(32, "little")


def _ref_affine_niels(p):
    P = core.P
    x, y, z, _ = p
    zinv = pow(z, P - 2, P)
    x = x * zinv % P
    y = y * zinv % P
    return (y + x) % P, (y - x) % P, x * y % P * _REF_D2 % P


def _unpacked(table: bytes, index: int):
    """The three fields of a pure-kernel table's entry: 96 bytes holding
    y+x, y-x and 2dxy, 32 little-endian bytes each."""
    entry = table[96 * index : 96 * (index + 1)]
    assert len(entry) == 96
    return tuple(int.from_bytes(entry[o : o + 32], "little") for o in (0, 32, 64))


def _ref_mul(p, k: int):
    acc = _REF_IDENTITY
    for i in range(k.bit_length() - 1, -1, -1):
        acc = _ref_dbl(acc)
        if (k >> i) & 1:
            acc = _ref_add(acc, p)
    return acc


def _ref_point(x: int, y: int):
    return (x, y, 1, x * y % core.P)


_REF_B_DOUBLES = [_ref_point(core.B_X, core.B_Y)]
for _ in range(255):
    _REF_B_DOUBLES.append(_ref_dbl(_REF_B_DOUBLES[-1]))


def _ref_mul_base(k: int):
    acc = _REF_IDENTITY
    i = 0
    while k:
        if k & 1:
            acc = _ref_add(acc, _REF_B_DOUBLES[i])
        k >>= 1
        i += 1
    return acc


def ref_scalarmult_base(k: int) -> bytes:
    return _ref_encode(_ref_mul_base(k))


def ref_scalarmult_sub(s: int, h: int, ax: int, ay: int) -> bytes:
    a_neg = _ref_point((core.P - ax) % core.P, ay)
    return _ref_encode(_ref_add(_ref_mul_base(s), _ref_mul(a_neg, h)))


def _random_points(rng, count):
    points = []
    while len(points) < count:
        point = core.decompress(rng.randbytes(32))
        if point is not None:
            points.append(point)
    return points


def _torsion_points():
    """The eight points of order dividing 8, found as L * Q for a point Q of
    order 8L, each as decompress decodes its encoding."""
    for x, y in _random_points(random.Random(8), 64):
        torsion = _ref_mul(_ref_point(x, y), core.L)
        if _ref_encode(_ref_mul(torsion, 4)) != _ref_encode(_REF_IDENTITY):
            return [core.decompress(_ref_encode(_ref_mul(torsion, j))) for j in range(8)]
    raise AssertionError("no point of order 8L found")


L = core.L
EDGE_SCALARS = [0, 1, 2, 7, 8, 9, 15, 16, L - 1, L, L + 1, 2**252, 2**255 - 1]
# where a scalar crosses from one 64-bit quarter into the next
QUARTER_EDGE_IDS = ["2^64-1", "2^64", "2^128-1", "2^128+1", "2^192-1", "2^192", "2^256-1"]
QUARTER_EDGES = [2**64 - 1, 2**64, 2**128 - 1, 2**128 + 1, 2**192 - 1, 2**192, 2**256 - 1]
# where a scalar crosses from one 32-bit piece into the next
PIECE_EDGE_IDS = [f"2^{32 * k}{end}" for k in range(1, 8) for end in ("-1", "")]
PIECE_EDGES = [2 ** (32 * k) + end for k in range(1, 8) for end in (-1, 0)]


class TestAgainstReferenceKernel:
    """Byte-equal to the double-and-add reference on random and edge inputs."""

    @pytest.mark.parametrize("k", EDGE_SCALARS)
    def test_base_multiply_edge_scalars(self, kernel, k):
        assert kernel.scalarmult_base(k) == ref_scalarmult_base(k)

    def test_base_multiply_random_scalars(self, kernel):
        rng = random.Random(11)
        for _ in range(40):
            k = rng.randrange(2**256)
            assert kernel.scalarmult_base(k) == ref_scalarmult_base(k), k

    def test_base_multiply_every_signed_digit(self, kernel):
        # m * 16^i has digit m (m < 8) or m - 16 (m >= 8) at position i,
        # so this reaches every table entry a scalar below L uses, both signs
        for i in range(64):
            for m in range(1, 16):
                k = m << (4 * i)
                assert kernel.scalarmult_base(k) == ref_scalarmult_base(k), (m, i)

    def test_joint_multiply_random(self, kernel):
        rng = random.Random(12)
        for ax, ay in _random_points(rng, 20):
            s, h = rng.randrange(L), rng.randrange(2**256)
            assert kernel.scalarmult_sub(s, h, ax, ay) == ref_scalarmult_sub(s, h, ax, ay)

    def test_joint_multiply_every_window_digit(self, kernel):
        # odd s < 256 and odd h < 32 put every width-8 and width-5 (or
        # narrower) NAF digit, positive and negative, at the bottom of a
        # 64-bit quarter: every odd multiple of 2^(64j)*B and of 2^(64j)*A
        ((ax, ay),) = _random_points(random.Random(13), 1)
        for j in range(4):
            for m in range(1, 256, 2):
                s = m << (64 * j)
                assert kernel.scalarmult_sub(s, 0, ax, ay) == ref_scalarmult_sub(s, 0, ax, ay)
            for m in range(1, 32, 2):
                h = m << (64 * j)
                assert kernel.scalarmult_sub(0, h, ax, ay) == ref_scalarmult_sub(0, h, ax, ay)

    @pytest.mark.parametrize("k", QUARTER_EDGES, ids=QUARTER_EDGE_IDS)
    def test_joint_multiply_quarter_boundaries(self, kernel, k):
        ((ax, ay),) = _random_points(random.Random(15), 1)
        for s, h in [(k, 0), (0, k), (k, k), (k, L - 1)]:
            assert kernel.scalarmult_sub(s, h, ax, ay) == ref_scalarmult_sub(s, h, ax, ay)

    @pytest.mark.parametrize("k", PIECE_EDGES, ids=PIECE_EDGE_IDS)
    def test_piece_boundaries(self, kernel, k):
        ((ax, ay),) = _random_points(random.Random(19), 1)
        assert kernel.scalarmult_base(k) == ref_scalarmult_base(k)
        for s, h in [(k, 0), (0, k), (k, k), (k, L - 1)]:
            assert kernel.scalarmult_sub(s, h, ax, ay) == ref_scalarmult_sub(s, h, ax, ay)

    def test_every_window_digit_at_the_bottom_of_each_piece(self, kernel):
        # odd m < 256 gives every width-8 NAF digit, positive and negative,
        # and odd m < 16 every width-4 digit; shifted to the bottom of a
        # 32-bit piece, each reaches every odd multiple of 2^(32q)*B and of
        # 2^(32q)*-A that the pure kernel tables
        ((ax, ay),) = _random_points(random.Random(20), 1)
        for q in range(8):
            for m in range(1, 256, 2):
                s = m << (32 * q)
                assert kernel.scalarmult_base(s) == ref_scalarmult_base(s), (m, q)
                assert kernel.scalarmult_sub(s, 0, ax, ay) == ref_scalarmult_sub(s, 0, ax, ay)
            for m in range(1, 16, 2):
                h = m << (32 * q)
                assert kernel.scalarmult_sub(0, h, ax, ay) == ref_scalarmult_sub(0, h, ax, ay)

    def test_pure_joint_multiply_takes_h_of_any_size(self):
        # the compiled kernel takes h < 2^256 only; the pure one takes every
        # bit from 2^224 up in row 7 of its tables, as its docstring promises
        ((ax, ay),) = _random_points(random.Random(17), 1)
        for h in [2**256, 2**257 + 2**64 + 1]:
            assert pykernel.scalarmult_sub(1, h, ax, ay) == ref_scalarmult_sub(1, h, ax, ay)

    def test_pure_lazy_reduction_keeps_coordinates_below_2_256(self, monkeypatch):
        # every point that reaches a doubling or the encoding has come out
        # of the folds, which the docstring bounds below 2^256 in
        # magnitude; L-1 and 2^253-1 recode to runs of negative digits, so
        # negated addends, and mixed-order keys put torsion in the tables
        bound = 1 << 256
        seen = []

        def checked(fn):
            def check(pt, *args):
                seen.append(pt)
                assert all(-bound < v < bound for v in pt), pt
                return fn(pt, *args)

            return check

        monkeypatch.setattr(pykernel, "_double", checked(pykernel._double))
        monkeypatch.setattr(pykernel, "_encode", checked(pykernel._encode))
        prime = _ref_mul_base(random.Random(22).randrange(L))
        keys = [core.decompress(_ref_encode(prime))]
        for tx, ty in _torsion_points()[1:4]:
            keys.append(core.decompress(_ref_encode(_ref_add(prime, _ref_point(tx, ty)))))
        scalars = [0, 1, L - 1, 2**253 - 1]
        for k in scalars:
            assert pykernel.scalarmult_base(k) == ref_scalarmult_base(k), k
        for ax, ay in keys:
            for s in scalars:
                for h in scalars:
                    expected = ref_scalarmult_sub(s, h, ax, ay)
                    assert pykernel.scalarmult_sub(s, h, ax, ay) == expected, (ax, s, h)
        assert len(seen) > 100

    def test_pure_key_memo_is_bounded_and_changes_no_byte(self):
        memo = pykernel._neg_tables
        assert memo.cache_info().maxsize is not None and memo.cache_info().maxsize <= 1024
        memo.cache_clear()
        rng = random.Random(16)
        for ax, ay in _random_points(rng, 3):
            s, h = rng.randrange(L), rng.randrange(L)
            expected = ref_scalarmult_sub(s, h, ax, ay)
            misses = memo.cache_info().misses
            assert pykernel.scalarmult_sub(s, h, ax, ay) == expected  # first use: a miss
            assert memo.cache_info().misses == misses + 1
            hits = memo.cache_info().hits
            assert pykernel.scalarmult_sub(s, h, ax, ay) == expected  # repeat: a hit
            assert memo.cache_info().hits == hits + 1

    def test_pure_key_tables_hold_odd_multiples_of_each_piece(self):
        # entry 4q + j is (2j + 1) * 2^(32q) * -A in affine Niels form
        points = _random_points(random.Random(18), 3) + _torsion_points()
        for ax, ay in points:
            table = pykernel._neg_tables(ax, ay)
            a_neg = _ref_point((core.P - ax) % core.P, ay)
            for q in range(8):
                for j in range(4):
                    assert _unpacked(table, 4 * q + j) == _ref_affine_niels(
                        _ref_mul(a_neg, (2 * j + 1) << (32 * q))
                    )

    def test_pure_key_tables_take_96_bytes_an_entry(self):
        ((ax, ay),) = _random_points(random.Random(19), 1)
        table = pykernel._neg_tables(ax, ay)
        assert type(table) is bytes and len(table) == 96 * 32
        assert sys.getsizeof(table) <= 3200

    def test_pure_tables_are_flat_rows_of_odd_multiples(self):
        # one byte string of 96-byte entries per table: row q of width n
        # starts at entry n*q
        ((ax, ay),) = _random_points(random.Random(21), 1)
        table = pykernel._neg_tables(ax, ay)
        assert type(table) is bytes and len(table) == 96 * 32
        odd_b = pykernel._ODD_B
        assert type(odd_b) is bytes and len(odd_b) == 96 * 512
        for q in range(8):
            for j in range(64):
                assert _unpacked(odd_b, 64 * q + j) == _ref_affine_niels(
                    _ref_mul_base((2 * j + 1) << (32 * q))
                ), (q, j)

    def test_joint_multiply_edge_points_and_scalars(self, kernel):
        torsion = _torsion_points()
        assert None not in torsion and len(set(torsion)) == 8
        assert (0, 1) in torsion and (0, core.P - 1) in torsion  # the x = 0 points
        rng = random.Random(14)
        points = torsion + _random_points(rng, 2)
        scalars = [0, 1, L - 1]
        for ax, ay in points:
            for s in scalars:
                for h in scalars + [rng.randrange(L)]:
                    expected = ref_scalarmult_sub(s, h, ax, ay)
                    assert kernel.scalarmult_sub(s, h, ax, ay) == expected, (ax, ay, s, h)


class TestKernelParity:
    """The two kernels must be byte-for-byte interchangeable."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.binary(min_size=32, max_size=32), message=st.binary(max_size=96))
    def test_sign_and_keys_agree(self, compiled_kernel, seed, message):
        pure, compiled = pykernel, compiled_kernel
        assert core.public_from_seed(seed, pure) == core.public_from_seed(seed, compiled)
        assert core.sign(seed, message, pure) == core.sign(seed, message, compiled)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.binary(min_size=32, max_size=32),
        message=st.binary(max_size=64),
        corrupt=st.integers(min_value=0, max_value=64 * 8 - 1),
    )
    def test_verdicts_agree_on_corrupted_signatures(self, compiled_kernel, seed, message, corrupt):
        pure, compiled = pykernel, compiled_kernel
        public = core.public_from_seed(seed, pure)
        signature = bytearray(core.sign(seed, message, pure))
        signature[corrupt // 8] ^= 1 << (corrupt % 8)
        signature = bytes(signature)
        assert core.verify(public, signature, message, pure) == core.verify(
            public, signature, message, compiled
        )


class TestLibraryOracle:
    """Cross-check against an unrelated Ed25519 implementation."""

    @pytest.fixture(autouse=True)
    def _pyca(self):
        pytest.importorskip("cryptography")

    def test_agrees_with_pyca(self, kernel):
        from cryptography.hazmat.primitives import serialization
        from cryptography.hazmat.primitives.asymmetric.ed25519 import (
            Ed25519PrivateKey,
            Ed25519PublicKey,
        )

        rng = random.Random(3)
        for _ in range(20):
            seed = rng.randbytes(32)
            message = rng.randbytes(rng.randrange(0, 120))
            their_key = Ed25519PrivateKey.from_private_bytes(seed)
            their_public = their_key.public_key().public_bytes(
                serialization.Encoding.Raw, serialization.PublicFormat.Raw
            )
            assert core.public_from_seed(seed, kernel) == their_public
            ours = core.sign(seed, message, kernel)
            assert ours == their_key.sign(message)
            Ed25519PublicKey.from_public_bytes(their_public).verify(ours, message)
            assert core.verify(their_public, their_key.sign(message), message, kernel)


# prints the kernel in use, then whether the compiled one imports
_BACKEND_REPORT = """
import flagless
try:
    import flagless._ed25519_ckernel
except ImportError:
    print(flagless.ED25519_BACKEND, "unbuilt")
else:
    print(flagless.ED25519_BACKEND, "built")
"""


def _backend_report(package_root: Path) -> str:
    """`_BACKEND_REPORT` run by a fresh interpreter on the flagless package
    in `package_root`."""
    out = subprocess.run(
        [sys.executable, "-c", _BACKEND_REPORT],
        cwd=package_root,  # `-c` puts the cwd first on sys.path
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout


def test_backend_selection_reports_available():
    report = _backend_report(Path(flagless.__file__).parents[1])
    assert report in ("compiled built\n", "pure unbuilt\n")


def test_a_built_kernel_is_the_one_used(compiled_kernel, tmp_path):
    # a copy of the package with the kernel built next to its sources, as
    # `setup.py build_ext --inplace` leaves it
    package = tmp_path / "flagless"
    shutil.copytree(
        Path(flagless.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__", "*.so")
    )
    shutil.copy(compiled_kernel.__file__, package)
    assert _backend_report(tmp_path) == "compiled built\n"


# prints the kernel in use, then whether the pure one was imported
_PURE_IMPORTED = """
import sys
import flagless.cli, flagless.service
from flagless import ed25519
print(ed25519.BACKEND, "flagless._ed25519_pykernel" in sys.modules)
"""


def test_a_built_kernel_leaves_the_pure_one_unimported(compiled_kernel, tmp_path):
    package = tmp_path / "flagless"
    shutil.copytree(
        Path(flagless.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__", "*.so")
    )
    shutil.copy(compiled_kernel.__file__, package)
    out = subprocess.run(
        [sys.executable, "-c", _PURE_IMPORTED],
        cwd=tmp_path,  # `-c` puts the cwd first on sys.path
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "compiled False\n"
