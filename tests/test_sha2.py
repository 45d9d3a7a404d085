"""The package's SHA-2, taken from CPython's built-in modules, gives
`hashlib`'s digests: `canonical.sha256` for ledger entries and
`_ed25519_core._sha512` for Ed25519."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagless import _ed25519_core, canonical

# FIPS 180-4 (and its examples): the digests of b"" and b"abc"
PINNED = [
    (
        b"",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
        "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e",
    ),
    (
        b"abc",
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
        "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f",
    ),
]


def assert_matches_hashlib(data: bytes) -> None:
    assert canonical.sha256(data) == hashlib.sha256(data).digest()
    assert _ed25519_core._sha512(data) == hashlib.sha512(data).digest()


@pytest.mark.parametrize("data,sha256_hex,sha512_hex", PINNED)
def test_pinned_digests(data, sha256_hex, sha512_hex):
    assert canonical.sha256(data).hex() == sha256_hex
    assert _ed25519_core._sha512(data).hex() == sha512_hex


# either side of the longest message whose padding fits one block (55 bytes
# for SHA-256, 111 for SHA-512) and of one whole block (64 and 128 bytes)
@pytest.mark.parametrize("length", [55, 56, 63, 64, 111, 112, 127, 128])
def test_padding_boundaries(length):
    assert_matches_hashlib(bytes(i % 251 for i in range(length)))


@settings(max_examples=60, deadline=None)
@given(data=st.binary(max_size=4096))
def test_matches_hashlib(data):
    assert_matches_hashlib(data)
