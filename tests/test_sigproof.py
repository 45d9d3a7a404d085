"""Proof scheme behavior: framing, completeness, binding, KDF conformance."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagless import ed25519
from flagless.competition import SubmissionRecord
from flagless.sigproof import (
    KdfParams,
    Proof,
    derive_challenge_keys,
    keypair_from_seed,
    normalize_flag,
    prove,
    scrypt_kdf,
    verify_proof,
)

# RFC 7914 section 12: (password, salt, N, r, p, dkLen, output)
RFC7914_VECTORS = [
    (
        b"",
        b"",
        16,
        1,
        1,
        64,
        "77d6576238657b203b19ca42c18a0497f16b4844e3074ae8dfdffa3fede21442"
        "fcd0069ded0948f8326a753a0fc81f17e8d3e0fb2e0d3628cf35e20c38d18906",
    ),
    (
        b"password",
        b"NaCl",
        1024,
        8,
        16,
        64,
        "fdbabe1c9d3472007856e7190d01e9fe7c6ad7cbc8237830e77376634b373162"
        "2eaf30d92e22a3886ff109279d9830dac727afb94a83ee6d8360cbdfa2cc0640",
    ),
    (
        b"pleaseletmein",
        b"SodiumChloride",
        16384,
        8,
        1,
        64,
        "7023bdcb3afd7348461c06cd81fd38ebfda8fbba904f8e3ea9b543f6545da1f2"
        "d5432955613f0fcf62d49705242a9af9e61e85dc0d651e40dfcf017b45575887",
    ),
]

RFC7914_VECTOR_HIGH_COST = (
    b"pleaseletmein",
    b"SodiumChloride",
    1048576,
    8,
    1,
    64,
    "2101cb9b6a511aaeaddbbe09cf70f881ec568d574a2ffd4dabe5ee9820adaa47"
    "8e56fd8f4ba5d09ffa1c6d927c40f4c337304049e8a952fbcbf45c6fa77a41a4",
)


@pytest.mark.parametrize("password,salt,n,r,p,dklen,expected", RFC7914_VECTORS)
def test_rfc7914_vectors(password, salt, n, r, p, dklen, expected):
    assert scrypt_kdf(password, salt, n, r, p, dklen).hex() == expected


@pytest.mark.slow
def test_rfc7914_high_cost_vector():
    # ~1 GiB of scratch memory and >10s; the other vectors cover the fast path
    password, salt, n, r, p, dklen, expected = RFC7914_VECTOR_HIGH_COST
    assert scrypt_kdf(password, salt, n, r, p, dklen).hex() == expected


class TestKeyDerivation:
    def test_deterministic(self, rng):
        seed = rng.randbytes(32)
        assert keypair_from_seed(seed) == keypair_from_seed(seed)

    def test_one_bit_seeds_differ(self, rng):
        seed = bytearray(rng.randbytes(32))
        other = bytearray(seed)
        other[7] ^= 1
        assert keypair_from_seed(bytes(seed)).public != keypair_from_seed(bytes(other)).public

    def test_bad_seed_length(self):
        with pytest.raises(ValueError):
            keypair_from_seed(b"\x00" * 31)

    def test_flag_derivation_deterministic(self, rng):
        salt = rng.randbytes(16)
        params = KdfParams.test()
        a = derive_challenge_keys("CTF-BR{x}", salt, params)
        b = derive_challenge_keys("CTF-BR{x}", salt, params)
        assert a == b

    def test_distinct_flags_distinct_keys(self, rng):
        salt = rng.randbytes(16)
        params = KdfParams.test()
        a = derive_challenge_keys("CTF-BR{a}", salt, params)
        b = derive_challenge_keys("CTF-BR{b}", salt, params)
        assert a.public != b.public

    def test_distinct_salts_distinct_keys(self, rng):
        params = KdfParams.test()
        a = derive_challenge_keys("CTF-BR{a}", rng.randbytes(16), params)
        b = derive_challenge_keys("CTF-BR{a}", rng.randbytes(16), params)
        assert a.public != b.public

    def test_empty_flag_rejected(self, rng):
        with pytest.raises(ValueError):
            derive_challenge_keys("  \t\n ", rng.randbytes(16), KdfParams.test())

    def test_salt_length_enforced(self):
        with pytest.raises(ValueError):
            derive_challenge_keys("CTF{x}", b"short", KdfParams.test())


class TestKdfParams:
    @pytest.mark.parametrize("cost", [0, 1, 3, 48])
    def test_cost_must_be_power_of_two(self, cost):
        with pytest.raises(ValueError):
            KdfParams(cost_n=cost)

    def test_out_len_pinned_to_seed(self):
        with pytest.raises(ValueError, match="out_len"):
            KdfParams.from_json_dict({**KdfParams.test().to_json_dict(), "out_len": 64})

    def test_round_trip(self):
        params = KdfParams.competition()
        assert KdfParams.from_json_dict(params.to_json_dict()) == params

    def test_rejects_unknown_fields(self):
        obj = KdfParams.test().to_json_dict()
        obj["extra"] = 1
        with pytest.raises(ValueError):
            KdfParams.from_json_dict(obj)

    def test_profiles(self):
        assert KdfParams.competition().cost_n == 2**15
        assert KdfParams.test().cost_n == 2**4


class TestNormalizeFlag:
    def test_strips_ascii_whitespace(self):
        assert normalize_flag("  CTF{x}\r\n") == b"CTF{x}"

    def test_no_case_folding(self):
        assert normalize_flag("CTF{X}") != normalize_flag("ctf{x}")

    def test_keeps_interior_whitespace_and_unicode(self):
        assert normalize_flag(" CTF{héllo world} ") == "CTF{héllo world}".encode()


class TestProofScheme:
    def _fresh(self, rng):
        team = keypair_from_seed(rng.randbytes(32))
        challenge = keypair_from_seed(rng.randbytes(32))
        return team, challenge

    def test_honest_round_trip(self, backend, rng):
        team, challenge = self._fresh(rng)
        proof = prove(team, challenge.secret, b"chal-1")
        assert verify_proof(team.public, challenge.public, b"chal-1", proof)

    def test_framing(self, rng):
        team, challenge = self._fresh(rng)
        challenge_id = b"some-challenge"
        proof = prove(team, challenge.secret, challenge_id)
        raw = proof.serialize()
        assert len(raw) == 128 + len(challenge_id)
        assert Proof.parse(raw) == proof
        record = SubmissionRecord(team_id="t", challenge_id="some-challenge", proof=proof)
        assert SubmissionRecord.from_json_dict(record.to_json_dict()).proof == proof

    def test_deterministic_proof(self, rng):
        team, challenge = self._fresh(rng)
        a = prove(team, challenge.secret, b"c")
        b = prove(team, challenge.secret, b"c")
        assert a.serialize() == b.serialize()

    def test_empty_challenge_id_rejected(self, rng):
        team, challenge = self._fresh(rng)
        with pytest.raises(ValueError):
            prove(team, challenge.secret, b"")

    @settings(max_examples=100, deadline=None)
    @given(
        team_seed=st.binary(min_size=32, max_size=32),
        challenge_seed=st.binary(min_size=32, max_size=32),
        challenge_id=st.binary(min_size=1, max_size=64),
    )
    def test_completeness_property(self, team_seed, challenge_seed, challenge_id):
        team = keypair_from_seed(team_seed)
        challenge = keypair_from_seed(challenge_seed)
        proof = prove(team, challenge.secret, challenge_id)
        assert verify_proof(team.public, challenge.public, challenge_id, proof)

    def test_soundness_surrogate(self, rng):
        # proofs built with the wrong secret on either layer never verify
        for _ in range(100):
            team, challenge = self._fresh(rng)
            imposter = keypair_from_seed(rng.randbytes(32))
            wrong_outer = prove(team, imposter.secret, b"c")
            assert not verify_proof(team.public, challenge.public, b"c", wrong_outer)
            wrong_inner = prove(imposter, challenge.secret, b"c")
            assert not verify_proof(team.public, challenge.public, b"c", wrong_inner)

    def test_team_binding(self, rng):
        team_a, challenge = self._fresh(rng)
        team_b = keypair_from_seed(rng.randbytes(32))
        proof = prove(team_a, challenge.secret, b"c")
        assert verify_proof(team_a.public, challenge.public, b"c", proof)
        assert not verify_proof(team_b.public, challenge.public, b"c", proof)

    def test_challenge_binding(self, rng):
        team, challenge = self._fresh(rng)
        proof = prove(team, challenge.secret, b"chal-1")
        assert not verify_proof(team.public, challenge.public, b"chal-2", proof)

    def test_malformed_proof_rejected_not_raised(self, rng):
        team, challenge = self._fresh(rng)
        for raw in (b"", b"\x00" * 127):
            with pytest.raises(ValueError):
                Proof.parse(raw)
        for raw in (b"\x00" * 128, b"\x00" * 129):
            assert not verify_proof(team.public, challenge.public, b"c", Proof.parse(raw))

    def test_fuzzed_proofs_rejected(self, rng):
        team, challenge = self._fresh(rng)
        for _ in range(100):
            blob = rng.randbytes(128 + rng.randrange(0, 32))
            assert not verify_proof(team.public, challenge.public, b"c", Proof.parse(blob))

    def test_proof_bytes_contain_no_secrets(self, rng):
        # the serialized proof is exactly two signatures plus the public id
        salt = rng.randbytes(16)
        params = KdfParams.test()
        flag = "CTF-BR{super_secret_flag}"
        challenge = derive_challenge_keys(flag, salt, params)
        team = keypair_from_seed(rng.randbytes(32))
        proof = prove(team, challenge.secret, b"chal-1")
        raw = proof.serialize()
        assert raw == proof.outer_sig + proof.inner_sig + b"chal-1"
        assert normalize_flag(flag) not in raw
        assert challenge.secret not in raw
        assert team.secret not in raw


def nested_open_verdict(team_public, challenge_public, challenge_id, raw: bytes) -> bool:
    """Oracle: the proof opened as nested attached signatures, as the
    scheme writes it.  The challenge key's layer is opened first and must
    hold `inner_sig || id`; opening the team key's layer must give the id."""
    if len(raw) < 128:
        return False
    outer_sig, inner = raw[:64], raw[64:]
    if not ed25519.verify(challenge_public, outer_sig, inner):
        return False
    inner_sig, message = inner[:64], inner[64:]
    if not ed25519.verify(team_public, inner_sig, message):
        return False
    return message == challenge_id


class TestProofMutations:
    """`verify_proof` checks two detached signatures; its verdict must be
    the nested opening's on honest proofs and on every mutation of them."""

    def _setup(self, rng):
        teams = [keypair_from_seed(rng.randbytes(32)) for _ in range(2)]
        challenge = keypair_from_seed(rng.randbytes(32))
        return teams, challenge

    def _agree(self, team_public, challenge_public, challenge_id, raw) -> bool:
        try:
            verdict = verify_proof(team_public, challenge_public, challenge_id, Proof.parse(raw))
        except ValueError:  # too short to hold two signatures
            verdict = False
        assert verdict == nested_open_verdict(team_public, challenge_public, challenge_id, raw)
        return verdict

    def test_every_byte_flip(self, backend, rng):
        (team, _), challenge = self._setup(rng)
        for challenge_id in (b"c", b"chal-07"):
            raw = prove(team, challenge.secret, challenge_id).serialize()
            assert self._agree(team.public, challenge.public, challenge_id, raw)
            for pos in range(len(raw)):
                flipped = bytearray(raw)
                flipped[pos] ^= 1 << (pos % 8)
                assert not self._agree(team.public, challenge.public, challenge_id, bytes(flipped))

    def test_truncations_and_extensions(self, rng):
        (team, _), challenge = self._setup(rng)
        raw = prove(team, challenge.secret, b"chal-07").serialize()
        for cut in range(len(raw)):
            assert not self._agree(team.public, challenge.public, b"chal-07", raw[:cut])
        for tail in (b"\x00", b"7", raw[:64]):
            assert not self._agree(team.public, challenge.public, b"chal-07", raw + tail)

    def test_another_teams_proof(self, backend, rng):
        (team, other), challenge = self._setup(rng)
        raw = prove(other, challenge.secret, b"chal-07").serialize()
        assert self._agree(other.public, challenge.public, b"chal-07", raw)
        assert not self._agree(team.public, challenge.public, b"chal-07", raw)

    def test_proof_for_another_challenge(self, backend, rng):
        (team, _), challenge = self._setup(rng)
        other = keypair_from_seed(rng.randbytes(32))
        raw = prove(team, other.secret, b"chal-08").serialize()
        assert not self._agree(team.public, challenge.public, b"chal-07", raw)
        assert not self._agree(team.public, other.public, b"chal-07", raw)
        assert not self._agree(team.public, challenge.public, b"chal-08", raw)
        assert self._agree(team.public, other.public, b"chal-08", raw)
