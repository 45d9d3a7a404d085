"""Keys and the nested-signature proof of solving.

The scheme in one breath: a challenge's flag is stretched through scrypt
with a public per-challenge salt, and the 32-byte output seeds a
deterministic Ed25519 key pair (sk_c, pk_c).  Only pk_c is published, so
holding sk_c is equivalent to knowing the flag.  A team proves it solved
challenge c by signing c's identifier with its team key and then signing
that signed message with the challenge key:

    proof = sign(challenge_secret, sign(team_secret, challenge_id))

A proof is stored as `outer_sig || inner_sig || challenge_id`: the inner
signature is the team key's over the identifier, the outer one the
challenge key's over `inner_sig || challenge_id`.  Anyone can verify it as
these two detached signatures, with the two public keys alone.  The proof
binds team and challenge together: it cannot be replayed by another team,
and it reveals nothing about the flag beyond the fact that someone derived
its key.
"""

from __future__ import annotations

from . import ed25519
from .canonical import Record, is_int, json_object

SEED_LEN = 32
SALT_LEN = 16
SIGNATURE_LEN = 64

ASCII_WHITESPACE = " \t\r\n\v\f"

# scrypt memory ceiling accepted by hashlib/OpenSSL
_MAXMEM_CAP = 2**31 - 1


class KeyPair(Record):
    """secret is the 32-byte signing seed; public the verification key."""

    __slots__ = ("secret", "public")

    def __init__(self, secret: bytes, public: bytes) -> None:
        if len(secret) != SEED_LEN or len(public) != SEED_LEN:
            raise ValueError("keys must be exactly 32 bytes each")
        Record.__init__(self, secret, public)


class KdfParams(Record, what="KDF parameter record"):
    """scrypt cost parameters recorded alongside every challenge.

    They travel with the challenge descriptor so that verifiers never have
    to guess how a flag was stretched.  cost_n is the CPU/memory cost (a
    power of two), block_r the block-size factor, parallel_p the
    parallelization factor; the record's out_len is always SEED_LEN.
    """

    _json = dict.fromkeys(("cost_n", "block_r", "parallel_p", "out_len"))
    __slots__ = ("cost_n", "block_r", "parallel_p")
    out_len = SEED_LEN

    def __init__(self, cost_n: int, block_r: int = 8, parallel_p: int = 1) -> None:
        if cost_n < 2 or cost_n & (cost_n - 1):
            raise ValueError("cost_n must be a power of two >= 2")
        if block_r < 1 or parallel_p < 1:
            raise ValueError("block_r and parallel_p must be >= 1")
        if _scrypt_maxmem(cost_n, block_r, parallel_p) > _MAXMEM_CAP:
            raise ValueError("cost parameters exceed the supported memory budget")
        Record.__init__(self, cost_n, block_r, parallel_p)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "KdfParams":
        json_object(obj, cls._json.keys(), cls._what)
        if not all(is_int(v) for v in obj.values()):
            raise ValueError("KDF parameters must be integers")
        if obj["out_len"] != SEED_LEN:
            raise ValueError(f"out_len must be {SEED_LEN}")
        return cls(obj["cost_n"], obj["block_r"], obj["parallel_p"])

    @classmethod
    def competition(cls) -> "KdfParams":
        """Production profile: slow enough to make offline flag search
        unattractive for the duration of an event."""
        return cls(cost_n=2**15)

    @classmethod
    def test(cls) -> "KdfParams":
        """Cheap profile for test suites and local experiments."""
        return cls(cost_n=2**4)


PROFILES = {"competition": KdfParams.competition, "test": KdfParams.test}


class Proof(Record):
    """Nested proof of solving: outer_sig || inner_sig || challenge_id.

    The inner signature is the team key over the challenge identifier; the
    outer signature is the challenge key over the whole inner layer.
    """

    __slots__ = ("outer_sig", "inner_sig", "challenge_id")

    def __init__(self, outer_sig: bytes, inner_sig: bytes, challenge_id: bytes) -> None:
        if len(outer_sig) != SIGNATURE_LEN or len(inner_sig) != SIGNATURE_LEN:
            raise ValueError("proof signatures must be exactly 64 bytes each")
        Record.__init__(self, outer_sig, inner_sig, challenge_id)

    def serialize(self) -> bytes:
        return self.outer_sig + self.inner_sig + self.challenge_id

    @classmethod
    def parse(cls, raw: bytes) -> "Proof":
        if len(raw) < 2 * SIGNATURE_LEN:
            raise ValueError("proof shorter than two signatures")
        return cls(
            outer_sig=raw[:SIGNATURE_LEN],
            inner_sig=raw[SIGNATURE_LEN : 2 * SIGNATURE_LEN],
            challenge_id=raw[2 * SIGNATURE_LEN :],
        )


def keypair_from_seed(seed: bytes) -> KeyPair:
    """Deterministic key pair for a 32-byte seed (the seed is the secret)."""
    if len(seed) != SEED_LEN:
        raise ValueError("seed must be exactly 32 bytes")
    return KeyPair(secret=seed, public=ed25519.public_key(seed))


def normalize_flag(flag: str) -> bytes:
    """Strip leading/trailing ASCII whitespace, encode UTF-8; no case folding."""
    return flag.strip(ASCII_WHITESPACE).encode("utf-8")


def _scrypt_maxmem(cost_n: int, block_r: int, parallel_p: int) -> int:
    """scrypt's working memory for these parameters, plus 1 MiB of headroom."""
    return 128 * block_r * (cost_n + parallel_p) + (1 << 20)


def scrypt_kdf(
    password: bytes,
    salt: bytes,
    cost_n: int,
    block_r: int,
    parallel_p: int,
    out_len: int,
) -> bytes:
    """Raw scrypt (RFC 7914 parameter semantics), no length conventions.

    Imports `hashlib`, and with it OpenSSL, on first use."""
    import hashlib  # on first use: `serve`, `audit` and verifies never load it

    return hashlib.scrypt(
        password,
        salt=salt,
        n=cost_n,
        r=block_r,
        p=parallel_p,
        maxmem=min(_scrypt_maxmem(cost_n, block_r, parallel_p), _MAXMEM_CAP),
        dklen=out_len,
    )


def scrypt_seed(flag_bytes: bytes, salt: bytes, params: KdfParams) -> bytes:
    if len(salt) != SALT_LEN:
        raise ValueError(f"salt must be exactly {SALT_LEN} bytes")
    return scrypt_kdf(
        flag_bytes,
        salt,
        params.cost_n,
        params.block_r,
        params.parallel_p,
        SEED_LEN,
    )


def derive_challenge_keys(flag: str, salt: bytes, params: KdfParams) -> KeyPair:
    """Stretch the flag into the challenge key pair (deterministic)."""
    flag_bytes = normalize_flag(flag)
    if not flag_bytes:
        raise ValueError("flag is empty after normalization")
    return keypair_from_seed(scrypt_seed(flag_bytes, salt, params))


def prove(team: KeyPair, challenge_secret: bytes, challenge_id: bytes) -> Proof:
    """Build the nested proof that this team solved this challenge.  Only
    `team.secret` signs: `ed25519.sign` derives each public key itself."""
    if not challenge_id:
        raise ValueError("challenge_id must not be empty")
    inner_sig = ed25519.sign(team.secret, challenge_id)
    outer_sig = ed25519.sign(challenge_secret, inner_sig + challenge_id)
    return Proof(outer_sig=outer_sig, inner_sig=inner_sig, challenge_id=challenge_id)


def verify_proof(
    team_public: bytes,
    challenge_public: bytes,
    challenge_id: bytes,
    proof: Proof,
) -> bool:
    """Accept iff the proof is for challenge_id, the team key signed it, and
    the challenge key signed that signature and the identifier.

    Needs only public values, and never raises on a `Proof`: bytes too
    short for two signatures never become one (`Proof.parse` raises).  The
    team layer is checked first, so a proof taken from another team fails
    at its first verify.
    """
    return (
        proof.challenge_id == challenge_id
        and ed25519.verify(team_public, proof.inner_sig, challenge_id)
        and ed25519.verify(challenge_public, proof.outer_sig, proof.inner_sig + challenge_id)
    )
