"""Value semantics of the package's records, the subclasses of
`canonical.Record`: equal exactly when of the same class with the same
fields, hashed alike when equal, shown as `Class(field=value, ...)`, and
neither assignable, deletable nor given a `__dict__`."""

import inspect

import pytest

from flagless.canonical import Record, canonical_bytes, parse_json
from flagless.competition import (
    AuditFinding,
    AuditReport,
    ChallengeDescriptor,
    ReasonCode,
    ScoreboardRow,
    SubmissionRecord,
    TeamRecord,
    TeamSecret,
    ValidationVerdict,
)
from flagless.ledger import ChainVerdict, Changeset, FileChange, LedgerEntry
from flagless.sigproof import KdfParams, KeyPair, Proof, keypair_from_seed

_KEYS = [keypair_from_seed(bytes([i]) * 32) for i in (1, 2)]
_CHANGES = [FileChange(path=f"meta/{i}", content=bytes([i])) for i in (1, 2)]
_PROOFS = [Proof(bytes([i]) * 64, bytes([i + 1]) * 64, b"chal-%d" % i) for i in (1, 2)]

# For each record class, two sets of constructor arguments, in parameter
# order, that differ in every field and mix into valid records.
SAMPLES = {
    FileChange: ({"path": "meta/a", "content": b"a"}, {"path": "meta/b", "content": b""}),
    Changeset: (
        {"changes": (_CHANGES[0],), "author": "organizer"},
        {"changes": tuple(_CHANGES), "author": "team-1"},
    ),
    LedgerEntry: (
        {"index": 0, "timestamp": 0, "prev_hash": bytes(32),
         "changeset": Changeset((_CHANGES[0],), "organizer"), "org_sig": None,
         "hash": b"\x01" * 32},
        {"index": 7, "timestamp": 9, "prev_hash": b"\x02" * 32,
         "changeset": Changeset((_CHANGES[1],), "team-1"), "org_sig": b"\x03" * 64,
         "hash": b"\x04" * 32},
    ),
    ChainVerdict: ({"ok": True, "index": None, "reason": None},
                   {"ok": False, "index": 3, "reason": "hash mismatch"}),
    KeyPair: ({"secret": _KEYS[0].secret, "public": _KEYS[0].public},
              {"secret": _KEYS[1].secret, "public": _KEYS[1].public}),
    KdfParams: ({"cost_n": 16, "block_r": 8, "parallel_p": 1},
                {"cost_n": 1024, "block_r": 1, "parallel_p": 2}),
    Proof: ({"outer_sig": b"\x01" * 64, "inner_sig": b"\x02" * 64, "challenge_id": b"a"},
            {"outer_sig": b"\x03" * 64, "inner_sig": b"\x04" * 64, "challenge_id": b""}),
    ChallengeDescriptor: (
        {"id": "warmup", "title": "Warm-up", "description": "easy", "categories": ("misc",),
         "points": 100, "salt": bytes(16), "public_key": _KEYS[0].public,
         "kdf": KdfParams.test()},
        {"id": "crypto-1", "title": "Crypto", "description": "", "categories": (),
         "points": 300, "salt": b"\x05" * 16, "public_key": _KEYS[1].public,
         "kdf": KdfParams.competition()},
    ),
    TeamRecord: ({"id": "alpha", "name": "Alpha", "public_key": _KEYS[0].public},
                 {"id": "beta", "name": "Beta team", "public_key": _KEYS[1].public}),
    TeamSecret: ({"team_id": "alpha", "seed": _KEYS[0].secret},
                 {"team_id": "beta", "seed": _KEYS[1].secret}),
    SubmissionRecord: (
        {"team_id": "alpha", "challenge_id": "warmup", "proof": _PROOFS[0]},
        {"team_id": "beta", "challenge_id": "crypto-1", "proof": _PROOFS[1]},
    ),
    AuditFinding: ({"index": 0, "code": "CHAIN", "message": "hash mismatch"},
                   {"index": 4, "code": "ORG_SCOPE", "message": "privileged entry"}),
    AuditReport: (
        {"findings": [], "scoreboard": [], "entries": 1},
        {"findings": [AuditFinding(2, "CHAIN", "gap")],
         "scoreboard": [ScoreboardRow(1, "alpha", 100, 1, 3)], "entries": 5},
    ),
    ValidationVerdict: (
        {"code": ReasonCode.BAD_PATH, "message": "no"},
        {"code": ReasonCode.MIXED_CONCERNS, "message": "two"},
    ),
}

records = pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)


def test_the_samples_cover_every_record_class():
    package = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("flagless.")}
    assert package == set(SAMPLES)


@records
def test_fields_are_the_constructor_parameters_in_order(cls):
    first, second = SAMPLES[cls]
    assert tuple(inspect.signature(cls).parameters) == tuple(first) == tuple(second)
    assert all(first[name] != second[name] for name in first)
    assert cls(*first.values()) == cls(**first)
    assert all(getattr(cls(**first), name) == value for name, value in first.items())


@records
def test_equal_exactly_with_the_same_class_and_fields(cls):
    first, second = SAMPLES[cls]
    record = cls(**first)
    assert record == cls(**first) and not record != cls(**first)
    for name in first:
        other = cls(**{**first, name: second[name]})
        assert record != other and not record == other, name
    twin = type("Twin", (Record,), {"__slots__": cls.__slots__, "__init__": cls.__init__})
    assert twin(**first) == twin(**first)
    assert twin(**first) != record and record != twin(**first)
    assert record != tuple(first.values())


@records
def test_equal_records_hash_alike(cls):
    first, second = SAMPLES[cls]
    if cls is AuditReport:  # it holds lists, so it is unhashable as a tuple of them is
        with pytest.raises(TypeError):
            hash(cls(**first))
        return
    assert hash(cls(**first)) == hash(cls(**first))
    assert {cls(**first), cls(**first), cls(**second)} == {cls(**first), cls(**second)}
    assert len({cls(**first), cls(**second)}) == 2


@records
def test_repr_shows_the_class_and_every_field(cls):
    first, _ = SAMPLES[cls]
    fields = ", ".join(f"{name}={value!r}" for name, value in first.items())
    assert repr(cls(**first)) == f"{cls.__name__}({fields})"


@records
def test_fields_can_be_neither_set_nor_deleted(cls):
    first, second = SAMPLES[cls]
    record = cls(**first)
    for name in first:
        with pytest.raises(AttributeError):
            setattr(record, name, second[name])
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == first[name]
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")


def test_a_kept_preimage_is_no_field():
    first, _ = SAMPLES[LedgerEntry]
    fresh, serialized = LedgerEntry(**first), LedgerEntry(**first)
    assert serialized.preimage() == fresh.preimage() != b""
    fresh = LedgerEntry(**first)
    assert serialized._preimage is not None and fresh._preimage is None
    assert serialized == fresh and hash(serialized) == hash(fresh)
    assert repr(serialized) == repr(fresh) and "_preimage" not in repr(serialized)
    with pytest.raises(AttributeError):
        serialized._preimage = None


@pytest.mark.parametrize(
    "cls", [cls for cls in SAMPLES if "_json" in vars(cls)], ids=lambda cls: cls.__name__
)
def test_a_json_record_round_trips_through_its_table(cls):
    for fields in SAMPLES[cls]:
        record = cls(**fields)
        assert cls.from_json_dict(record.to_json_dict()) == record
        assert record.serialize() == canonical_bytes(record.to_json_dict())
        assert cls.from_json_dict(parse_json(record.serialize())) == record
