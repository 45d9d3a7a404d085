"""The JSON form of the package's records: the README's record shapes,
rendered from each record's `_json` table, and which message a record
with several faults is refused with."""

from __future__ import annotations

from pathlib import Path
from random import Random

import pytest

from flagless import competition, ledger
from flagless.canonical import B64, HEX, Record, parse_json, to_b64
from flagless.competition import (
    AuditFinding,
    ChallengeDescriptor,
    SubmissionRecord,
    TeamRecord,
    build_submission,
    new_challenge,
    register_team,
)
from flagless.ledger import Changeset, FileChange, LedgerEntry
from flagless.sigproof import KdfParams, keypair_from_seed

from test_records import SAMPLES

README = Path(__file__).resolve().parents[1] / "README.md"

_DESCRIPTOR = new_challenge("warmup", "flag{x}", "Warm-up", 100, KdfParams.test(), rng=Random(1))
_TEAM, _SECRET, _ = register_team("Alpha", rng=Random(2))
_SUBMISSION, _SOLVE = build_submission(_SECRET, _DESCRIPTOR, "flag{x}")
_GENESIS = ledger.genesis(keypair_from_seed(bytes(32)).public, b"{}", 0)
_ENTRY = parse_json(ledger.dump_entry(ledger.append([_GENESIS], _SOLVE, 1)))
_ORG_ENTRY = parse_json(ledger.dump_entry(_GENESIS))

descriptor = _DESCRIPTOR.to_json_dict()
team = _TEAM.to_json_dict()
submission = _SUBMISSION.to_json_dict()
changeset = _SOLVE.to_json_dict()
change = changeset["changes"][0]
kdf = descriptor["kdf"]
bad_hex = "AB" * 16

# (class, JSON object with one or more faults, the message it is refused with)
FAULTS = [
    (ChallengeDescriptor, {**descriptor, "categories": "misc", "salt": "zz"},
     "categories must be a list"),
    (ChallengeDescriptor, {**descriptor, "salt": bad_hex, "public_key": "zz"},
     f"not canonical lowercase hex: {bad_hex!r}"),
    (ChallengeDescriptor, {**descriptor, "id": "Bad Id", "kdf": {**kdf, "cost_n": 3}},
     "cost_n must be a power of two >= 2"),
    (ChallengeDescriptor, {**descriptor, "points": 0, "categories": [1]},
     "points must be a positive integer"),
    (ChallengeDescriptor, {**descriptor, "extra": 1, "salt": "zz"},
     "malformed challenge descriptor"),
    (ChallengeDescriptor, {**descriptor, "id": "Bad Id", "points": 0},
     "challenge id is not a valid slug: 'Bad Id'"),
    (ChallengeDescriptor, {**descriptor, "salt": "00" * 15, "title": 1},
     "salt must be 16 bytes"),
    (ChallengeDescriptor, {**descriptor, "title": 1, "categories": [1]},
     "title and description must be strings"),
    (ChallengeDescriptor, {**descriptor, "categories": ["misc", 1]},
     "categories must be strings"),
    (LedgerEntry, {**_ENTRY, "prev_hash": bad_hex, "changeset": {"author": "x"}},
     f"not canonical lowercase hex: {bad_hex!r}"),
    (LedgerEntry, {**_ENTRY, "index": -1, "hash": "zz"},
     "not canonical lowercase hex: 'zz'"),
    (LedgerEntry, {**_ENTRY, "changeset": {"author": "x"}, "org_sig": "zz"},
     "malformed changeset record"),
    (LedgerEntry, {**_ORG_ENTRY, "org_sig": "zz", "hash": bad_hex},
     "not canonical lowercase hex: 'zz'"),
    (LedgerEntry, {**_ENTRY, "timestamp": -1, "org_sig": "00" * 63},
     "timestamp must be non-negative UTC seconds"),
    (LedgerEntry, {**_ENTRY, "prev_hash": "00" * 31, "org_sig": "00" * 63},
     "hashes must be 32 bytes"),
    (LedgerEntry, {**_ORG_ENTRY, "org_sig": "00" * 63},
     "organizer signature must be 64 bytes"),
    (Changeset, {**changeset, "changes": [{"content": "!!", "path": "../a"}]},
     "invalid base64: '!!'"),
    (Changeset, {**changeset, "changes": [{**change, "path": "../a"}, {"content": "!!"}]},
     "path traversal not allowed: '../a'"),
    (Changeset, {"author": 1, "changes": {"path": "../a"}},
     "changeset changes must be a list"),
    (Changeset, {"author": 1, "changes": []},
     "changeset must contain at least one change"),
    (Changeset, {"author": 1, "changes": [change, change]},
     "changeset paths must be distinct"),
    (Changeset, {**changeset, "changes": [{**change, "extra": 1}], "extra": 1},
     "malformed changeset record"),
    (Changeset, {**changeset, "author": 1},
     "author must be a string"),
    (Changeset, {**changeset, "changes": [{**change, "content": 7}], "author": 1},
     "base64 value must be a string"),
    (KdfParams, {**kdf, "cost_n": "16", "out_len": 16},
     "KDF parameters must be integers"),
    (KdfParams, {**kdf, "cost_n": 3, "out_len": 16},
     "out_len must be 32"),
    (KdfParams, {**kdf, "cost_n": 3, "block_r": 0},
     "cost_n must be a power of two >= 2"),
    (KdfParams, {**kdf, "cost_n": 1 << 30, "block_r": 0},
     "block_r and parallel_p must be >= 1"),
    (KdfParams, {**kdf, "cost_n": 1 << 30},
     "cost parameters exceed the supported memory budget"),
    (TeamRecord, {**team, "id": "Bad Id", "public_key": bad_hex},
     f"not canonical lowercase hex: {bad_hex!r}"),
    (TeamRecord, {**team, "name": "", "public_key": "00" * 31},
     "team name must be 1-64 characters"),
    (TeamRecord, {**team, "id": "Bad Id", "public_key": "00" * 31},
     "team id is not a valid slug: 'Bad Id'"),
    (TeamRecord, {**team, "name": "Alpha\x07", "public_key": "00" * 31},
     "team name must be printable"),
    (SubmissionRecord, {**submission, "team_id": "Bad Id", "proof": "!!"},
     "invalid base64: '!!'"),
    (SubmissionRecord, {**submission, "team_id": "Bad Id", "proof": to_b64(bytes(64))},
     "proof shorter than two signatures"),
    (SubmissionRecord, {**submission, "challenge_id": 1, "extra": 1},
     "malformed submission record"),
    (SubmissionRecord, {**submission, "team_id": 1, "challenge_id": "Bad Id"},
     "submission ids must be valid slugs"),
]


@pytest.mark.parametrize(
    "cls, obj, message", FAULTS, ids=[f"{cls.__name__}-{i}" for i, (cls, _, _) in enumerate(FAULTS)]
)
def test_a_record_with_several_faults_is_refused_for_the_first(cls, obj, message):
    with pytest.raises(ValueError) as caught:
        cls.from_json_dict(obj)
    assert str(caught.value) == message


def _shape(value, codec) -> str:
    """How the README words the JSON of `value`, a field held with `codec`."""
    named = (
        (HEX, "hex"),
        (B64, "base64"),
        (ledger._ORG_SIG, "hex, or null"),
        (competition._PROOF, "base64 of the proof's bytes"),
    )
    for known, words in named:
        if codec is known:
            return words
    if isinstance(value, tuple):
        return f"list of {_shape(value[0], None)}s"
    if isinstance(value, Record):
        return f"`{type(value).__name__}` object"
    return {int: "integer", str: "string"}[type(value)]


def render_record_shapes() -> str:
    """The README's table of each JSON record's keys, in the order of its
    `_json` table, and their values."""
    blocks = []
    for cls in (cls for cls in SAMPLES if "_json" in vars(cls)):
        record = cls(**SAMPLES[cls][0])
        rows = [
            f"| `{key}` | {_shape(getattr(record, key), codec)} |"
            for key, codec in cls._json.items()
        ]
        blocks.append("\n".join([f"### `{cls.__name__}`", "", "| key | value |", "|---|---|", *rows]))
    return "\n\n".join(blocks) + "\n"


def test_the_json_records_are_the_tabled_ones():
    tabled = {cls for cls in SAMPLES if "_json" in vars(cls)}
    assert tabled == {
        FileChange, Changeset, LedgerEntry, KdfParams, ChallengeDescriptor, TeamRecord,
        SubmissionRecord, AuditFinding,
    }


def test_the_readme_states_each_record_shape_as_its_table_does():
    section = README.read_text().split("\n## Record shapes\n", 1)[1].split("\n## ", 1)[0]
    assert section[section.index("\n### ") + 1 :] == render_record_shapes()
