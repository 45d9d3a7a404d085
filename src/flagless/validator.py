"""Gatekeeper for team-originated changesets.

Plays the role of the continuous-integration hook that merges or denies
pull requests: a changeset is accepted only if it is exactly one team
registration or exactly one proof submission, checked against the current
replayed state.  Validation needs no privileged information whatsoever —
an independent auditor running the same rules over a replica must reach
the same verdicts, and the test suite holds us to that.

Possession of a valid proof is the only authentication there is.  Nobody
needs an account to submit for team t, because only holders of t's
signing key can produce the inner signature layer.
"""

from __future__ import annotations

import enum
import fcntl
import os
import threading
import time
from dataclasses import dataclass

from . import competition, ledger, sigproof
from .canonical import canonical_bytes, to_hex
from .competition import (
    ChallengeDescriptor,
    CompetitionState,
    ScoreboardRow,
    SubmissionRecord,
    TeamRecord,
    _SUBMISSION_PATH_RE,
    _TEAM_PATH_RE,
    audit_entry,
    scoreboard_bytes,
    slugify,
)
from .ledger import Changeset, LedgerEntry, LedgerState


class ReasonCode(enum.Enum):
    IMMUTABLE_PATH = "a committed path can never be rewritten"
    BAD_PATH = "path is outside the shapes teams may write"
    UNKNOWN_CHALLENGE = "no such challenge in the ledger state"
    UNKNOWN_TEAM = "no such team in the ledger state"
    INVALID_PROOF = "proof does not verify for this team and challenge"
    DUPLICATE_SUBMISSION = "this team already solved this challenge"
    DUPLICATE_TEAM = "team id or public key already registered"
    MALFORMED_RECORD = "record does not parse or contradicts its path"
    MIXED_CONCERNS = "one changeset must carry exactly one action"


@dataclass(frozen=True, slots=True)
class ValidationVerdict:
    accepted: bool
    code: ReasonCode | None = None
    message: str = ""

    def __bool__(self) -> bool:
        return self.accepted

    @classmethod
    def accept(cls) -> "ValidationVerdict":
        return cls(accepted=True)

    @classmethod
    def reject(cls, code: ReasonCode, message: str = "") -> "ValidationVerdict":
        return cls(accepted=False, code=code, message=message or code.value)


ACCEPT = ValidationVerdict.accept()

_CLOSED = -1  # CompetitionHost._fd once close() has run


def _validate_registration(
    state: CompetitionState, content: bytes, team_id: str
) -> ValidationVerdict:
    try:
        record = TeamRecord.from_json_dict(competition._parse_json(content))
    except ValueError as exc:
        return ValidationVerdict.reject(ReasonCode.MALFORMED_RECORD, str(exc))
    if record.id != team_id:
        return ValidationVerdict.reject(
            ReasonCode.MALFORMED_RECORD, f"record id {record.id!r} does not match path"
        )
    if record.id != slugify(record.name):
        return ValidationVerdict.reject(
            ReasonCode.MALFORMED_RECORD,
            f"id {record.id!r} is not the slug of name {record.name!r}",
        )
    existing = state.team_with_key(record.public_key)
    if existing is not None:
        return ValidationVerdict.reject(
            ReasonCode.DUPLICATE_TEAM,
            f"public key already registered to {existing.id!r}",
        )
    return ACCEPT


def _validate_submission(
    state: CompetitionState, content: bytes, team_id: str, challenge_id: str
) -> ValidationVerdict:
    team = state.team(team_id)
    if team is None:
        return ValidationVerdict.reject(ReasonCode.UNKNOWN_TEAM, f"team {team_id!r}")
    challenge = state.challenge(challenge_id)
    if challenge is None:
        return ValidationVerdict.reject(
            ReasonCode.UNKNOWN_CHALLENGE, f"challenge {challenge_id!r}"
        )
    try:
        record = SubmissionRecord.from_json_dict(competition._parse_json(content))
    except ValueError as exc:
        return ValidationVerdict.reject(ReasonCode.MALFORMED_RECORD, str(exc))
    if record.team_id != team_id or record.challenge_id != challenge_id:
        return ValidationVerdict.reject(
            ReasonCode.MALFORMED_RECORD, "record ids do not match the path"
        )
    if not sigproof.verify_proof(
        team.public_key,
        challenge.public_key,
        challenge_id.encode("ascii"),
        record.proof,
    ):
        return ValidationVerdict.reject(ReasonCode.INVALID_PROOF)
    return ACCEPT


def validate_changeset(state: CompetitionState, changeset: Changeset) -> ValidationVerdict:
    """Decide whether a team-originated changeset may be appended to the
    chain that `state` folds.  Costs two signature verifies for a
    submission and one point decompression for a registration, plus one
    the first time a team or challenge record is looked up.

    Every outcome is a verdict; nothing here raises on untrusted input.
    """
    classified: list[tuple[str, tuple]] = []
    for change in changeset.changes:
        team_match = _TEAM_PATH_RE.match(change.path)
        sub_match = _SUBMISSION_PATH_RE.match(change.path)
        if change.path in state:
            if sub_match:
                return ValidationVerdict.reject(
                    ReasonCode.DUPLICATE_SUBMISSION,
                    f"{sub_match.group(1)!r} already solved {sub_match.group(2)!r}",
                )
            if team_match:
                return ValidationVerdict.reject(
                    ReasonCode.DUPLICATE_TEAM,
                    f"team {team_match.group(1)!r} already registered",
                )
            return ValidationVerdict.reject(
                ReasonCode.IMMUTABLE_PATH, f"{change.path!r} is already committed"
            )
        if team_match:
            classified.append(("registration", (change, team_match.group(1))))
        elif sub_match:
            classified.append(
                ("submission", (change, sub_match.group(1), sub_match.group(2)))
            )
        else:
            return ValidationVerdict.reject(
                ReasonCode.BAD_PATH, f"{change.path!r} is not a team-writable path"
            )
    if len(classified) != 1:
        return ValidationVerdict.reject(
            ReasonCode.MIXED_CONCERNS,
            f"changeset carries {len(classified)} actions, expected 1",
        )
    kind, payload = classified[0]
    if kind == "registration":
        change, team_id = payload
        return _validate_registration(state, change.content, team_id)
    change, team_id, challenge_id = payload
    return _validate_submission(state, change.content, team_id, challenge_id)


class CompetitionHost:
    """Owns a ledger's canonical bytes and its folded state, and
    serializes every append.  It keeps no parsed chain: `chain` and
    `snapshot` parse the bytes it holds.

    The host refuses any entry that breaks a rule of
    `competition.audit_entry`: the chain, genesis and organizer rules.
    Loading a chain, or a ledger file, raises `ChainError` at its first
    finding, and at an empty ledger; an append whose entry has a finding
    raises `ChainError` and writes nothing.  Team entries are validated
    when `apply` appends them but not again at load, which would cost
    about as much as an audit: `audit_all` (the `flagless audit` command)
    is the check for a ledger from an untrusted source.

    All reads and appends take one lock.  An append builds the next entry
    on the state's head, folds it into the state and adds its canonical
    line to the ledger bytes the host holds, so `ledger_bytes` returns the
    NDJSON ledger without serializing it again.  The scoreboard, challenge
    and head bodies are each built on their first read after an append
    and then kept until the next one; every read returns an immutable
    `bytes`, so a caller writes it out without holding the lock.

    A host made by `open` is the only writer of its ledger file: it holds
    an exclusive lock on the file until `close`, and appends each entry as
    one canonical line, fsynced before `apply` or `apply_organizer`
    returns it.  An entry whose write fails joins neither the held bytes
    nor the state, and is cut back out of the file; if that cut fails too,
    the host closes the file and refuses every later append, as after
    `close`.  Hosts made by `load` or from a chain live in memory.
    """

    def __init__(self, chain: list[LedgerEntry], *, _data: bytes | None = None):
        self._lock = threading.Lock()
        self._state = CompetitionState()
        for entry in chain:
            self._check(entry)
            self._state.fold(entry)
        if self._state.head is None:
            raise ledger.ChainError("the ledger has no genesis entry")
        self._fd: int | None = None  # the ledger file's descriptor, if any
        self._size = 0  # bytes of the file the held ledger accounts for
        # dump_chain(chain) in pieces: the ledger as loaded, then one line
        # per append.  Joined only when read, so an append never copies
        # the whole ledger.
        self._chunks = [ledger.dump_chain(chain) if _data is None else _data]
        self._bodies: dict[str, bytes] = {}  # read bodies built since the last append

    @classmethod
    def load(cls, data: bytes) -> "CompetitionHost":
        """In-memory host of the NDJSON ledger `data`.  `load_chain` proves
        every line canonical, so `data` is kept and served as it is."""
        return cls(ledger.load_chain(data), _data=data)

    @classmethod
    def open(cls, path: str) -> "CompetitionHost":
        """Host the ledger file at `path` until `close` (or the end of a
        `with` block).  Raises `BlockingIOError` when another host holds
        the file, `ChainError` when it does not load or verify."""
        fd = os.open(path, os.O_RDWR | os.O_APPEND)
        try:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError as exc:
                raise BlockingIOError(exc.errno, "another process holds the ledger", path) from None
            with open(fd, "rb", closefd=False) as fh:
                data = fh.read()
            host = cls.load(data)
        except BaseException:
            os.close(fd)
            raise
        host._fd, host._size = fd, len(data)
        return host

    def close(self) -> None:
        """Release the ledger file; appends after this raise ValueError."""
        with self._lock:
            if self._fd not in (None, _CLOSED):
                os.close(self._fd)
            self._fd = _CLOSED

    def __enter__(self) -> "CompetitionHost":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check(self, entry: LedgerEntry) -> None:
        """Raise `ChainError` at `entry`'s first `audit_entry` finding."""
        if findings := audit_entry(self._state, entry):
            raise ledger.ChainError("entry {0.index}: {0.code}: {0.message}".format(findings[0]))

    def _append(
        self, changeset: Changeset, timestamp: int | None, org_secret: bytes | None = None
    ) -> LedgerEntry:
        """Build the entry after the head, check it, write it to the file
        if there is one, then fold it."""
        if self._fd == _CLOSED:
            raise ValueError("the competition host is closed")
        head = self._state.head
        if timestamp is None:
            timestamp = int(time.time())
        entry = ledger.make_entry(head.index + 1, timestamp, head.hash, changeset, org_secret)
        self._check(entry)
        line = ledger.dump_entry(entry) + b"\n"
        if self._fd is not None:
            try:
                written = 0
                while written < len(line):
                    written += os.write(self._fd, line[written:])
                os.fsync(self._fd)
            except BaseException:
                try:
                    os.ftruncate(self._fd, self._size)
                except OSError:
                    # The file may still end in this line, and the next
                    # entry must not land behind it.
                    fd, self._fd = self._fd, _CLOSED
                    os.close(fd)
                raise
            self._size += len(line)
        self._chunks.append(line)
        self._bodies.clear()
        self._state.fold(entry)
        return entry

    @classmethod
    def bootstrap(
        cls,
        organizer_public: bytes,
        competition_meta: bytes,
        timestamp: int | None = None,
    ) -> "CompetitionHost":
        entry = ledger.genesis(
            organizer_public, competition_meta, int(time.time()) if timestamp is None else timestamp
        )
        return cls([entry])

    def apply(
        self, changeset: Changeset, timestamp: int | None = None
    ) -> LedgerEntry | ValidationVerdict:
        """Team-originated append: validate, then extend atomically."""
        with self._lock:
            verdict = validate_changeset(self._state, changeset)
            if not verdict:
                return verdict
            return self._append(changeset, timestamp)

    def apply_organizer(
        self,
        changeset: Changeset,
        org_secret: bytes,
        timestamp: int | None = None,
    ) -> LedgerEntry:
        """Privileged append (challenge releases and the like), signed so
        auditors can tell it apart from team traffic."""
        with self._lock:
            return self._append(changeset, timestamp, org_secret)

    def snapshot(self) -> tuple[list[LedgerEntry], LedgerState]:
        """The chain and a copy of its files, taken at one instant.  The
        chain is parsed from the held bytes, but for its last entry: the
        state's head, which is the entry the last append returned.  Nothing
        in the package calls it: the tests read it, and the benchmark's
        traced run wraps it."""
        with self._lock:
            data, head, files = b"".join(self._chunks), self._state.head, dict(self._state.files)
        return ledger.load_chain(data)[:-1] + [head], LedgerState(files=files)

    @property
    def chain(self) -> list[LedgerEntry]:
        """`snapshot`'s chain."""
        return self.snapshot()[0]

    def ledger_bytes(self) -> bytes:
        """The ledger as canonical NDJSON: for a file host, the file's bytes."""
        with self._lock:
            if len(self._chunks) > 1:
                self._chunks = [b"".join(self._chunks)]
            return self._chunks[0]

    def _body(self, name: str, build) -> bytes:
        with self._lock:
            body = self._bodies.get(name)
            if body is None:
                body = self._bodies[name] = build()
            return body

    def head_body(self) -> bytes:
        """Canonical JSON `{"hash": <hex>, "index": <int>}` of the head."""
        return self._body(
            "head",
            lambda: canonical_bytes(
                {"hash": to_hex(self._state.head.hash), "index": self._state.head.index}
            ),
        )

    def scoreboard_body(self) -> bytes:
        """`scoreboard_bytes` of the current scoreboard."""
        return self._body("scoreboard", lambda: scoreboard_bytes(self._state.scoreboard()))

    def challenges_body(self) -> bytes:
        """Canonical JSON list of the released challenge descriptors."""
        return self._body(
            "challenges",
            lambda: canonical_bytes(
                [d.to_json_dict() for d in self._state.challenges().values()]
            ),
        )

    def scoreboard(self) -> list[ScoreboardRow]:
        with self._lock:
            return self._state.scoreboard()

    def challenges(self) -> list[ChallengeDescriptor]:
        with self._lock:
            return list(self._state.challenges().values())
