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
    """Owns a chain and its folded state, and serializes every append.

    All reads and appends take one lock.  An append folds its new entry
    into the state and adds its canonical line to the ledger bytes the
    host holds, so `ledger_bytes` returns the NDJSON ledger without
    serializing it again.  The scoreboard, challenge and head bodies are
    each built on their first read after an append and then kept until
    the next one; every read returns an immutable `bytes`, so a caller
    writes it out without holding the lock.

    A host made by `open` is the only writer of its ledger file: it holds
    an exclusive lock on the file until `close`, and appends each entry as
    one canonical line, fsynced before `apply` or `apply_organizer`
    returns it.  An entry whose write fails joins neither the chain nor
    the state.  Hosts made by `load` or from a chain live in memory.
    """

    def __init__(self, chain: list[LedgerEntry], *, _data: bytes | None = None):
        verdict = ledger.verify_chain(chain)
        if not verdict:
            raise ledger.ChainError(
                f"chain fails verification at {verdict.index}: {verdict.reason}"
            )
        self._lock = threading.Lock()
        self._chain = list(chain)
        self._state = CompetitionState.from_chain(self._chain)
        self._fd: int | None = None  # the ledger file's descriptor, if any
        self._size = 0  # bytes of the file the chain accounts for
        # dump_chain(chain) in pieces: the ledger as loaded, then one line
        # per append.  Joined only when read, so an append never copies
        # the whole ledger.
        self._chunks = [ledger.dump_chain(self._chain) if _data is None else _data]
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

    def _append(
        self, changeset: Changeset, timestamp: int | None, org_secret: bytes | None = None
    ) -> LedgerEntry:
        """Extend the chain, and the file if there is one, then fold."""
        if self._fd == _CLOSED:
            raise ValueError("the competition host is closed")
        entry = ledger.append(self._chain, changeset, timestamp, org_secret=org_secret)
        line = ledger.dump_entry(entry) + b"\n"
        if self._fd is not None:
            try:
                written = 0
                while written < len(line):
                    written += os.write(self._fd, line[written:])
                os.fsync(self._fd)
            except BaseException:
                self._chain.pop()
                os.ftruncate(self._fd, self._size)
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
        """Copies of the chain and of its files, taken at one instant."""
        with self._lock:
            return list(self._chain), LedgerState(files=dict(self._state.files))

    @property
    def chain(self) -> list[LedgerEntry]:
        with self._lock:
            return list(self._chain)

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
                {"hash": to_hex(self._chain[-1].hash), "index": self._chain[-1].index}
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
