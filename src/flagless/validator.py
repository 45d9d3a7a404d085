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
from .competition import (
    ChallengeDescriptor,
    CompetitionState,
    ScoreboardRow,
    SubmissionRecord,
    TeamRecord,
    _SUBMISSION_PATH_RE,
    _TEAM_PATH_RE,
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
    into the state; a scoreboard read sorts the running totals and a
    challenge read lists the decoded descriptors, so neither scans the
    chain nor copies the state.

    A host made by `open` is the only writer of its ledger file: it holds
    an exclusive lock on the file until `close`, and appends each entry as
    one canonical line, fsynced before `apply` or `apply_organizer`
    returns it.  An entry whose write fails joins neither the chain nor
    the state.  Hosts made from a chain alone live in memory.
    """

    def __init__(self, chain: list[LedgerEntry]):
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
                chain = ledger.load_chain(fh.read())
                size = fh.tell()
            host = cls(chain)
        except BaseException:
            os.close(fd)
            raise
        host._fd, host._size = fd, size
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
        if self._fd is not None:
            try:
                line = ledger.dump_entry(entry) + b"\n"
                written = 0
                while written < len(line):
                    written += os.write(self._fd, line[written:])
                os.fsync(self._fd)
            except BaseException:
                self._chain.pop()
                os.ftruncate(self._fd, self._size)
                raise
            self._size += len(line)
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
        return ledger.dump_chain(self.chain)

    def scoreboard(self) -> list[ScoreboardRow]:
        with self._lock:
            return self._state.scoreboard()

    def challenges(self) -> list[ChallengeDescriptor]:
        with self._lock:
            return list(self._state.challenges().values())
