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
            entry = ledger.append(self._chain, changeset, timestamp)
            self._state.fold(entry)
            return entry

    def apply_organizer(
        self,
        changeset: Changeset,
        org_secret: bytes,
        timestamp: int | None = None,
    ) -> LedgerEntry:
        """Privileged append (challenge releases and the like), signed so
        auditors can tell it apart from team traffic."""
        with self._lock:
            entry = ledger.append(self._chain, changeset, timestamp, org_secret=org_secret)
            self._state.fold(entry)
            return entry

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
