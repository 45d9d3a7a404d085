"""Competition domain on top of the ledger's file conventions.

State is nothing but files in the replayed ledger:

    meta/organizer.pub                 organizer verification key (genesis)
    meta/competition.json              free-form competition metadata
    challenges/<id>.json               public challenge descriptor
    teams/<team_id>/team.json          public team record
    submissions/<team_id>/<id>.json    accepted proof of solving

Descriptors carry everything a solver needs to derive the challenge key
(salt, KDF cost parameters, public key) and nothing the organizer must
keep secret: the flag and the challenge signing key are discarded the
moment a challenge is created.

CompetitionState folds the chain once, entry by entry, into typed records
and running totals; the rules, the host, the scoreboard, the audit and the
CLI all read it.  It holds nothing but what the chain says, so any replica
that folds the same chain gets the same verdicts and scoreboard.  The
scoreboard counts only the solves that name a team and a challenge the
state holds; a forged chain can hold others, and the audit flags them.
The state ranks the solves it counts on a `scoreboard.Board`.

Every rule an entry must keep is here, and the host (`validator`) and the
audit (`audit_all`) run the same code: `audit_entry` holds the chain,
genesis and organizer rules, and `validate_changeset` the team rules.
Like the continuous-integration hook that merges or denies a pull
request, the team rules accept a changeset only if it is exactly one team
registration or exactly one proof submission, checked against the folded
state.  No rule needs privileged information, so an auditor running them
over a replica reaches the host's verdicts, and the tests hold them to
that.  Possession of a valid proof is the only authentication there is:
nobody needs an account to submit for team t, because only holders of t's
signing key can produce the inner signature layer.
"""

from __future__ import annotations

import enum
import os
import re
from collections.abc import Iterable
from contextlib import suppress

from .canonical import (
    HEX, Record, canonical_bytes, from_b64, from_hex, is_int, json_object, listed, parse_json,
    to_b64, to_hex,
)
from .ledger import (
    NO_GENESIS, ORGANIZER_KEY_PATH, ChainError, Changeset, FileChange, LedgerEntry, link_fault,
    organizer_key,
)
from . import sigproof
from ._ed25519_core import decoded_key
from .scoreboard import Board, ScoreboardRow
from .sigproof import KdfParams, KeyPair, Proof

SLUG_RE = re.compile(r"\A[a-z0-9-]{1,64}\Z")

CHALLENGE_PREFIX = "challenges/"
TEAM_PREFIX = "teams/"
SUBMISSION_PREFIX = "submissions/"

_TEAM_PATH_RE = re.compile(r"\Ateams/([a-z0-9-]{1,64})/team\.json\Z")
_SUBMISSION_PATH_RE = re.compile(
    r"\Asubmissions/([a-z0-9-]{1,64})/([a-z0-9-]{1,64})\.json\Z"
)
_CHALLENGE_PATH_RE = re.compile(r"\Achallenges/([a-z0-9-]{1,64})\.json\Z")


class FlagMismatch(Exception):
    """The supplied flag does not derive the challenge's public key."""


def slugify(name: str) -> str:
    """Team/display name -> path-safe identifier.

    Accents are transliterated, anything outside [a-z0-9] collapses to a
    single hyphen: "Team Épico" and "team-epico" intentionally map to the
    same slug.
    """
    import unicodedata  # on first use: a `serve` that registers no team never loads it

    ascii_name = (
        unicodedata.normalize("NFKD", name).encode("ascii", "ignore").decode("ascii")
    )
    return re.sub(r"[^a-z0-9]+", "-", ascii_name.lower()).strip("-")


def valid_slug(slug: str) -> bool:
    return isinstance(slug, str) and bool(SLUG_RE.match(slug))


def challenge_path(challenge_id: str) -> str:
    return f"{CHALLENGE_PREFIX}{challenge_id}.json"


def team_path(team_id: str) -> str:
    return f"{TEAM_PREFIX}{team_id}/team.json"


def submission_path(team_id: str, challenge_id: str) -> str:
    return f"{SUBMISSION_PREFIX}{team_id}/{challenge_id}.json"


def _check_point(public_key: bytes) -> None:
    if len(public_key) != 32 or decoded_key(bytes(public_key)) is None:
        raise ValueError("public_key is not a valid point encoding")


class ChallengeDescriptor(Record, what="challenge descriptor"):
    _json = {
        "id": None,
        "title": None,
        "description": None,
        "categories": listed(None, "categories must be a list"),
        "points": None,
        "salt": HEX,
        "public_key": HEX,
        "kdf": (KdfParams.to_json_dict, KdfParams.from_json_dict),
    }
    __slots__ = tuple(_json)

    def __init__(
        self,
        id: str,
        title: str,
        description: str,
        categories: Iterable[str],
        points: int,
        salt: bytes,
        public_key: bytes,
        kdf: KdfParams,
    ) -> None:
        categories = tuple(categories)
        if not valid_slug(id):
            raise ValueError(f"challenge id is not a valid slug: {id!r}")
        if not is_int(points) or points < 1:
            raise ValueError("points must be a positive integer")
        if len(salt) != sigproof.SALT_LEN:
            raise ValueError("salt must be 16 bytes")
        _check_point(public_key)
        if not isinstance(title, str) or not isinstance(description, str):
            raise ValueError("title and description must be strings")
        if not all(isinstance(c, str) for c in categories):
            raise ValueError("categories must be strings")
        Record.__init__(self, id, title, description, categories, points, salt, public_key, kdf)


class TeamRecord(Record, what="team record"):
    _json = {"id": None, "name": None, "public_key": HEX}
    __slots__ = tuple(_json)

    def __init__(self, id: str, name: str, public_key: bytes) -> None:
        if not valid_slug(id):
            raise ValueError(f"team id is not a valid slug: {id!r}")
        if not isinstance(name, str) or not (1 <= len(name) <= 64):
            raise ValueError("team name must be 1-64 characters")
        if not name.isprintable():
            raise ValueError("team name must be printable")
        _check_point(public_key)
        Record.__init__(self, id, name, public_key)


class TeamSecret(Record):
    """The team's signing seed; kept by the team, never in the ledger."""

    __slots__ = ("team_id", "seed")

    def __init__(self, team_id: str, seed: bytes) -> None:
        Record.__init__(self, team_id, seed)

    def keypair(self) -> KeyPair:
        return sigproof.keypair_from_seed(self.seed)

    def to_json_dict(self) -> dict:
        return {
            "id": self.team_id,
            "public_key": to_hex(self.keypair().public),
            "seed": to_hex(self.seed),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TeamSecret":
        json_object(obj, {"id", "public_key", "seed"}, "secret key file")
        secret = cls(team_id=obj["id"], seed=from_hex(obj["seed"]))
        if to_hex(secret.keypair().public) != obj["public_key"]:
            raise ValueError("secret key file is inconsistent")
        return secret


# A proof is held in JSON as the base64 of its binary form.
_PROOF = (lambda proof: to_b64(proof.serialize()), lambda text: Proof.parse(from_b64(text)))


class SubmissionRecord(Record, what="submission record"):
    _json = {"team_id": None, "challenge_id": None, "proof": _PROOF}
    __slots__ = tuple(_json)

    def __init__(self, team_id: str, challenge_id: str, proof: Proof) -> None:
        if not valid_slug(team_id) or not valid_slug(challenge_id):
            raise ValueError("submission ids must be valid slugs")
        Record.__init__(self, team_id, challenge_id, proof)


def _rand_bytes(rng, n: int) -> bytes:
    # `rng`: a `random.Random`, or None for `os.urandom`
    if rng is None:
        return os.urandom(n)
    return rng.randbytes(n)


def new_challenge(
    challenge_id: str,
    flag: str,
    title: str,
    points: int,
    kdf: KdfParams,
    description: str = "",
    categories: tuple[str, ...] = (),
    rng=None,
) -> ChallengeDescriptor:
    """Derive and publish the challenge key; the flag and the secret key
    are dropped on the floor, never stored.  A flag that is empty after
    `sigproof.normalize_flag` raises ValueError before any scrypt runs
    (`sigproof.derive_challenge_keys` refuses it)."""
    if not valid_slug(challenge_id):
        raise ValueError(f"challenge id is not a valid slug: {challenge_id!r}")
    salt = _rand_bytes(rng, sigproof.SALT_LEN)
    keys = sigproof.derive_challenge_keys(flag, salt, kdf)
    return ChallengeDescriptor(
        id=challenge_id,
        title=title,
        description=description,
        categories=tuple(categories),
        points=points,
        salt=salt,
        public_key=keys.public,
        kdf=kdf,
    )


def challenge_changeset(descriptor: ChallengeDescriptor) -> Changeset:
    return Changeset(
        changes=(FileChange(path=challenge_path(descriptor.id), content=descriptor.serialize()),),
        author="organizer",
    )


def register_team(name: str, rng=None) -> tuple[TeamRecord, TeamSecret, Changeset]:
    """Fresh team identity: the record goes to the ledger, the seed stays
    with the caller."""
    team_id = slugify(name)
    if not team_id:
        raise ValueError(f"name does not slugify to an identifier: {name!r}")
    seed = _rand_bytes(rng, sigproof.SEED_LEN)
    keys = sigproof.keypair_from_seed(seed)
    record = TeamRecord(id=team_id, name=name, public_key=keys.public)
    secret = TeamSecret(team_id=team_id, seed=seed)
    changeset = Changeset(
        changes=(FileChange(path=team_path(team_id), content=record.serialize()),),
        author=team_id,
    )
    return record, secret, changeset


def build_submission(
    secret: TeamSecret, descriptor: ChallengeDescriptor, flag: str
) -> tuple[SubmissionRecord, Changeset]:
    """Check the flag locally, then build the proof and its changeset.

    Refuses to emit anything when the flag is wrong, so a typo never
    leaves the solver's machine.  The flag goes through scrypt once: the
    derived key pair is both the check and the signing key.
    """
    challenge_keys = None
    if sigproof.normalize_flag(flag):
        challenge_keys = sigproof.derive_challenge_keys(flag, descriptor.salt, descriptor.kdf)
    if challenge_keys is None or challenge_keys.public != descriptor.public_key:
        raise FlagMismatch(f"flag does not match challenge {descriptor.id!r}")
    proof = sigproof.prove(
        secret.keypair(), challenge_keys.secret, descriptor.id.encode("ascii")
    )
    record = SubmissionRecord(
        team_id=secret.team_id, challenge_id=descriptor.id, proof=proof
    )
    changeset = Changeset(
        changes=(
            FileChange(
                path=submission_path(secret.team_id, descriptor.id),
                content=record.serialize(),
            ),
        ),
        author=secret.team_id,
    )
    return record, changeset


class _Records:
    """Latest content per id, decoded (point decompression included) on
    the first lookup only, then cached.

    Content that does not decode is a missing record, not an error: it
    cannot enter a chain whose entries keep the rules, and in forged chains
    the audit flags the entry that wrote it.
    """

    __slots__ = ("_decode", "content", "_decoded")

    def __init__(self, decode):
        self._decode = decode
        self.content: dict[str, bytes] = {}
        self._decoded: dict[str, object] = {}

    def put(self, key: str, content: bytes) -> None:
        self.content[key] = content
        self._decoded.pop(key, None)

    def get(self, key: str):
        if key in self._decoded:
            return self._decoded[key]
        if key not in self.content:
            return None
        try:
            record = self._decode(parse_json(self.content[key]))
        except ValueError:
            record = None
        self._decoded[key] = record
        return record

    def all(self) -> dict:
        """Every well-formed record, by id."""
        return {k: r for k in sorted(self.content) if (r := self.get(k)) is not None}


def _claimed_key(content: bytes) -> bytes | None:
    """The public key a team record's content claims, decoded as
    `TeamRecord` decodes it but with no point check, or None."""
    with suppress(LookupError, TypeError, ValueError):
        return from_hex(parse_json(content)["public_key"])
    return None


class CompetitionState:
    """The chain folded into what the rules, the host, the scoreboard and
    the audit read; `fold` takes each entry exactly once, and
    `audit_entry` checks an entry against the state before it is folded.

    Holds the head (the last entry folded) and the organizer key genesis
    published, the set of paths written, the latest content of each team
    and challenge path (a path's latest write wins, as in `ledger.replay`)
    by id, and the ledger index of the first submission of each (team,
    challenge) pair.  It keeps no other content: a submission's bytes, and
    those of `meta/` and any other path, stay in the ledger.  Records are
    decoded on first lookup.

    Three indexes are built on first use, not as a ledger loads, and each
    is kept until a write changes it.  `_write` is the only code that
    decides which write drops or updates which, so the host serves the
    bodies kept here and keeps none of its own.  The scoreboard (a
    `Board`): the totals, the teams in rank order and the body's bytes, so
    a solve costs a bisection and the rows it moves past.  Any write to a
    team or challenge path drops it, since a solve that did not count may
    now count and a challenge's points may change, and the next read
    counts it again from the first solves.  The challenge list's bytes
    (`challenges_body`), which only a write to a challenge path drops.
    And the team ids by the public key their content claims (`_owners`),
    which each team write updates and `team_with_key` reads; it parses
    each team's content but decompresses no point.
    Not thread-safe: the host calls it under its lock.
    """

    def __init__(self) -> None:
        self.head: LedgerEntry | None = None
        self.organizer_key: bytes | None = None
        self._paths: set[str] = set()
        self._teams = _Records(TeamRecord.from_json_dict)
        self._challenges = _Records(ChallengeDescriptor.from_json_dict)
        self._solves: dict[str, int] = {}  # submission path -> first index
        self._board: Board | None = None  # None: count on the next read
        self._listing: bytes | None = None  # `challenges_body`; None: build on the next read
        # claimed public key -> team ids; None: build on the next lookup
        self._owners: dict[bytes | None, set[str]] | None = None

    @classmethod
    def from_chain(cls, chain: list[LedgerEntry]) -> "CompetitionState":
        """Fold of `chain`, checking nothing: the caller checks each entry
        first (`audit_entry`) or trusts the chain."""
        state = cls()
        for entry in chain:
            state.fold(entry)
        return state

    @classmethod
    def from_files(cls, files: dict[str, bytes]) -> "CompetitionState":
        """State of a bare path -> content map, which has no entry indices
        and therefore no solves."""
        state = cls()
        for path, content in files.items():
            state._write(path, content, None)
        return state

    def __contains__(self, path: str) -> bool:
        return path in self._paths

    def fold(self, entry: LedgerEntry) -> None:
        if entry.index == 0:
            self.organizer_key = organizer_key(entry)
        for change in entry.changeset.changes:
            self._write(change.path, change.content, entry.index)
        self.head = entry

    def _write(self, path: str, content: bytes, index: int | None) -> None:
        self._paths.add(path)
        if _SUBMISSION_PATH_RE.match(path):
            if index is not None and path not in self._solves:
                self._solves[path] = index
                if self._board is not None:
                    self._tally(path, index, self._board.count)
            return
        if match := _TEAM_PATH_RE.match(path):
            team_id, owners = match.group(1), self._owners
            if owners is not None:
                if team_id in self._teams.content:  # a rewrite (forged): its old claim goes
                    owners[_claimed_key(self._teams.content[team_id])].discard(team_id)
                owners.setdefault(_claimed_key(content), set()).add(team_id)
            self._teams.put(team_id, content)
        elif match := _CHALLENGE_PATH_RE.match(path):
            self._challenges.put(match.group(1), content)
            self._listing = None
        else:
            return
        self._board = None  # a dangling solve may now count, or points change

    def team(self, team_id: str) -> TeamRecord | None:
        return self._teams.get(team_id)

    def challenge(self, challenge_id: str) -> ChallengeDescriptor | None:
        return self._challenges.get(challenge_id)

    def team_with_key(self, public_key: bytes) -> TeamRecord | None:
        """The well-formed team registered with `public_key`; the first by
        team path if a forged chain holds several.  Decodes only the teams
        whose content claims that key."""
        if self._owners is None:
            self._owners = {}
            for team_id, content in self._teams.content.items():
                self._owners.setdefault(_claimed_key(content), set()).add(team_id)
        for team_id in sorted(self._owners.get(public_key, ()), key=team_path):
            if (record := self.team(team_id)) is not None:
                return record
        return None

    def teams(self) -> dict[str, TeamRecord]:
        return self._teams.all()

    def challenges(self) -> dict[str, ChallengeDescriptor]:
        return self._challenges.all()

    def challenges_body(self) -> bytes:
        """The canonical JSON of the `challenges()` descriptors, in id
        order, kept until a challenge write."""
        if self._listing is None:
            self._listing = canonical_bytes([d.to_json_dict() for d in self.challenges().values()])
        return self._listing

    def _tally(self, path: str, index: int, count) -> str | None:
        """Pass the solve at `path` to `count(team_id, points, index)`, or
        return why it does not count: it names a team or challenge the
        state lacks."""
        team_id, challenge_id = _SUBMISSION_PATH_RE.match(path).groups()
        if self.team(team_id) is None:
            return f"submission for unknown team {team_id!r} at entry {index}"
        challenge = self.challenge(challenge_id)
        if challenge is None:
            return f"submission for unknown challenge {challenge_id!r} at entry {index}"
        count(team_id, challenge.points, index)
        return None

    def unresolved(self) -> str | None:
        """Why the first solve that the scoreboard leaves out does not
        count, or None when every solve counts."""
        scratch = Board()
        reasons = (self._tally(path, index, scratch.add) for path, index in self._solves.items())
        return next((reason for reason in reasons if reason is not None), None)

    def _ranked(self) -> Board:
        if self._board is None:
            board = Board()
            for path, index in self._solves.items():
                self._tally(path, index, board.add)
            self._board = board.rank(self.teams())
        return self._board

    def scoreboard(self) -> list[ScoreboardRow]:
        """Rank teams by points; ties go to the earlier last solve (ledger
        order, not claimed wall clocks), then team id, and teams with no
        counted solve come last.  Counts only the solves that name a team
        and a challenge the state holds (see `unresolved`), so it never
        raises."""
        board = self._ranked()
        return [ScoreboardRow(*board.row(at)) for at in range(len(board.keys))]

    def scoreboard_body(self) -> bytes:
        """`scoreboard_bytes(self.scoreboard())`, kept by the board."""
        return self._ranked().body


def teams_in(files: dict[str, bytes]) -> dict[str, TeamRecord]:
    """Well-formed team records among `files` (one-shot fold)."""
    return CompetitionState.from_files(files).teams()


def challenges_in(files: dict[str, bytes]) -> dict[str, ChallengeDescriptor]:
    """Well-formed challenge descriptors among `files` (one-shot fold)."""
    return CompetitionState.from_files(files).challenges()


def compute_scoreboard(
    files: dict[str, bytes], chain: list[LedgerEntry]
) -> list[ScoreboardRow]:
    """Scoreboard of `chain` by a one-shot fold.  `files` must be the
    chain's replay; the fold recomputes them, so they are not read."""
    return CompetitionState.from_chain(chain).scoreboard()


class AuditFinding(Record, what="audit finding"):
    _json = dict.fromkeys(("index", "code", "message"))
    __slots__ = tuple(_json)

    def __init__(self, index: int, code: str, message: str) -> None:
        Record.__init__(self, index, code, message)

    def __str__(self) -> str:
        """The finding as `flagless audit` prints it and the host's
        `ChainError` says it: `entry <index>: <code>: <message>`."""
        return f"entry {self.index}: {self.code}: {self.message}"


class AuditReport(Record):
    __slots__ = ("findings", "scoreboard", "entries")

    def __init__(
        self, findings: list[AuditFinding], scoreboard: list[ScoreboardRow], entries: int
    ) -> None:
        Record.__init__(self, findings, scoreboard, entries)

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_json_dict(self) -> dict:
        return {
            "entries": self.entries,
            "findings": [finding.to_json_dict() for finding in self.findings],
            "ok": self.ok,
            "scoreboard": [row.to_json_dict() for row in self.scoreboard],
        }


def audit_entry(state: CompetitionState, entry: LedgerEntry) -> list[AuditFinding]:
    """Findings against `entry` as the next entry of the chain that `state`
    folds, before it is folded; empty when every rule here holds.

    A CHAIN finding (`ledger.link_fault`, under the key genesis published)
    comes alone, and nothing after it can be checked.  Genesis may write
    only `meta/` and must publish an organizer key (GENESIS_SCOPE,
    GENESIS_KEY).  A later organizer-signed entry may write only
    `challenges/` and `meta/` (ORG_SCOPE), and never a `challenges/` path
    or the genesis key (`meta/organizer.pub`) the state already holds: a
    release is never rewritten, whichever field would change
    (ORG_REWRITE, the one finding for that path).  Each other write under
    `challenges/` must be a well-formed descriptor, its own canonical
    bytes (BAD_DESCRIPTOR).  Other `meta/` paths may be rewritten.  Team
    entries have no rule here: `validate_changeset` below is theirs.
    """
    head = state.head
    org_key = organizer_key(entry) if head is None else state.organizer_key
    reason = link_fault(head, entry, org_key)
    if reason is not None:
        return [AuditFinding(0 if head is None else head.index + 1, "CHAIN", reason)]
    findings = []
    if head is None:
        for change in entry.changeset.changes:
            if not change.path.startswith("meta/"):
                findings.append(
                    AuditFinding(0, "GENESIS_SCOPE", f"unexpected path {change.path!r}")
                )
        if org_key is None:
            findings.append(AuditFinding(0, "GENESIS_KEY", "missing or invalid organizer key"))
    elif entry.org_sig is not None:
        for change in entry.changeset.changes:
            release = change.path.startswith(CHALLENGE_PREFIX) or change.path == ORGANIZER_KEY_PATH
            if release and change.path in state:
                message = f"{change.path!r} is already released"
                findings.append(AuditFinding(entry.index, "ORG_REWRITE", message))
            elif change.path.startswith(CHALLENGE_PREFIX):
                try:
                    match = _CHALLENGE_PATH_RE.match(change.path)
                    if not match:
                        raise ValueError(f"bad path {change.path!r}")
                    descriptor = ChallengeDescriptor.from_json_dict(parse_json(change.content))
                    if descriptor.id != match.group(1):
                        raise ValueError("descriptor id does not match its path")
                    if descriptor.serialize() != change.content:
                        raise ValueError("descriptor is not in canonical form")
                except ValueError as exc:
                    findings.append(AuditFinding(entry.index, "BAD_DESCRIPTOR", str(exc)))
            elif not change.path.startswith("meta/"):
                message = f"privileged entry writes {change.path!r}"
                findings.append(AuditFinding(entry.index, "ORG_SCOPE", message))
    return findings


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


class ValidationVerdict(Record):
    """Why a team changeset is refused: the rule it breaks (`code`) and the
    detail (`message`, by default the code's own text).  An accepted
    changeset has no verdict: `validate_changeset` returns None."""

    __slots__ = ("code", "message")

    def __init__(self, code: ReasonCode, message: str = "") -> None:
        Record.__init__(self, code, message or code.value)


_NOT_CANONICAL = "record is not in canonical form"


def _validate_registration(
    state: CompetitionState, content: bytes, team_id: str
) -> ValidationVerdict | None:
    try:
        record = TeamRecord.from_json_dict(parse_json(content))
    except ValueError as exc:
        return ValidationVerdict(ReasonCode.MALFORMED_RECORD, str(exc))
    if record.id != team_id:
        return ValidationVerdict(
            ReasonCode.MALFORMED_RECORD, f"record id {record.id!r} does not match path"
        )
    if record.id != slugify(record.name):
        return ValidationVerdict(
            ReasonCode.MALFORMED_RECORD,
            f"id {record.id!r} is not the slug of name {record.name!r}",
        )
    existing = state.team_with_key(record.public_key)
    if existing is not None:
        return ValidationVerdict(
            ReasonCode.DUPLICATE_TEAM,
            f"public key already registered to {existing.id!r}",
        )
    if record.serialize() != content:
        return ValidationVerdict(ReasonCode.MALFORMED_RECORD, _NOT_CANONICAL)
    return None


def _validate_submission(
    state: CompetitionState, content: bytes, team_id: str, challenge_id: str
) -> ValidationVerdict | None:
    team = state.team(team_id)
    if team is None:
        return ValidationVerdict(ReasonCode.UNKNOWN_TEAM, f"team {team_id!r}")
    challenge = state.challenge(challenge_id)
    if challenge is None:
        return ValidationVerdict(ReasonCode.UNKNOWN_CHALLENGE, f"challenge {challenge_id!r}")
    try:
        record = SubmissionRecord.from_json_dict(parse_json(content))
    except ValueError as exc:
        return ValidationVerdict(ReasonCode.MALFORMED_RECORD, str(exc))
    if record.team_id != team_id or record.challenge_id != challenge_id:
        return ValidationVerdict(ReasonCode.MALFORMED_RECORD, "record ids do not match the path")
    if not sigproof.verify_proof(
        team.public_key,
        challenge.public_key,
        challenge_id.encode("ascii"),
        record.proof,
    ):
        return ValidationVerdict(ReasonCode.INVALID_PROOF)
    if record.serialize() != content:
        return ValidationVerdict(ReasonCode.MALFORMED_RECORD, _NOT_CANONICAL)
    return None


def validate_changeset(state: CompetitionState, changeset: Changeset) -> ValidationVerdict | None:
    """Decide whether a team-originated changeset may be appended to the
    chain that `state` folds.  Costs two signature verifies for a
    submission and one point decompression for a registration, plus one
    the first time a team or challenge record is looked up.  Neither
    grows with the number of teams: a registration's duplicate-key check
    decodes only the teams whose records claim its key (none, unless the
    key is taken), though the state's first check parses every team's
    record once to index them (`team_with_key`).

    Two rules come last, so each turns only an accept into a rejection:
    the record's content must be its canonical form (`serialize()`), and
    the changeset's author must be the team its path names.  Returns None
    when every rule holds, or the first refusal; nothing here raises on
    untrusted input.
    """
    for change in changeset.changes:
        match = _TEAM_PATH_RE.match(change.path) or _SUBMISSION_PATH_RE.match(change.path)
        if change.path in state:
            if match is None:
                return ValidationVerdict(
                    ReasonCode.IMMUTABLE_PATH, f"{change.path!r} is already committed"
                )
            if match.re is _TEAM_PATH_RE:
                return ValidationVerdict(
                    ReasonCode.DUPLICATE_TEAM, f"team {match.group(1)!r} already registered"
                )
            return ValidationVerdict(
                ReasonCode.DUPLICATE_SUBMISSION,
                f"{match.group(1)!r} already solved {match.group(2)!r}",
            )
        if match is None:
            return ValidationVerdict(
                ReasonCode.BAD_PATH, f"{change.path!r} is not a team-writable path"
            )
    # every change that gets here is an action: one on a team-writable path
    if len(changeset.changes) != 1:
        return ValidationVerdict(
            ReasonCode.MIXED_CONCERNS,
            f"changeset carries {len(changeset.changes)} actions, expected 1",
        )
    validate = _validate_registration if match.re is _TEAM_PATH_RE else _validate_submission
    verdict = validate(state, change.content, *match.groups())
    if verdict is None and changeset.author != match.group(1):
        return ValidationVerdict(ReasonCode.MALFORMED_RECORD, "author is not the team")
    return verdict


def audit_all(chain: Iterable[LedgerEntry]) -> AuditReport:
    """Re-derive everything from public data alone.

    One pass over `chain`, any iterable of entries (`ledger.entries`, say):
    each entry gets `audit_entry` (the chain, genesis and organizer rules),
    a team entry also `validate_changeset` (which re-verifies its proof),
    and then it is folded.  A CHAIN finding ends the checks, and so does a
    `ChainError` from `chain`: a CHAIN finding at the line that does not
    parse.  After a CHAIN finding the rest of `chain` is only counted, and
    a line that does not parse there ends the count and adds no finding.
    Then the scoreboard, which counts the solves that name a team and a
    challenge the chain holds; the first other solve (`unresolved`) is a
    SCOREBOARD finding at the last entry.  An empty chain is one CHAIN
    finding at index 0.  Requires no secrets: any holder of the
    ledger file gets the same report.  This is the check for a ledger from
    an untrusted source, whose team entries a loading host does not check.
    """
    findings: list[AuditFinding] = []
    state = CompetitionState()
    count, entries = 0, iter(chain)
    try:
        for entry in entries:
            count += 1
            findings += audit_entry(state, entry)
            if findings and findings[-1].code == "CHAIN":
                with suppress(ChainError):  # nothing after it can be checked, only counted
                    for _ in entries:
                        count += 1
                break
            if entry.index > 0 and entry.org_sig is None:
                verdict = validate_changeset(state, entry.changeset)
                if verdict is not None:
                    findings.append(AuditFinding(entry.index, verdict.code.name, verdict.message))
            state.fold(entry)
    except ChainError as exc:
        findings.append(AuditFinding(count, "CHAIN", str(exc)))
    if not count and not findings:
        findings.append(AuditFinding(0, "CHAIN", NO_GENESIS))
    if findings and findings[-1].code == "CHAIN":
        return AuditReport(findings=findings, scoreboard=[], entries=count)

    reason = state.unresolved()
    if reason is not None:
        findings.append(AuditFinding(count - 1, "SCOREBOARD", reason))
    return AuditReport(findings=findings, scoreboard=state.scoreboard(), entries=count)
