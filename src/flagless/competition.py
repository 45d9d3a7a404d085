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
and running totals; the validator, the host, the scoreboard, the audit and
the CLI all read it.  It holds nothing but what the chain says, so any
replica that folds the same chain gets the same verdicts and scoreboard.
"""

from __future__ import annotations

import json
import re
import secrets
import unicodedata
from dataclasses import dataclass
from random import Random

from .canonical import canonical_bytes, from_b64, from_hex, to_b64, to_hex
from .ledger import (
    Changeset,
    FileChange,
    LedgerEntry,
    LedgerState,
    _is_int,
    link_fault,
    organizer_key,
)
from . import sigproof
from ._ed25519_core import decoded_key
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


class AuditError(ValueError):
    """A ledger references records that do not exist in its own state."""


def slugify(name: str) -> str:
    """Team/display name -> path-safe identifier.

    Accents are transliterated, anything outside [a-z0-9] collapses to a
    single hyphen: "Team Épico" and "team-epico" intentionally map to the
    same slug.
    """
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


@dataclass(frozen=True, slots=True)
class ChallengeDescriptor:
    id: str
    title: str
    description: str
    categories: tuple[str, ...]
    points: int
    salt: bytes
    public_key: bytes
    kdf: KdfParams

    def __post_init__(self) -> None:
        object.__setattr__(self, "categories", tuple(self.categories))
        if not valid_slug(self.id):
            raise ValueError(f"challenge id is not a valid slug: {self.id!r}")
        if not isinstance(self.points, int) or isinstance(self.points, bool) or self.points < 1:
            raise ValueError("points must be a positive integer")
        if len(self.salt) != sigproof.SALT_LEN:
            raise ValueError("salt must be 16 bytes")
        if len(self.public_key) != 32 or decoded_key(bytes(self.public_key)) is None:
            raise ValueError("public_key is not a valid point encoding")
        if not isinstance(self.title, str) or not isinstance(self.description, str):
            raise ValueError("title and description must be strings")
        if not all(isinstance(c, str) for c in self.categories):
            raise ValueError("categories must be strings")

    def to_json_dict(self) -> dict:
        return {
            "categories": list(self.categories),
            "description": self.description,
            "id": self.id,
            "kdf": self.kdf.to_json_dict(),
            "points": self.points,
            "public_key": to_hex(self.public_key),
            "salt": to_hex(self.salt),
            "title": self.title,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ChallengeDescriptor":
        keys = {
            "categories",
            "description",
            "id",
            "kdf",
            "points",
            "public_key",
            "salt",
            "title",
        }
        if not isinstance(obj, dict) or set(obj) != keys:
            raise ValueError("malformed challenge descriptor")
        if not isinstance(obj["categories"], list):
            raise ValueError("categories must be a list")
        return cls(
            id=obj["id"],
            title=obj["title"],
            description=obj["description"],
            categories=tuple(obj["categories"]),
            points=obj["points"],
            salt=from_hex(obj["salt"]),
            public_key=from_hex(obj["public_key"]),
            kdf=KdfParams.from_json_dict(obj["kdf"]),
        )

    def serialize(self) -> bytes:
        return canonical_bytes(self.to_json_dict())


@dataclass(frozen=True, slots=True)
class TeamRecord:
    id: str
    name: str
    public_key: bytes

    def __post_init__(self) -> None:
        if not valid_slug(self.id):
            raise ValueError(f"team id is not a valid slug: {self.id!r}")
        if not isinstance(self.name, str) or not (1 <= len(self.name) <= 64):
            raise ValueError("team name must be 1-64 characters")
        if not self.name.isprintable():
            raise ValueError("team name must be printable")
        if len(self.public_key) != 32 or decoded_key(bytes(self.public_key)) is None:
            raise ValueError("public_key is not a valid point encoding")

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "public_key": to_hex(self.public_key),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TeamRecord":
        if not isinstance(obj, dict) or set(obj) != {"id", "name", "public_key"}:
            raise ValueError("malformed team record")
        return cls(
            id=obj["id"], name=obj["name"], public_key=from_hex(obj["public_key"])
        )

    def serialize(self) -> bytes:
        return canonical_bytes(self.to_json_dict())


@dataclass(frozen=True, slots=True)
class TeamSecret:
    """The team's signing seed; kept by the team, never in the ledger."""

    team_id: str
    seed: bytes

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
        if not isinstance(obj, dict) or set(obj) != {"id", "public_key", "seed"}:
            raise ValueError("malformed secret key file")
        secret = cls(team_id=obj["id"], seed=from_hex(obj["seed"]))
        if to_hex(secret.keypair().public) != obj["public_key"]:
            raise ValueError("secret key file is inconsistent")
        return secret


@dataclass(frozen=True, slots=True)
class SubmissionRecord:
    team_id: str
    challenge_id: str
    proof: Proof

    def __post_init__(self) -> None:
        if not valid_slug(self.team_id) or not valid_slug(self.challenge_id):
            raise ValueError("submission ids must be valid slugs")

    def to_json_dict(self) -> dict:
        return {
            "challenge_id": self.challenge_id,
            "proof": to_b64(self.proof.serialize()),
            "team_id": self.team_id,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SubmissionRecord":
        if not isinstance(obj, dict) or set(obj) != {"challenge_id", "proof", "team_id"}:
            raise ValueError("malformed submission record")
        return cls(
            team_id=obj["team_id"],
            challenge_id=obj["challenge_id"],
            proof=Proof.parse(from_b64(obj["proof"])),
        )

    def serialize(self) -> bytes:
        return canonical_bytes(self.to_json_dict())


@dataclass(frozen=True, slots=True)
class ScoreboardRow:
    rank: int
    team_id: str
    points: int
    solves: int
    last_solve_index: int | None

    def to_json_dict(self) -> dict:
        return {
            "last_solve_index": self.last_solve_index,
            "points": self.points,
            "rank": self.rank,
            "solves": self.solves,
            "team_id": self.team_id,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ScoreboardRow":
        keys = {"last_solve_index", "points", "rank", "solves", "team_id"}
        if not isinstance(obj, dict) or set(obj) != keys:
            raise ValueError("malformed scoreboard row")
        if not all(_is_int(obj[k]) for k in ("points", "rank", "solves")):
            raise ValueError("rank, points and solves must be integers")
        if obj["last_solve_index"] is not None and not _is_int(obj["last_solve_index"]):
            raise ValueError("last_solve_index must be an integer or null")
        if not isinstance(obj["team_id"], str):
            raise ValueError("team_id must be a string")
        return cls(**obj)


def _rand_bytes(rng: Random | None, n: int) -> bytes:
    if rng is None:
        return secrets.token_bytes(n)
    return rng.randbytes(n)


def new_challenge(
    challenge_id: str,
    flag: str,
    title: str,
    points: int,
    kdf: KdfParams,
    description: str = "",
    categories: tuple[str, ...] = (),
    rng: Random | None = None,
) -> ChallengeDescriptor:
    """Derive and publish the challenge key; the flag and the secret key
    are dropped on the floor, never stored."""
    if not valid_slug(challenge_id):
        raise ValueError(f"challenge id is not a valid slug: {challenge_id!r}")
    if not sigproof.normalize_flag(flag):
        raise ValueError("flag is empty after normalization")
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


def register_team(
    name: str, rng: Random | None = None
) -> tuple[TeamRecord, TeamSecret, Changeset]:
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
    leaves the solver's machine.
    """
    if not sigproof.check_flag(flag, descriptor.salt, descriptor.kdf, descriptor.public_key):
        raise FlagMismatch(f"flag does not match challenge {descriptor.id!r}")
    challenge_keys = sigproof.derive_challenge_keys(flag, descriptor.salt, descriptor.kdf)
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


def _parse_json(content: bytes):
    try:
        return json.loads(content.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError included
        raise ValueError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValueError("invalid JSON: nested too deeply") from exc


class _Records:
    """Latest content per id, decoded (point decompression included) on
    the first lookup only, then cached.

    Content that does not decode is a missing record, not an error: it
    cannot enter a validator-accepted chain, and in forged chains the audit
    flags the entry that wrote it.
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
            record = self._decode(_parse_json(self.content[key]))
        except ValueError:
            record = None
        self._decoded[key] = record
        return record

    def all(self) -> dict:
        """Every well-formed record, by id."""
        return {k: r for k in sorted(self.content) if (r := self.get(k)) is not None}


def _key_hex(content: bytes | None) -> str | None:
    """The undecoded public key field of a team file, if it has one."""
    try:
        doc = _parse_json(content) if content is not None else None
    except ValueError:
        return None
    key = doc.get("public_key") if isinstance(doc, dict) else None
    return key if isinstance(key, str) else None


class CompetitionState:
    """The chain folded into what the validator, the host, the scoreboard
    and the audit read; `fold` takes each entry exactly once, and
    `audit_entry` checks an entry against the state before it is folded.

    Holds the head (the last entry folded) and the organizer key genesis
    published, every file (a path's latest write wins, as in LedgerState),
    teams by id and by public key, challenges by id, the ledger index of the
    first submission of each (team, challenge) pair, and running per-team
    totals.  Records are decoded on first lookup; the totals are counted
    on the first scoreboard read and kept up to date from then on, except
    after a team or challenge path is rewritten (possible only in forged
    chains), when the next read counts them again from the first solves.
    Not thread-safe: the host calls it under its lock.
    """

    def __init__(self) -> None:
        self.head: LedgerEntry | None = None
        self.organizer_key: bytes | None = None
        self.files: dict[str, bytes] = {}
        self._teams = _Records(TeamRecord.from_json_dict)
        self._challenges = _Records(ChallengeDescriptor.from_json_dict)
        self._key_owners: dict[str, list[str]] = {}  # public key hex -> team ids
        self._solves: dict[str, int] = {}  # submission path -> first index
        # team id -> [points, solves, last solve index]; None: count on next read
        self._totals: dict[str, list[int]] | None = None

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
        return path in self.files

    def fold(self, entry: LedgerEntry) -> None:
        if entry.index == 0:
            self.organizer_key = organizer_key([entry])
        for change in entry.changeset.changes:
            self._write(change.path, change.content, entry.index)
        self.head = entry

    def _write(self, path: str, content: bytes, index: int | None) -> None:
        rewrite = path in self.files
        self.files[path] = content
        if _SUBMISSION_PATH_RE.match(path):
            if index is None or path in self._solves:
                return
            self._solves[path] = index
            if self._totals is not None:
                try:
                    self._tally(self._totals, path, index)
                except AuditError:
                    self._totals = None
            return
        if match := _TEAM_PATH_RE.match(path):
            team_id = match.group(1)
            old_key = _key_hex(self._teams.content.get(team_id))
            if old_key is not None:
                self._key_owners[old_key].remove(team_id)
            self._teams.put(team_id, content)
            new_key = _key_hex(content)
            if new_key is not None:
                self._key_owners.setdefault(new_key, []).append(team_id)
        elif match := _CHALLENGE_PATH_RE.match(path):
            self._challenges.put(match.group(1), content)
        else:
            return
        if rewrite:
            self._totals = None

    def team(self, team_id: str) -> TeamRecord | None:
        return self._teams.get(team_id)

    def challenge(self, challenge_id: str) -> ChallengeDescriptor | None:
        return self._challenges.get(challenge_id)

    def team_with_key(self, public_key: bytes) -> TeamRecord | None:
        """The well-formed team registered with `public_key`; the first by
        team path if a forged chain holds several."""
        owners = self._key_owners.get(to_hex(public_key), ())
        for team_id in sorted(owners, key=team_path):
            record = self.team(team_id)
            if record is not None:
                return record
        return None

    def teams(self) -> dict[str, TeamRecord]:
        return self._teams.all()

    def challenges(self) -> dict[str, ChallengeDescriptor]:
        return self._challenges.all()

    def _tally(self, totals: dict[str, list[int]], path: str, index: int) -> None:
        team_id, challenge_id = _SUBMISSION_PATH_RE.match(path).groups()
        if self.team(team_id) is None:
            raise AuditError(f"submission for unknown team {team_id!r} at entry {index}")
        challenge = self.challenge(challenge_id)
        if challenge is None:
            raise AuditError(
                f"submission for unknown challenge {challenge_id!r} at entry {index}"
            )
        row = totals.setdefault(team_id, [0, 0, index])
        row[0] += challenge.points
        row[1] += 1
        row[2] = max(row[2], index)

    def scoreboard(self) -> list[ScoreboardRow]:
        """Rank teams by points; ties go to the earlier last solve (ledger
        order, not claimed wall clocks), then team id.  Raises AuditError
        when a solve names a team or challenge the state lacks."""
        if self._totals is None:
            totals: dict[str, list[int]] = {}
            for path, index in self._solves.items():
                self._tally(totals, path, index)
            self._totals = totals
        rows = [
            (team_id, *self._totals.get(team_id, (0, 0, None)))
            for team_id in self.teams()
        ]
        rows.sort(key=lambda r: (-r[1], r[3] if r[3] is not None else float("inf"), r[0]))
        return [
            ScoreboardRow(
                rank=rank,
                team_id=team_id,
                points=points,
                solves=solves,
                last_solve_index=last,
            )
            for rank, (team_id, points, solves, last) in enumerate(rows, start=1)
        ]


def teams_in(state: LedgerState) -> dict[str, TeamRecord]:
    """Well-formed team records among `state`'s files (one-shot fold)."""
    return CompetitionState.from_files(state.files).teams()


def challenges_in(state: LedgerState) -> dict[str, ChallengeDescriptor]:
    """Well-formed challenge descriptors among `state`'s files (one-shot
    fold)."""
    return CompetitionState.from_files(state.files).challenges()


def compute_scoreboard(
    state: LedgerState, chain: list[LedgerEntry]
) -> list[ScoreboardRow]:
    """Scoreboard of `chain` by a one-shot fold.  `state` must be the
    chain's replay; the fold recomputes it, so it is not read."""
    return CompetitionState.from_chain(chain).scoreboard()


def scoreboard_bytes(rows: list[ScoreboardRow]) -> bytes:
    return canonical_bytes([row.to_json_dict() for row in rows])


@dataclass(frozen=True, slots=True)
class AuditFinding:
    index: int
    code: str
    message: str


@dataclass(slots=True)
class AuditReport:
    findings: list[AuditFinding]
    scoreboard: list[ScoreboardRow]
    entries: int

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_json_dict(self) -> dict:
        return {
            "entries": self.entries,
            "findings": [
                {"code": f.code, "index": f.index, "message": f.message}
                for f in self.findings
            ],
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
    `challenges/` and `meta/` (ORG_SCOPE), and only well-formed
    descriptors under `challenges/` (BAD_DESCRIPTOR).  Team entries have
    no rule here: `validator.validate_changeset` is theirs.
    """
    head = state.head
    org_key = organizer_key([entry]) if head is None else state.organizer_key
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
            if change.path.startswith(CHALLENGE_PREFIX):
                try:
                    match = _CHALLENGE_PATH_RE.match(change.path)
                    if not match:
                        raise ValueError(f"bad path {change.path!r}")
                    descriptor = ChallengeDescriptor.from_json_dict(_parse_json(change.content))
                    if descriptor.id != match.group(1):
                        raise ValueError("descriptor id does not match its path")
                except ValueError as exc:
                    findings.append(AuditFinding(entry.index, "BAD_DESCRIPTOR", str(exc)))
            elif not change.path.startswith("meta/"):
                message = f"privileged entry writes {change.path!r}"
                findings.append(AuditFinding(entry.index, "ORG_SCOPE", message))
    return findings


def audit_all(chain: list[LedgerEntry]) -> AuditReport:
    """Re-derive everything from public data alone.

    One pass: each entry gets `audit_entry` (the chain, genesis and
    organizer rules), a team entry also `validate_changeset` (which
    re-verifies its proof), and then it is folded; the pass stops at a
    CHAIN finding, keeping the findings before it.  Then recomputes the
    scoreboard.  Requires no secrets: any holder of the ledger file gets
    the same report.  This is the check for a ledger file from an
    untrusted source: a host loading one checks only the rules of
    `audit_entry`, not the team entries.
    """
    from .validator import validate_changeset  # local import breaks the cycle

    findings: list[AuditFinding] = []
    state = CompetitionState()
    for entry in chain:
        step = audit_entry(state, entry)
        findings += step
        if step and step[0].code == "CHAIN":
            return AuditReport(findings=findings, scoreboard=[], entries=len(chain))
        if entry.index > 0 and entry.org_sig is None:
            verdict = validate_changeset(state, entry.changeset)
            if not verdict:
                findings.append(AuditFinding(entry.index, verdict.code.name, verdict.message))
        state.fold(entry)

    try:
        scoreboard = state.scoreboard()
    except AuditError as exc:
        findings.append(AuditFinding(len(chain) - 1, "SCOREBOARD", str(exc)))
        scoreboard = []
    return AuditReport(findings=findings, scoreboard=scoreboard, entries=len(chain))
