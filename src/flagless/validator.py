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
import tempfile
import threading
import time
import weakref
from typing import Iterable

from . import ledger, sigproof
from .canonical import Record, canonical_bytes, parse_json, to_hex
from .competition import (
    CompetitionState,
    SubmissionRecord,
    TeamRecord,
    _SUBMISSION_PATH_RE,
    _TEAM_PATH_RE,
    audit_entry,
    scoreboard_bytes,
    slugify,
)
from .ledger import Changeset, LedgerEntry


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
    __slots__ = ("accepted", "code", "message")

    def __init__(self, accepted: bool, code: ReasonCode | None = None, message: str = "") -> None:
        Record.__init__(self, accepted, code, message)

    def __bool__(self) -> bool:
        return self.accepted

    @classmethod
    def accept(cls) -> "ValidationVerdict":
        return cls(accepted=True)

    @classmethod
    def reject(cls, code: ReasonCode, message: str = "") -> "ValidationVerdict":
        return cls(accepted=False, code=code, message=message or code.value)


ACCEPT = ValidationVerdict.accept()

_CLOSED = "the competition host is closed"
_NOT_CANONICAL = "record is not in canonical form"


def _validate_registration(
    state: CompetitionState, content: bytes, team_id: str
) -> ValidationVerdict:
    try:
        record = TeamRecord.from_json_dict(parse_json(content))
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
    if record.serialize() != content:
        return ValidationVerdict.reject(ReasonCode.MALFORMED_RECORD, _NOT_CANONICAL)
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
        record = SubmissionRecord.from_json_dict(parse_json(content))
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
    if record.serialize() != content:
        return ValidationVerdict.reject(ReasonCode.MALFORMED_RECORD, _NOT_CANONICAL)
    return ACCEPT


def validate_changeset(state: CompetitionState, changeset: Changeset) -> ValidationVerdict:
    """Decide whether a team-originated changeset may be appended to the
    chain that `state` folds.  Costs two signature verifies for a
    submission and one point decompression for a registration, plus one
    the first time a team or challenge record is looked up.

    Two rules come last, so each turns only an accept into a rejection:
    the record's content must be its canonical form (`serialize()`), and
    the changeset's author must be the team its path names.  Every
    outcome is a verdict; nothing here raises on untrusted input.
    """
    actions = []  # (change, its path's match) of each team-writable path
    for change in changeset.changes:
        match = _TEAM_PATH_RE.match(change.path) or _SUBMISSION_PATH_RE.match(change.path)
        if change.path in state:
            if match is None:
                return ValidationVerdict.reject(
                    ReasonCode.IMMUTABLE_PATH, f"{change.path!r} is already committed"
                )
            if match.re is _TEAM_PATH_RE:
                return ValidationVerdict.reject(
                    ReasonCode.DUPLICATE_TEAM, f"team {match.group(1)!r} already registered"
                )
            return ValidationVerdict.reject(
                ReasonCode.DUPLICATE_SUBMISSION,
                f"{match.group(1)!r} already solved {match.group(2)!r}",
            )
        if match is None:
            return ValidationVerdict.reject(
                ReasonCode.BAD_PATH, f"{change.path!r} is not a team-writable path"
            )
        actions.append((change, match))
    if len(actions) != 1:
        return ValidationVerdict.reject(
            ReasonCode.MIXED_CONCERNS, f"changeset carries {len(actions)} actions, expected 1"
        )
    change, match = actions[0]
    validate = _validate_registration if match.re is _TEAM_PATH_RE else _validate_submission
    verdict = validate(state, change.content, *match.groups())
    if verdict and changeset.author != match.group(1):
        return ValidationVerdict.reject(ReasonCode.MALFORMED_RECORD, "author is not the team")
    return verdict


def _write_at(fd: int, data: bytes, offset: int) -> None:
    """Write all of `data` to the file `fd` at `offset`."""
    view = memoryview(data)
    while view:
        written = os.pwrite(fd, view, offset)
        view, offset = view[written:], offset + written


def _read_prefix(fd: int, size: int) -> bytes:
    """The first `size` bytes of the file `fd`."""
    data = b""
    while len(data) < size:
        more = os.pread(fd, size - len(data), len(data))
        if not more:
            raise EOFError("the file is shorter than its acknowledged bytes")
        data += more
    return data


class FileRegion:
    """The first `size` bytes of a file, read through a descriptor of the
    region's own (`os.dup`), so that it reads the same file, and the same
    bytes, after the host that made it closes.  Close it, or use it as a
    `with` block."""

    __slots__ = ("fd", "size")

    def __init__(self, fd: int, size: int):
        self.fd, self.size = os.dup(fd), size

    def __len__(self) -> int:
        return self.size

    def read(self) -> bytes:
        return _read_prefix(self.fd, self.size)

    def close(self) -> None:
        if self.fd >= 0:
            os.close(self.fd)
            self.fd = -1

    def __enter__(self) -> "FileRegion":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class CompetitionHost:
    """Owns one file that holds exactly the ledger's acknowledged bytes,
    and the ledger's folded state, and serializes every append.  It keeps
    no parsed chain and no copy of the ledger: it loads by folding each
    entry as `ledger.entries` reads its line from the file, and `snapshot`
    and `read` read the file.

    The host refuses any entry that breaks a rule of
    `competition.audit_entry`: the chain, genesis and organizer rules.
    Loading a chain, or a ledger file, raises `ChainError` at its first
    finding, and at an empty ledger; an append whose entry has a finding
    raises `ChainError` and writes nothing.  Team entries are validated
    when `apply` appends them but not again at load, which would cost
    about as much as an audit: `audit_all` (the `flagless audit` command)
    is the check for a ledger from an untrusted source.  So a loaded
    ledger can hold solves that name no team or challenge; the scoreboard
    leaves them out, and the audit flags the entries that wrote them.

    A host made by `open` uses the ledger file itself and is its only
    writer: it holds an exclusive lock on the file until `close`.  A host
    made by `view` reads the file itself without the lock and refuses
    every append.  A host made from a chain uses an anonymous temporary
    file, which leaves no name behind.  A host dropped without
    `close` releases its file when it is collected.

    All reads and appends take one lock.  An append builds the next entry
    on the state's head, serializing it once, writes its canonical line
    to the file right after the acknowledged bytes and fsyncs it, so the
    line is on disk before `apply` or `apply_organizer` returns the entry,
    and then folds it into the state.  An entry whose write fails joins
    neither the acknowledged bytes nor the state, and is cut back out of
    the file; if that cut fails too, the host refuses every later append,
    as after `close`, and still serves the bytes it acknowledged.  An
    append given no timestamp takes the clock's, or the head's when the
    clock is behind it.

    `read(route)` gives the body of `/ledger` as a `FileRegion`: the
    acknowledged bytes at that instant, on a descriptor of its own, so a
    caller sends them without holding the lock and never sends a byte
    past them or from another file.  Any other body is one bytes object,
    built on its first read after the state it depends on moves and then
    kept: the head and scoreboard bodies depend on the head, the challenge
    body only on the state's count of challenge writes, so team entries
    leave it as it is.
    """

    def __init__(self, chain: Iterable[LedgerEntry] = (), *, _fd: int | None = None):
        self._fd = _anonymous_file(ledger.dump_chain(chain)) if _fd is None else _fd
        self._release = weakref.finalize(self, os.close, self._fd)
        self._lock = threading.Lock()
        self._state = CompetitionState()
        try:
            with open(self._fd, "rb", closefd=False) as fh:
                for entry in ledger.entries(fh):
                    self._check(entry)
                    self._state.fold(entry)
                self._size = fh.tell()  # the acknowledged bytes: the file's first `_size`
            if self._state.head is None:
                raise ledger.ChainError(ledger.NO_GENESIS)
        except BaseException:
            self._release()
            raise
        self._refusal: str | None = None  # why appends are refused, once they are
        # route -> (the version of the state it was built at, its body)
        self._bodies: dict[str, tuple[int, bytes]] = {}

    @classmethod
    def open(cls, path: str) -> "CompetitionHost":
        """Host the ledger file at `path` until `close` (or the end of a
        `with` block), never holding its bytes.  Raises `BlockingIOError`
        when another host holds the file, `ChainError` when it does not load."""
        fd = os.open(path, os.O_RDWR)
        try:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError as exc:
                raise BlockingIOError(exc.errno, "another process holds the ledger", path) from None
        except BaseException:
            os.close(fd)
            raise
        return cls(_fd=fd)

    @classmethod
    def view(cls, path: str) -> "CompetitionHost":
        """Host the ledger file at `path` for reads, on a read-only
        descriptor of the file: it takes no lock, so it loads while
        another host holds the file, and it refuses every append."""
        host = cls(_fd=os.open(path, os.O_RDONLY))
        host._refusal = "the host is read-only"
        return host

    def close(self) -> None:
        """Release the ledger file; appends, `snapshot` and reads of
        `/ledger` after this raise ValueError."""
        with self._lock:
            self._release()
            self._refusal = _CLOSED

    def __enter__(self) -> "CompetitionHost":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _file(self) -> int:
        """The file's descriptor, or ValueError once the host is closed."""
        if not self._release.alive:
            raise ValueError(_CLOSED)
        return self._fd

    def _check(self, entry: LedgerEntry) -> None:
        """Raise `ChainError` at `entry`'s first `audit_entry` finding."""
        if findings := audit_entry(self._state, entry):
            raise ledger.ChainError("entry {0.index}: {0.code}: {0.message}".format(findings[0]))

    def _append(
        self, changeset: Changeset, timestamp: int | None, org_secret: bytes | None = None
    ) -> LedgerEntry:
        """Build the entry after the head, check it, write it to the file
        after the acknowledged bytes, then fold it."""
        if self._refusal is not None:
            raise ValueError(self._refusal)
        head = self._state.head
        if timestamp is None:
            timestamp = max(int(time.time()), head.timestamp)
        entry = ledger.make_entry(head.index + 1, timestamp, head.hash, changeset, org_secret)
        self._check(entry)
        line = ledger.dump_entry(entry) + b"\n"
        try:
            _write_at(self._fd, line, self._size)
            os.fsync(self._fd)
        except BaseException:
            try:
                os.ftruncate(self._fd, self._size)
            except OSError:
                # The file may still hold this line after the acknowledged
                # bytes, and a later line would only partly overwrite it.
                self._refusal = "the host is closed: a failed line could not be cut from its file"
            raise
        self._size += len(line)
        self._state.fold(entry)
        return entry

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

    def snapshot(self) -> tuple[list[LedgerEntry], dict[str, bytes]]:
        """The chain and its files (a path's latest write wins, as in
        `ledger.replay`), taken at one instant.  The chain is parsed from
        the file's acknowledged bytes, but for its last entry: the state's
        head, which is the entry the last append returned; the files are
        read from the parsed chain, since the state keeps no submission's
        bytes.  Nothing in the package calls it: the tests read it, and the
        benchmark's traced run wraps it."""
        with self._lock:
            data = _read_prefix(self._file(), self._size)
            head = self._state.head
        chain = ledger.load_chain(data)[:-1] + [head]
        return chain, {c.path: c.content for entry in chain for c in entry.changeset.changes}

    def read(self, route: str) -> bytes | FileRegion | None:
        """The body of `GET route`, or None for a route that is not
        served.  The body of `/ledger` is a `FileRegion` of the file's
        acknowledged bytes, the canonical NDJSON ledger, which the caller
        closes; any other body is bytes."""
        if route == "/ledger":
            with self._lock:
                return FileRegion(self._file(), self._size)
        if route not in _BODIES:
            return None
        version, build = _BODIES[route]
        with self._lock:
            now = version(self._state)
            kept = self._bodies.get(route)
            if kept is None or kept[0] != now:
                kept = self._bodies[route] = (now, build(self._state))
            return kept[1]


def _anonymous_file(data: bytes) -> int:
    """A descriptor of a new temporary file, with no name, that holds `data`."""
    with tempfile.TemporaryFile() as fh:
        _write_at(fh.fileno(), data, 0)
        return os.dup(fh.fileno())


def _head_index(state: CompetitionState) -> int:
    return state.head.index


# route -> (the version of the state its body depends on, the body as a
# function of the state), for each route but /ledger: a body built at one
# version is kept until the version moves
_BODIES = {
    "/healthz": (
        _head_index,
        lambda state: canonical_bytes(
            {"hash": to_hex(state.head.hash), "index": state.head.index}
        ),
    ),
    "/scoreboard": (_head_index, lambda state: scoreboard_bytes(state.scoreboard())),
    "/challenges": (
        lambda state: state.challenge_writes,
        lambda state: canonical_bytes(
            [d.to_json_dict() for d in state.challenges().values()]
        ),
    ),
}
