"""The competition host: the one writer of a ledger file.

`CompetitionHost` holds the file of the ledger's acknowledged bytes and
the state folded from them, and serializes every append and read.  It
makes no rule of its own: it appends an entry only when
`competition.audit_entry` (the chain, genesis and organizer rules) and,
for a team entry, `competition.validate_changeset` (the team rules) pass
it, the same functions that `competition.audit_all` runs, so an auditor
replaying the ledger reaches the host's verdicts.  `FileRegion` is the
body of `GET /ledger`, the acknowledged bytes on a descriptor of its own;
every other body the host serves is the state's (`_BODIES`), which the
state keeps until a write changes it, so the host keeps no body itself.
"""

from __future__ import annotations

import fcntl
import os
import threading
import weakref
from collections.abc import Iterable

from . import ledger
from .competition import (
    CompetitionState, ValidationVerdict, audit_entry, validate_changeset
)
from .ledger import Changeset, LedgerEntry


_CLOSED = "the competition host is closed"


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
    `competition.audit_entry`: the chain, genesis and organizer rules,
    among them that no organizer entry rewrites a release.
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
    file, which leaves no name behind; it imports `tempfile` on first use,
    so `serve` never loads it (nor the `shutil`, `bz2` and `lzma` it pulls
    in).  A host dropped without `close` releases its file when it is
    collected.

    All reads and appends take one lock.  An append builds the next entry
    on the state's head with `ledger.next_entry`, which also stamps an
    append given no timestamp, serializing it once; it writes the entry's
    canonical line to the file right after the acknowledged bytes and
    fsyncs it, so the line is on disk before `apply` or `apply_organizer`
    returns the entry, and then folds it into the state.  An entry whose
    write fails joins neither the acknowledged bytes nor the state, and is
    cut back out of the file; if that cut fails too, the host refuses
    every later append, as after `close`, and still serves the bytes it
    acknowledged.

    `read(route)` gives the body of `/ledger` as a `FileRegion`: the
    acknowledged bytes at that instant, on a descriptor of its own, so a
    caller sends them without holding the lock and never sends a byte
    past them or from another file.  Any other body is one bytes object,
    which the host asks of the state under the lock on each read and does
    not keep.  The state keeps the scoreboard's
    (`CompetitionState.scoreboard_body`), which a solve splices rather than
    rebuilds, and the challenge list's (`challenges_body`), which only a
    challenge write drops; `/healthz` is the head's `ledger.receipt`.
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
            raise ledger.ChainError(str(findings[0]))

    def _append(
        self, changeset: Changeset, timestamp: int | None, org_secret: bytes | None = None
    ) -> LedgerEntry:
        """Build the entry after the head, check it, write it to the file
        after the acknowledged bytes, then fold it."""
        if self._refusal is not None:
            raise ValueError(self._refusal)
        entry = ledger.next_entry(self._state.head, changeset, timestamp, org_secret)
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
        """Team-originated append: the appended entry, or the refusal
        (`validate_changeset`'s verdict) with nothing appended."""
        with self._lock:
            verdict = validate_changeset(self._state, changeset)
            if verdict is not None:
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
        build = _BODIES.get(route)
        with self._lock:
            if route == "/ledger":
                return FileRegion(self._file(), self._size)
            return None if build is None else build(self._state)


def _anonymous_file(data: bytes) -> int:
    """A descriptor of a new temporary file, with no name, that holds `data`."""
    import tempfile  # on first use: only a host made from a chain needs it

    with tempfile.TemporaryFile() as fh:
        _write_at(fh.fileno(), data, 0)
        return os.dup(fh.fileno())


# route -> its body as a function of the state, for each route but /ledger
_BODIES = {
    "/healthz": lambda state: ledger.receipt(state.head),
    "/scoreboard": CompetitionState.scoreboard_body,
    "/challenges": CompetitionState.challenges_body,
}
