"""Append-only, hash-chained transaction store.

Every committed transaction is a LedgerEntry: an ordered set of file
writes (the changeset) plus chain metadata.  Entry hashes are SHA-256 over
a canonical-JSON serialization, each entry names its predecessor's hash,
and entry 0 (genesis) publishes the organizer's verification key, so the
whole competition history is tamper-evident and replayable from a single
NDJSON file.  Organizer-privileged entries additionally carry a signature
over their pre-hash serialization, verifiable against the genesis key.
`next_entry(head, changeset)` makes every entry from its predecessor
(`genesis`, `append` and `validator.CompetitionHost` all call it), and
`link_fault(head, entry, key)` is the one check of an entry against its
predecessor.

Three guarantees this module is built around: any prefix of the chain can
be replayed (`replay(chain[: i + 1])` is the files after entry i),
committed entries can never be silently rewritten, and a copied ledger
file is a complete audit-capable replica.

A ledger file is written whole only once, when `write_ledger` creates it;
then the `validator.CompetitionHost` holding it appends each entry that
the rules in `competition` pass, as one fsynced line.  Readers fold each
entry as `entries` reads its line.
"""

from __future__ import annotations

import io
import os
import time
from collections.abc import Iterable, Iterator

from . import ed25519
from ._ed25519_core import decoded_key
from .canonical import (
    B64, HEX, Record, canonical_bytes, from_hex, is_int, listed, parse_json, sha256, to_hex
)

HASH_LEN = 32
ZERO_HASH = bytes(HASH_LEN)
MAX_PATH_LEN = 256

ORGANIZER_KEY_PATH = "meta/organizer.pub"
COMPETITION_META_PATH = "meta/competition.json"
NO_GENESIS = "the ledger has no genesis entry"


class ChainError(ValueError):
    """Raised when an operation would break chain integrity."""


def validate_path(path: str) -> str:
    if not isinstance(path, str) or not path:
        raise ValueError("path must be a non-empty string")
    if len(path) > MAX_PATH_LEN:
        raise ValueError(f"path longer than {MAX_PATH_LEN}: {path!r}")
    if path.startswith("/"):
        raise ValueError(f"path must be relative: {path!r}")
    segments = path.split("/")
    if any(seg == "" for seg in segments):
        raise ValueError(f"path has empty segments: {path!r}")
    if any(seg == ".." for seg in segments):
        raise ValueError(f"path traversal not allowed: {path!r}")
    if any(seg == "." for seg in segments):  # a second name for the path without it
        raise ValueError(f"path has a '.' segment: {path!r}")
    return path


class FileChange(Record, what="file change record"):
    _json = {"path": None, "content": B64}
    __slots__ = tuple(_json)

    def __init__(self, path: str, content: bytes) -> None:
        validate_path(path)
        if not isinstance(content, bytes):
            raise ValueError("content must be bytes")
        Record.__init__(self, path, content)


class Changeset(Record, what="changeset record"):
    _json = {
        "changes": listed(
            (FileChange.to_json_dict, FileChange.from_json_dict),
            "changeset changes must be a list",
        ),
        "author": None,
    }
    __slots__ = tuple(_json)

    def __init__(self, changes: Iterable[FileChange], author: str) -> None:
        changes = tuple(changes)
        if not changes:
            raise ValueError("changeset must contain at least one change")
        paths = [c.path for c in changes]
        if len(set(paths)) != len(paths):
            raise ValueError("changeset paths must be distinct")
        if not isinstance(author, str):
            raise ValueError("author must be a string")
        Record.__init__(self, changes, author)


# An entry the organizer did not sign has `org_sig` null.
_ORG_SIG = (
    lambda sig: None if sig is None else to_hex(sig),
    lambda text: None if text is None else from_hex(text),
)


class LedgerEntry(Record, what="ledger entry record"):
    _json = {
        "index": None,
        "timestamp": None,
        "prev_hash": HEX,
        "changeset": (Changeset.to_json_dict, Changeset.from_json_dict),
        "org_sig": _ORG_SIG,
        "hash": HEX,
    }
    # `_preimage` is `preimage()` once known.  It is never passed in, so an
    # entry built from another's fields with one of them changed serializes
    # its own fields.
    __slots__ = (*_json, "_preimage")

    def __init__(
        self,
        index: int,
        timestamp: int,
        prev_hash: bytes,
        changeset: Changeset,
        org_sig: bytes | None,
        hash: bytes,
    ) -> None:
        if not is_int(index) or index < 0:
            raise ValueError("index must be a non-negative integer")
        if not is_int(timestamp) or timestamp < 0:
            raise ValueError("timestamp must be non-negative UTC seconds")
        if len(prev_hash) != HASH_LEN or len(hash) != HASH_LEN:
            raise ValueError("hashes must be 32 bytes")
        if org_sig is not None and len(org_sig) != 64:
            raise ValueError("organizer signature must be 64 bytes")
        Record.__init__(self, index, timestamp, prev_hash, changeset, org_sig, hash, None)

    def preimage(self) -> bytes:
        """The canonical JSON of every field but `hash`: the bytes `hash`
        must be the SHA-256 of.  Serialized from the fields on the first
        call and kept, so an entry is serialized once however often it is
        hashed, checked or dumped."""
        if self._preimage is None:
            fields = _fields(
                self.index, self.timestamp, self.prev_hash, self.changeset, self.org_sig
            )
            object.__setattr__(self, "_preimage", canonical_bytes(fields))
        return self._preimage


def _fields(
    index: int, timestamp: int, prev_hash: bytes, changeset: Changeset, *sealed: bytes | None
) -> dict:
    """An entry's JSON fields: those the organizer signature covers, then
    `org_sig` (which the hash covers too) if `sealed` gives it."""
    fields = {
        "changeset": changeset.to_json_dict(),
        "index": index,
        "prev_hash": to_hex(prev_hash),
        "timestamp": timestamp,
    }
    for value in sealed:
        fields["org_sig"] = to_hex(value) if value is not None else None
    return fields


# Canonical JSON sorts an entry's keys as changeset < hash < index <
# org_sig < prev_hash < timestamp.  The changeset's own keys are author,
# changes, content and path, and a quote inside a string is escaped, so
# `,"index":` occurs once in an entry's canonical bytes, just after the
# hash field, and `,"org_sig":"` once, where a signature field starts: 128
# hex digits and a closing quote follow it.
_INDEX_KEY = b',"index":'
_SIG_KEY = b',"org_sig":"'
_SIG_FIELD_LEN = len(_SIG_KEY) + 2 * 64 + 1


def _line(preimage: bytes, digest: bytes) -> bytes:
    """The canonical line of an entry: its preimage with the hash field
    `digest` put in."""
    at = preimage.rindex(_INDEX_KEY)
    return b'%s,"hash":"%s"%s' % (preimage[:at], digest.hex().encode(), preimage[at:])


def signing_bytes(
    index: int, timestamp: int, prev_hash: bytes, changeset: Changeset
) -> bytes:
    """Serialization covered by the organizer signature (excludes the
    signature itself and the hash)."""
    return canonical_bytes(_fields(index, timestamp, prev_hash, changeset))


def next_entry(
    head: LedgerEntry | None,
    changeset: Changeset,
    timestamp: int | None = None,
    org_secret: bytes | None = None,
) -> LedgerEntry:
    """The entry after `head` (None: genesis) writing `changeset`, hashed,
    and signed with `org_secret` if given: the maker that `link_fault(head,
    entry, key)` checks.  Its index and `prev_hash` come from `head`.  Given
    no `timestamp`, it takes the clock's, or the head's when the clock is
    behind it, since timestamps never decrease.  A team entry costs one
    serialization, an organizer entry two (the signed bytes, then the
    preimage)."""
    index, prev_hash = (0, ZERO_HASH) if head is None else (head.index + 1, head.hash)
    if timestamp is None:
        timestamp = max(int(time.time()), 0 if head is None else head.timestamp)
    org_sig = None
    if org_secret is not None:
        org_sig = ed25519.sign(
            org_secret, signing_bytes(index, timestamp, prev_hash, changeset)
        )
    preimage = canonical_bytes(_fields(index, timestamp, prev_hash, changeset, org_sig))
    entry = LedgerEntry(
        index=index,
        timestamp=timestamp,
        prev_hash=prev_hash,
        changeset=changeset,
        org_sig=org_sig,
        hash=sha256(preimage),
    )
    object.__setattr__(entry, "_preimage", preimage)
    return entry


def genesis(
    organizer_public: bytes, competition_meta: bytes, timestamp: int
) -> LedgerEntry:
    """Entry 0: publishes the organizer key (the chain's trust anchor)."""
    changeset = Changeset(
        changes=(
            FileChange(path=ORGANIZER_KEY_PATH, content=to_hex(organizer_public).encode()),
            FileChange(path=COMPETITION_META_PATH, content=competition_meta),
        ),
        author="organizer",
    )
    return next_entry(None, changeset, timestamp)


def append(
    chain: list[LedgerEntry],
    changeset: Changeset,
    timestamp: int | None = None,
    org_secret: bytes | None = None,
) -> LedgerEntry:
    """Extend a verified chain in place with `next_entry` on its last
    entry, and return the new entry.  It runs no `link_fault`, so it
    refuses a `timestamp` earlier than the last entry's itself.

    Existing entries are never touched; the chain list is the only thing
    mutated.  Single logical writer: callers serialize appends themselves.
    """
    if not chain:
        raise ChainError("cannot append to an empty chain; create genesis first")
    last = chain[-1]
    if timestamp is not None and timestamp < last.timestamp:
        raise ChainError(
            f"timestamp {timestamp} earlier than predecessor {last.timestamp}"
        )
    entry = next_entry(last, changeset, timestamp, org_secret)
    chain.append(entry)
    return entry


class ChainVerdict(Record):
    __slots__ = ("ok", "index", "reason")

    def __init__(self, ok: bool, index: int | None = None, reason: str | None = None) -> None:
        Record.__init__(self, ok, index, reason)

    def __bool__(self) -> bool:
        return self.ok


_OK = ChainVerdict(ok=True)


def organizer_key(entry: LedgerEntry) -> bytes | None:
    """Organizer verification key as the genesis `entry` published it, if
    it did and if `decoded_key` accepts it."""
    for change in entry.changeset.changes:
        if change.path == ORGANIZER_KEY_PATH:
            try:
                key = from_hex(change.content.decode("ascii"))
            except (ValueError, UnicodeDecodeError):
                return None
            return key if decoded_key(key) is not None else None
    return None


def link_fault(
    head: LedgerEntry | None, entry: LedgerEntry, org_key: bytes | None
) -> str | None:
    """Why `entry` cannot follow `head` (None: `entry` would be genesis) in
    a chain whose genesis published `org_key`, or None when it can.

    Checks the index, the link, the timestamp, the hash and any organizer
    signature; never raises.
    """
    expected = 0 if head is None else head.index + 1
    if entry.index != expected:
        return f"index {entry.index}, expected {expected}"
    if entry.prev_hash != (ZERO_HASH if head is None else head.hash):
        return "prev_hash does not link to predecessor"
    if head is not None and entry.timestamp < head.timestamp:
        return "timestamp regressed"
    preimage = entry.preimage()
    if sha256(preimage) != entry.hash:
        return "hash mismatch"
    if entry.org_sig is not None:
        if org_key is None:
            return "organizer key unavailable in genesis"
        at = preimage.rindex(_SIG_KEY)  # the signed bytes: all but the signature
        payload = preimage[:at] + preimage[at + _SIG_FIELD_LEN :]
        if not ed25519.verify(org_key, entry.org_sig, payload):
            return "organizer signature invalid"
    return None


def verify_chain(chain: list[LedgerEntry]) -> ChainVerdict:
    """`link_fault` over every entry, with the key genesis published.

    Returns OK or the first offending index with a reason; never raises.
    """
    org_key = organizer_key(chain[0]) if chain else None
    head: LedgerEntry | None = None
    for i, entry in enumerate(chain):
        reason = link_fault(head, entry, org_key)
        if reason is not None:
            return ChainVerdict(False, i, reason)
        head = entry
    return _OK


def replay(chain: list[LedgerEntry]) -> dict[str, bytes]:
    """Verify the chain, then fold its changesets into path -> latest
    content; independent replicas reach byte-identical files."""
    verdict = verify_chain(chain)
    if not verdict:
        raise ChainError(f"chain fails verification at {verdict.index}: {verdict.reason}")
    return {c.path: c.content for entry in chain for c in entry.changeset.changes}


def dump_entry(entry: LedgerEntry) -> bytes:
    return _line(entry.preimage(), entry.hash)


def receipt(entry: LedgerEntry) -> bytes:
    """The canonical JSON `{"hash", "index"}` of `entry`: the body of a 201
    for an appended entry, and of `GET /healthz` for the chain head."""
    return canonical_bytes({"hash": to_hex(entry.hash), "index": entry.index})


def dump_chain(chain: Iterable[LedgerEntry]) -> bytes:
    return b"".join(dump_entry(e) + b"\n" for e in chain)


def entries(lines: Iterable[bytes]) -> Iterator[LedgerEntry]:
    """Parse an NDJSON ledger lazily from `lines` (a binary file, say),
    insisting on canonical lines.  Every line must re-serialize to exactly
    the bytes it was parsed from and end in a newline; anything else
    (re-encoded hex case, shuffled keys, duplicate keys, stray whitespace,
    a last line cut short) raises `ChainError` when it is read, so that no
    two distinct byte streams parse to the same chain.  That one
    serialization of each line is the preimage its entry keeps, so
    checking the chain serializes nothing again."""
    for lineno, line in enumerate(lines):
        if not line.endswith(b"\n"):
            raise ChainError(f"ledger line {lineno}: cut short, no final newline")
        line = line[:-1]
        try:
            entry = LedgerEntry.from_json_dict(parse_json(line))
        except ValueError as exc:
            raise ChainError(f"ledger line {lineno}: {exc}") from exc
        if dump_entry(entry) != line:
            raise ChainError(f"ledger line {lineno}: not in canonical form")
        yield entry


def load_chain(data: bytes) -> list[LedgerEntry]:
    """The list form of `entries`, kept for `CompetitionHost.snapshot`, the
    tests and the benchmark until ROADMAP item 1 or 4 retires it."""
    return list(entries(io.BytesIO(data)))  # holds no second copy of `data`


def write_ledger(path: str, chain: list[LedgerEntry]) -> None:
    """Create the ledger file `path` holding `chain`, with `create_file`."""
    create_file(path, dump_chain(chain))


def create_file(path: str, data: bytes, mode: int = 0o666) -> None:
    """Create the file `path` holding `data`, and fsync it and then its
    directory, so a crash loses neither the bytes nor the name.  Raises
    `FileExistsError` at an existing file; removes the file if a write fails."""
    with os.fdopen(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode), "wb") as fh:
        try:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        except BaseException:
            os.unlink(path)
            raise
    sync_directory(path)


def sync_directory(path: str) -> None:
    """fsync the directory that holds `path`, so a name made in it lasts."""
    fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def read_ledger(path: str) -> list[LedgerEntry]:
    with open(path, "rb") as fh:
        return list(entries(fh))
