"""Append-only, hash-chained transaction store.

Every committed transaction is a LedgerEntry: an ordered set of file
writes (the changeset) plus chain metadata.  Entry hashes are SHA-256 over
a canonical-JSON serialization, each entry names its predecessor's hash,
and entry 0 (genesis) publishes the organizer's verification key, so the
whole competition history is tamper-evident and replayable from a single
NDJSON file.  Organizer-privileged entries additionally carry a signature
over their pre-hash serialization, verifiable against the genesis key.

Three guarantees this module is built around: any prefix of the chain can
be snapshotted, committed entries can never be silently rewritten, and a
copied ledger file is a complete audit-capable replica.

A ledger file is written whole only once, when `write_ledger` creates it.
From then on the `CompetitionHost` that holds the file (see `validator`)
is its one writer and appends each entry as one fsynced line.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Iterable

from . import ed25519
from .canonical import canonical_bytes, from_b64, from_hex, sha256, to_b64, to_hex

HASH_LEN = 32
ZERO_HASH = bytes(HASH_LEN)
MAX_PATH_LEN = 256

ORGANIZER_KEY_PATH = "meta/organizer.pub"
COMPETITION_META_PATH = "meta/competition.json"


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
    return path


@dataclass(frozen=True, slots=True)
class FileChange:
    path: str
    content: bytes

    def __post_init__(self) -> None:
        validate_path(self.path)
        if not isinstance(self.content, bytes):
            raise ValueError("content must be bytes")


@dataclass(frozen=True, slots=True)
class Changeset:
    changes: tuple[FileChange, ...]
    author: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "changes", tuple(self.changes))
        if not self.changes:
            raise ValueError("changeset must contain at least one change")
        paths = [c.path for c in self.changes]
        if len(set(paths)) != len(paths):
            raise ValueError("changeset paths must be distinct")
        if not isinstance(self.author, str):
            raise ValueError("author must be a string")

    def to_json_dict(self) -> dict:
        return {
            "author": self.author,
            "changes": [
                {"content": to_b64(c.content), "path": c.path} for c in self.changes
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Changeset":
        if not isinstance(obj, dict) or set(obj) != {"author", "changes"}:
            raise ValueError("malformed changeset record")
        raw_changes = obj["changes"]
        if not isinstance(raw_changes, list):
            raise ValueError("changeset changes must be a list")
        changes = []
        for entry in raw_changes:
            if not isinstance(entry, dict) or set(entry) != {"content", "path"}:
                raise ValueError("malformed file change record")
            changes.append(
                FileChange(path=entry["path"], content=from_b64(entry["content"]))
            )
        return cls(changes=tuple(changes), author=obj["author"])


def _is_int(value) -> bool:
    """JSON integers only: `true` parses to a bool, which is an int."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True, slots=True)
class LedgerEntry:
    index: int
    timestamp: int
    prev_hash: bytes
    changeset: Changeset
    org_sig: bytes | None
    hash: bytes

    def __post_init__(self) -> None:
        if not _is_int(self.index) or self.index < 0:
            raise ValueError("index must be a non-negative integer")
        if not _is_int(self.timestamp) or self.timestamp < 0:
            raise ValueError("timestamp must be non-negative UTC seconds")
        if len(self.prev_hash) != HASH_LEN or len(self.hash) != HASH_LEN:
            raise ValueError("hashes must be 32 bytes")
        if self.org_sig is not None and len(self.org_sig) != 64:
            raise ValueError("organizer signature must be 64 bytes")

    def to_json_dict(self) -> dict:
        return {
            "changeset": self.changeset.to_json_dict(),
            "hash": to_hex(self.hash),
            "index": self.index,
            "org_sig": to_hex(self.org_sig) if self.org_sig is not None else None,
            "prev_hash": to_hex(self.prev_hash),
            "timestamp": self.timestamp,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "LedgerEntry":
        keys = {"changeset", "hash", "index", "org_sig", "prev_hash", "timestamp"}
        if not isinstance(obj, dict) or set(obj) != keys:
            raise ValueError("malformed ledger entry record")
        org_sig = obj["org_sig"]
        return cls(
            index=obj["index"],
            timestamp=obj["timestamp"],
            prev_hash=from_hex(obj["prev_hash"]),
            changeset=Changeset.from_json_dict(obj["changeset"]),
            org_sig=from_hex(org_sig) if org_sig is not None else None,
            hash=from_hex(obj["hash"]),
        )


@dataclass(slots=True)
class LedgerState:
    """Fold of all changesets up to some entry: path -> latest content."""

    files: dict[str, bytes] = field(default_factory=dict)

    def get(self, path: str) -> bytes | None:
        return self.files.get(path)

    def __contains__(self, path: str) -> bool:
        return path in self.files

    def paths(self, prefix: str = "") -> list[str]:
        return sorted(p for p in self.files if p.startswith(prefix))

    def apply(self, changeset: Changeset) -> None:
        for change in changeset.changes:
            self.files[change.path] = change.content


def signing_bytes(
    index: int, timestamp: int, prev_hash: bytes, changeset: Changeset
) -> bytes:
    """Serialization covered by the organizer signature (excludes the
    signature itself and the hash)."""
    return canonical_bytes(
        {
            "changeset": changeset.to_json_dict(),
            "index": index,
            "prev_hash": to_hex(prev_hash),
            "timestamp": timestamp,
        }
    )


def entry_hash(
    index: int,
    timestamp: int,
    prev_hash: bytes,
    changeset: Changeset,
    org_sig: bytes | None,
) -> bytes:
    return sha256(
        canonical_bytes(
            {
                "changeset": changeset.to_json_dict(),
                "index": index,
                "org_sig": to_hex(org_sig) if org_sig is not None else None,
                "prev_hash": to_hex(prev_hash),
                "timestamp": timestamp,
            }
        )
    )


def make_entry(
    index: int,
    timestamp: int,
    prev_hash: bytes,
    changeset: Changeset,
    org_secret: bytes | None = None,
) -> LedgerEntry:
    org_sig = None
    if org_secret is not None:
        org_sig = ed25519.sign(
            org_secret, signing_bytes(index, timestamp, prev_hash, changeset)
        )
    return LedgerEntry(
        index=index,
        timestamp=timestamp,
        prev_hash=prev_hash,
        changeset=changeset,
        org_sig=org_sig,
        hash=entry_hash(index, timestamp, prev_hash, changeset, org_sig),
    )


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
    return make_entry(0, timestamp, ZERO_HASH, changeset)


def append(
    chain: list[LedgerEntry],
    changeset: Changeset,
    timestamp: int | None = None,
    org_secret: bytes | None = None,
) -> LedgerEntry:
    """Extend a verified chain in place and return the new entry.

    Existing entries are never touched; the chain list is the only thing
    mutated.  Single logical writer: callers serialize appends themselves.
    """
    if not chain:
        raise ChainError("cannot append to an empty chain; create genesis first")
    last = chain[-1]
    if timestamp is None:
        timestamp = int(time.time())
    if timestamp < last.timestamp:
        raise ChainError(
            f"timestamp {timestamp} earlier than predecessor {last.timestamp}"
        )
    entry = make_entry(last.index + 1, timestamp, last.hash, changeset, org_secret)
    chain.append(entry)
    return entry


@dataclass(frozen=True, slots=True)
class ChainVerdict:
    ok: bool
    index: int | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


_OK = ChainVerdict(ok=True)


def organizer_key(chain: list[LedgerEntry]) -> bytes | None:
    """Organizer verification key as published by genesis, if any."""
    if not chain:
        return None
    for change in chain[0].changeset.changes:
        if change.path == ORGANIZER_KEY_PATH:
            try:
                key = from_hex(change.content.decode("ascii"))
            except (ValueError, UnicodeDecodeError):
                return None
            return key if len(key) == 32 else None
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
    recomputed = entry_hash(
        entry.index, entry.timestamp, entry.prev_hash, entry.changeset, entry.org_sig
    )
    if recomputed != entry.hash:
        return "hash mismatch"
    if entry.org_sig is not None:
        if org_key is None:
            return "organizer key unavailable in genesis"
        payload = signing_bytes(entry.index, entry.timestamp, entry.prev_hash, entry.changeset)
        if not ed25519.verify(org_key, entry.org_sig, payload):
            return "organizer signature invalid"
    return None


def verify_chain(chain: list[LedgerEntry]) -> ChainVerdict:
    """`link_fault` over every entry, with the key genesis published.

    Returns OK or the first offending index with a reason; never raises.
    """
    org_key = organizer_key(chain)
    head: LedgerEntry | None = None
    for i, entry in enumerate(chain):
        reason = link_fault(head, entry, org_key)
        if reason is not None:
            return ChainVerdict(False, i, reason)
        head = entry
    return _OK


def snapshot_at(chain: list[LedgerEntry], index: int) -> LedgerState:
    """Left-fold of changesets 0..index (later writes win per path)."""
    if index < 0 or index >= len(chain):
        raise IndexError(f"index {index} out of range for chain of {len(chain)}")
    state = LedgerState()
    for entry in chain[: index + 1]:
        state.apply(entry.changeset)
    return state


def replay(chain: list[LedgerEntry]) -> LedgerState:
    """Verify and fold the whole chain; independent replicas reach
    byte-identical states."""
    verdict = verify_chain(chain)
    if not verdict:
        raise ChainError(f"chain fails verification at {verdict.index}: {verdict.reason}")
    if not chain:
        return LedgerState()
    return snapshot_at(chain, len(chain) - 1)


def dump_entry(entry: LedgerEntry) -> bytes:
    return canonical_bytes(entry.to_json_dict())


def dump_chain(chain: Iterable[LedgerEntry]) -> bytes:
    return b"".join(dump_entry(e) + b"\n" for e in chain)


def load_chain(data: bytes) -> list[LedgerEntry]:
    """Parse an NDJSON ledger, insisting on canonical lines.

    Every line must re-serialize to exactly the bytes it was parsed from
    and end in a newline; anything else (re-encoded hex case, shuffled
    keys, duplicate keys, stray whitespace, a last line cut short) is
    rejected so that no two distinct byte streams parse to the same chain.
    """
    lines = data.split(b"\n")
    last = lines.pop()
    if last:
        raise ChainError(f"ledger line {len(lines)}: cut short, no final newline")
    chain: list[LedgerEntry] = []
    for lineno, line in enumerate(lines):
        try:
            obj = json.loads(line.decode("utf-8"))
            entry = LedgerEntry.from_json_dict(obj)
        except (ValueError, RecursionError) as exc:  # UnicodeDecodeError included
            raise ChainError(f"ledger line {lineno}: {exc}") from exc
        if dump_entry(entry) != line:
            raise ChainError(f"ledger line {lineno}: not in canonical form")
        chain.append(entry)
    return chain


def write_ledger(path: str, chain: list[LedgerEntry]) -> None:
    """Create a ledger file holding `chain`, durably.  Raises
    `FileExistsError` rather than touch an existing file: entries are
    added to a ledger file only by the `CompetitionHost` holding it."""
    with open(path, "xb") as fh:
        fh.write(dump_chain(chain))
        fh.flush()
        os.fsync(fh.fileno())


def read_ledger(path: str) -> list[LedgerEntry]:
    with open(path, "rb") as fh:
        return load_chain(fh.read())
