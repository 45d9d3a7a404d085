"""Canonical JSON and strict byte encodings shared by all on-disk formats.

Everything that gets hashed or signed goes through :func:`canonical_bytes`:
UTF-8, object keys sorted by code point, no insignificant whitespace, no
NaN/Infinity.  Two processes serializing the same logical value must produce
identical bytes, otherwise chain hashes stop being comparable across
replicas.

:func:`parse_json` is the package's one JSON decoder: every byte string
read from outside goes through it, so a decode raises only `ValueError`.

This module is also the package's one SHA-2 import site: :func:`sha256`
hashes ledger entries and :func:`sha512` is Ed25519's hash.  Both come from
CPython's built-in SHA-2 modules rather than `hashlib`, because importing
`hashlib` maps OpenSSL into the process (about 3.6 MiB of resident memory),
and `serve`, `audit` and every verify path hash nothing else.  Only scrypt
needs OpenSSL, and `sigproof.scrypt_kdf` imports `hashlib` on first use.

The hex/base64 decoders are deliberately strict (lowercase hex only,
canonical base64 only) so that a value round-trips to the exact byte string
it was parsed from.

:class:`Record` is the base of every immutable record the package parses
or builds.  Each record is a plain slotted class with its own `__init__`,
so creating the classes imports nothing; a generated-class decorator
would load `inspect`, `ast` and `dis`, about 1 MiB of resident memory.
"""

from __future__ import annotations

import base64
import json
import re
from typing import Any

# CPython's own SHA-2, as `random` takes it: `hashlib` would load OpenSSL.
# The module is `_sha2` from 3.12 on, `_sha256` and `_sha512` before.
try:
    from _sha2 import sha256 as _new_sha256, sha512 as _new_sha512
except ImportError:
    from _sha256 import sha256 as _new_sha256
    from _sha512 import sha512 as _new_sha512

_HEX_RE = re.compile(r"\A(?:[0-9a-f]{2})*\Z")


class Record:
    """Base of the package's immutable records.

    A subclass names its fields in `__slots__` and sets each in its own
    `__init__` with `object.__setattr__`; after that, assigning or deleting
    an attribute raises `AttributeError`.  Two records are equal when they
    are of the same class and their fields are equal, and equal records
    hash alike.  A slot whose name starts with `_` is a private cache, not
    a field: equality, the hash and the repr leave it out.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def canonical_dumps(obj: Any) -> str:
    return json.dumps(
        obj,
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=False,
        allow_nan=False,
    )


def canonical_bytes(obj: Any) -> bytes:
    return canonical_dumps(obj).encode("utf-8")


def parse_json(data: bytes) -> Any:
    """The value of the UTF-8 JSON `data`.  Bytes that are not UTF-8 and
    text that is not JSON raise the decoder's `ValueError`; nesting too
    deep to decode raises `ValueError("nested too deeply")`."""
    try:
        return json.loads(data.decode("utf-8"))
    except RecursionError:
        raise ValueError("nested too deeply") from None


def json_object(obj: Any, keys: set[str], what: str) -> None:
    """Raise `ValueError("malformed <what>")` unless `obj` is a JSON object
    with exactly the names `keys`."""
    if not isinstance(obj, dict) or obj.keys() != keys:
        raise ValueError(f"malformed {what}")


def is_int(value: Any) -> bool:
    """JSON integers only: `true` parses to a bool, which is an int."""
    return isinstance(value, int) and not isinstance(value, bool)


def sha256(data: bytes) -> bytes:
    return _new_sha256(data).digest()


def sha512(data: bytes) -> bytes:
    return _new_sha512(data).digest()


def to_hex(data: bytes) -> str:
    return data.hex()


def from_hex(text: str) -> bytes:
    """Decode lowercase hex; rejects uppercase, whitespace and odd length."""
    if not isinstance(text, str) or not _HEX_RE.match(text):
        raise ValueError(f"not canonical lowercase hex: {text!r}")
    return bytes.fromhex(text)


def to_b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def from_b64(text: str) -> bytes:
    """Decode standard padded base64; rejects any non-canonical encoding."""
    if not isinstance(text, str):
        raise ValueError("base64 value must be a string")
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
    except Exception as exc:
        raise ValueError(f"invalid base64: {text!r}") from exc
    if base64.b64encode(raw).decode("ascii") != text:
        raise ValueError(f"non-canonical base64: {text!r}")
    return raw
