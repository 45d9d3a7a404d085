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
or builds.  A record that has a JSON form states it once, in its `_json`
table: its JSON keys in field order, each with the codec of its value.
`Record` derives the record's `to_json_dict`, `from_json_dict` and
`serialize` from that table, with plain loops and no generated code, so
creating the classes imports nothing; a generated-class decorator would
load `inspect`, `ast` and `dis`, about 1 MiB of resident memory.
"""

from __future__ import annotations

import base64
import json
from collections.abc import Set

# CPython's own SHA-2, as `random` takes it: `hashlib` would load OpenSSL.
# The module is `_sha2` from 3.12 on, `_sha256` and `_sha512` before.
try:
    from _sha2 import sha256 as _new_sha256, sha512 as _new_sha512
except ImportError:
    from _sha256 import sha256 as _new_sha256
    from _sha512 import sha512 as _new_sha512


class Record:
    """Base of the package's immutable records.

    A subclass names its fields in `__slots__`.  Its own `__init__` checks
    its arguments and ends with `Record.__init__(self, *values)`, which
    stores one value for each slot, in slot order; after that, assigning
    or deleting an attribute raises `AttributeError`.  Two records are
    equal when they are of the same class and their fields are equal, and
    equal records hash alike.  A slot whose name starts with `_` is a
    private cache, not a field: equality, the hash and the repr leave it
    out.

    A record with a JSON form declares it as `_json`, a dict from each
    JSON key, in field order, to the codec of its value: `None` for a
    value JSON holds as it is, else an `(encode, decode)` pair such as
    `HEX`, `B64`, a nested record's `(to_json_dict, from_json_dict)` or
    `listed(...)`.  A key names the field (or class attribute) that holds
    its value.  The class names itself for errors with `what=` in its
    bases, so a JSON object without exactly the table's keys raises
    `ValueError("malformed <what>")`.  `from_json_dict` decodes the values
    in key order and then calls the class, so the first fault in key
    order, or else the first of the class's own checks, is the error.
    """

    __slots__ = ()

    def __init_subclass__(cls, what: str = "") -> None:
        super().__init_subclass__()
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._store = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)
        cls._what = what

    def __init__(self, *values: object) -> None:
        for store, value in zip(self._store, values):
            store(self, value)

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

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def to_json_dict(self) -> dict:
        obj = {}
        for key, codec in self._json.items():
            value = getattr(self, key)
            obj[key] = value if codec is None else codec[0](value)
        return obj

    @classmethod
    def from_json_dict(cls, obj: object) -> Record:
        json_object(obj, cls._json.keys(), cls._what)
        values = []
        for key, codec in cls._json.items():
            value = obj[key]
            values.append(value if codec is None else codec[1](value))
        return cls(*values)

    def serialize(self) -> bytes:
        return canonical_bytes(self.to_json_dict())


def canonical_dumps(obj: object) -> str:
    return json.dumps(
        obj,
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=False,
        allow_nan=False,
    )


def canonical_bytes(obj: object) -> bytes:
    return canonical_dumps(obj).encode("utf-8")


def parse_json(data: bytes) -> object:
    """The value of the UTF-8 JSON `data`.  Bytes that are not UTF-8 and
    text that is not JSON raise the decoder's `ValueError`; nesting too
    deep to decode raises `ValueError("nested too deeply")`."""
    try:
        return json.loads(data.decode("utf-8"))
    except RecursionError:
        raise ValueError("nested too deeply") from None


def json_object(obj: object, keys: Set[str], what: str) -> None:
    """Raise `ValueError("malformed <what>")` unless `obj` is a JSON object
    with exactly the names `keys`."""
    if not isinstance(obj, dict) or obj.keys() != keys:
        raise ValueError(f"malformed {what}")


def is_int(value: object) -> bool:
    """JSON integers only: `true` parses to a bool, which is an int."""
    return isinstance(value, int) and not isinstance(value, bool)


def sha256(data: bytes) -> bytes:
    return _new_sha256(data).digest()


def sha512(data: bytes) -> bytes:
    return _new_sha512(data).digest()


def to_hex(data: bytes) -> str:
    return data.hex()


def from_hex(text: str) -> bytes:
    """Decode lowercase hex; rejects uppercase, whitespace and odd length:
    anything that `to_hex` does not give back unchanged."""
    try:
        raw = bytes.fromhex(text)
        if raw.hex() == text:
            return raw
    except (TypeError, ValueError):
        pass
    raise ValueError(f"not canonical lowercase hex: {text!r}")


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


# Codecs of `Record._json` tables: an `(encode, decode)` pair for each
# way a value is held in JSON.
HEX = (to_hex, from_hex)
B64 = (to_b64, from_b64)


def listed(item: tuple | None, message: str) -> tuple:
    """The codec of a JSON list of values with the codec `item`, held as
    a tuple.  A JSON value that is not a list raises `ValueError(message)`."""
    encode, decode = item or (None, None)

    def to_json(values: tuple) -> list:
        return list(values if encode is None else map(encode, values))

    def from_json(value: object) -> tuple:
        if not isinstance(value, list):
            raise ValueError(message)
        return tuple(value if decode is None else map(decode, value))

    return to_json, from_json
