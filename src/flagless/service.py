"""Minimal HTTP front door for a competition host.

Wire contract (HTTP/1.1, canonical JSON on every response body):

    POST /changesets   team changeset in the body
                       201 {"hash": ..., "index": ...} on accept
                       422 {"code": ..., "message": ..., "outcome": "REJECT"}
    GET  /challenges   200, list of challenge descriptors
    GET  /scoreboard   200, scoreboard rows
    GET  /ledger       200, full NDJSON ledger (application/x-ndjson)
    GET  /healthz      200 {"hash": ..., "index": ...} of the chain head

Malformed request bodies (a Content-Length that is missing, repeated or
not a run of ASCII digits, bytes that are not UTF-8 JSON or nest too
deeply, a changeset that does not parse) get 400, bodies over 1 MiB get
413.  A request answered without reading its body (a POST answered 404,
413, or 400 for its Content-Length, or a GET with a nonzero
Content-Length or any Transfer-Encoding) carries `Connection: close`, and
the connection closes after the answer, so the body is never parsed as a
request.  A connection that stays silent for `_Handler.timeout` seconds,
mid-request (say, a body shorter than its
Content-Length) or between keep-alive requests, is closed without an
answer, so a stalled client cannot pin a handler thread.  The host
serializes appends and reads, so every read sees the state between two
appends.  `GET /ledger` serves the canonical bytes the host holds (for a
file host, the bytes of its file) without serializing the chain, and the
other GET bodies are built at most once per chain head.  Each read hands
the handler an immutable `bytes`, written to the socket outside the
host's lock.  When the host holds a ledger file, a 201 goes out only after
the entry's line is fsynced there; if that write fails, the connection is
closed without an answer and the entry is not kept.  Transient 5xx
answers and unanswered requests are safe to retry because duplicate
submissions are rejected deterministically.
"""

from __future__ import annotations

import json
import logging
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .canonical import canonical_bytes, to_hex
from .ledger import Changeset
from .validator import CompetitionHost, ValidationVerdict

MAX_BODY_BYTES = 1 << 20
_NOT_FOUND = canonical_bytes({"error": "not found"})
_BAD_LENGTH = canonical_bytes({"error": "missing or invalid Content-Length"})
_TOO_LARGE = canonical_bytes({"error": "body exceeds 1 MiB"})

log = logging.getLogger(__name__)


class _Handler(BaseHTTPRequestHandler):
    server_version = "flagless"
    protocol_version = "HTTP/1.1"
    # Headers and body go out in separate writes; without TCP_NODELAY the
    # second waits on the client's delayed ACK (~40 ms on keep-alive).
    disable_nagle_algorithm = True
    # Socket timeout in seconds; a read that times out closes the connection.
    timeout = 30
    host: CompetitionHost  # set by make_server on the handler subclass

    def log_message(self, fmt: str, *args) -> None:
        log.debug("%s %s", self.address_string(), fmt % args)

    def _respond(
        self, status: int, body: bytes, content_type: str = "application/json", *, close=False
    ) -> None:
        self.send_response(status)
        if close:  # also sets self.close_connection
            self.send_header("Connection", "close")
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _respond_json(self, status: int, obj) -> None:
        self._respond(status, canonical_bytes(obj))

    def do_GET(self) -> None:
        # A GET body is never read, so a connection that sent one closes.
        close = "Transfer-Encoding" in self.headers or self.headers["Content-Length"] not in (None, "0")
        if self.path == "/scoreboard":
            self._respond(200, self.host.scoreboard_body(), close=close)
        elif self.path == "/challenges":
            self._respond(200, self.host.challenges_body(), close=close)
        elif self.path == "/ledger":
            self._respond(200, self.host.ledger_bytes(), "application/x-ndjson", close=close)
        elif self.path == "/healthz":
            self._respond(200, self.host.head_body(), close=close)
        else:
            self._respond(404, _NOT_FOUND, close=close)

    def do_POST(self) -> None:
        if self.path != "/changesets":
            self._respond(404, _NOT_FOUND, close=True)
            return
        # RFC 9112 section 6.3: exactly one Content-Length of ASCII digits;
        # anything else is unrecoverable framing, so the connection closes
        lengths = self.headers.get_all("Content-Length", [])
        value = lengths[0].strip(" \t") if len(lengths) == 1 else ""
        if not (value.isascii() and value.isdigit()):
            self._respond(400, _BAD_LENGTH, close=True)
            return
        length = int(value)
        if length > MAX_BODY_BYTES:
            self._respond(413, _TOO_LARGE, close=True)
            return
        body = self.rfile.read(length)
        try:
            changeset = Changeset.from_json_dict(json.loads(body.decode("utf-8")))
        except ValueError as exc:  # UnicodeDecodeError included
            self._respond_json(400, {"error": f"malformed changeset: {exc}"})
            return
        except RecursionError:
            self._respond_json(400, {"error": "malformed changeset: nested too deeply"})
            return
        result = self.host.apply(changeset)
        if isinstance(result, ValidationVerdict):
            self._respond_json(
                422,
                {
                    "code": result.code.name,
                    "message": result.message,
                    "outcome": "REJECT",
                },
            )
        else:
            self._respond_json(
                201, {"hash": to_hex(result.hash), "index": result.index}
            )


def make_server(host: CompetitionHost, address: tuple[str, int]) -> ThreadingHTTPServer:
    handler = type("BoundHandler", (_Handler,), {"host": host})
    server = ThreadingHTTPServer(address, handler)
    server.daemon_threads = True
    return server
