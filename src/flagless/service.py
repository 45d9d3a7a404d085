"""Minimal HTTP front door for a competition host.

Wire contract (HTTP/1.1, canonical JSON on every response body):

    POST /changesets   team changeset in the body
                       201 {"hash": ..., "index": ...} on accept
                       422 {"code": ..., "message": ..., "outcome": "REJECT"}
    GET  /challenges   200, list of challenge descriptors
    GET  /scoreboard   200, scoreboard rows
    GET  /ledger       200, full NDJSON ledger (application/x-ndjson)
    GET  /healthz      200 {"hash": ..., "index": ...} of the chain head

Every other answer is a status line, `Content-Type: application/json` and
a body `{"error": ...}`.  A request head that cannot be served gets 400
for a malformed request line or header line (no colon, whitespace before
the colon, or an obs-fold continuation line), 431 for a line over 64 KiB
or more than 100 header fields, 505 for an HTTP version other than 1.0
or 1.1, and 501 for a method other than GET or POST.  Malformed request
bodies (a Content-Length that is missing, repeated or not a run of ASCII
digits, any Transfer-Encoding on a POST, bytes that are not UTF-8 JSON or
nest too deeply, a changeset that does not parse) get 400, bodies over
1 MiB get 413, and an unknown route gets 404.  A POST carrying
`Expect: 100-continue` gets `100 Continue` once its framing passes, just
before its body is read.  An answer given without reading the request's
body (a refused head, a POST answered 404, 413, or 400 for its framing,
and a GET with a nonzero Content-Length or any Transfer-Encoding) carries
`Connection: close`, and the connection closes after the answer, so the
body is never parsed as a request (RFC 9112 section 6.3).  Otherwise an HTTP/1.1 connection
persists unless the request's Connection header has a `close` token, and
an HTTP/1.0 one closes unless it has a `keep-alive` token.  At most
`MAX_CONNECTIONS` connections are live at once; one more is answered 503
with `Connection: close` and closed.  Connections are served by reused
worker threads, and a worker starts only when the live connections
outnumber the workers, so a client that opens a connection for each
request starts no thread for each.  A connection that stays silent for
`_Handler.timeout` seconds, mid-request (say, a body shorter than its
Content-Length) or between keep-alive requests, is closed without an
answer, so a stalled client cannot pin a worker; one whose client takes
no byte of an answer for that long is closed with the answer cut short.
One that the client resets is closed and logged at debug level only.
The host serializes appends and reads, so every read sees the state
between two appends.  `GET /ledger` is the acknowledged prefix of the
host's file (for `serve`, the ledger file): its bytes up to the last
entry acknowledged when the read began, sent from the file with
`sendfile` after the answer's head, outside the host's lock.  So `serve`
keeps no copy of the ledger, and never sends a byte past that prefix.
The other GET bodies are built at most once per chain head (the
challenge list once per release), and each goes out with its head in one
gather write.  A 201 goes out only after the entry's line is fsynced to
the host's file; if that write fails, the connection is closed without
an answer and the entry is not kept.  A 503 is safe to retry: its
request was not read.  An unanswered POST may still have been appended,
so its retry can get 422 `DUPLICATE_SUBMISSION` or `DUPLICATE_TEAM`;
`GET /ledger` tells whether the entry is there.
"""

from __future__ import annotations

import collections
import functools
import logging
import os
import re
import select
import socket
import socketserver
import threading
import time
from http import HTTPStatus

from .canonical import canonical_bytes, parse_json, to_hex
from .ledger import Changeset
from .validator import CompetitionHost, FileRegion, ValidationVerdict

MAX_BODY_BYTES = 1 << 20
MAX_CONNECTIONS = 64
_MAX_LINE = 1 << 16  # bytes in a request or header line, CRLF included
_MAX_FIELDS = 100
_FIELD_NAME = re.compile(rb"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")  # RFC 9110 token
_NOT_FOUND = canonical_bytes({"error": "not found"})
_BAD_LENGTH = canonical_bytes({"error": "missing or invalid Content-Length"})
_TOO_LARGE = canonical_bytes({"error": "body exceeds 1 MiB"})
_BUSY = canonical_bytes({"error": "too many connections"})

log = logging.getLogger(__name__)


@functools.lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    return time.strftime("%a, %d %b %Y %H:%M:%S GMT", time.gmtime(second))


def _send(sock: socket.socket, status: int, body, content_type: str, close: bool) -> None:
    """Write an answer whose body is bytes or a `FileRegion`.  Bytes go
    out with the head in one gather write (`sendmsg`), with more only for
    what the socket did not take.  A region goes out from its file with
    `sendfile`, after the head; while the socket's buffer is full it
    waits for room, and raises `TimeoutError` when none comes within the
    socket's timeout."""
    head = (
        f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\nServer: flagless\r\n"
        f"Date: {_http_date(int(time.time()))}\r\n"
        + ("Connection: close\r\n" if close else "")
        + f"Content-Type: {content_type}\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode("ascii")
    if isinstance(body, FileRegion):
        # Not with MSG_MORE: a corked head held the whole body back, and a
        # keep-alive GET /ledger of 442 KB over loopback on a 2-vCPU Linux
        # machine took 0.8 ms instead of 0.16.
        sock.sendall(head)
        out, offset = sock.fileno(), 0
        while offset < body.size:
            try:
                sent = os.sendfile(out, body.fd, offset, body.size - offset)
            except BlockingIOError:  # only a socket with a timeout is nonblocking
                poller = select.poll()
                poller.register(out, select.POLLOUT)
                if not poller.poll(sock.gettimeout() * 1000):
                    raise TimeoutError("the client stopped reading") from None
                continue
            if not sent:
                raise EOFError("the file is shorter than its region")
            offset += sent
        return
    buffers = [head, body]
    while buffers:
        sent = sock.sendmsg(buffers)
        while buffers and sent >= len(buffers[0]):
            sent -= len(buffers.pop(0))
        if sent:
            buffers[0] = memoryview(buffers[0])[sent:]


def answer(host: CompetitionHost, changeset: Changeset) -> tuple[int, dict]:
    """`host.apply(changeset)` as the status and payload of its answer:
    201 {"hash", "index"} of the appended entry, or 422 {"code",
    "message", "outcome": "REJECT"} of the verdict."""
    result = host.apply(changeset)
    if isinstance(result, ValidationVerdict):
        return 422, {"code": result.code.name, "message": result.message, "outcome": "REJECT"}
    return 201, {"hash": to_hex(result.hash), "index": result.index}


class _Refused(Exception):
    """A request head that cannot be served: (status, error message)."""


class _Headers(dict):
    """Lower-cased field name -> values in arrival order, read as
    `email.message.Message` reads: by any case, `get` giving the first."""

    def get(self, name: str, default=None):
        return self.get_all(name, [default])[0]

    def get_all(self, name: str, default=None):
        return super().get(name.lower(), default)


class _Handler(socketserver.StreamRequestHandler):
    # An answer's last segment, a ledger's from `sendfile` included, would
    # otherwise wait on the client's delayed ACK (~40 ms on keep-alive).
    disable_nagle_algorithm = True
    # Socket timeout in seconds; a read, or a wait for room to send, that
    # times out closes the connection.
    timeout = 30
    host: CompetitionHost  # set by make_server on the handler subclass

    def handle(self) -> None:
        try:
            try:
                while self._read_head():
                    getattr(self, "do_" + self.command)()
                    if self.close_connection:
                        return
            except _Refused as exc:
                status, error = exc.args
                self._respond(status, canonical_bytes({"error": error}), close=True)
        except TimeoutError:
            pass  # closed without an answer, or with one cut short
        except ConnectionError as exc:  # the client reset or closed mid-request
            log.debug("%s %s %s: %s", self.client_address[0], self.command, self.path, exc)

    def _line(self) -> bytes:
        line = self.rfile.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise _Refused(431, "line exceeds 64 KiB")
        return line

    def _read_head(self) -> bool:
        """Parse a request line and its header fields into `command`, `path`,
        `headers` and `close_connection`; False at the end of the stream."""
        self.close_connection, self.command, self.path = True, "-", "-"
        line = self._line()
        if not line:
            return False
        parts = line[:-2].split(b" ") if line.endswith(b"\r\n") else []
        if len(parts) != 3 or not parts[1] or not parts[2].startswith(b"HTTP/"):
            raise _Refused(400, "malformed request line")
        method, target, version = parts
        if version not in (b"HTTP/1.0", b"HTTP/1.1"):
            raise _Refused(505, "HTTP version not supported")
        if method not in (b"GET", b"POST"):
            raise _Refused(501, "method not implemented")
        self.command, self.path = method.decode("ascii"), target.decode("latin-1")
        self.headers = _Headers()
        for _ in range(_MAX_FIELDS + 1):
            line = self._line()
            if line == b"\r\n":
                break
            name, colon, value = line.partition(b":")
            if not (colon and line.endswith(b"\r\n") and _FIELD_NAME.fullmatch(name)):
                raise _Refused(400, "malformed header line")
            value = value.strip(b" \t\r\n").decode("latin-1")
            self.headers.setdefault(name.decode("ascii").lower(), []).append(value)
        else:
            raise _Refused(431, "more than 100 header fields")
        connection = ",".join(self.headers.get_all("Connection", [])).lower()
        tokens = {token.strip(" \t") for token in connection.split(",")}
        self._http11 = version == b"HTTP/1.1"
        self.close_connection = "close" in tokens if self._http11 else "keep-alive" not in tokens
        return True

    def _respond(
        self, status: int, body, content_type: str = "application/json", *, close=False
    ) -> None:
        self.close_connection = self.close_connection or close
        _send(self.request, status, body, content_type, self.close_connection)
        log.debug("%s %s %s %d", self.client_address[0], self.command, self.path, status)

    def _respond_json(self, status: int, obj) -> None:
        self._respond(status, canonical_bytes(obj))

    def do_GET(self) -> None:
        # A GET body is never read, so a connection that sent one closes.
        chunked = self.headers.get("Transfer-Encoding") is not None
        close = chunked or self.headers.get("Content-Length") not in (None, "0")
        body = self.host.read(self.path)
        if body is None:
            self._respond(404, _NOT_FOUND, close=close)
        elif self.path == "/ledger":
            with body:
                self._respond(200, body, "application/x-ndjson", close=close)
        else:
            self._respond(200, body, close=close)

    def do_POST(self) -> None:
        if self.path != "/changesets":
            self._respond(404, _NOT_FOUND, close=True)
            return
        # RFC 9112 section 6.3: no Transfer-Encoding and exactly one
        # Content-Length of ASCII digits; anything else is unrecoverable
        # framing, so the connection closes
        lengths = self.headers.get_all("Content-Length", [])
        value = lengths[0] if len(lengths) == 1 else ""
        chunked = self.headers.get("Transfer-Encoding") is not None
        if chunked or not (value.isascii() and value.isdigit()):
            self._respond(400, _BAD_LENGTH, close=True)
            return
        length = int(value)
        if length > MAX_BODY_BYTES:
            self._respond(413, _TOO_LARGE, close=True)
            return
        if self._http11 and self.headers.get("Expect", "").lower() == "100-continue":
            self.request.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        body = self.rfile.read(length)
        try:
            changeset = Changeset.from_json_dict(parse_json(body))
        except ValueError as exc:
            self._respond_json(400, {"error": f"malformed changeset: {exc}"})
            return
        self._respond_json(*answer(self.host, changeset))


class _Server(socketserver.TCPServer):
    """Connections served by reused daemon worker threads, at most
    `MAX_CONNECTIONS` of them live at once.

    An accepted connection waits in `_queue` for an idle worker, and a
    worker starts only when the live connections outnumber the workers.
    `server_close` ends every worker: each live connection reads the end
    of its stream after its current answer, and each worker then takes a
    stop mark (`None`) from the queue.
    """

    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], handler: type[_Handler]):
        super().__init__(address, handler)
        self._lock = threading.Lock()
        self._live: set[socket.socket] = set()  # accepted and not yet closed
        self._workers: list[threading.Thread] = []
        self._queue = collections.deque()  # (request, address), or None to stop
        self._queued = threading.Semaphore(0)  # counts `_queue`

    def process_request(self, request, client_address) -> None:
        with self._lock:
            live = len(self._live)  # before this one
            if live < MAX_CONNECTIONS:
                self._live.add(request)
        if live >= MAX_CONNECTIONS:
            _send(request, 503, _BUSY, "application/json", True)
            log.debug("%s refused: %d connections live", client_address[0], MAX_CONNECTIONS)
            self.shutdown_request(request)
            return
        if live >= len(self._workers):
            worker = threading.Thread(target=self._work, daemon=True)
            try:
                worker.start()
            except BaseException:  # no worker for it, so none will free its slot
                with self._lock:
                    self._live.discard(request)
                raise
            self._workers.append(worker)
        self._queue.append((request, client_address))
        self._queued.release()

    def _work(self) -> None:
        while True:
            self._queued.acquire()
            item = self._queue.popleft()
            if item is None:
                return
            request, client_address = item
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                with self._lock:
                    self._live.discard(request)  # before the socket closes
                self.shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        with self._lock:
            for request in self._live:
                try:
                    request.shutdown(socket.SHUT_RD)
                except OSError:  # the peer has gone
                    pass
        for _ in self._workers:
            self._queue.append(None)
            self._queued.release()
        for worker in self._workers:
            worker.join()


def make_server(host: CompetitionHost, address: tuple[str, int]) -> _Server:
    return _Server(address, type("BoundHandler", (_Handler,), {"host": host}))
