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
threads, the one running `serve_forever` among them: each waits in
`accept` on the listening socket and serves the connection it takes,
after starting one more thread only if no other is idle.  So a client
that opens a connection for each request starts no thread for each, and
the threads number at most `MAX_CONNECTIONS` + 1, the `serve_forever`
thread included.  `shutdown` shuts the listening socket, which wakes
every thread in `accept` at once, and ends each live connection after
its current answer; `flagless serve` calls it on SIGINT and on SIGTERM,
and exits 0 once its connections have ended.  A connection that stays
silent for `_Handler.timeout` seconds, mid-request (say, a body shorter
than its Content-Length) or between keep-alive requests, is closed
without an answer, so a silent client cannot pin a thread.  A client
that sends a byte now and then, within each timeout, keeps its
connection and its thread for as long as it goes on: the timeout bounds
each wait, not a request.  A connection whose client does not take a
`GET /ledger` answer's next byte for that long, or any other answer
whole within that time, is closed with the answer cut short, and one
that the client resets is closed.
The host serializes appends and reads, so every read sees the state
between two appends.  `GET /ledger` is the acknowledged prefix of the
host's file (for `serve`, the ledger file): its bytes up to the last
entry acknowledged when the read began, sent from the file with
`sendfile` after the answer's head, outside the host's lock.  So `serve`
keeps no copy of the ledger, and never sends a byte past that prefix.
The host's state keeps the scoreboard and challenge list bodies, and
rebuilds one only on the first read after a write that changes it: a
team or challenge write for the scoreboard (a solve splices it instead),
a challenge write for the list.  `/healthz` is built on each read.  Each
of these bodies goes out joined to its head in one write.  A 201 goes
out only after the entry's line is fsynced to the host's file; if that
write fails, the connection is closed without an answer and the entry is
not kept.  A 503 is safe to retry: its request was not read.  An unanswered POST may still have been appended,
so its retry can get 422 `DUPLICATE_SUBMISSION` or `DUPLICATE_TEAM`;
`GET /ledger` tells whether the entry is there.

Each connection reads into one buffer of the bytes `recv` gave that no
request has used.  A head is read from it a line at a time, in one loop
that checks each line as its LF arrives, so a bad line is refused
without waiting for the rest.  Each search for an LF starts where the
last one stopped, so a line that arrives in parts is searched once and
grows in place.  A POST body comes from the same buffer, and only what is
missing is received; what is left begins the next request.  Status lines
come from one fixed table, so `serve` loads neither `http` nor, since it
keeps no log, `logging`.  It binds, listens and accepts on `_socket`,
whose sockets have every method it calls, so it loads no `socket` (nor
the `selectors` and `array` that pulls in), and it loads `select` only
once a `GET /ledger` answer fills the socket's buffer.
"""

from __future__ import annotations

import _socket
import functools
import os
import re
import sys
import threading
import time

from .canonical import canonical_bytes, parse_json
from .competition import ValidationVerdict
from .ledger import Changeset, receipt
from .validator import CompetitionHost, FileRegion

MAX_BODY_BYTES = 1 << 20
_LENGTH_DIGITS = len(str(MAX_BODY_BYTES))  # more, past leading zeros, is too large
MAX_CONNECTIONS = 64
_MAX_LINE = 1 << 16  # bytes in a request or header line, CRLF included
_MAX_FIELDS = 100
_RECV = 1 << 16  # bytes asked of one `recv`
# A header field line without its LF: a name (an RFC 9110 token), a colon,
# and a value ending in CR
_FIELD = re.compile(r"([!#$%&'*+\-.^_`|~0-9A-Za-z]+):(.*)\r")
_NOT_FOUND = canonical_bytes({"error": "not found"})
_BAD_LENGTH = canonical_bytes({"error": "missing or invalid Content-Length"})
_TOO_LARGE = canonical_bytes({"error": "body exceeds 1 MiB"})
_BUSY = canonical_bytes({"error": "too many connections"})
# The reason phrase of every status `serve` sends, as CPython 3.10-3.12
# spell them (3.13 renamed 413 and 422), so no answer's bytes depend on
# the interpreter
_REASONS = {
    100: "Continue",
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    413: "Request Entity Too Large",
    422: "Unprocessable Entity",
    431: "Request Header Fields Too Large",
    501: "Not Implemented",
    503: "Service Unavailable",
    505: "HTTP Version Not Supported",
}


@functools.lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    return time.strftime("%a, %d %b %Y %H:%M:%S GMT", time.gmtime(second))


def _send(sock: _socket.socket, status: int, body, close: bool) -> None:
    """Write an answer whose body is JSON bytes or a `FileRegion` of NDJSON.
    Bytes go out joined to the head in one `sendall`, which raises
    `TimeoutError` when the socket has not taken them all within its
    timeout.  A region goes out from its file with `sendfile`, after the
    head, and is then closed, sent or not; it raises `TimeoutError` when
    the socket's buffer stays full for the socket's timeout."""
    region = isinstance(body, FileRegion)
    head = (
        f"HTTP/1.1 {status} {_REASONS[status]}\r\nServer: flagless\r\n"
        f"Date: {_http_date(int(time.time()))}\r\n"
        + ("Connection: close\r\n" if close else "")
        + f"Content-Type: application/{'x-ndjson' if region else 'json'}\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii")
    if not region:
        sock.sendall(head + body)
        return
    with body:
        # Not with MSG_MORE: a corked head held the whole body back, and a
        # keep-alive GET /ledger of 442 KB over loopback on a 2-vCPU Linux
        # machine took 0.8 ms instead of 0.16.
        sock.sendall(head)
        out, offset = sock.fileno(), 0
        while offset < body.size:
            try:
                sent = os.sendfile(out, body.fd, offset, body.size - offset)
            except BlockingIOError:  # only a socket with a timeout is nonblocking
                import select  # only here: most answers never fill the socket's buffer

                poller = select.poll()
                poller.register(out, select.POLLOUT)
                if not poller.poll(sock.gettimeout() * 1000):
                    raise TimeoutError("the client stopped reading") from None
                continue
            if not sent:
                raise EOFError("the file is shorter than its region")
            offset += sent


def answer(host: CompetitionHost, changeset: Changeset) -> tuple[int, bytes]:
    """`host.apply(changeset)` as the status and body of its answer: 201
    with the appended entry's `ledger.receipt` ({"hash", "index"}), or 422
    {"code", "message", "outcome": "REJECT"} of the verdict."""
    result = host.apply(changeset)
    if isinstance(result, ValidationVerdict):
        verdict = {"code": result.code.name, "message": result.message, "outcome": "REJECT"}
        return 422, canonical_bytes(verdict)
    return 201, receipt(result)


class _Refused(Exception):
    """A request head that cannot be served: (status, error message)."""


class _Headers(dict):
    """Lower-cased field name -> values in arrival order, read as
    `email.message.Message` reads: by any case, `get` giving the first."""

    def get(self, name: str, default=None):
        values = dict.get(self, name.lower())
        return default if values is None else values[0]

    def get_all(self, name: str, default=None):
        return dict.get(self, name.lower(), default)

    def add(self, name: str, value: str) -> None:
        self.setdefault(name.lower(), []).append(value.strip(" \t\r"))


class _Handler:
    """The requests of one connection, parsed from `_buffer`: the bytes
    `recv` gave that no request has used yet."""

    # Socket timeout in seconds; a read, or a wait for room to send, that
    # times out closes the connection.
    timeout = 30

    def __init__(self, request: _socket.socket, host: CompetitionHost):
        self.request, self.host = request, host
        request.settimeout(self.timeout)
        # An answer's last segment, a ledger's from `sendfile` included, would
        # otherwise wait on the client's delayed ACK (~40 ms on keep-alive).
        request.setsockopt(_socket.IPPROTO_TCP, _socket.TCP_NODELAY, True)
        self._buffer = b""

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
        except (TimeoutError, ConnectionError):
            pass  # closed without an answer, or with one cut short

    def _read_head(self) -> bool:
        """Parse a request head into `command`, `path`, `headers` and
        `close_connection`; False at the end of the stream before its first
        byte.  Each line is checked as its LF arrives, the request line
        first, so a bad one is refused without waiting for the rest.  The
        head ends at the first line of a lone CR after the request line, and
        what follows it stays in `_buffer`."""
        self.close_connection, self.command, self.path = True, "-", "-"
        self.headers, fields = _Headers(), 0
        buffer = self._buffer = bytearray(self._buffer)
        # the current line starts at `start`, and no byte before `searched`
        # is its LF, so a line sent a byte per segment is searched once
        start = searched = 0
        while True:
            end = buffer.find(b"\n", searched)
            if end < 0:
                if len(buffer) - start > _MAX_LINE:
                    raise _Refused(431, "line exceeds 64 KiB")
                chunk = self.request.recv(_RECV)
                if not chunk:
                    if not buffer:
                        return False
                    line = "request" if self.command == "-" else "header"
                    raise _Refused(400, f"malformed {line} line")
                searched = len(buffer)
                buffer += chunk
                continue
            line = buffer[start:end]
            searched = start = end + 1
            if len(line) >= _MAX_LINE:  # with its LF, over the limit
                raise _Refused(431, "line exceeds 64 KiB")
            if self.command == "-":
                self._request_line(line)
                continue
            if line == b"\r":
                break
            field = _FIELD.fullmatch(line.decode("latin-1"))
            if field is None:
                raise _Refused(400, "malformed header line")
            if fields == _MAX_FIELDS:
                raise _Refused(431, "more than 100 header fields")
            fields += 1
            self.headers.add(*field.groups())
        del buffer[:start]
        connection = self.headers.get_all("Connection")
        if connection is None:
            self.close_connection = not self._http11
        else:
            tokens = {token.strip(" \t") for token in ",".join(connection).lower().split(",")}
            self.close_connection = "close" in tokens if self._http11 else "keep-alive" not in tokens
        return True

    def _request_line(self, line: bytes) -> None:
        parts = line[:-1].split(b" ") if line.endswith(b"\r") else []
        if len(parts) != 3 or not parts[1] or not parts[2].startswith(b"HTTP/"):
            raise _Refused(400, "malformed request line")
        method, target, version = parts
        if version not in (b"HTTP/1.0", b"HTTP/1.1"):
            raise _Refused(505, "HTTP version not supported")
        if method not in (b"GET", b"POST"):
            raise _Refused(501, "method not implemented")
        self.command, self.path = method.decode("ascii"), target.decode("latin-1")
        self._http11 = version == b"HTTP/1.1"

    def _read_body(self, length: int) -> bytearray:
        """The next `length` bytes, from the buffer and then the socket;
        fewer if the stream ends first."""
        buffer = self._buffer
        while len(buffer) < length and (chunk := self.request.recv(length - len(buffer))):
            buffer += chunk
        body = buffer[:length]
        del buffer[:length]
        return body

    def _respond(self, status: int, body, *, close=False) -> None:
        self.close_connection = self.close_connection or close
        _send(self.request, status, body, self.close_connection)

    def do_GET(self) -> None:
        # A GET body is never read, so a connection that sent one closes.
        chunked = self.headers.get("Transfer-Encoding") is not None
        close = chunked or self.headers.get("Content-Length") not in (None, "0")
        body = self.host.read(self.path)
        if body is None:
            self._respond(404, _NOT_FOUND, close=close)
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
        digits = value.lstrip("0")  # converted only when short: `int` refuses 4,301 digits
        length = int(digits or 0) if len(digits) <= _LENGTH_DIGITS else MAX_BODY_BYTES + 1
        if length > MAX_BODY_BYTES:
            self._respond(413, _TOO_LARGE, close=True)
            return
        if self._http11 and self.headers.get("Expect", "").lower() == "100-continue":
            self.request.sendall(f"HTTP/1.1 100 {_REASONS[100]}\r\n\r\n".encode("ascii"))
        body = self._read_body(length)
        try:
            changeset = Changeset.from_json_dict(parse_json(body))
        except ValueError as exc:
            self._respond(400, canonical_bytes({"error": f"malformed changeset: {exc}"}))
            return
        self._respond(*answer(self.host, changeset))


class _Server:
    """Connections served by reused daemon threads, at most
    `MAX_CONNECTIONS` of them live at once.

    Every thread, the one in `serve_forever` among them, waits in `accept`
    on the listening socket, and the thread that takes a connection serves
    it.  A thread that takes one while no other is idle (waiting in
    `accept`, on its way back there, or answering 503) first starts a
    worker, which counts as idle from its start; so a lone connection never
    starts a second thread, and the threads number at most
    `MAX_CONNECTIONS` + 1.  A connection for which no worker can start is
    closed unanswered and the error printed.  `shutdown` shuts the
    listening socket, which on Linux wakes every `accept` at once, and the
    read side of each live connection, so each ends after its current
    answer; `server_close` then joins the workers.
    """

    def __init__(self, address: tuple[str, int], host: CompetitionHost):
        # the listening socket `socket.create_server(address)` makes, error
        # message included, without loading `socket`
        self.socket = _socket.socket(_socket.AF_INET, _socket.SOCK_STREAM)
        try:
            self.socket.setsockopt(_socket.SOL_SOCKET, _socket.SO_REUSEADDR, 1)
            try:
                self.socket.bind(address)
            except OSError as exc:
                message = f"{exc.strerror} (while attempting to bind on address {address!r})"
                raise OSError(exc.errno, message) from None
            self.socket.listen()
        except BaseException:  # OverflowError from `bind` for a port past 65535, say
            self.socket.close()
            raise
        self.server_address = self.socket.getsockname()
        self._host = host
        self._lock = threading.Lock()
        self._live: set[_socket.socket] = set()  # accepted and not yet closed
        self._idle = 0  # threads not serving a live connection
        self._workers: list[threading.Thread] = []
        self._shut = False

    def serve_forever(self) -> None:
        """Accept and serve connections, on this thread and the workers
        it starts, until `shutdown`; return once this thread's own
        connection has ended."""
        with self._lock:
            self._idle += 1
        self._serve()

    def _serve(self) -> None:
        while True:
            try:
                fd, _ = self.socket._accept()
            except OSError:
                if self._shut:
                    return
                continue
            request = _socket.socket(fileno=fd)
            with self._lock:
                busy = len(self._live) >= MAX_CONNECTIONS
                if not busy:
                    self._idle -= 1
                    self._live.add(request)
                    spare = self._idle == 0
                    self._idle += spare  # the worker is idle from its start
            if busy:
                try:
                    _send(request, 503, _BUSY, True)
                except OSError:  # the client has gone
                    pass
                _close(request)
                continue
            if self._shut:  # added after `shutdown` took its copy of `_live`
                _shut_reads(request)
            try:
                if spare:
                    self._start_worker()
                _Handler(request, self._host).handle()
            except Exception:
                sys.excepthook(*sys.exc_info())
            finally:
                with self._lock:
                    self._idle += 1
                    self._live.discard(request)  # before the socket closes
                _close(request)

    def _start_worker(self) -> None:
        worker = threading.Thread(target=self._serve, daemon=True)
        try:
            worker.start()
        except BaseException:  # it will never be idle
            with self._lock:
                self._idle -= 1
            raise
        self._workers.append(worker)

    def shutdown(self) -> None:
        """Stop accepting, and end each live connection after its current
        answer.  `flagless serve` calls it from the thread taking its signals."""
        self._shut = True
        try:
            self.socket.shutdown(_socket.SHUT_RDWR)
        except OSError:  # not listening any more
            pass
        for request in tuple(self._live):
            _shut_reads(request)

    def server_close(self) -> None:
        self.shutdown()
        self.socket.close()
        for worker in self._workers:
            worker.join()


def _shut_reads(request: _socket.socket) -> None:
    try:
        request.shutdown(_socket.SHUT_RD)
    except OSError:  # the peer has gone, or the socket is closed
        pass


def _close(request: _socket.socket) -> None:
    try:
        request.shutdown(_socket.SHUT_WR)
    except OSError:
        pass
    request.close()


def make_server(host: CompetitionHost, address: tuple[str, int]) -> _Server:
    return _Server(address, host)
