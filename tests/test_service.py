"""HTTP contract of the service: status codes, bodies, hostile requests."""

import hashlib
import http.client
import itertools
import json
import os
import re
import socket
import struct
import threading
import time

import pytest

from flagless import ledger
from flagless.canonical import canonical_bytes
from flagless.competition import (
    CompetitionState,
    build_submission,
    register_team,
    scoreboard_bytes,
    submission_path,
    team_path,
)
from flagless.ledger import Changeset, FileChange
from flagless.service import _BAD_LENGTH, _Handler
from flagless.validator import CompetitionHost

from helpers import BackgroundService, append_ghost_solve, padded_chain, read_body, simulate

TIMEOUT_S = 3


@pytest.fixture
def sim(rng):
    sim = simulate(rng, n_challenges=1, n_teams=1, solve_prob=0.0)
    with sim.host:
        yield sim


@pytest.fixture
def service(sim):
    with BackgroundService(sim.host) as svc:
        yield svc


def _request(svc, method, path, body=None, headers=None):
    host, port = svc.server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=TIMEOUT_S)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _post(svc, changeset):
    return _request(svc, "POST", "/changesets", canonical_bytes(changeset.to_json_dict()))


_SMUGGLED = b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n"


def _raw(svc, request: bytes) -> bytes:
    """Send raw bytes and read until the server closes or goes quiet."""
    with socket.create_connection(svc.server.server_address[:2], timeout=TIMEOUT_S) as sock:
        sock.sendall(request)
        data = b""
        try:
            while chunk := sock.recv(65536):
                data += chunk
                if b"\r\n\r\n" in data:
                    break
        except socket.timeout:
            pass
        return data


def _until_eof(svc, request: bytes) -> bytes:
    """Send raw bytes and read until the server closes the connection."""
    with socket.create_connection(svc.server.server_address[:2], timeout=TIMEOUT_S) as sock:
        sock.sendall(request)
        data = b""
        while chunk := sock.recv(65536):  # a timeout here means no EOF
            data += chunk
        return data


class TestWrites:
    def test_accepted_changeset_is_201_with_index_and_hash(self, service, sim, rng):
        _, _, changeset = register_team("Web Crew", rng=rng)
        status, body = _post(service, changeset)
        assert status == 201
        reply = json.loads(body)
        head = sim.chain()[-1]
        assert reply == {"hash": head.hash.hex(), "index": head.index}

    def test_accepted_solve_reaches_the_scoreboard(self, service, sim):
        (team_id,) = sim.teams
        (cid,) = sim.descriptors
        _, changeset = build_submission(sim.secrets[team_id], sim.descriptors[cid], sim.flags[cid])
        assert _post(service, changeset)[0] == 201
        status, body = _request(service, "GET", "/scoreboard")
        assert status == 200 and json.loads(body)[0]["points"] == sim.descriptors[cid].points

    def test_rejected_changeset_is_422_with_reason(self, service, sim):
        changeset = Changeset(changes=(FileChange(path="loot/x", content=b"{}"),), author="x")
        length = len(sim.chain())
        status, body = _post(service, changeset)
        assert status == 422
        assert json.loads(body) == {
            "code": "BAD_PATH",
            "message": "'loot/x' is not a team-writable path",
            "outcome": "REJECT",
        }
        assert len(sim.chain()) == length

    @pytest.mark.parametrize("author", ["organizer", "x" * (512 << 10)], ids=["organizer", "512KiB"])
    def test_a_changeset_by_another_author_is_422(self, service, sim, rng, author):
        _, _, changeset = register_team("Web Crew", rng=rng)
        before = read_body(sim.host)
        status, body = _post(service, Changeset(changes=changeset.changes, author=author))
        assert status == 422 and json.loads(body)["code"] == "MALFORMED_RECORD"
        assert _request(service, "GET", "/ledger") == (200, before)

    @pytest.mark.parametrize("case", ["padded-registration", "padded-solve", "duplicate-name"])
    def test_a_record_not_in_canonical_form_is_422(self, service, sim, rng, case):
        if case == "padded-solve":
            (team_id,) = sim.teams
            (cid,) = sim.descriptors
            record, _ = build_submission(sim.secrets[team_id], sim.descriptors[cid], sim.flags[cid])
            path, content = submission_path(team_id, cid), record.serialize() + b"\n" * 300_000
        else:
            record = register_team("Dup Crew", rng=rng)[0]
            team_id, path, content = record.id, team_path(record.id), record.serialize()
            if case == "duplicate-name":  # Python's parser keeps the last "id"
                content = b'{"id":"someone-else",' + content[1:]
            else:
                content += b" " * 700_000
        changeset = Changeset(changes=(FileChange(path=path, content=content),), author=team_id)
        before = read_body(sim.host)
        status, body = _post(service, changeset)
        assert status == 422 and json.loads(body) == {
            "code": "MALFORMED_RECORD",
            "message": "record is not in canonical form",
            "outcome": "REJECT",
        }
        assert _request(service, "GET", "/ledger") == (200, before)

    def test_healthz_names_the_last_acknowledged_entry(self, service, sim, rng):
        head = sim.chain()[-1]
        status, body = _request(service, "GET", "/healthz")
        assert status == 200
        assert json.loads(body) == {"hash": head.hash.hex(), "index": head.index}
        for name in ("Head One", "Head Two"):
            status, reply = _post(service, register_team(name, rng=rng)[2])
            assert status == 201
            assert _request(service, "GET", "/healthz") == (200, reply)

    def test_a_clock_behind_the_head_stamps_the_heads_time(self, sim, rng, monkeypatch):
        head = sim.host.apply(register_team("Ahead", rng=rng)[2], sim.chain()[-1].timestamp + 100)
        monkeypatch.setattr(time, "time", lambda: head.timestamp - 100.5)
        with BackgroundService(sim.host) as svc:
            status, reply = _post(svc, register_team("Behind", rng=rng)[2])
        assert status == 201 and json.loads(reply)["index"] == head.index + 1
        assert sim.chain()[-1].timestamp == head.timestamp

    def test_deeply_nested_record_is_422(self, service):
        changeset = Changeset(
            changes=(FileChange(path="teams/x/team.json", content=b"[" * 100_000),), author="x"
        )
        status, body = _post(service, changeset)
        assert status == 422 and json.loads(body)["code"] == "MALFORMED_RECORD"


class TestMalformedRequests:
    @pytest.mark.parametrize(
        "body",
        [b"not json", b"\xff\xfe", b'{"author": "x"}', b"[" * 100_000],
        ids=["not-json", "not-utf8", "not-a-changeset", "nested-too-deeply"],
    )
    def test_bad_body_is_400(self, service, body):
        status, reply = _request(service, "POST", "/changesets", body)
        assert status == 400
        assert "error" in json.loads(reply)

    def test_oversized_body_is_413_before_reading_it(self, service):
        reply = _raw(
            service,
            b"POST /changesets HTTP/1.1\r\nHost: x\r\nContent-Length: 1048577\r\n\r\n",
        )
        assert reply.startswith(b"HTTP/1.1 413 ")

    @pytest.mark.parametrize("length", [b"-1", b"abc"])
    def test_bad_content_length_is_400(self, service, length):
        reply = _raw(
            service,
            b"POST /changesets HTTP/1.1\r\nHost: x\r\nContent-Length: " + length + b"\r\n\r\n",
        )
        assert reply.startswith(b"HTTP/1.1 400 ")

    def test_short_body_is_dropped_after_the_read_timeout(self, sim, monkeypatch):
        assert _Handler.timeout is not None and _Handler.timeout > 0
        monkeypatch.setattr(_Handler, "timeout", 0.5)
        with BackgroundService(sim.host) as svc:
            address = svc.server.server_address[:2]
            with socket.create_connection(address, timeout=TIMEOUT_S) as sock:
                sock.sendall(
                    b"POST /changesets HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\n{}"
                )
                start = time.monotonic()
                assert sock.recv(65536) == b""  # closed, no answer
                assert time.monotonic() - start < TIMEOUT_S

    @pytest.mark.parametrize(
        "head",
        [
            b"POST /elsewhere HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n" % len(_SMUGGLED),
            b"POST /changesets HTTP/1.1\r\nHost: x\r\nContent-Length: 1048577\r\n\r\n",
            b"POST /changesets HTTP/1.1\r\nHost: x\r\nContent-Length: -1\r\n\r\n",
            b"POST /changesets HTTP/1.1\r\nHost: x\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n" % len(_SMUGGLED),
            b"GET /healthz HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"POST /changesets HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"POST /changesets HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n"
            b"Content-Length: 0\r\n\r\n",
        ],
        ids=[
            "404", "413", "400-negative-length", "400-no-length", "get-body", "get-chunked",
            "post-chunked", "post-chunked-with-length",
        ],
    )
    def test_unread_body_is_not_parsed_as_a_request(self, service, head):
        # a keep-alive connection would read the body as a second request
        data = _until_eof(service, head + _SMUGGLED)
        assert data.count(b"HTTP/1.1 ") == 1
        assert b"Connection: close\r\n" in data

    @pytest.mark.parametrize(
        "lengths",
        [[b"1_0"], [b"+%d" % len(_SMUGGLED)], [b"10", b"12"], [b"10", b"10"]],
        ids=["underscore", "plus-sign", "two-differing", "two-equal"],
    )
    def test_content_length_is_one_run_of_ascii_digits(self, service, lengths):
        head = b"POST /changesets HTTP/1.1\r\nHost: x\r\n"
        head += b"".join(b"Content-Length: %s\r\n" % value for value in lengths) + b"\r\n"
        data = _until_eof(service, head + _SMUGGLED)
        assert data.startswith(b"HTTP/1.1 400 ") and data.count(b"HTTP/1.1 ") == 1
        assert b"Connection: close\r\n" in data
        assert data.endswith(b"\r\n\r\n" + _BAD_LENGTH)

    @pytest.mark.parametrize(
        "request_head,status",
        [
            (b"GARBAGE\r\n", 400),
            (b"GET  /healthz HTTP/1.1\r\n", 400),
            (b"GET /healthz HTTP/1.1\n", 400),
            (b"GET /healthz HTTP/1.1\r\nHost x\r\n", 400),
            (b"GET /healthz HTTP/1.1\r\nHost : x\r\n", 400),
            (b"GET /healthz HTTP/1.1\r\nHost: x\r\n  folded\r\n", 400),
            (b"GET /healthz HTTP/1.1\r\n" + b"X-A: b\r\n" * 101, 431),
            (b"GET /healthz HTTP/1.1\r\nX-A: " + b"b" * (1 << 16), 431),
            (b"GET /healthz HTTP/2.0\r\n", 505),
            (b"GET /healthz HTTP/0.9\r\n", 505),
            (b"PUT /changesets HTTP/1.1\r\n", 501),
            (b"HEAD /healthz HTTP/1.1\r\n", 501),
        ],
        ids=[
            "garbage", "double-space", "bare-lf", "no-colon", "space-before-colon", "obs-fold",
            "101-fields", "long-line", "http-2", "http-0.9", "put", "head",
        ],
    )
    def test_unservable_head_is_a_json_answer_that_closes(self, service, request_head, status):
        # each request ends where it is refused, so no unread byte makes the
        # close a reset that could discard the answer
        head, _, body = _until_eof(service, request_head).partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        assert lines[0].startswith(b"HTTP/1.1 %d " % status)
        assert b"Content-Type: application/json" in lines and b"Connection: close" in lines
        assert set(json.loads(body)) == {"error"}

    @pytest.mark.parametrize(
        "version,connection,persists",
        [
            (b"HTTP/1.1", b"", True),
            (b"HTTP/1.1", b"Connection: Keep-Alive, Close\r\n", False),
            (b"HTTP/1.0", b"", False),
            (b"HTTP/1.0", b"Connection: keep-alive\r\n", True),
        ],
        ids=["1.1", "1.1-close", "1.0", "1.0-keep-alive"],
    )
    def test_connection_persists_by_version_and_tokens(self, service, version, connection, persists):
        request = b"GET /healthz " + version + b"\r\nHost: x\r\n" + connection + b"\r\n"
        data = _until_eof(service, request + b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert data.count(b"HTTP/1.1 200 ") == (2 if persists else 1)
        assert data.count(b"Connection: close\r\n") == 1

    def test_expect_100_continue_comes_before_the_body_is_read(self, service, sim, rng):
        body = canonical_bytes(register_team("Patient", rng=rng)[2].to_json_dict())
        with socket.create_connection(service.server.server_address[:2], timeout=TIMEOUT_S) as sock:
            sock.sendall(
                b"POST /changesets HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body)
            )
            assert sock.recv(65536) == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            assert sock.recv(65536).startswith(b"HTTP/1.1 201 ")

    @pytest.mark.parametrize("method,path", [("GET", "/nope"), ("POST", "/scoreboard")])
    def test_unknown_route_is_404(self, service, method, path):
        status, _ = _request(service, method, path, b"{}" if method == "POST" else None)
        assert status == 404


class TestConnectionCap:
    def test_overflow_is_503_and_a_freed_slot_serves_again(self, sim, monkeypatch):
        monkeypatch.setattr("flagless.service.MAX_CONNECTIONS", 4)
        with BackgroundService(sim.host) as svc:
            address = svc.server.server_address[:2]
            held = [socket.create_connection(address, timeout=TIMEOUT_S) for _ in range(4)]
            try:
                data = _until_eof(svc, b"")
                assert data.startswith(b"HTTP/1.1 503 ") and b"Connection: close\r\n" in data
                assert data.endswith(b"\r\n\r\n" + canonical_bytes({"error": "too many connections"}))
                for sock in held:
                    sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                    assert sock.recv(65536).startswith(b"HTTP/1.1 200 ")
                # the slot is free before the socket closes, so EOF means free
                held[0].sendall(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
                while held[0].recv(65536):
                    pass
                assert _until_eof(svc, b"GET /healthz HTTP/1.0\r\n\r\n").startswith(
                    b"HTTP/1.1 200 "
                )
            finally:
                for sock in held:
                    sock.close()


class TestWorkers:
    def test_fresh_connections_one_at_a_time_share_one_worker(self, sim):
        with BackgroundService(sim.host) as svc:
            before = set(threading.enumerate())
            workers = set()
            for _ in range(40):
                # the last connection is live until its worker reads the
                # client's end of stream; with none live, the one worker serves
                deadline = time.monotonic() + TIMEOUT_S
                while svc.server._live and time.monotonic() < deadline:
                    time.sleep(0.001)
                assert not svc.server._live
                conn = http.client.HTTPConnection(*svc.server.server_address[:2], timeout=TIMEOUT_S)
                try:
                    conn.request("GET", "/healthz")
                    assert conn.getresponse().read()
                    # the thread serving this connection is alive until it closes
                    workers |= set(threading.enumerate()) - before
                finally:
                    conn.close()
        # a worker starts only when the live connections outnumber the workers
        assert len(workers) == 1
        assert not any(worker.is_alive() for worker in workers)

    def test_closing_the_server_ends_its_workers_with_a_connection_idle(self, sim):
        svc = BackgroundService(sim.host)
        idle = http.client.HTTPConnection(*svc.server.server_address[:2], timeout=TIMEOUT_S)
        try:
            with svc:
                before = set(threading.enumerate())
                idle.request("GET", "/healthz")  # kept alive, its worker waits to read
                assert idle.getresponse().read()
                assert _request(svc, "GET", "/healthz")[0] == 200
                workers = set(threading.enumerate()) - before
                start = time.monotonic()
            assert time.monotonic() - start < TIMEOUT_S
        finally:
            idle.close()
        assert len(workers) == 2 and not any(worker.is_alive() for worker in workers)

    def test_a_worker_that_cannot_start_frees_its_slot(self, sim, monkeypatch, capsys):
        start, refused = threading.Thread.start, []

        def start_or_refuse_once(thread):
            if not refused:
                refused.append(thread)
                raise RuntimeError("can't start new thread")
            start(thread)

        with BackgroundService(sim.host) as svc:
            monkeypatch.setattr(threading.Thread, "start", start_or_refuse_once)
            assert _until_eof(svc, b"") == b""  # closed without an answer
            assert refused and not svc.server._live
            assert _request(svc, "GET", "/healthz")[0] == 200
        assert "can't start new thread" in capsys.readouterr().err

    def test_a_connection_reset_mid_body_leaves_its_worker_serving(self, service, capsys):
        for _ in range(5):
            with socket.create_connection(service.server.server_address[:2]) as sock:
                # a zero linger time makes the close a reset
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                sock.sendall(b"POST /changesets HTTP/1.1\r\nContent-Length: 100\r\n\r\n{")
            assert _request(service, "GET", "/healthz")[0] == 200
        workers = service.server._workers
        assert workers and all(worker.is_alive() for worker in workers)
        # every connection is done with once it leaves the live set
        deadline = time.monotonic() + TIMEOUT_S
        while service.server._live and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not service.server._live
        assert capsys.readouterr().err == ""  # a client's reset is no server error


def _answer(reader) -> bytes:
    """One raw answer, head and body, read by its Content-Length."""
    head = b""
    while not head.endswith(b"\r\n\r\n"):
        line = reader.readline()
        assert line, head
        head += line
    (length,) = re.findall(rb"\r\nContent-Length: (\d+)\r\n", head)
    return head + reader.read(int(length))


# SHA-256 of the raw answers that `test_wire_bytes_are_pinned` collects,
# `Date` lines masked, as the service gave them when each answer was one
# `bytes` written whole
WIRE_DIGEST = "76b57b66c87308e658f1501db7cad883cad510c30feacf64d2ecdadc44cb638e"


def test_wire_bytes_are_pinned(rng, monkeypatch):
    monkeypatch.setattr(time, "time", lambda: 1_700_000_000.5)
    sim = simulate(rng, n_challenges=2, n_teams=2, solve_prob=0.0)
    first, second = sorted(sim.teams)
    solve = build_submission(sim.secrets[first], sim.descriptors["chal-1"], sim.flags["chal-1"])[1]
    misfiled = build_submission(sim.secrets[second], sim.descriptors["chal-0"], sim.flags["chal-0"])
    misfiled = Changeset(
        changes=(FileChange(path=submission_path(first, "chal-0"), content=misfiled[0].serialize()),),
        author=first,
    )
    team = register_team("Wire Crew", rng=rng)[2]
    gets = [b"GET %s HTTP/1.1\r\nHost: x\r\n\r\n" % route
            for route in (b"/healthz", b"/scoreboard", b"/challenges", b"/ledger")]
    posts = [
        b"POST /changesets HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
        for body in (canonical_bytes(c.to_json_dict()) for c in (
            team, team, solve, solve, misfiled,
            Changeset(changes=(FileChange(path="loot/x", content=b"{}"),), author="x"),
        ))
    ]
    kept_alive = gets + posts + gets + [
        b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n",
        b"POST /changesets HTTP/1.1\r\nHost: x\r\nContent-Length: 8\r\n\r\nnot json",
    ]
    closing = [
        b"POST /scoreboard HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}",
        b"GET /ledger HTTP/1.0\r\n\r\n",
        b"GET /scoreboard HTTP/1.1\r\nConnection: close\r\n\r\n",
        b"BREW /healthz HTTP/1.1\r\n\r\n",
    ]
    answers = []
    with BackgroundService(sim.host) as svc:
        address = svc.server.server_address[:2]
        with socket.create_connection(address, timeout=TIMEOUT_S) as sock:
            reader = sock.makefile("rb")
            for request in kept_alive:
                sock.sendall(request)
                answers.append(_answer(reader))
            reader.close()
        answers += [_until_eof(svc, request) for request in closing]
    statuses = [answer.split(b" ", 2)[1] for answer in answers]
    assert statuses == [b"200"] * 4 + [b"201", b"422", b"201", b"422", b"422", b"422"] + [
        b"200"
    ] * 4 + [b"404", b"400", b"404", b"200", b"200", b"501"]
    masked = re.sub(rb"\r\nDate: [^\r]*\r\n", b"\r\nDate: -\r\n", b"".join(answers))
    assert hashlib.sha256(masked).hexdigest() == WIRE_DIGEST


class TestReads:
    def test_reads_match_the_host(self, service, sim):
        assert _request(service, "GET", "/scoreboard") == (
            200,
            scoreboard_bytes(CompetitionState.from_chain(sim.chain()).scoreboard()),
        )
        status, body = _request(service, "GET", "/challenges")
        assert status == 200
        assert [d["id"] for d in json.loads(body)] == sorted(sim.descriptors)
        status, body = _request(service, "GET", "/ledger")
        assert status == 200 and ledger.load_chain(body) == sim.chain()

    def test_a_loaded_solve_of_no_challenge_leaves_the_scoreboard_served(self, rng, tmp_path):
        # the host checks no team entry at load, so a forged file can hold one
        sim = simulate(rng, n_challenges=2, n_teams=2, solve_prob=1.0)
        honest = read_body(sim.host, "/scoreboard")
        chain = sim.chain()
        append_ghost_solve(chain, sorted(sim.teams)[0])
        path = tmp_path / "forged.ndjson"
        path.write_bytes(ledger.dump_chain(chain))
        with CompetitionHost.open(str(path)) as host, BackgroundService(host) as svc:
            conn = http.client.HTTPConnection(*svc.server.server_address[:2], timeout=TIMEOUT_S)
            try:
                for _ in range(2):  # one connection, kept alive
                    conn.request("GET", "/scoreboard")
                    resp = conn.getresponse()
                    assert (resp.status, resp.read()) == (200, honest)
            finally:
                conn.close()


@pytest.fixture
def padded(rng, tmp_path):
    """(host, path) of a 2 MiB ledger file, served from the file."""
    path = tmp_path / "padded.ndjson"
    ledger.write_ledger(str(path), padded_chain(rng, rng.randbytes(32), 2 << 20))
    with CompetitionHost.open(str(path)) as host:
        yield host, path


def _small_window(svc) -> socket.socket:
    """A client socket whose receive buffer, and the server's send buffer
    for it, are a few KiB, so the server's sends outrun what it reads."""
    # an accepted socket takes the listening socket's buffer size
    svc.server.socket.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 16384)
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)  # before connect
    sock.settimeout(TIMEOUT_S)
    sock.connect(svc.server.server_address[:2])
    return sock


class TestSlowReaders:
    def test_a_slow_reader_gets_exactly_the_file(self, padded, monkeypatch):
        host, path = padded
        outcomes = []  # of each sendfile: bytes sent, or the exception
        sendfile = os.sendfile

        def recorded(*args):
            try:
                outcomes.append(sendfile(*args))
            except BlockingIOError as exc:
                outcomes.append(exc)
                raise
            return outcomes[-1]

        monkeypatch.setattr(os, "sendfile", recorded)
        with BackgroundService(host) as svc, _small_window(svc) as sock:
            for _ in range(2):  # kept alive
                sock.sendall(b"GET /ledger HTTP/1.1\r\nHost: x\r\n\r\n")
                data = b""
                while b"\r\n\r\n" not in data:
                    data += sock.recv(4096)
                head, _, body = data.partition(b"\r\n\r\n")
                (length,) = re.findall(rb"\r\nContent-Length: (\d+)\r\n", head + b"\r\n")
                for chunk in itertools.count():
                    if len(body) >= int(length):
                        break
                    body += sock.recv(4096)
                    if chunk % 64 == 0:
                        time.sleep(0.002)
                assert body == path.read_bytes()
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            assert sock.recv(4096).startswith(b"HTTP/1.1 200 ")
        sent = [n for n in outcomes if isinstance(n, int)]
        assert sum(sent) == 2 * path.stat().st_size
        # the socket took the file in parts, and was full in between
        assert len(sent) > 2 and any(isinstance(n, BlockingIOError) for n in outcomes)

    def test_a_stalled_reader_is_closed_after_the_timeout(self, padded, monkeypatch):
        host, _ = padded
        monkeypatch.setattr(_Handler, "timeout", 0.5)
        with BackgroundService(host) as svc, _small_window(svc) as sock:
            sock.sendall(b"GET /ledger HTTP/1.1\r\nHost: x\r\n\r\n")
            assert sock.recv(4096).startswith(b"HTTP/1.1 200 ")
            start = time.monotonic()  # and read no more
            deadline = start + TIMEOUT_S
            while svc.server._live and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not svc.server._live
            assert time.monotonic() - start >= 0.4
            assert _request(svc, "GET", "/healthz")[0] == 200
