"""HTTP contract of the service: status codes, bodies, hostile requests."""

import ast
import hashlib
import http.client
import io
import itertools
import json
import os
import re
import socket
import struct
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

import flagless.service
from flagless import ledger
from flagless.canonical import canonical_bytes
from flagless.competition import (
    CompetitionState,
    build_submission,
    register_team,
    submission_path,
    team_path,
)
from flagless.ledger import Changeset, FileChange
from flagless.scoreboard import scoreboard_bytes
from flagless.service import _BAD_LENGTH, _REASONS, _Handler
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

    def test_a_zero_padded_content_length_is_its_number(self, service, rng, capsys):
        _, _, changeset = register_team("Padded", rng=rng)
        body = canonical_bytes(changeset.to_json_dict())
        length = b"0" * 5000 + b"%d" % len(body)  # past the digits `int` converts
        reply = _until_eof(
            service,
            b"POST /changesets HTTP/1.1\r\nConnection: close\r\nContent-Length: %s\r\n\r\n%s"
            % (length, body),
        )
        assert reply.startswith(b"HTTP/1.1 201 ")
        assert capsys.readouterr().err == ""

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
            # more digits than `int` converts, which must not be converted
            b"POST /changesets HTTP/1.1\r\nHost: x\r\nContent-Length: 1%s\r\n\r\n"
            % (b"0" * 5000),
            b"POST /changesets HTTP/1.1\r\nHost: x\r\nContent-Length: -1\r\n\r\n",
            b"POST /changesets HTTP/1.1\r\nHost: x\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n" % len(_SMUGGLED),
            b"GET /healthz HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"POST /changesets HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"POST /changesets HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n"
            b"Content-Length: 0\r\n\r\n",
        ],
        ids=[
            "404", "413", "413-5001-digits", "400-negative-length", "400-no-length", "get-body", "get-chunked",
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


class TestFraming:
    """Where a request ends, whatever segments its bytes arrive in.  A
    POST whose body shares its head's segment is in
    `test_wire_bytes_are_pinned`, and a 101st field that comes before any
    blank line in `test_unservable_head_is_a_json_answer_that_closes`."""

    def _trickle(self, svc, parts) -> bytes:
        """Send each part as its own segment, then read until EOF."""
        with socket.create_connection(svc.server.server_address[:2], timeout=TIMEOUT_S) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, True)
            for part in parts:
                sock.sendall(part)
                time.sleep(0.002)
            data = b""
            while chunk := sock.recv(65536):
                data += chunk
            return data

    def test_a_head_sent_one_byte_per_segment(self, service, sim):
        head = b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        data = self._trickle(service, [head[i : i + 1] for i in range(len(head))])
        assert data.startswith(b"HTTP/1.1 200 ") and data.count(b"HTTP/1.1 ") == 1
        assert data.endswith(b"\r\n\r\n" + read_body(sim.host, "/healthz"))

    def test_pipelined_requests_are_answered_in_order(self, service, sim):
        data = _until_eof(
            service,
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n"
            b"GET /challenges HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        )
        reader = io.BytesIO(data)
        answers = [_answer(reader) for _ in range(3)]
        assert reader.read() == b""
        assert [answer.split(b" ", 2)[1] for answer in answers] == [b"200", b"404", b"200"]
        assert answers[0].endswith(b"\r\n\r\n" + read_body(sim.host, "/healthz"))
        assert answers[2].endswith(b"\r\n\r\n" + read_body(sim.host, "/challenges"))

    def test_a_body_split_across_three_segments(self, service, rng):
        body = canonical_bytes(register_team("Trickle", rng=rng)[2].to_json_dict())
        head = b"POST /changesets HTTP/1.1\r\nConnection: close\r\nContent-Length: %d\r\n\r\n"
        third = len(body) // 3
        data = self._trickle(
            service, [head % len(body), body[:third], body[third : 2 * third], body[2 * third :]]
        )
        assert data.startswith(b"HTTP/1.1 201 ") and data.count(b"HTTP/1.1 ") == 1

    @pytest.mark.parametrize(
        "line,status",
        [
            (b"X-A: " + b"b" * ((1 << 16) - 7) + b"\r\n", 200),
            (b"X-A: " + b"b" * ((1 << 16) - 6) + b"\r\n", 431),
            (b"X-A: " + b"b" * ((1 << 16) - 4), 431),  # refused before its LF comes
        ],
        ids=["64-kib", "64-kib-and-1", "64-kib-and-1-unended"],
    )
    def test_a_line_of_64_kib_with_its_crlf_is_the_longest(self, service, line, status):
        assert len(line) == (1 << 16) + (status == 431)
        # a refused head ends at its long line, so no unread byte resets the close
        end = b"\r\n" if status == 200 else b""
        data = _until_eof(service, b"GET /healthz HTTP/1.0\r\n" + line + end)
        assert data.startswith(b"HTTP/1.1 %d " % status) and data.count(b"HTTP/1.1 ") == 1

    def test_a_long_request_line_after_a_pipelined_request_is_431(self, service):
        # the second head is in the buffer whole, or its line outgrows it
        second = b"GET /" + b"a" * (1 << 16) + b" HTTP/1.1\r\n\r\n"
        data = _until_eof(service, b"GET /healthz HTTP/1.1\r\n\r\n" + second)
        assert [answer[:3] for answer in data.split(b"HTTP/1.1 ")[1:]] == [b"200", b"431"]

    @pytest.mark.parametrize(
        "parts",
        [[b"\n\r\n"], [b"GET /healthz HTTP/1.1\r\n\n\r\n"], [b"GET /healthz HTTP/1.1\r\n", b"\n\r\n"]],
        ids=["no-request-line", "whole", "in-two-segments"],
    )
    def test_a_bare_lf_line_before_the_blank_line_is_400(self, service, parts):
        data = self._trickle(service, parts)
        assert data.startswith(b"HTTP/1.1 400 ") and data.count(b"HTTP/1.1 ") == 1

    @pytest.mark.parametrize(
        "head,line",
        [
            (b"GET /hea", b"request"),
            (b"GET /healthz HTTP/1.1\r\n", b"header"),
            (b"GET /healthz HTTP/1.1\r\nHost: x", b"header"),
        ],
    )
    def test_a_head_cut_short_by_the_end_of_the_stream_is_400(self, service, head, line):
        with socket.create_connection(service.server.server_address[:2], timeout=TIMEOUT_S) as sock:
            sock.sendall(head)
            sock.shutdown(socket.SHUT_WR)
            data = b""
            while chunk := sock.recv(65536):
                data += chunk
        assert data.startswith(b"HTTP/1.1 400 ") and data.count(b"HTTP/1.1 ") == 1
        assert data.endswith(b'{"error":"malformed %s line"}' % line)

    @pytest.mark.parametrize("fields,status", [(100, 200), (101, 431)])
    def test_a_whole_head_of_100_header_fields_is_the_largest(self, service, fields, status):
        data = _until_eof(
            service, b"GET /healthz HTTP/1.0\r\n" + b"X-A: b\r\n" * fields + b"\r\n"
        )
        assert data.startswith(b"HTTP/1.1 %d " % status) and data.count(b"HTTP/1.1 ") == 1


class _Segments:
    """A connection whose `recv` gives each of `parts` in turn, then EOF.
    Under `tracemalloc`, `allocated` adds up, between one `recv` and the
    next, how far the reader's memory rose above what it held at the
    first: about the bytes it copied meanwhile."""

    def __init__(self, parts: list[bytes]):
        self._parts = iter(parts)
        self._held, self.allocated = tracemalloc.get_traced_memory()[0], 0

    def recv(self, size: int) -> bytes:
        current, peak = tracemalloc.get_traced_memory()
        self.allocated += peak - self._held
        tracemalloc.reset_peak()
        self._held = current
        return next(self._parts, b"")


def _allocated_reading(head: bytes) -> int:
    """`_Segments.allocated` for reading `head` sent a byte per segment."""
    parts = [bytes([byte]) for byte in head]  # one-byte `bytes` are shared
    handler = _Handler.__new__(_Handler)
    tracemalloc.start()
    try:
        handler.request, handler._buffer = _Segments(parts), b""
        assert handler._read_head()
        allocated = handler.request.allocated
    finally:
        tracemalloc.stop()
    assert handler._buffer == b""
    return allocated


def test_a_long_line_sent_a_byte_per_segment_costs_what_short_lines_do():
    # copying the unended line again for each segment it grows by would
    # copy about 2 GB for this 60 KiB line, and cost time to match, but
    # a sixtieth of that for the same bytes as 60 lines of 1 KiB
    line = b"X-A: " + b"b" * (60 * 1024) + b"\r\n"
    short = b"X-A: " + b"b" * (1024 - 7) + b"\r\n"
    long_bytes = _allocated_reading(b"GET / HTTP/1.1\r\n" + line + b"\r\n")
    short_bytes = _allocated_reading(b"GET / HTTP/1.1\r\n" + short * 60 + b"\r\n")
    assert long_bytes < 2 * short_bytes, (long_bytes, short_bytes)


_LONG = b"b" * (1 << 16)
# The heads of TestMalformedRequests and TestFraming, a good GET and a
# good POST with its body
_HEADS = {
    "good-get": b"GET /healthz HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n",
    "good-post": b"POST /changesets HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}",
    "413": b"POST /changesets HTTP/1.1\r\nHost: x\r\nContent-Length: 1048577\r\n\r\n",
    "length--1": b"POST /changesets HTTP/1.1\r\nHost: x\r\nContent-Length: -1\r\n\r\n",
    "length-abc": b"POST /changesets HTTP/1.1\r\nHost: x\r\nContent-Length: abc\r\n\r\n",
    "short-body": b"POST /changesets HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\n{}",
    "unread-404": b"POST /elsewhere HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s"
    % (len(_SMUGGLED), _SMUGGLED),
    "no-length": b"POST /changesets HTTP/1.1\r\nHost: x\r\n\r\n",
    "get-body": b"GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s"
    % (len(_SMUGGLED), _SMUGGLED),
    "get-chunked": b"GET /healthz HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n",
    "post-chunked-with-length": b"POST /changesets HTTP/1.1\r\nHost: x\r\n"
    b"Transfer-Encoding: chunked\r\nContent-Length: 0\r\n\r\n",
    "two-lengths": b"POST /changesets HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n"
    b"Content-Length: 12\r\n\r\n",
    "garbage": b"GARBAGE\r\n",
    "double-space": b"GET  /healthz HTTP/1.1\r\n",
    "bare-lf": b"GET /healthz HTTP/1.1\n",
    "no-colon": b"GET /healthz HTTP/1.1\r\nHost x\r\n",
    "space-before-colon": b"GET /healthz HTTP/1.1\r\nHost : x\r\n",
    "obs-fold": b"GET /healthz HTTP/1.1\r\nHost: x\r\n  folded\r\n",
    "101-fields": b"GET /healthz HTTP/1.1\r\n" + b"X-A: b\r\n" * 101,
    "long-line": b"GET /healthz HTTP/1.1\r\nX-A: " + _LONG,
    "http-2": b"GET /healthz HTTP/2.0\r\n",
    "http-0.9": b"GET /healthz HTTP/0.9\r\n",
    "put": b"PUT /changesets HTTP/1.1\r\n",
    "head": b"HEAD /healthz HTTP/1.1\r\n",
    "1.1-close": b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: Keep-Alive, Close\r\n\r\n",
    "1.0": b"GET /healthz HTTP/1.0\r\nHost: x\r\n\r\n",
    "1.0-keep-alive": b"GET /healthz HTTP/1.0\r\nHost: x\r\nConnection: keep-alive\r\n\r\n",
    "expect": b"POST /changesets HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
    b"Content-Length: 2\r\n\r\n{}",
    "pipelined": b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\nGET /nope HTTP/1.1\r\nHost: x\r\n\r\n"
    b"GET /challenges HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    "64-kib": b"GET /healthz HTTP/1.0\r\nX-A: " + _LONG[7:] + b"\r\n\r\n",
    "64-kib-and-1": b"GET /healthz HTTP/1.0\r\nX-A: " + _LONG[6:] + b"\r\n",
    "64-kib-and-1-unended": b"GET /healthz HTTP/1.0\r\nX-A: " + _LONG[4:],
    "long-line-pipelined": b"GET /healthz HTTP/1.1\r\n\r\nGET /a" + _LONG + b" HTTP/1.1\r\n\r\n",
    "no-request-line": b"\n\r\n",
    "bare-lf-line": b"GET /healthz HTTP/1.1\r\n\n\r\n",
    "cut-in-request-line": b"GET /hea",
    "cut-after-request-line": b"GET /healthz HTTP/1.1\r\n",
    "cut-in-header-line": b"GET /healthz HTTP/1.1\r\nHost: x",
    "100-fields": b"GET /healthz HTTP/1.0\r\n" + b"X-A: b\r\n" * 100 + b"\r\n",
}


def _outcomes(parts: list[bytes]) -> list:
    """What a connection whose `recv` gives each of `parts` in turn reads:
    each request's command, path, headers, persistence and the body its
    Content-Length of digits gives, up to the end of the stream or a
    refused head's (status, message)."""
    handler = _Handler.__new__(_Handler)
    handler.request, handler._buffer = _Segments(parts), b""
    outcomes = []
    try:
        while handler._read_head():
            length = handler.headers.get("Content-Length", "")
            body = handler._read_body(int(length)) if length.isdigit() else None
            headers = dict(handler.headers)
            outcomes.append((handler.command, handler.path, headers, handler.close_connection, body))
    except flagless.service._Refused as exc:
        outcomes.append(exc.args)
    return outcomes


@pytest.mark.parametrize("head", _HEADS.values(), ids=_HEADS.keys())
def test_a_head_read_a_byte_per_recv_gives_what_it_gives_whole(head):
    whole = _outcomes([head])
    assert whole and whole == _outcomes([bytes([byte]) for byte in head])


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
    def test_a_port_past_65535_raises_and_leaves_no_descriptor_open(self, sim):
        before = set(os.listdir("/proc/self/fd"))
        # `caught` keeps the traceback, and so the half-made server, alive
        with pytest.raises(OverflowError, match="port") as caught:
            flagless.service.make_server(sim.host, ("127.0.0.1", 70000))
        assert set(os.listdir("/proc/self/fd")) == before

    def test_shutdown_wakes_serve_forever_at_once(self, sim):
        server = flagless.service.make_server(sim.host, ("127.0.0.1", 0))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            time.sleep(0.05)  # in `accept` by now
            start = time.monotonic()
            server.shutdown()
            thread.join(timeout=TIMEOUT_S)
            assert not thread.is_alive() and time.monotonic() - start < 0.25
        finally:
            server.server_close()

    def test_threads_number_at_most_one_more_than_the_connection_cap(self, sim, monkeypatch):
        monkeypatch.setattr("flagless.service.MAX_CONNECTIONS", 4)
        with BackgroundService(sim.host) as svc:
            address = svc.server.server_address[:2]
            held = [socket.create_connection(address, timeout=TIMEOUT_S) for _ in range(4)]
            try:
                for sock in held:  # each is served by a thread of its own
                    sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                    assert sock.recv(65536).startswith(b"HTTP/1.1 200 ")
                for _ in range(3):  # the spare thread refuses, and stays the spare
                    assert _until_eof(svc, b"").startswith(b"HTTP/1.1 503 ")
                # four threads serving and one spare: serve_forever's and four workers
                assert len(svc.server._workers) == 4
            finally:
                for sock in held:
                    sock.close()

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

    def test_racing_clients_leave_every_thread_idle_and_within_the_bound(self, sim, monkeypatch):
        # more clients than cores and the cap, switching threads often: a
        # lost update of the idle count or the live set shows once all is quiet
        monkeypatch.setattr("flagless.service.MAX_CONNECTIONS", 3)
        interval, statuses = sys.getswitchinterval(), []

        def client(svc):
            for _ in range(15):
                data = _until_eof(svc, b"GET /healthz HTTP/1.0\r\n\r\n")
                statuses.append(int(data.split()[1]))

        sys.setswitchinterval(1e-5)
        try:
            with BackgroundService(sim.host) as svc:
                clients = [threading.Thread(target=client, args=(svc,)) for _ in range(8)]
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(timeout=10 * TIMEOUT_S)
                assert not any(thread.is_alive() for thread in clients)
                deadline = time.monotonic() + TIMEOUT_S
                while svc.server._live and time.monotonic() < deadline:
                    time.sleep(0.001)
                server = svc.server
                assert not server._live and len(server._workers) <= 3
                assert server._idle == len(server._workers) + 1  # serve_forever's too
        finally:
            sys.setswitchinterval(interval)
        assert len(statuses) == 120 and set(statuses) <= {200, 503} and 200 in statuses

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


def test_every_status_sent_has_one_reason_phrase():
    # the statuses the module names: what `_Refused`, `_respond` and
    # `_send` are given, what `answer` returns, and the `100 Continue` line
    tree = ast.parse(Path(flagless.service.__file__).read_text(encoding="utf-8"))
    sent = set()
    for node in ast.walk(tree):
        status = None
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = getattr(node.func, "id", None) or node.func.attr
            position = {"_Refused": 0, "_respond": 0, "_send": 1}.get(name)
            if position is not None and len(node.args) > position:
                status = node.args[position]
        elif isinstance(node, ast.Return) and isinstance(node.value, ast.Tuple):
            status = node.value.elts[0]
        elif isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "_REASONS":
            status = node.slice
        if isinstance(status, ast.Constant):
            sent.add(status.value)
    (table,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "_REASONS"
    ]
    keys = [key.value for key in table.keys]
    assert sorted(keys) == sorted(set(keys)) == sorted(sent)
    assert sent == {100, 200, 201, 400, 404, 413, 422, 431, 501, 503, 505}
    # spelled as CPython 3.10-3.12 do; 3.13 renamed these two
    assert _REASONS[413] == "Request Entity Too Large"
    assert _REASONS[422] == "Unprocessable Entity"


def test_413_and_422_status_lines_are_pinned(service, sim):
    data = _raw(
        service, b"POST /changesets HTTP/1.1\r\nHost: x\r\nContent-Length: 1048577\r\n\r\n"
    )
    assert data.startswith(b"HTTP/1.1 413 Request Entity Too Large\r\n")
    body = canonical_bytes(sim.chain()[-1].changeset.to_json_dict())  # a registration again
    data = _until_eof(
        service,
        b"POST /changesets HTTP/1.0\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body),
    )
    assert data.startswith(b"HTTP/1.1 422 Unprocessable Entity\r\n")


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
