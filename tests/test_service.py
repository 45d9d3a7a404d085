"""HTTP contract of the service: status codes, bodies, hostile requests."""

import http.client
import json
import socket
import time

import pytest

from flagless import ledger
from flagless.canonical import canonical_bytes
from flagless.competition import build_submission, register_team, scoreboard_bytes
from flagless.ledger import Changeset, FileChange
from flagless.service import BackgroundService, _Handler

from helpers import simulate

TIMEOUT_S = 3


@pytest.fixture
def sim(rng):
    return simulate(rng, n_challenges=1, n_teams=1, solve_prob=0.0)


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

    def test_healthz_names_the_last_acknowledged_entry(self, service, sim, rng):
        head = sim.chain()[-1]
        status, body = _request(service, "GET", "/healthz")
        assert status == 200
        assert json.loads(body) == {"hash": head.hash.hex(), "index": head.index}
        for name in ("Head One", "Head Two"):
            status, reply = _post(service, register_team(name, rng=rng)[2])
            assert status == 201
            assert _request(service, "GET", "/healthz") == (200, reply)

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
        ],
        ids=["404", "413", "400-negative-length", "400-no-length", "get-body", "get-chunked"],
    )
    def test_unread_body_is_not_parsed_as_a_request(self, service, head):
        # a keep-alive connection would read the body as a second request
        with socket.create_connection(service.server.server_address[:2], timeout=TIMEOUT_S) as sock:
            sock.sendall(head + _SMUGGLED)
            data = b""
            while chunk := sock.recv(65536):  # a timeout here means no EOF
                data += chunk
        assert data.count(b"HTTP/1.1 ") == 1
        assert b"Connection: close\r\n" in data

    @pytest.mark.parametrize("method,path", [("GET", "/nope"), ("POST", "/scoreboard")])
    def test_unknown_route_is_404(self, service, method, path):
        status, _ = _request(service, method, path, b"{}" if method == "POST" else None)
        assert status == 404


class TestReads:
    def test_reads_match_the_host(self, service, sim):
        assert _request(service, "GET", "/scoreboard") == (
            200,
            scoreboard_bytes(sim.host.scoreboard()),
        )
        status, body = _request(service, "GET", "/challenges")
        assert status == 200
        assert [d["id"] for d in json.loads(body)] == sorted(sim.descriptors)
        status, body = _request(service, "GET", "/ledger")
        assert status == 200 and ledger.load_chain(body) == sim.chain()
