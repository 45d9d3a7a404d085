"""Reads served from the host's file and the bodies its state keeps.

The host keeps its ledger only in its file, serves `/ledger` as a region
of the file's acknowledged bytes, and serves the scoreboard and challenge
bodies that its state keeps until a write changes them;
`CompetitionHost.read(route)` gives each of them, and is the one read
path of both `serve` and the CLI's `--ledger` target.  These tests hold those bytes to fresh serializations
after every kind of append, check that HTTP and a `--ledger` target read
exactly `host.read(route)`, that the host holds no copy of the ledger
and its state no submission's bytes, and that concurrent readers only
ever see whole, growing ledgers.
"""

import gc
import http.client
import json
import os
import sys
import threading
import tracemalloc

import pytest

from flagless import cli, ledger, validator
from flagless.canonical import canonical_bytes
from flagless.competition import (
    CompetitionState,
    build_submission,
    challenge_changeset,
    new_challenge,
    register_team,
)
from flagless.sigproof import KdfParams
from flagless.validator import CompetitionHost, ValidationVerdict

from helpers import (
    BackgroundService,
    load_host,
    padded_chain,
    read_body,
    scoreboard_json,
    simulate,
)

TIMEOUT_S = 10
ROUTES = ("/ledger", "/scoreboard", "/challenges", "/healthz")


@pytest.fixture
def sim(rng):
    sim = simulate(rng, n_challenges=2, n_teams=1, solve_prob=0.0)
    with sim.host:
        yield sim


@pytest.fixture(params=["chain", "bytes", "file"])
def hosted(request, sim, tmp_path):
    """(host, ledger path or None): built from a chain or from ledger
    bytes, on an anonymous file, or opened on a ledger file."""
    if request.param == "chain":
        with CompetitionHost(sim.chain()) as host:
            yield host, None
    elif request.param == "bytes":
        with load_host(ledger.dump_chain(sim.chain())) as host:
            yield host, None
    else:
        path = tmp_path / "ledger.ndjson"
        ledger.write_ledger(str(path), sim.chain())
        with CompetitionHost.open(str(path)) as host:
            yield host, path


def _get(conn, route) -> bytes:
    conn.request("GET", route)
    resp = conn.getresponse()
    body = resp.read()
    assert resp.status == 200, (route, body)
    return body


def _check(host, path, conn) -> None:
    """The held and served bytes against fresh serializations, and each
    route's HTTP body, and a `--ledger` target's, against `host.read`."""
    for route in ROUTES:
        assert _get(conn, route) == read_body(host, route), route
        if path is not None:
            target = cli.LocalTarget(str(path))
            if route == "/ledger":
                with target.ledger_file() as fh:
                    read = fh.read()
            else:
                read = target._get(route)
            assert read == read_body(host, route), route
    held = read_body(host)
    chain = ledger.load_chain(held)
    assert held == ledger.dump_chain(chain)
    assert chain == host.snapshot()[0]
    if path is not None:
        assert held == path.read_bytes()
    assert _get(conn, "/ledger") == held
    state = CompetitionState.from_chain(chain)
    assert _get(conn, "/scoreboard") == scoreboard_json(state.scoreboard())
    assert _get(conn, "/challenges") == canonical_bytes(
        [d.to_json_dict() for d in state.challenges().values()]
    )
    assert json.loads(_get(conn, "/healthz")) == {
        "hash": chain[-1].hash.hex(),
        "index": chain[-1].index,
    }


def test_held_bytes_match_a_fresh_serialization_after_every_append(
    hosted, sim, rng, monkeypatch
):
    host, path = hosted
    (team_id,) = sim.teams
    with BackgroundService(host) as svc:
        conn = http.client.HTTPConnection(*svc.server.server_address[:2], timeout=TIMEOUT_S)
        try:
            _check(host, path, conn)

            _, secret, changeset = register_team("Coherent", rng=rng)
            assert not isinstance(host.apply(changeset), ValidationVerdict)
            _check(host, path, conn)

            # two appends with no read between them
            for name in ("Second", "Third"):
                assert not isinstance(host.apply(register_team(name, rng=rng)[2]), ValidationVerdict)
            _check(host, path, conn)

            solve = build_submission(
                sim.secrets[team_id], sim.descriptors["chal-0"], sim.flags["chal-0"]
            )[1]
            assert not isinstance(host.apply(solve), ValidationVerdict)
            _check(host, path, conn)

            verdict = host.apply(solve)
            assert isinstance(verdict, ValidationVerdict) and not verdict
            _check(host, path, conn)

            descriptor = new_challenge(
                "late", "flag{late}", title="Late", points=50, kdf=KdfParams.test(), rng=rng
            )
            host.apply_organizer(challenge_changeset(descriptor), sim.org_seed)
            _check(host, path, conn)

            # a failed write is cut back out, on an anonymous file too,
            # and the next line lands right after the acknowledged bytes
            late = build_submission(secret, descriptor, "flag{late}")[1]

            def fsync(fd):
                raise OSError(5, "simulated I/O error")

            monkeypatch.setattr(validator.os, "fsync", fsync)
            with pytest.raises(OSError, match="simulated"):
                host.apply(late)
            monkeypatch.undo()
            _check(host, path, conn)

            assert not isinstance(host.apply(late), ValidationVerdict)
            _check(host, path, conn)
        finally:
            conn.close()


def test_the_snapshot_files_are_the_replay_of_its_chain_after_every_append(
    hosted, sim, rng, monkeypatch
):
    # the steps of the test above, without HTTP: the state keeps no
    # submission's bytes, and `snapshot` reads the files from the chain
    host, _ = hosted
    (team_id,) = sim.teams

    def check():
        chain, files = host.snapshot()
        assert files == ledger.replay(chain)

    check()
    _, secret, changeset = register_team("Coherent", rng=rng)
    assert not isinstance(host.apply(changeset), ValidationVerdict)
    check()
    for name in ("Second", "Third"):
        assert not isinstance(host.apply(register_team(name, rng=rng)[2]), ValidationVerdict)
    check()
    solve = build_submission(sim.secrets[team_id], sim.descriptors["chal-0"], sim.flags["chal-0"])[1]
    assert not isinstance(host.apply(solve), ValidationVerdict)
    check()
    assert not host.apply(solve)
    check()
    descriptor = new_challenge(
        "late", "flag{late}", title="Late", points=50, kdf=KdfParams.test(), rng=rng
    )
    host.apply_organizer(challenge_changeset(descriptor), sim.org_seed)
    check()
    late = build_submission(secret, descriptor, "flag{late}")[1]

    def fsync(fd):
        raise OSError(5, "simulated I/O error")

    monkeypatch.setattr(validator.os, "fsync", fsync)
    with pytest.raises(OSError, match="simulated"):
        host.apply(late)
    monkeypatch.undo()
    check()
    assert not isinstance(host.apply(late), ValidationVerdict)
    check()


def test_the_state_drops_a_solves_bytes_once_it_is_not_the_head(sim, rng):
    (team_id,) = sim.teams
    solve = build_submission(sim.secrets[team_id], sim.descriptors["chal-0"], sim.flags["chal-0"])[1]
    content = solve.changes[0].content
    before = sys.getrefcount(content)
    assert not isinstance(sim.host.apply(solve), ValidationVerdict)
    assert not isinstance(sim.host.apply(register_team("After", rng=rng)[2]), ValidationVerdict)
    assert sys.getrefcount(content) == before


@pytest.mark.parametrize("route", ["/", "/scoreboard/", "/Ledger", "/healthz?x=1", "/changesets"])
def test_an_unserved_route_reads_none_and_answers_404(sim, route):
    assert sim.host.read(route) is None
    with BackgroundService(sim.host) as svc:
        conn = http.client.HTTPConnection(*svc.server.server_address[:2], timeout=TIMEOUT_S)
        try:
            conn.request("GET", route)
            resp = conn.getresponse()
            assert (resp.status, json.loads(resp.read())) == (404, {"error": "not found"})
        finally:
            conn.close()


def test_the_challenge_list_is_kept_until_a_release(sim, rng):
    host = sim.host
    listed = host.read("/challenges")
    (team_id,) = sim.teams
    solve = build_submission(sim.secrets[team_id], sim.descriptors["chal-0"], sim.flags["chal-0"])
    for changeset in (register_team("Keeper", rng=rng)[2], solve[1]):
        assert not isinstance(host.apply(changeset), ValidationVerdict)
        assert host.read("/challenges") is listed
    # an organizer entry that writes no challenge keeps both bodies
    ranked = host.read("/scoreboard")
    meta = ledger.FileChange(ledger.COMPETITION_META_PATH, b'{"name":"kept"}')
    host.apply_organizer(ledger.Changeset((meta,), "organizer"), sim.org_seed)
    assert host.read("/challenges") is listed
    assert host.read("/scoreboard") is ranked
    descriptor = new_challenge(
        "late", "flag{late}", title="Late", points=50, kdf=KdfParams.test(), rng=rng
    )
    host.apply_organizer(challenge_changeset(descriptor), sim.org_seed)
    assert [d["id"] for d in json.loads(read_body(host, "/challenges"))] == [
        "chal-0", "chal-1", "late"
    ]


def test_the_host_holds_no_copy_of_the_ledger(rng, tmp_path):
    org_seed = rng.randbytes(32)
    path = tmp_path / "ledger.ndjson"
    ledger.write_ledger(str(path), padded_chain(rng, org_seed, 4 << 20))
    size = path.stat().st_size
    notes = [ledger.Changeset((ledger.FileChange(f"meta/note-{i}", b"hi"),), "organizer")
             for i in range(3)]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with CompetitionHost.open(str(path)) as host, BackgroundService(host) as svc:
            for note in notes:
                host.apply_organizer(note, org_seed)
            conn = http.client.HTTPConnection(*svc.server.server_address[:2], timeout=TIMEOUT_S)
            try:
                for _ in range(2):
                    assert _get(conn, "/ledger") == path.read_bytes()
            finally:
                conn.close()
            gc.collect()
            # the state keeps the last padding, a 32nd of the ledger
            held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert size >= 4 << 20
    assert held < size // 8, (held, size)


def test_a_region_reads_its_own_file_after_the_host_closes(sim, tmp_path):
    path = tmp_path / "ledger.ndjson"
    ledger.write_ledger(str(path), sim.chain())
    (tmp_path / "other").write_bytes(b"x" * path.stat().st_size)
    host = CompetitionHost.open(str(path))
    region, fd = host.read("/ledger"), host._fd
    host.close()
    for read in (lambda: host.read("/ledger"), host.snapshot):
        with pytest.raises(ValueError, match="closed"):
            read()
    other = os.open(tmp_path / "other", os.O_RDONLY)  # takes the host's descriptor
    try:
        assert other == fd
        with region:
            assert os.pread(region.fd, region.size, 0) == path.read_bytes()
    finally:
        os.close(other)


def test_a_dropped_host_releases_its_file(sim):
    host = CompetitionHost(sim.chain())
    fd = host._fd
    os.fstat(fd)
    del host
    gc.collect()
    with pytest.raises(OSError):
        os.fstat(fd)


def test_concurrent_readers_see_whole_growing_ledgers(rng, tmp_path):
    sim = simulate(rng, n_challenges=3, n_teams=3, solve_prob=0.0)
    posts = [
        build_submission(sim.secrets[t], sim.descriptors[c], sim.flags[c])[1]
        for t in sorted(sim.teams)
        for c in sorted(sim.descriptors)
    ]
    posts += [register_team(f"Late {i}", rng=rng)[2] for i in range(3)]
    path = tmp_path / "ledger.ndjson"
    ledger.write_ledger(str(path), sim.chain())
    writing = threading.Event()
    writing.set()
    errors = []
    seen = {}

    def read(name, address):
        lengths, last = [], None
        conn = http.client.HTTPConnection(*address, timeout=TIMEOUT_S)
        try:
            while True:
                done = not writing.is_set()
                last = _get(conn, "/ledger")
                chain = ledger.load_chain(last)
                assert ledger.verify_chain(chain)
                lengths.append(len(chain))
                json.loads(_get(conn, "/scoreboard"))
                if done:
                    break
        except Exception as exc:  # reported by the main thread
            errors.append((name, exc))
        finally:
            conn.close()
            seen[name] = (lengths, last)

    def write(address):
        try:
            for changeset in posts:
                conn = http.client.HTTPConnection(*address, timeout=TIMEOUT_S)
                try:
                    conn.request(
                        "POST", "/changesets", canonical_bytes(changeset.to_json_dict())
                    )
                    resp = conn.getresponse()
                    assert resp.status == 201, resp.read()
                    resp.read()
                finally:
                    conn.close()
        except Exception as exc:  # reported by the main thread
            errors.append(("writer", exc))
        finally:
            writing.clear()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with CompetitionHost.open(str(path)) as host, BackgroundService(host) as svc:
            address = svc.server.server_address[:2]
            threads = [
                threading.Thread(target=read, args=(name, address))
                for name in ("reader-1", "reader-2")
            ]
            threads.append(threading.Thread(target=write, args=(address,)))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    final = path.read_bytes()
    assert len(ledger.load_chain(final)) == len(sim.chain()) + len(posts)
    for lengths, last in seen.values():
        assert lengths == sorted(lengths)
        assert last == final
