"""The ledger file: one writer, one fsynced line per entry, loud damage.

A `CompetitionHost` opened on a ledger file holds its lock and appends
each entry before acknowledging it, so a killed `flagless serve` loses
nothing it answered 201 to, and no second writer can touch the file.
"""

import contextlib
import http.client
import json
import os
import random
import signal
import subprocess
import sys

import pytest

import flagless
from flagless import cli, ledger, validator
from flagless.canonical import canonical_bytes
from flagless.competition import (
    TeamSecret,
    audit_all,
    build_submission,
    challenge_path,
    new_challenge,
    register_team,
)
from flagless.sigproof import KdfParams
from flagless.validator import CompetitionHost

from helpers import BackgroundService, read_body, simulate

TIMEOUT_S = 10


@pytest.fixture
def sim(rng):
    sim = simulate(rng, n_challenges=1, n_teams=1, solve_prob=0.0)
    with sim.host:
        yield sim


@pytest.fixture
def path(sim, tmp_path):
    target = tmp_path / "ledger.ndjson"
    ledger.write_ledger(str(target), sim.chain())
    return target


def _key_file(path, secret: TeamSecret):
    path.write_bytes(canonical_bytes(secret.to_json_dict()))
    return path


def _serve_argv(ledger_path) -> list[str]:
    return [sys.executable, "-u", "-m", "flagless.cli", "serve",
            "--ledger", str(ledger_path), "--listen", "127.0.0.1:0"]


def _child_env() -> dict[str, str]:
    package_root = os.path.dirname(os.path.dirname(flagless.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p
    )
    return env


@contextlib.contextmanager
def _serve(ledger_path):
    """`flagless serve` as a child process on an ephemeral port; yields
    (process, port) and kills the child on exit."""
    proc = subprocess.Popen(
        _serve_argv(ledger_path), stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env()
    )
    try:
        line = proc.stdout.readline().decode("ascii", "replace")
        assert line.startswith("serving on http://"), proc.stderr.read()
        yield proc, int(line.rsplit(":", 1)[1])
    finally:
        proc.kill()
        proc.wait(timeout=TIMEOUT_S)
        proc.stdout.close()
        proc.stderr.close()


def _get(port, route) -> bytes:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    try:
        conn.request("GET", route)
        resp = conn.getresponse()
        assert resp.status == 200
        return resp.read()
    finally:
        conn.close()


def _post(port, changeset) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    try:
        conn.request("POST", "/changesets", canonical_bytes(changeset.to_json_dict()))
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def test_acknowledged_entries_survive_sigkill(sim, path, rng):
    changesets = [register_team(f"Killed {i}", rng=rng)[2] for i in range(3)]
    (team_id, secret), = sim.secrets.items()
    changesets.append(
        build_submission(secret, sim.descriptors["chal-0"], sim.flags["chal-0"])[1]
    )
    acks = []
    with _serve(path) as (proc, port):
        for changeset in changesets:
            status, body = _post(port, changeset)
            assert status == 201, body
            acks.append((body["index"], body["hash"]))
        proc.kill()
        proc.wait(timeout=TIMEOUT_S)
    chain = ledger.read_ledger(str(path))
    assert len(chain) == len(sim.chain()) + len(changesets)
    assert [(i, chain[i].hash.hex()) for i, _ in acks] == acks
    with CompetitionHost.open(str(path)) as host:  # the dead child's lock is gone
        rows = json.loads(read_body(host, "/scoreboard"))
        assert {r["team_id"]: r["solves"] for r in rows}[team_id] == 1


def test_serve_exits_cleanly_on_sigint(sim, path, rng):
    with _serve(path) as (proc, port):
        status, body = _post(port, register_team("Interrupted", rng=rng)[2])
        assert status == 201
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=TIMEOUT_S) == 0
    assert ledger.read_ledger(str(path))[-1].hash.hex() == body["hash"]


def test_serve_exits_promptly_on_sigint_with_a_connection_idle(sim, path):
    # the keep-alive connection's worker waits to read; SIGINT must not wait
    # for its read timeout
    with _serve(path) as (proc, port):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
        try:
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            assert resp.status == 200 and resp.read()
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=TIMEOUT_S) == 0
        finally:
            conn.close()


def test_writers_refused_while_serve_holds_the_ledger(sim, path, tmp_path, capsys):
    org_key = _key_file(tmp_path / "organizer.key", TeamSecret("organizer", sim.org_seed))
    (_, secret), = sim.secrets.items()
    team_key = _key_file(tmp_path / "team.key", secret)
    before = path.read_bytes()
    with _serve(path):
        code = cli.run([
            "challenge", "add", "--id", "late", "--title", "Late", "--points", "50",
            "--flag", "flag{late}", "--kdf-profile", "test",
            "--ledger", str(path), "--organizer-key", str(org_key),
        ])
        assert code == 1 and str(path) in capsys.readouterr().err
        code = cli.run([
            "submit", "--challenge", "chal-0", "--secret", str(team_key),
            "--flag", sim.flags["chal-0"], "--ledger", str(path),
        ])
        assert code == 1 and str(path) in capsys.readouterr().err
        assert path.read_bytes() == before


def test_second_host_is_refused(sim, path, tmp_path, capsys, rng):
    (_, secret), = sim.secrets.items()
    team_key = _key_file(tmp_path / "team.key", secret)
    before = path.read_bytes()
    with CompetitionHost.open(str(path)):
        with pytest.raises(BlockingIOError, match="holds the ledger"):
            CompetitionHost.open(str(path))
        code = cli.run([
            "submit", "--challenge", "chal-0", "--secret", str(team_key),
            "--flag", sim.flags["chal-0"], "--ledger", str(path),
        ])
        assert code == 1 and str(path) in capsys.readouterr().err
        code = cli.run([
            "team", "register", "--name", "Blocked", "--secret-out", str(tmp_path / "b.key"),
            "--ledger", str(path),
        ])
        assert code == 1 and not (tmp_path / "b.key").exists()
    assert path.read_bytes() == before
    with CompetitionHost.open(str(path)) as host:  # released on close
        assert host.apply(register_team("After", rng=rng)[2]).index == len(sim.chain())


def test_each_entry_is_one_line_fsynced_before_it_is_returned(sim, path, rng, monkeypatch):
    synced = []
    real_fsync = os.fsync

    def fsync(fd):
        real_fsync(fd)
        synced.append(path.read_bytes())

    monkeypatch.setattr(validator.os, "fsync", fsync)
    before = path.read_bytes()
    with CompetitionHost.open(str(path)) as host:
        entry = host.apply(register_team("Durable", rng=rng)[2])
        assert synced == [before + ledger.dump_entry(entry) + b"\n"]
        org = host.apply_organizer(
            ledger.Changeset((ledger.FileChange("meta/notice", b"hi"),), "organizer"),
            sim.org_seed,
        )
        assert synced[-1] == path.read_bytes() == ledger.dump_chain(host.snapshot()[0])
        assert host.snapshot()[0][-1] == org


_PADDED = new_challenge("padded", "flag{p}", "Padded", 1, KdfParams.test(), rng=random.Random(0))


@pytest.mark.parametrize(
    "change,code",
    [
        (ledger.FileChange("teams/evil/team.json", b"{}"), "ORG_SCOPE"),
        (ledger.FileChange("challenges/evil.json", b'{"id":1}'), "BAD_DESCRIPTOR"),
        # well-formed, but padded with a newline: not in canonical form
        (ledger.FileChange(challenge_path("padded"), _PADDED.serialize() + b"\n"), "BAD_DESCRIPTOR"),
    ],
    ids=["ORG_SCOPE", "BAD_DESCRIPTOR", "BAD_DESCRIPTOR-not-canonical"],
)
def test_organizer_entry_the_audit_flags_is_refused(
    sim, path, tmp_path, rng, capsys, monkeypatch, change, code
):
    changeset = ledger.Changeset((change,), "organizer")
    forged = sim.chain()  # appended past the host, the audit flags it
    ledger.append(forged, changeset, forged[-1].timestamp, org_secret=sim.org_seed)
    assert [(f.index, f.code) for f in audit_all(forged).findings] == [(len(forged) - 1, code)]
    before = path.read_bytes()
    with CompetitionHost.open(str(path)) as host:
        chain, held = host.snapshot()[0], read_body(host)
        with pytest.raises(ledger.ChainError, match=code):
            host.apply_organizer(changeset, sim.org_seed)
        assert host.snapshot()[0] == chain and read_body(host) == held == path.read_bytes()
    assert path.read_bytes() == before
    # nor can `challenge add` write it
    org_key = _key_file(tmp_path / "organizer.key", TeamSecret("organizer", sim.org_seed))
    monkeypatch.setattr(cli, "challenge_changeset", lambda descriptor: changeset)
    assert cli.run([
        "challenge", "add", "--id", "evil", "--title", "Evil", "--points", "1",
        "--flag", "flag{evil}", "--kdf-profile", "test",
        "--ledger", str(path), "--organizer-key", str(org_key),
    ]) == 1
    assert code in capsys.readouterr().err
    assert path.read_bytes() == before
    with CompetitionHost.open(str(path)) as host:  # the head did not move
        assert host.apply(register_team("After", rng=rng)[2]).index == len(chain)


def test_serve_refuses_an_empty_ledger(tmp_path):
    empty = tmp_path / "empty.ndjson"
    empty.write_bytes(b"")
    done = subprocess.run(
        _serve_argv(empty), capture_output=True, env=_child_env(), timeout=TIMEOUT_S
    )
    assert done.returncode == 1 and b"genesis" in done.stderr
    assert empty.read_bytes() == b""


def test_failed_write_keeps_nothing(path, rng, monkeypatch):
    def fsync(fd):
        raise OSError(5, "simulated I/O error")

    changeset = register_team("Unlucky", rng=rng)[2]
    with CompetitionHost.open(str(path)) as host:
        host.apply(register_team("Lucky", rng=rng)[2])  # the rollback must keep it
        chain, before = host.snapshot()[0], path.read_bytes()
        monkeypatch.setattr(validator.os, "fsync", fsync)
        with pytest.raises(OSError, match="simulated"):
            host.apply(changeset)
        assert host.snapshot()[0] == chain and path.read_bytes() == before
        monkeypatch.undo()
        # folded state untouched too: the same registration is still new
        entry = host.apply(changeset)
        assert entry.index == len(chain)
    assert ledger.read_ledger(str(path)) == chain + [entry]


def test_failed_rollback_refuses_later_appends(path, rng, monkeypatch):
    def fail(*args):
        raise OSError(5, "simulated I/O error")

    with CompetitionHost.open(str(path)) as host, BackgroundService(host) as svc:
        port = svc.server.server_address[1]
        chain, before = host.snapshot()[0], path.read_bytes()
        monkeypatch.setattr(validator.os, "fsync", fail)
        monkeypatch.setattr(validator.os, "ftruncate", fail)
        with pytest.raises(OSError, match="simulated"):
            host.apply(register_team("Stray", rng=rng)[2])
        monkeypatch.undo()
        stray = path.read_bytes()
        assert stray.startswith(before) and stray.count(b"\n") == before.count(b"\n") + 1
        # appending behind the stray line would break the chain in the file
        with pytest.raises(ValueError, match="closed"):
            host.apply(register_team("Next", rng=rng)[2])
        assert host.snapshot()[0] == chain and path.read_bytes() == stray
        # only the acknowledged bytes are served, never the stray line
        assert _get(port, "/ledger") == before and path.read_bytes() == stray
        assert json.loads(_get(port, "/healthz"))["index"] == chain[-1].index
    with CompetitionHost.open(str(path)) as host:  # the file still loads
        assert host.snapshot()[0][: len(chain)] == chain


def test_closed_host_refuses_appends(path, rng):
    before = path.read_bytes()
    with CompetitionHost.open(str(path)) as host:
        pass
    with pytest.raises(ValueError, match="closed"):
        host.apply(register_team("Late", rng=rng)[2])
    # the host released its file, so it reads no ledger either
    with pytest.raises(ValueError, match="closed"):
        host.snapshot()
    assert path.read_bytes() == before


def test_write_ledger_never_overwrites(sim, path):
    before = path.read_bytes()
    with pytest.raises(FileExistsError):
        ledger.write_ledger(str(path), sim.chain()[:1])
    assert path.read_bytes() == before


@pytest.mark.parametrize("cut", [1, 40, "half"])
def test_last_line_cut_short_is_refused(sim, path, capsys, cut):
    raw = path.read_bytes()
    last = len(ledger.dump_entry(sim.chain()[-1])) + 1
    path.write_bytes(raw[: len(raw) - (last // 2 if cut == "half" else cut)])
    with pytest.raises(ledger.ChainError, match=f"ledger line {len(sim.chain()) - 1}:"):
        ledger.read_ledger(str(path))
    assert cli.run(["audit", "--ledger", str(path)]) == 1
    assert cli.run(["serve", "--ledger", str(path), "--listen", "127.0.0.1:0"]) == 1
    assert f"ledger line {len(sim.chain()) - 1}" in capsys.readouterr().err
