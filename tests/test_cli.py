"""The CLI end to end: organizer, player and auditor, on a local ledger
and through a running service."""

import contextlib
import errno
import http.server
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from flagless import cli, ledger, validator
from flagless.canonical import canonical_bytes
from flagless.competition import build_submission, register_team
from flagless.validator import CompetitionHost

from helpers import BackgroundService, append_ghost_solve, load_host, read_body, simulate

FLAG = "flag{cli-test}"


def _run(capsys, *argv) -> tuple[int, str]:
    code = cli.run([str(a) for a in argv])
    return code, capsys.readouterr().out


@pytest.fixture
def competition(tmp_path, capsys):
    """A ledger with one challenge, one team and that team's solve."""
    code, out = _run(capsys, "--json", "init", "--name", "CLI Cup", "--dir", tmp_path)
    assert code == 0
    ledger_path = json.loads(out)["ledger"]
    code, _ = _run(
        capsys, "challenge", "add", "--id", "warmup", "--title", "Warm-up", "--points", 100,
        "--flag", FLAG, "--kdf-profile", "test", "--ledger", ledger_path,
    )
    assert code == 0
    secret = tmp_path / "alpha.key"
    code, out = _run(
        capsys, "--json", "team", "register", "--name", "Alpha", "--secret-out", secret,
        "--ledger", ledger_path,
    )
    assert code == 0
    team_id = json.loads(out)["id"]
    code, out = _run(
        capsys, "--json", "submit", "--challenge", "warmup", "--secret", secret,
        "--flag", FLAG, "--ledger", ledger_path,
    )
    assert code == 0 and json.loads(out)["outcome"] == "ACCEPT"
    return ledger_path, team_id


def test_solve_reaches_the_scoreboard(competition, tmp_path, capsys):
    ledger_path, team_id = competition
    out_path = tmp_path / "scoreboard.json"
    code, out = _run(capsys, "--json", "score", "--out", out_path, "--ledger", ledger_path)
    assert code == 0
    rows = json.loads(out)
    assert [(r["team_id"], r["points"], r["solves"]) for r in rows] == [(team_id, 100, 1)]
    assert json.loads(out_path.read_bytes()) == rows


def test_wrong_flag_is_not_submitted(competition, tmp_path, capsys):
    ledger_path, _ = competition
    before = Path(ledger_path).read_bytes()
    code, _ = _run(
        capsys, "submit", "--challenge", "warmup", "--secret", tmp_path / "alpha.key",
        "--flag", "flag{wrong}", "--ledger", ledger_path,
    )
    assert code == 1
    assert Path(ledger_path).read_bytes() == before


def test_audit_is_clean_and_matches_score(competition, tmp_path, capsys):
    ledger_path, _ = competition
    code, out = _run(capsys, "--json", "audit", "--ledger", ledger_path)
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and report["findings"] == [] and report["entries"] == 4
    _, score = _run(
        capsys, "--json", "score", "--out", tmp_path / "s.json", "--ledger", ledger_path
    )
    assert report["scoreboard"] == json.loads(score)


def test_a_released_challenge_is_not_released_again(competition, capsys):
    ledger_path, _ = competition
    before = Path(ledger_path).read_bytes()
    code = cli.run([
        "challenge", "add", "--id", "warmup", "--title", "Again", "--points", "5",
        "--flag", "flag{again}", "--kdf-profile", "test", "--ledger", ledger_path,
    ])
    assert code == 1 and "already released" in capsys.readouterr().err
    assert Path(ledger_path).read_bytes() == before


def test_local_reads_use_the_file_itself(competition, tmp_path, capsys, monkeypatch):
    # `score`, `challenges` and `audit` on --ledger fold the file as they
    # read it: no copy of its bytes, in memory or in an anonymous file, and
    # no writer's lock
    ledger_path, _ = competition
    commands = [["score", "--out", tmp_path / "board.json"], ["challenges"], ["audit"]]
    before = [_run(capsys, "--json", *argv, "--ledger", ledger_path) for argv in commands]
    entries = ledger.entries

    def from_a_file(lines):
        assert isinstance(lines, io.BufferedReader), type(lines)
        return entries(lines)

    def copied(data):
        raise AssertionError("the ledger was copied")

    monkeypatch.setattr(ledger, "entries", from_a_file)
    monkeypatch.setattr(validator, "_anonymous_file", copied)
    with CompetitionHost.open(ledger_path):  # a writer holds the file
        after = [_run(capsys, "--json", *argv, "--ledger", ledger_path) for argv in commands]
    assert after == before and all(code == 0 for code, _ in after)


def test_a_local_submit_loads_the_ledger_once(competition, tmp_path, capsys, monkeypatch):
    # the host that lists the challenges also appends the solve
    ledger_path, _ = competition
    code, _ = _run(
        capsys, "team", "register", "--name", "Beta", "--secret-out", tmp_path / "beta.key",
        "--ledger", ledger_path,
    )
    assert code == 0
    entries, calls = ledger.entries, []

    def counted(lines):
        calls.append(lines)
        return entries(lines)

    monkeypatch.setattr(ledger, "entries", counted)
    code, out = _run(
        capsys, "--json", "submit", "--challenge", "warmup", "--secret", tmp_path / "beta.key",
        "--flag", FLAG, "--ledger", ledger_path,
    )
    assert code == 0 and json.loads(out)["outcome"] == "ACCEPT"
    assert len(calls) == 1


def test_audit_fails_on_a_ledger_with_no_genesis(tmp_path, capsys):
    empty = tmp_path / "empty.ndjson"
    empty.write_bytes(b"")
    code, out = _run(capsys, "--json", "audit", "--ledger", empty)
    assert code == 1
    report = json.loads(out)
    assert not report["ok"] and report["entries"] == 0
    assert report["findings"] == [{"code": "CHAIN", "index": 0, "message": ledger.NO_GENESIS}]
    code, out = _run(capsys, "audit", "--ledger", empty)
    assert code == 1
    assert out == f"entry 0: CHAIN: {ledger.NO_GENESIS}\naudited 0 entries: 1 finding(s)\n"
    code = cli.run(["score", "--out", str(tmp_path / "s.json"), "--ledger", str(empty)])
    assert code == 1 and ledger.NO_GENESIS in capsys.readouterr().err


@pytest.mark.parametrize("where", [0.1, 0.5, 0.9])
def test_audit_fails_after_one_flipped_byte(competition, capsys, where):
    ledger_path, _ = competition
    raw = bytearray(Path(ledger_path).read_bytes())
    raw[int(where * len(raw))] ^= 1
    with open(ledger_path, "wb") as fh:
        fh.write(raw)
    code, _ = _run(capsys, "--json", "audit", "--ledger", ledger_path)
    assert code != 0


def _trailing_space(lines: list[bytes]) -> tuple[int, str]:
    lines[5] = lines[5][:-1] + b" \n"
    return 5, "not in canonical form"


def _cut_short(lines: list[bytes]) -> tuple[int, str]:
    lines[-1] = lines[-1][:-1]
    return len(lines) - 1, "cut short, no final newline"


@pytest.mark.parametrize("damage", [_trailing_space, _cut_short])
def test_audit_reports_the_entries_before_a_line_that_does_not_parse(
    competition, tmp_path, capsys, damage
):
    ledger_path, team_id = competition
    chain = ledger.read_ledger(ledger_path)
    for team in (team_id, "nobody", "nobody-else"):
        append_ghost_solve(chain, team)  # entries 4, 5 and 6
    lines = ledger.dump_chain(chain).splitlines(keepends=True)
    k, reason = damage(lines)
    damaged = tmp_path / "damaged.ndjson"
    damaged.write_bytes(b"".join(lines))
    findings = [
        {"code": "UNKNOWN_CHALLENGE", "index": 4, "message": "challenge 'ghost'"},
        {"code": "UNKNOWN_TEAM", "index": 5, "message": "team 'nobody'"},
    ][: k - 4] + [{"code": "CHAIN", "index": k, "message": f"ledger line {k}: {reason}"}]

    code, out = _run(capsys, "--json", "audit", "--ledger", damaged)
    assert code == 1
    assert json.loads(out) == {"entries": k, "findings": findings, "ok": False, "scoreboard": []}
    code, out = _run(capsys, "audit", "--ledger", damaged)
    assert code == 1
    assert out.splitlines() == [
        *(f"entry {f['index']}: {f['code']}: {f['message']}" for f in findings),
        f"audited {k} entries: {len(findings)} finding(s)",
    ]


def test_no_reader_builds_the_ledger_as_a_list(tmp_path, rng, capsys, monkeypatch):
    """The host and the read commands fold each entry as they read its
    line: with `load_chain`, the list form, refused, each gives the same
    output."""
    path = tmp_path / "ledger.ndjson"
    path.write_bytes(ledger.dump_chain(simulate(rng, n_challenges=2, n_teams=3).chain()))

    def outputs():
        hosts = (lambda: CompetitionHost.open(str(path)),
                 lambda: load_host(path.read_bytes()))
        for make in hosts:
            with make() as host:
                yield [read_body(host, route) for route in ("/healthz", "/scoreboard",
                                                            "/challenges", "/ledger")]
        for argv in (["audit"], ["score", "--out", tmp_path / "s.json"], ["challenges"]):
            yield _run(capsys, "--json", *argv, "--ledger", path)

    expected = list(outputs())
    assert [code for code, _ in expected[2:]] == [0, 0, 0]

    def refuse(data):
        raise AssertionError("the ledger was built as a list")

    monkeypatch.setattr(ledger, "load_chain", refuse)
    assert list(outputs()) == expected


def test_service_url_gives_the_same_results_as_ledger(competition, tmp_path, capsys):
    ledger_path, _ = competition
    served = tmp_path / "served.ndjson"
    served.write_bytes(Path(ledger_path).read_bytes())
    with CompetitionHost.open(str(served)) as host, BackgroundService(host) as svc:
        targets = {"ledger": ["--ledger", ledger_path], "service": ["--service-url", svc.url]}

        def both(argv):
            """(exit code, output) of one command against each target;
            `argv(name)` gives the command's arguments for target `name`."""
            return {
                name: _run(capsys, "--json", *argv(name), *target)
                for name, target in targets.items()
            }

        def key(name):
            return tmp_path / f"beta-{name}.key"

        registered = both(lambda t: ["team", "register", "--name", "Beta", "--secret-out", key(t)])
        assert registered["ledger"] == registered["service"]
        assert registered["ledger"][0] == 0

        listed = both(lambda t: ["challenges"])
        assert listed["ledger"] == listed["service"] and listed["ledger"][0] == 0

        submit = ["submit", "--challenge", "warmup", "--flag", FLAG, "--secret"]
        solved = {
            name: (code, json.loads(out))
            for name, (code, out) in both(lambda t: [*submit, key(t)]).items()
        }
        heads = {"ledger": ledger.read_ledger(ledger_path)[-1], "service": host.snapshot()[0][-1]}
        for name, (code, result) in solved.items():
            assert code == 0 and result["outcome"] == "ACCEPT"
            assert result.pop("hash") == heads[name].hash.hex()
        assert solved["ledger"] == solved["service"]

        again = both(lambda t: [*submit, key(t)])
        assert again["ledger"] == again["service"] and again["ledger"][0] == 1
        assert json.loads(again["ledger"][1])["code"] == "DUPLICATE_SUBMISSION"

        scored = both(lambda t: ["score", "--out", tmp_path / f"score-{t}.json"])
        assert scored["ledger"] == scored["service"] and scored["ledger"][0] == 0
        assert len(json.loads(scored["ledger"][1])) == 2

        audited = both(lambda t: ["audit"])
        assert audited["ledger"] == audited["service"] and audited["ledger"][0] == 0
        assert ledger.read_ledger(str(served)) == host.snapshot()[0]


def test_a_solve_of_no_challenge_is_not_scored_and_is_flagged(competition, tmp_path, capsys):
    ledger_path, team_id = competition
    chain = ledger.read_ledger(ledger_path)
    append_ghost_solve(chain, team_id)
    forged = tmp_path / "forged.ndjson"
    forged.write_bytes(ledger.dump_chain(chain))

    code, local = _run(capsys, "--json", "score", "--out", tmp_path / "l.json", "--ledger", forged)
    assert code == 0
    assert [(r["team_id"], r["points"], r["solves"]) for r in json.loads(local)] == [
        (team_id, 100, 1)
    ]
    with CompetitionHost.open(str(forged)) as host, BackgroundService(host) as svc:
        served = _run(capsys, "--json", "score", "--out", tmp_path / "s.json",
                      "--service-url", svc.url)
    assert served == (0, local)

    code, out = _run(capsys, "--json", "audit", "--ledger", forged)
    ghost = len(chain) - 1
    assert code == 1
    assert json.loads(out)["findings"] == [
        {"code": "UNKNOWN_CHALLENGE", "index": ghost, "message": "challenge 'ghost'"},
        {"code": "SCOREBOARD", "index": ghost,
         "message": f"submission for unknown challenge 'ghost' at entry {ghost}"},
    ]


class _StubHandler(http.server.BaseHTTPRequestHandler):
    """Answers each request with `answers[method, path]`: (status, body)."""

    answers: dict[tuple[str, str], tuple[int, bytes]]

    def do_GET(self):
        self._answer()

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self._answer()

    def _answer(self):
        status, body = self.answers[self.command, self.path]
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def _stub_service(answers):
    """The URL of a service that gives each request a fixed answer."""
    handler = type("Stub", (_StubHandler,), {"answers": answers})
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
    )
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


def _error_line(capsys) -> str:
    """The one line a failed command writes to stderr."""
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ")
    return line


_NOT_A_LISTING = [pytest.param(b"[" * 100_000, id="100000-brackets"), b"not json", b"\xff", b"{}", b"[1]", b'[{"id": "x"}]', b"7"]


@pytest.mark.parametrize("body", _NOT_A_LISTING)
def test_a_broken_listing_is_one_error_line(body, tmp_path, capsys):
    answers = {("GET", "/challenges"): (200, body), ("GET", "/scoreboard"): (200, body)}
    with _stub_service(answers) as url:
        for argv in (["challenges"], ["score", "--out", tmp_path / "s.json"]):
            assert cli.run([*map(str, argv), "--service-url", url]) == 1
            assert "malformed answer to GET /" in _error_line(capsys)


@pytest.mark.parametrize(
    "status,body,kept",
    [
        (422, b"{}", False),
        pytest.param(422, b"[" * 100_000, False, id="422-100000-brackets"),
        (422, b'{"code": 7}', False),
        (201, b"{}", True),  # it may have landed, so the key stays
        (201, b'{"index": "1"}', True),
        (500, b"", True),
    ],
)
def test_a_broken_registration_answer_is_one_error_line(status, body, kept, tmp_path, capsys):
    secret = tmp_path / "team.key"
    with _stub_service({("POST", "/changesets"): (status, body)}) as url:
        argv = ["team", "register", "--name", "Gamma", "--secret-out", str(secret)]
        assert cli.run([*argv, "--service-url", url]) == 1
    assert "answer to POST /changesets" in _error_line(capsys)
    assert secret.exists() == kept


def test_a_key_file_nested_too_deeply_is_one_error_line(competition, tmp_path, capsys):
    ledger_path, _ = competition
    nested = tmp_path / "nested.key"
    nested.write_bytes(b"[" * 100_000)
    before = Path(ledger_path).read_bytes()
    for argv in (
        ["submit", "--challenge", "warmup", "--flag", FLAG, "--secret", nested],
        ["challenge", "add", "--id", "deep", "--title", "Deep", "--points", 1,
         "--flag", FLAG, "--kdf-profile", "test", "--organizer-key", nested],
    ):
        assert cli.run([*map(str, argv), "--ledger", ledger_path]) == 1
        assert "nested too deeply" in _error_line(capsys)
    assert Path(ledger_path).read_bytes() == before


def test_init_prints_where_it_wrote(tmp_path, capsys):
    code, out = _run(capsys, "init", "--name", "CLI Cup", "--dir", tmp_path)
    assert code == 0
    assert out == (
        "initialized competition 'CLI Cup'\n"
        f"  ledger:        {tmp_path / 'ledger.ndjson'}\n"
        f"  organizer key: {tmp_path / 'organizer.key'}  (keep this private)\n"
    )


def test_a_failed_init_leaves_no_key_and_runs_again(tmp_path, capsys, monkeypatch):
    def full(path, chain):
        raise OSError(errno.ENOSPC, "No space left on device")

    with monkeypatch.context() as patched:
        patched.setattr(ledger, "write_ledger", full)
        assert cli.run(["init", "--name", "CLI Cup", "--dir", str(tmp_path)]) == 1
    assert "No space left on device" in _error_line(capsys)
    assert list(tmp_path.iterdir()) == []
    assert _run(capsys, "init", "--name", "CLI Cup", "--dir", tmp_path)[0] == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ledger.ndjson", "organizer.key"]


def test_init_and_register_fsync_each_file_and_its_directory(tmp_path, capsys, monkeypatch):
    synced, fsync = [], os.fsync

    def seen(fd):
        status = os.fstat(fd)
        synced.append((status.st_dev, status.st_ino))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", seen)
    cup = tmp_path / "cup"  # made by `init`, so its own name is synced too
    assert _run(capsys, "init", "--name", "CLI Cup", "--dir", cup)[0] == 0
    secret = cup / "alpha.key"
    argv = ["team", "register", "--name", "Alpha", "--secret-out", secret]
    assert _run(capsys, *argv, "--ledger", cup / "ledger.ndjson")[0] == 0
    for path in (cup / "organizer.key", cup / "ledger.ndjson", secret, cup, tmp_path):
        status = path.stat()
        assert (status.st_dev, status.st_ino) in synced, path


def test_a_file_that_cannot_be_written_is_not_left_behind(tmp_path, monkeypatch):
    def full(fd):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "fsync", full)
    with pytest.raises(OSError, match="No space left"):
        ledger.create_file(str(tmp_path / "key"), b"secret", 0o600)
    assert list(tmp_path.iterdir()) == []


def test_listings_as_text(competition, tmp_path, capsys):
    ledger_path, team_id = competition
    empty = tmp_path / "empty"
    assert _run(capsys, "init", "--name", "Empty", "--dir", empty)[0] == 0
    target = ["--ledger", empty / "ledger.ndjson"]
    assert _run(capsys, "challenges", *target) == (0, "no challenges released yet\n")
    assert _run(capsys, "score", "--out", tmp_path / "s.json", *target) == (0, "no teams yet\n")
    assert _run(capsys, "challenges", "--ledger", ledger_path) == (
        0, "warmup    100 pts  [-]  Warm-up\n"
    )
    assert team_id == "alpha"
    assert _run(capsys, "score", "--out", tmp_path / "s.json", "--ledger", ledger_path) == (
        0, "  #  team   points  solves\n  1  alpha     100       1\n"
    )


def test_submit_as_text(competition, tmp_path, capsys):
    ledger_path, _ = competition
    target = ["--ledger", ledger_path]
    key = tmp_path / "beta.key"
    assert _run(capsys, "team", "register", "--name", "Beta", "--secret-out", key, *target)[0] == 0
    flag_file = tmp_path / "flag.txt"
    flag_file.write_text(FLAG + "\n", encoding="utf-8")
    submit = ["submit", "--challenge", "warmup", "--secret", key]
    assert _run(capsys, *submit, "--flag-file", flag_file, *target) == (
        0, "ACCEPT: solve recorded at entry 5\n"
    )
    code, out = _run(capsys, *submit, "--flag", FLAG, *target)
    assert code == 1
    assert out.startswith("REJECT DUPLICATE_SUBMISSION: ") and out.endswith("\n")
    before = Path(ledger_path).read_bytes()
    unknown = ["submit", "--challenge", "nope", "--flag", FLAG, "--secret", key, *target]
    assert cli.run([*map(str, unknown)]) == 1
    assert _error_line(capsys) == "error: unknown challenge 'nope'"
    no_flag_file = [*submit, "--flag-file", tmp_path / "gone", *target]
    assert cli.run([*map(str, no_flag_file)]) == 1
    assert _error_line(capsys).startswith("error: cannot read flag file: ")
    assert Path(ledger_path).read_bytes() == before


def test_a_rejected_registration_keeps_no_secret_file(competition, tmp_path, capsys):
    ledger_path, _ = competition
    before = Path(ledger_path).read_bytes()
    secret = tmp_path / "again.key"
    argv = ["team", "register", "--name", "Alpha", "--secret-out", secret, "--ledger", ledger_path]
    assert cli.run([*map(str, argv)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("registration rejected: DUPLICATE_TEAM: ")
    assert not secret.exists()
    assert Path(ledger_path).read_bytes() == before


def test_a_key_file_whose_public_key_is_not_its_seeds_is_refused(competition, tmp_path, capsys):
    ledger_path, _ = competition
    key = json.loads((tmp_path / "alpha.key").read_bytes())
    key["seed"] = "00" * 32
    forged = tmp_path / "forged.key"
    forged.write_bytes(canonical_bytes(key))
    argv = ["submit", "--challenge", "warmup", "--flag", FLAG, "--secret", forged]
    assert cli.run([*map(str, argv), "--ledger", ledger_path]) == 1
    assert _error_line(capsys) == f"error: bad secret file {forged}: secret key file is inconsistent"


# Runs in a fresh interpreter: argv is the ledger file, a registration and a
# solve as changeset JSON, then module names.  POSTs both and GETs every
# route through `make_server` over `_socket` (so only the server could load
# `socket`), prints the statuses and which of the modules got loaded, then
# runs scrypt and prints whether `hashlib` is loaded.
_SERVE_PATH = r"""
import _socket, sys, threading
import flagless.cli
from flagless import sigproof
from flagless.service import make_server
from flagless.validator import CompetitionHost

registration, solve = (open(path, "rb").read() for path in sys.argv[2:4])
heavy = sys.argv[4:]
with CompetitionHost.open(sys.argv[1]) as host:
    server = make_server(host, ("127.0.0.1", 0))
    threading.Thread(target=server.serve_forever, daemon=True).start()

    def status(method, route, body=b""):
        head = f"{method} {route} HTTP/1.0\r\nContent-Length: {len(body)}\r\n\r\n"
        conn = _socket.socket()
        try:
            conn.connect(server.server_address)
            conn.sendall(head.encode() + body)
            answer = b""
            while chunk := conn.recv(1 << 16):
                answer += chunk
        finally:
            conn.close()
        return int(answer.split()[1])

    statuses = [status("POST", "/changesets", body) for body in (registration, solve)]
    statuses += [status("GET", r) for r in ("/healthz", "/scoreboard", "/challenges", "/ledger")]
    server.shutdown()
    server.server_close()
print(statuses, [m for m in heavy if m in sys.modules])
sigproof.scrypt_kdf(b"flag", b"salt", 2, 1, 1, 32)
print("hashlib" in sys.modules)
"""


def test_the_serve_path_loads_no_openssl_http_client_or_mail_parser(tmp_path, rng):
    # importing the CLI loads none of them (argparse and `gettext` load
    # only to parse a command line other than a plain `serve`), and a host that
    # answers POSTs and every GET route hashes without OpenSSL, builds its
    # records without `dataclasses`, logs nothing, spells its status lines
    # without `http` and listens without `socket`; only scrypt loads
    # `hashlib`, only the flag prompt `getpass`, and --service-url loads
    # urllib on first use (test_service_url_gives_the_same_results_as_ledger)
    heavy = (
        "http.server", "http.client", "email.parser", "urllib.request", "ssl",
        "_hashlib", "hashlib", "hmac", "secrets",
        "dataclasses", "inspect", "ast", "dis", "getpass",
        "logging", "traceback", "tokenize", "http", "socketserver",
        "socket", "selectors", "array", "select", "argparse", "gettext",
    )
    sim = simulate(rng, n_challenges=1, n_teams=0)
    with sim.host:
        (tmp_path / "ledger").write_bytes(read_body(sim.host))
    (cid, descriptor), = sim.descriptors.items()
    _, secret, registration = register_team("Alpha", rng=rng)
    _, solve = build_submission(secret, descriptor, sim.flags[cid])
    for name, changeset in (("registration", registration), ("solve", solve)):
        (tmp_path / name).write_bytes(canonical_bytes(changeset.to_json_dict()))
    files = [tmp_path / name for name in ("ledger", "registration", "solve")]
    package_root = Path(cli.__file__).parents[1]  # `-c` puts the cwd first on sys.path
    out = subprocess.run(
        [sys.executable, "-c", _SERVE_PATH, *files, *heavy],
        cwd=package_root, capture_output=True, text=True, check=True,
    )
    assert out.stdout.splitlines() == ["[201, 201, 200, 200, 200, 200] []", "True"]


def test_serve_from_a_clean_interpreter_loads_none_of_what_it_leaves_out(tmp_path, rng):
    # the real entry under `python -S`, so that no `site` module loads
    # anything first; `-X importtime` names on stderr each module the
    # process imports, to its exit on SIGTERM.  The solve POSTed is by a
    # team already registered, so no slug is checked and `unicodedata`
    # stays out too
    left_out = (
        "argparse", "gettext", "tempfile", "shutil", "random", "typing", "bz2", "lzma",
        "unicodedata",
    )
    sim = simulate(rng, n_challenges=1, n_teams=1, solve_prob=0.0)
    with sim.host:
        (tmp_path / "ledger").write_bytes(read_body(sim.host))
    (_, secret), = sim.secrets.items()
    _, solve = build_submission(secret, sim.descriptors["chal-0"], sim.flags["chal-0"])
    argv = ["serve", "--ledger", tmp_path / "ledger", "--listen", "127.0.0.1:0"]
    proc = subprocess.Popen(
        [sys.executable, "-S", "-u", "-X", "importtime", "-m", "flagless.cli", *map(str, argv)],
        cwd=Path(cli.__file__).parents[1], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        line = proc.stdout.readline().decode("ascii", "replace")
        assert line.startswith("serving on http://"), line
        port = int(line.rsplit(":", 1)[1])
        statuses = []
        requests = [("POST", "/changesets", canonical_bytes(solve.to_json_dict()))]
        routes = ("/healthz", "/scoreboard", "/challenges", "/ledger")
        requests += [("GET", route, None) for route in routes]
        for method, route, body in requests:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            try:
                conn.request(method, route, body)
                resp = conn.getresponse()
                resp.read()
                statuses.append(resp.status)
            finally:
                conn.close()
        proc.terminate()
        assert proc.wait(timeout=10) == 0
        stderr = proc.stderr.read().decode("ascii")
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    assert statuses == [201, 200, 200, 200, 200]
    lines = stderr.splitlines()
    assert all(line.startswith("import time:") for line in lines), stderr
    loaded = {line.rsplit("|", 1)[1].strip() for line in lines[1:]}
    assert {"flagless.service", "flagless.validator", "_socket"} <= loaded
    assert [name for name in left_out if name in loaded] == []


# `serve` command lines: the plain forms, which `cli` reads itself, and near
# misses, which it leaves to argparse; `P` stands for a ledger path that does
# not exist, so a line that parses exits 1 when `serve` cannot open it.
# The middle column says whether `cli` reads the line itself, the last is the
# exit code of `cli.run`.
_SERVE_LINES = [
    (["serve", "--ledger", "P"], True, 1),
    (["serve", "--ledger", "P", "--listen", "0.0.0.0:9"], True, 1),
    (["serve", "--listen", "0.0.0.0:9", "--ledger", "P"], True, 1),
    (["--json", "serve", "--ledger", "P"], True, 1),
    (["--json", "serve", "--listen", "[::1]:0", "--ledger", "P"], False, 2),
    (["serve", "--ledger", ""], True, 1),
    (["serve", "--ledger", "P", "--listen", "9"], True, 1),
    (["serve", "--ledger", "P", "--listen", "127.0.0.1:70000"], False, 2),
    (["serve", "--ledger", "P", "--listen", "127.0.0.1:-1"], False, 2),
    (["serve", "--ledger", "P", "--listen", "127.0.0.1:abc"], False, 2),
    (["serve", "--ledger", "P", "--listen", ":"], False, 2),
    (["serve", "--ledger", "P", "--listen", "::1:8080"], False, 2),
    (["serve", "--ledger=P"], False, 1),
    (["serve", "--led", "P"], False, 1),
    (["serve", "--ledger", "P", "--ledger", "P"], False, 1),
    (["serve", "--listen", "0.0.0.0:9"], False, 2),
    (["serve"], False, 2),
    (["serve", "--ledger", "-x"], False, 2),
    (["serve", "--ledger", "P", "extra"], False, 2),
    (["serve", "--ledger", "P", "--listen"], False, 2),
    (["serve", "--help"], False, 0),
    (["serve", "--json", "--ledger", "P"], False, 2),
    (["--json", "--json", "serve", "--ledger", "P"], False, 1),
    (["--help"], False, 0),
    ([], False, 2),
]
_SERVE_IDS = [" ".join(argv) or "nothing" for argv, _, _ in _SERVE_LINES]


def _serve_line(argv, tmp_path) -> list[str]:
    return [str(tmp_path / "missing.ndjson") if a == "P" else a for a in argv]


@pytest.mark.parametrize("argv, plain, _", _SERVE_LINES, ids=_SERVE_IDS)
def test_serve_reads_a_plain_line_as_argparse_does_and_declines_the_rest(argv, plain, _, tmp_path):
    argv = _serve_line(argv, tmp_path)
    args = cli._serve_args(argv)
    assert (args is not None) == plain
    if plain:
        assert vars(args) == vars(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("argv, _, code", _SERVE_LINES, ids=_SERVE_IDS)
def test_every_serve_line_answers_as_argparse_alone_does(
    argv, _, code, tmp_path, capsys, monkeypatch
):
    argv = _serve_line(argv, tmp_path)
    answer = (cli.run(argv), *capsys.readouterr())
    monkeypatch.setattr(cli, "_serve_args", lambda argv: None)  # argparse reads every line
    assert (cli.run(argv), *capsys.readouterr()) == answer
    assert answer[0] == code
