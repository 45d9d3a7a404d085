"""The CLI end to end: organizer, player and auditor, on a local ledger
and through a running service."""

import contextlib
import http.server
import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from flagless import cli, ledger
from flagless.validator import CompetitionHost

from helpers import BackgroundService, append_ghost_solve

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
    thread = threading.Thread(target=server.serve_forever, daemon=True)
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


def test_importing_the_cli_loads_no_http_client_or_mail_parser():
    # `serve` and the local commands start without them; --service-url
    # loads urllib on first use (test_service_url_gives_the_same_results_as_ledger)
    heavy = ("http.server", "http.client", "email.parser", "urllib.request", "ssl")
    code = f"import flagless.cli, sys; print([m for m in {heavy!r} if m in sys.modules])"
    package_root = Path(cli.__file__).parents[1]  # `-c` puts the cwd first on sys.path
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=package_root, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
