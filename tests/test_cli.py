"""The CLI end to end: organizer, player and auditor, on a local ledger
and through a running service."""

import json
from pathlib import Path

import pytest

from flagless import cli, ledger
from flagless.service import BackgroundService
from flagless.validator import CompetitionHost

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
        heads = {"ledger": ledger.read_ledger(ledger_path)[-1], "service": host.chain[-1]}
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
    assert ledger.read_ledger(str(served)) == host.chain
