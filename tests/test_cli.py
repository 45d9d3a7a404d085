"""The CLI end to end on a local ledger: organizer, player and auditor."""

import json

import pytest

from flagless import cli

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
    before = open(ledger_path, "rb").read()
    code, _ = _run(
        capsys, "submit", "--challenge", "warmup", "--secret", tmp_path / "alpha.key",
        "--flag", "flag{wrong}", "--ledger", ledger_path,
    )
    assert code == 1
    assert open(ledger_path, "rb").read() == before


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


@pytest.mark.parametrize("where", [0.1, 0.5, 0.9])
def test_audit_fails_after_one_flipped_byte(competition, capsys, where):
    ledger_path, _ = competition
    raw = bytearray(open(ledger_path, "rb").read())
    raw[int(where * len(raw))] ^= 1
    with open(ledger_path, "wb") as fh:
        fh.write(raw)
    code, _ = _run(capsys, "--json", "audit", "--ledger", ledger_path)
    assert code != 0
