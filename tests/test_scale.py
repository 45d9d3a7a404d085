"""Registration and the scoreboard at 2,000 teams, in counts rather than
timings: a registration decodes no team record but its own, and a solve
renders only the scoreboard rows whose rank it changes."""

from __future__ import annotations

import json
from random import Random

import pytest

from flagless import ledger, scoreboard
from flagless.canonical import canonical_bytes
from flagless.competition import (
    CompetitionState,
    ReasonCode,
    TeamRecord,
    build_submission,
    challenge_changeset,
    new_challenge,
    register_team,
    team_path,
)
from flagless.ledger import Changeset, FileChange, LedgerEntry, genesis
from flagless.sigproof import KdfParams, keypair_from_seed
from flagless.validator import CompetitionHost, ValidationVerdict

from helpers import read_body, scoreboard_json

TEAMS = 2000
LEADERS = 10  # the first teams, which solved the 100-point challenge in order


@pytest.fixture(scope="module")
def crowd():
    """A chain with two challenges, of 100 points and 1 point, and TEAMS
    teams, of which the first LEADERS solved the 100-point one: ranks 1 to
    LEADERS, by their solves' ledger order."""
    rng = Random(36)
    org_seed = rng.randbytes(32)
    meta = canonical_bytes({"created_at": 0, "name": "crowd"})
    chain = [genesis(keypair_from_seed(org_seed).public, meta, 0)]
    flags, descriptors = {}, {}
    for cid, points in (("hundred", 100), ("one", 1)):
        flags[cid] = f"CTF{{{cid}}}"
        descriptors[cid] = new_challenge(cid, flags[cid], cid, points, KdfParams.test(), rng=rng)
        ledger.append(chain, challenge_changeset(descriptors[cid]), len(chain), org_secret=org_seed)
    secrets = []
    for i in range(TEAMS):
        _, secret, changeset = register_team(f"Team {i:04d}", rng=rng)
        ledger.append(chain, changeset, len(chain))
        secrets.append(secret)
    for secret in secrets[:LEADERS]:
        _, changeset = build_submission(secret, descriptors["hundred"], flags["hundred"])
        ledger.append(chain, changeset, len(chain))
    return chain, secrets, descriptors, flags


def test_a_registration_decodes_only_its_own_record(crowd, monkeypatch):
    chain, secrets, _, _ = crowd
    decoded = []
    decode = TeamRecord.from_json_dict
    monkeypatch.setattr(TeamRecord, "from_json_dict", lambda obj: decoded.append(1) or decode(obj))
    with CompetitionHost(chain) as host:
        assert decoded == []
        rng = Random(1)
        for i in range(3):
            assert isinstance(host.apply(register_team(f"Late {i}", rng=rng)[2]), LedgerEntry)
            assert len(decoded) == i + 1
        # a taken key decodes its owner too, and only it
        owner = secrets[TEAMS // 2]
        content = TeamRecord("copy", "Copy", owner.keypair().public).serialize()
        changeset = Changeset((FileChange(team_path("copy"), content),), "copy")
        verdict = host.apply(changeset)
    assert verdict == ValidationVerdict.reject(
        ReasonCode.DUPLICATE_TEAM, f"public key already registered to {owner.team_id!r}"
    )
    assert len(decoded) == 3 + 2


def test_a_solve_renders_only_the_rows_it_moves_past(crowd, monkeypatch):
    chain, secrets, descriptors, flags = crowd
    with CompetitionHost(chain) as host:
        mover = secrets[LEADERS // 2].team_id
        board = json.loads(read_body(host, "/scoreboard"))
        old_rank = next(row["rank"] for row in board if row["team_id"] == mover)
        assert old_rank == LEADERS // 2 + 1
        rendered = []
        render = scoreboard.encode_basestring  # called once for each row rendered
        monkeypatch.setattr(
            scoreboard, "encode_basestring", lambda s: rendered.append(s) or render(s)
        )
        _, changeset = build_submission(secrets[LEADERS // 2], descriptors["one"], flags["one"])
        assert isinstance(host.apply(changeset), LedgerEntry)
        body = read_body(host, "/scoreboard")
        monkeypatch.undo()
        chain = host.snapshot()[0]
    new_rank = 1  # 101 points
    assert json.loads(body)[new_rank - 1]["team_id"] == mover
    assert len(rendered) <= old_rank - new_rank + 1
    assert body == scoreboard_json(CompetitionState.from_chain(chain).scoreboard())
