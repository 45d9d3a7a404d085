"""Public keys of small order are refused everywhere a key is decoded.

Under a key A with [8]A = O, a signature built without any secret can
verify: for the identity key, "identity, then 32 zero bytes" verifies for
every message.  A challenge released with such a key could be solved
without its flag, a team registered with one could be impersonated, and a
genesis key of that kind would let anyone sign organizer entries.
"""

import http.client
import json
import random

import pytest

from flagless import _ed25519_core as core
from flagless import _ed25519_pykernel as pykernel
from flagless import cli, ed25519, ledger
from flagless.canonical import canonical_bytes, to_hex
from flagless.competition import (
    SubmissionRecord,
    audit_all,
    challenge_path,
    new_challenge,
    register_team,
    submission_path,
    team_path,
)
from flagless.ledger import Changeset, FileChange
from flagless.sigproof import KdfParams, Proof, verify_proof
from flagless.validator import CompetitionHost, ReasonCode

from helpers import BackgroundService, read_body, simulate
from test_ed25519 import _random_points, _ref_encode, _ref_point, _torsion_points

IDENTITY = (1).to_bytes(32, "little")
# verifies under the identity key for every message: s*B - h*O = O = R
UNIVERSAL_SIG = IDENTITY + bytes(32)


def _encode(point) -> bytes:
    return _ref_encode(_ref_point(*point))


TORSION = [_encode(p) for p in _torsion_points()]
IDS = [f"T{j}" for j in range(8)]


def _times_8_is_identity(point) -> bool:
    x, y = point
    return pykernel.scalarmult_sub(0, 8, x, y) == IDENTITY  # -8A


def test_the_eight_small_order_encodings_decode_but_are_refused():
    assert len(set(TORSION)) == 8 and IDENTITY in TORSION
    for encoding in TORSION:
        point = core.decompress(encoding)
        assert point is not None and _times_8_is_identity(point)
        assert core.decoded_key(encoding) is None


def test_refused_exactly_when_eight_times_the_point_is_the_identity():
    rng = random.Random(0x8A)
    # random curve points are mostly of mixed order; multiples of B have prime order
    prime = [core.decompress(pykernel.scalarmult_base(rng.randrange(1, core.L))) for _ in range(4)]
    for point in _torsion_points() + _random_points(rng, 12) + prime:
        assert (core.decoded_key(_encode(point)) is None) == _times_8_is_identity(point)


@pytest.mark.parametrize("encoding", TORSION, ids=IDS)
def test_no_torsion_signature_verifies(backend, encoding):
    for r in TORSION:
        for message in (b"", b"chal-0", bytes(64)):
            assert not ed25519.verify(encoding, r + bytes(32), message)


# ------------------------------------------------------------------ records


@pytest.fixture
def sim(rng):
    return simulate(rng, n_challenges=1, n_teams=1, solve_prob=0.0)


def _release(public_key: bytes, rng) -> Changeset:
    """Release of challenge "evil" with `public_key` in its descriptor."""
    doc = new_challenge(
        "evil", "flag{x}", title="Evil", points=500, kdf=KdfParams.test(), rng=rng
    ).to_json_dict()
    doc["public_key"] = to_hex(public_key)
    return Changeset((FileChange(challenge_path("evil"), canonical_bytes(doc)),), "organizer")


def _flagless_solve(sim) -> Changeset:
    """A solve of "evil" that holds the team's own inner signature and an
    outer signature made without any challenge secret."""
    team_id = next(iter(sim.teams))
    team = sim.secrets[team_id].keypair()
    inner = ed25519.sign(team.secret, b"evil", team.public)
    proof = Proof(outer_sig=UNIVERSAL_SIG, inner_sig=inner, challenge_id=b"evil")
    record = SubmissionRecord(team_id=team_id, challenge_id="evil", proof=proof)
    return Changeset((FileChange(submission_path(team_id, "evil"), record.serialize()),), team_id)


@pytest.mark.parametrize("encoding", TORSION, ids=IDS)
def test_release_is_refused_and_writes_nothing(sim, rng, tmp_path, encoding):
    path = tmp_path / "ledger.ndjson"
    ledger.write_ledger(str(path), sim.chain())
    before = path.read_bytes()
    with CompetitionHost.open(str(path)) as host:
        with pytest.raises(ledger.ChainError, match="BAD_DESCRIPTOR"):
            host.apply_organizer(_release(encoding, rng), sim.org_seed)
        assert read_body(host) == before
    assert path.read_bytes() == before


@pytest.mark.parametrize("encoding", TORSION, ids=IDS)
def test_forged_release_and_flagless_solve_are_flagged(sim, rng, encoding):
    forged = sim.chain()
    release = ledger.append(forged, _release(encoding, rng), org_secret=sim.org_seed)
    solve = ledger.append(forged, _flagless_solve(sim))
    findings = [(f.index, f.code) for f in audit_all(forged).findings]
    assert findings == [
        (release.index, "BAD_DESCRIPTOR"),
        (solve.index, ReasonCode.UNKNOWN_CHALLENGE.name),
        (solve.index, "SCOREBOARD"),  # the solve names a challenge the state lacks
    ]
    with pytest.raises(ledger.ChainError, match="BAD_DESCRIPTOR"):
        CompetitionHost(forged)
    team = sim.teams[next(iter(sim.teams))]
    proof = SubmissionRecord.from_json_dict(json.loads(solve.changeset.changes[0].content)).proof
    assert not verify_proof(team.public_key, encoding, b"evil", proof)


def test_flagless_audit_flags_the_identity_key_solve(sim, rng, tmp_path, capsys):
    forged = sim.chain()
    ledger.append(forged, _release(IDENTITY, rng), org_secret=sim.org_seed)
    ledger.append(forged, _flagless_solve(sim))
    path = tmp_path / "forged.ndjson"
    ledger.write_ledger(str(path), forged)
    assert cli.run(["--json", "audit", "--ledger", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    codes = [f["code"] for f in report["findings"]]
    assert codes == ["BAD_DESCRIPTOR", "UNKNOWN_CHALLENGE", "SCOREBOARD"]
    (team_id,) = sim.teams  # the honest standings: the forged solve is not counted
    assert report["ok"] is False and report["scoreboard"] == [
        {"last_solve_index": None, "points": 0, "rank": 1, "solves": 0, "team_id": team_id}
    ]


@pytest.mark.parametrize("encoding", TORSION, ids=IDS)
def test_registration_is_refused_over_http(sim, rng, encoding):
    record, _, _ = register_team("Small Order", rng=rng)
    doc = record.to_json_dict()
    doc["public_key"] = to_hex(encoding)
    changeset = Changeset((FileChange(team_path(record.id), canonical_bytes(doc)),), record.id)
    before = read_body(sim.host)
    with BackgroundService(sim.host) as svc:
        conn = http.client.HTTPConnection(*svc.server.server_address[:2], timeout=3)
        try:
            conn.request("POST", "/changesets", canonical_bytes(changeset.to_json_dict()))
            resp = conn.getresponse()
            status, body = resp.status, json.loads(resp.read())
        finally:
            conn.close()
    assert status == 422 and body["code"] == ReasonCode.MALFORMED_RECORD.name
    assert read_body(sim.host) == before


@pytest.mark.parametrize("encoding", TORSION, ids=IDS)
def test_genesis_key_of_small_order(encoding):
    chain = [ledger.genesis(encoding, b"{}", 0)]
    assert ledger.organizer_key(chain) is None
    assert [(f.index, f.code) for f in audit_all(chain).findings] == [(0, "GENESIS_KEY")]
    with pytest.raises(ledger.ChainError, match="GENESIS_KEY"):
        CompetitionHost(chain)
