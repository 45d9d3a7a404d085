"""Acceptance rules, verdict codes, single-writer semantics."""

import base64
import json
import threading

import pytest

from flagless import ledger
from flagless.canonical import canonical_bytes, to_b64, to_hex
from flagless.competition import (
    CompetitionState,
    ReasonCode,
    ValidationVerdict,
    audit_all,
    build_submission,
    challenge_path,
    register_team,
    submission_path,
    team_path,
    validate_changeset,
)
from flagless.ledger import Changeset, FileChange
from flagless.sigproof import keypair_from_seed
from flagless.validator import CompetitionHost

from helpers import load_host, simulate


def _single(path: str, content: bytes, author: str = "x") -> Changeset:
    return Changeset(changes=(FileChange(path=path, content=content),), author=author)


@pytest.fixture
def sim(rng):
    return simulate(rng, n_challenges=2, n_teams=2, solve_prob=1.0)


@pytest.fixture
def state(sim):
    return CompetitionState.from_chain(sim.chain())


class TestRegistrationRules:
    def test_fresh_registration_accepted(self, state, rng):
        _, _, changeset = register_team("Newcomers", rng=rng)
        assert validate_changeset(state, changeset)

    def test_duplicate_id_rejected(self, state, sim, rng):
        team_id = next(iter(sim.teams))
        record, _, _ = register_team("Other", rng=rng)
        clone = _single(
            team_path(team_id),
            canonical_bytes(
                {"id": team_id, "name": sim.teams[team_id].name, "public_key": to_hex(record.public_key)}
            ),
        )
        verdict = validate_changeset(state, clone)
        assert verdict.code is ReasonCode.DUPLICATE_TEAM

    def test_duplicate_public_key_rejected(self, state, sim):
        existing = next(iter(sim.teams.values()))
        clone = _single(
            team_path("impostors"),
            canonical_bytes(
                {"id": "impostors", "name": "Impostors", "public_key": to_hex(existing.public_key)}
            ),
        )
        verdict = validate_changeset(state, clone)
        assert verdict.code is ReasonCode.DUPLICATE_TEAM

    def test_id_must_match_path(self, state, rng):
        record, _, _ = register_team("Newcomers", rng=rng)
        moved = _single(
            team_path("other-slug"),
            canonical_bytes(
                {"id": "newcomers", "name": "Newcomers", "public_key": to_hex(record.public_key)}
            ),
        )
        assert validate_changeset(state, moved).code is ReasonCode.MALFORMED_RECORD

    def test_id_must_be_slug_of_name(self, state, rng):
        record, _, _ = register_team("Newcomers", rng=rng)
        squatted = _single(
            team_path("newcomers"),
            canonical_bytes(
                {"id": "newcomers", "name": "Completely Different", "public_key": to_hex(record.public_key)}
            ),
        )
        assert validate_changeset(state, squatted).code is ReasonCode.MALFORMED_RECORD

    def test_garbage_record_rejected(self, state):
        verdict = validate_changeset(state, _single(team_path("x"), b"not json"))
        assert verdict.code is ReasonCode.MALFORMED_RECORD

    def test_invalid_public_key_rejected(self, state):
        bad = _single(
            team_path("x"),
            canonical_bytes({"id": "x", "name": "x", "public_key": "ff" * 32}),
        )
        assert validate_changeset(state, bad).code is ReasonCode.MALFORMED_RECORD


class TestSubmissionRules:
    def test_duplicate_submission_rejected(self, sim, state):
        (team_id, challenge_id), _ = next(iter(sim.solves.items()))
        _, changeset = build_submission(
            sim.secrets[team_id], sim.descriptors[challenge_id], sim.flags[challenge_id]
        )
        verdict = validate_changeset(state, changeset)
        assert verdict.code is ReasonCode.DUPLICATE_SUBMISSION

    def test_unknown_team(self, sim, rng):
        fresh = simulate(rng, n_challenges=1, n_teams=0)
        cid = next(iter(fresh.descriptors))
        changeset = _single(submission_path("ghosts", cid), b"{}")
        verdict = validate_changeset(CompetitionState.from_chain(fresh.chain()), changeset)
        assert verdict.code is ReasonCode.UNKNOWN_TEAM

    def test_unknown_challenge(self, sim, state):
        team_id = next(iter(sim.teams))
        changeset = _single(submission_path(team_id, "ghost-chal"), b"{}")
        assert validate_changeset(state, changeset).code is ReasonCode.UNKNOWN_CHALLENGE

    def test_cross_team_placement_is_invalid_proof(self, rng):
        sim = simulate(rng, n_challenges=1, n_teams=2, solve_prob=0.0)
        cid = next(iter(sim.descriptors))
        team_a, team_b = sorted(sim.teams)
        record, _ = build_submission(sim.secrets[team_a], sim.descriptors[cid], sim.flags[cid])
        # team A's perfectly valid proof, submitted under team B's name
        forged = {
            "challenge_id": cid,
            "proof": to_b64(record.proof.serialize()),
            "team_id": team_b,
        }
        changeset = _single(submission_path(team_b, cid), canonical_bytes(forged), author=team_b)
        verdict = validate_changeset(CompetitionState.from_chain(sim.chain()), changeset)
        assert verdict.code is ReasonCode.INVALID_PROOF

    def test_record_ids_must_match_path(self, sim, rng):
        fresh = simulate(rng, n_challenges=2, n_teams=1, solve_prob=0.0)
        state = CompetitionState.from_chain(fresh.chain())
        (team_id,) = fresh.teams
        c1, c2 = sorted(fresh.descriptors)
        record, _ = build_submission(fresh.secrets[team_id], fresh.descriptors[c1], fresh.flags[c1])
        moved = _single(
            submission_path(team_id, c2),
            canonical_bytes(record.to_json_dict()),
        )
        assert validate_changeset(state, moved).code is ReasonCode.MALFORMED_RECORD

    def test_garbage_record_rejected(self, rng):
        fresh = simulate(rng, n_challenges=1, n_teams=1, solve_prob=0.0)
        (team_id,) = fresh.teams
        (cid,) = fresh.descriptors
        garbage = _single(submission_path(team_id, cid), b"not json", author=team_id)
        verdict = validate_changeset(CompetitionState.from_chain(fresh.chain()), garbage)
        assert (verdict.code, verdict.message) == (
            ReasonCode.MALFORMED_RECORD,
            "Expecting value: line 1 column 1 (char 0)",
        )

    def test_fuzzed_proofs_always_rejected(self, rng):
        fresh = simulate(rng, n_challenges=1, n_teams=1, solve_prob=0.0)
        fresh_state = CompetitionState.from_chain(fresh.chain())
        (team_id,) = fresh.teams
        (cid,) = fresh.descriptors
        for _ in range(50):
            blob = rng.randbytes(128 + len(cid))
            body = {
                "challenge_id": cid,
                "proof": base64.b64encode(blob).decode(),
                "team_id": team_id,
            }
            changeset = _single(submission_path(team_id, cid), canonical_bytes(body))
            verdict = validate_changeset(fresh_state, changeset)
            assert verdict.code is ReasonCode.INVALID_PROOF


def _authored_by(changeset: Changeset, author: str) -> Changeset:
    return Changeset(changes=changeset.changes, author=author)


class TestAuthorRule:
    """A team changeset's author is the team its path names."""

    def test_a_registration_by_another_author_is_malformed(self, state, rng):
        _, _, changeset = register_team("Newcomers", rng=rng)
        for author in ("organizer", "x" * (512 << 10)):
            verdict = validate_changeset(state, _authored_by(changeset, author))
            assert verdict.code is ReasonCode.MALFORMED_RECORD

    def test_a_solve_by_another_author_is_malformed(self, rng):
        sim = simulate(rng, n_challenges=1, n_teams=2, solve_prob=0.0)
        team_a, team_b = sorted(sim.teams)
        (cid,) = sim.descriptors
        _, changeset = build_submission(sim.secrets[team_a], sim.descriptors[cid], sim.flags[cid])
        state = CompetitionState.from_chain(sim.chain())
        assert validate_changeset(state, changeset)
        verdict = validate_changeset(state, _authored_by(changeset, team_b))
        assert verdict.code is ReasonCode.MALFORMED_RECORD

    def test_other_rules_come_first(self, state, sim):
        team_id = next(iter(sim.teams))
        changeset = _single(team_path(team_id), b"{}", author="organizer")
        assert validate_changeset(state, changeset).code is ReasonCode.DUPLICATE_TEAM

    def test_the_audit_flags_a_forged_entry_once(self, sim, rng):
        chain = sim.chain()
        _, _, changeset = register_team("Newcomers", rng=rng)
        forged = ledger.append(chain, _authored_by(changeset, "organizer"))
        findings = [(f.index, f.code) for f in audit_all(chain).findings]
        assert findings == [(forged.index, ReasonCode.MALFORMED_RECORD.name)]


class TestPathRules:
    def test_rewrite_of_committed_challenge(self, state, sim):
        cid = next(iter(sim.descriptors))
        changeset = _single(challenge_path(cid), b"{}")
        assert validate_changeset(state, changeset).code is ReasonCode.IMMUTABLE_PATH

    def test_rewrite_of_meta(self, state):
        changeset = _single("meta/organizer.pub", b"00" * 32)
        assert validate_changeset(state, changeset).code is ReasonCode.IMMUTABLE_PATH

    @pytest.mark.parametrize(
        "path",
        [
            "challenges/new-chal.json",
            "loot/free-points.json",
            "teams/x/extra.json",
            "teams/UPPER/team.json",
            "submissions/one-segment.json",
            "submissions/a/b/c.json",
        ],
    )
    def test_bad_paths(self, state, path):
        assert validate_changeset(state, _single(path, b"{}")).code is ReasonCode.BAD_PATH

    def test_a_loaded_host_refuses_a_rewrite_of_every_path_written(self, sim):
        # the state keeps the paths written, not their bytes; a team entry
        # that writes a free-form path loads, as team entries are not
        # validated again at load
        chain = sim.chain()
        ledger.append(chain, _single("loot/free-points.json", b"{}"), chain[-1].timestamp + 1)
        team_id, cid = next(iter(sim.solves))
        expected = {
            "meta/competition.json": ReasonCode.IMMUTABLE_PATH,
            team_path(team_id): ReasonCode.DUPLICATE_TEAM,
            challenge_path(cid): ReasonCode.IMMUTABLE_PATH,
            submission_path(team_id, cid): ReasonCode.DUPLICATE_SUBMISSION,
            "loot/free-points.json": ReasonCode.IMMUTABLE_PATH,
        }
        with load_host(ledger.dump_chain(chain)) as host:
            for path, code in expected.items():
                verdict = host.apply(_single(path, b"{}", author=team_id))
                assert isinstance(verdict, ValidationVerdict) and verdict.code is code, path
            assert host.snapshot()[0] == chain

    def test_mixed_concerns(self, state, rng):
        _, _, reg_a = register_team("Alpha Crew", rng=rng)
        _, _, reg_b = register_team("Beta Crew", rng=rng)
        mixed = Changeset(changes=reg_a.changes + reg_b.changes, author="x")
        assert validate_changeset(state, mixed).code is ReasonCode.MIXED_CONCERNS


class TestVerdictInvariants:
    def test_determinism(self, state, rng):
        _, _, changeset = register_team("Gamma Crew", rng=rng)
        assert validate_changeset(state, changeset) == validate_changeset(state, changeset)

    def test_reject_never_mutates_chain(self, sim):
        chain = sim.chain()
        length = len(chain)
        hashes = [e.hash for e in chain]
        result = sim.host.apply(_single("loot/x", b""), chain[-1].timestamp + 1)
        assert isinstance(result, ValidationVerdict) and not result
        chain = sim.chain()
        assert len(chain) == length and [e.hash for e in chain] == hashes

    def test_accept_adds_exactly_one_entry(self, sim, rng):
        chain = sim.chain()
        length = len(chain)
        _, _, changeset = register_team("Delta Crew", rng=rng)
        result = sim.host.apply(changeset, chain[-1].timestamp + 1)
        assert not isinstance(result, ValidationVerdict)
        chain = sim.chain()
        assert len(chain) == length + 1 and chain[-1] is result

    def test_replica_reaches_identical_verdicts(self, sim, rng):
        # no privileged knowledge: an auditor's replica validates the same
        chain = sim.chain()
        replica = ledger.load_chain(ledger.dump_chain(chain))
        state = CompetitionState.from_chain(chain)
        replica_state = CompetitionState.from_chain(replica)
        probes = [
            register_team("Echo Crew", rng=rng)[2],
            _single("loot/x", b"{}"),
            _single(challenge_path(next(iter(sim.descriptors))), b"{}"),
        ]
        for changeset in probes:
            assert validate_changeset(state, changeset) == validate_changeset(
                replica_state, changeset
            )

    def test_sequential_indices_for_accepted_submissions(self, rng):
        fresh = simulate(rng, n_challenges=1, n_teams=2, solve_prob=0.0)
        (cid,) = fresh.descriptors
        base = len(fresh.chain())
        for offset, team_id in enumerate(sorted(fresh.teams)):
            _, changeset = build_submission(
                fresh.secrets[team_id], fresh.descriptors[cid], fresh.flags[cid]
            )
            entry = fresh.host.apply(changeset)
            assert entry.index == base + offset


class TestConcurrency:
    def test_concurrent_duplicates_single_accept(self, rng):
        fresh = simulate(rng, n_challenges=1, n_teams=1, solve_prob=0.0)
        (cid,) = fresh.descriptors
        (team_id,) = fresh.teams
        _, changeset = build_submission(
            fresh.secrets[team_id], fresh.descriptors[cid], fresh.flags[cid]
        )
        results = []
        barrier = threading.Barrier(8)

        def racer():
            barrier.wait()
            results.append(fresh.host.apply(changeset))

        threads = [threading.Thread(target=racer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        accepts = [r for r in results if not isinstance(r, ValidationVerdict)]
        rejects = [r for r in results if isinstance(r, ValidationVerdict)]
        assert len(accepts) == 1
        assert all(r.code is ReasonCode.DUPLICATE_SUBMISSION for r in rejects)
        _, files = fresh.host.snapshot()
        solved = [p for p in files if p.startswith("submissions/")]
        assert solved == [submission_path(team_id, cid)]
        assert ledger.verify_chain(fresh.host.snapshot()[0])

    def test_host_rejects_broken_chain_on_load(self, rng):
        sim = simulate(rng, n_challenges=1, n_teams=1)
        chain = sim.chain()
        del chain[1]
        with pytest.raises(ledger.ChainError):
            CompetitionHost(chain)


class TestHostRules:
    """What the host refuses without the validator: `audit_entry`'s rules."""

    def test_host_rejects_a_ledger_with_no_genesis(self):
        with pytest.raises(ledger.ChainError, match="genesis"):
            load_host(b"")
        with pytest.raises(ledger.ChainError, match="genesis"):
            CompetitionHost([])

    def test_organizer_key_is_the_one_genesis_published(self, sim, rng):
        seed = rng.randbytes(32)
        new_key = to_hex(keypair_from_seed(seed).public).encode()
        sim.host.apply_organizer(_single(ledger.ORGANIZER_KEY_PATH, new_key), sim.org_seed)
        chain = sim.chain()
        with pytest.raises(ledger.ChainError, match="organizer signature invalid"):
            sim.host.apply_organizer(_single("meta/notice", b"hi"), seed)
        assert sim.chain() == chain
        assert sim.host.apply_organizer(_single("meta/notice", b"hi"), sim.org_seed).index == len(chain)

    def test_timestamp_may_not_regress(self, sim, rng):
        chain = sim.chain()
        changeset = register_team("Late Clock", rng=rng)[2]
        with pytest.raises(ledger.ChainError, match="timestamp regressed"):
            sim.host.apply(changeset, chain[-1].timestamp - 1)
        assert sim.chain() == chain
        assert sim.host.apply(changeset, chain[-1].timestamp).index == len(chain)
