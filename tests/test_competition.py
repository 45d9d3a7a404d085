"""Domain behavior: records, scoreboard ranking, and the open audit."""

import hashlib
import json
import random

import pytest

from flagless import _ed25519_core, competition, ed25519, ledger, sigproof
from flagless.canonical import canonical_bytes, to_hex
from flagless.competition import (
    ChallengeDescriptor,
    CompetitionState,
    FlagMismatch,
    ScoreboardRow,
    TeamRecord,
    ValidationVerdict,
    audit_all,
    build_submission,
    challenge_changeset,
    challenge_path,
    challenges_in,
    compute_scoreboard,
    new_challenge,
    register_team,
    slugify,
    submission_path,
    team_path,
    teams_in,
)
from flagless.ledger import Changeset, FileChange
from flagless.scoreboard import scoreboard_bytes
from flagless.sigproof import KdfParams, derive_challenge_keys, keypair_from_seed, normalize_flag

from helpers import (
    append_ghost_solve,
    brute_force_scoreboard,
    rebuild_consistent,
    replace_entry,
    scoreboard_json,
    simulate,
)


class TestSlugify:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("Robot Mafia", "robot-mafia"),
            ("Team Épico", "team-epico"),
            ("team-epico", "team-epico"),
            ("  A  B  ", "a-b"),
            ("ONE__two", "one-two"),
            ("日本語", ""),
        ],
    )
    def test_cases(self, name, expected):
        assert slugify(name) == expected

    def test_accent_collision_is_real(self):
        # two visually different names landing on one identifier is exactly
        # what the duplicate-team rule must catch at validation time
        assert slugify("Team Épico") == slugify("team-epico")

    def test_idempotent(self):
        for name in ("Robot Mafia", "x", "Épico", "a-b-c"):
            assert slugify(slugify(name)) == slugify(name)


class TestNewChallenge:
    def test_flag_checks_against_descriptor(self, rng):
        descriptor = new_challenge(
            "web-1", "CTF{wat}", title="Web", points=100, kdf=KdfParams.test(), rng=rng
        )
        for flag, matches in (("CTF{wat}", True), ("CTF{wot}", False)):
            keys = derive_challenge_keys(flag, descriptor.salt, descriptor.kdf)
            assert (keys.public == descriptor.public_key) == matches

    def test_descriptor_carries_no_secrets(self, rng):
        flag = "CTF{the_big_secret}"
        descriptor = new_challenge(
            "web-1", flag, title="Web", points=100, kdf=KdfParams.test(), rng=rng
        )
        raw = descriptor.serialize()
        assert normalize_flag(flag) not in raw
        from flagless.sigproof import derive_challenge_keys

        secret = derive_challenge_keys(flag, descriptor.salt, descriptor.kdf).secret
        assert secret not in raw
        assert to_hex(secret).encode() not in raw

    def test_same_flag_different_salts(self, rng):
        a = new_challenge("c-a", "CTF{x}", title="A", points=1, kdf=KdfParams.test(), rng=rng)
        b = new_challenge("c-b", "CTF{x}", title="B", points=1, kdf=KdfParams.test(), rng=rng)
        assert a.salt != b.salt
        assert a.public_key != b.public_key

    @pytest.mark.parametrize("bad_id", ["", "Has Caps", "under_score", "x" * 65])
    def test_bad_slug_rejected(self, bad_id, rng):
        with pytest.raises(ValueError):
            new_challenge(bad_id, "CTF{x}", title="t", points=1, kdf=KdfParams.test(), rng=rng)

    def test_bad_points_rejected(self, rng):
        with pytest.raises(ValueError):
            new_challenge("c", "CTF{x}", title="t", points=0, kdf=KdfParams.test(), rng=rng)

    def test_a_whitespace_only_flag_is_refused_before_scrypt(self, rng, monkeypatch):
        descriptor = new_challenge("c", "CTF{x}", title="t", points=1, kdf=KdfParams.test(), rng=rng)
        _, secret, _ = register_team("Team", rng=rng)

        def no_scrypt(*args):
            raise AssertionError("scrypt ran for an empty flag")

        monkeypatch.setattr(sigproof, "scrypt_kdf", no_scrypt)
        with pytest.raises(ValueError, match="flag is empty after normalization"):
            new_challenge("c", " \t\n", title="t", points=1, kdf=KdfParams.test(), rng=rng)
        with pytest.raises(FlagMismatch):
            build_submission(secret, descriptor, " \t\n")

    def test_descriptor_round_trip(self, rng):
        descriptor = new_challenge(
            "web-1",
            "CTF{x}",
            title="Web",
            points=250,
            kdf=KdfParams.test(),
            description="desc",
            categories=("web", "crypto"),
            rng=rng,
        )
        assert ChallengeDescriptor.from_json_dict(descriptor.to_json_dict()) == descriptor


class TestRegisterTeam:
    def test_record_matches_secret(self, rng):
        record, secret, changeset = register_team("Robot Mafia", rng=rng)
        assert record.public_key == secret.keypair().public
        assert record.id == "robot-mafia"

    def test_changeset_touches_one_team_path(self, rng):
        _, _, changeset = register_team("Robot Mafia", rng=rng)
        assert [c.path for c in changeset.changes] == ["teams/robot-mafia/team.json"]

    def test_unslugifiable_name(self, rng):
        with pytest.raises(ValueError):
            register_team("!!!", rng=rng)

    def test_key_decoded_once_per_process(self, rng, monkeypatch):
        record, secret, _ = register_team("Robot Mafia", rng=rng)
        signature = ed25519.sign(secret.seed, b"once")
        calls = []
        real = _ed25519_core.decompress

        def counting(encoded):
            calls.append(encoded)
            return real(encoded)

        # under every name it could be looked up by: a module that imported
        # `decompress` itself would bypass the one on `_ed25519_core`
        monkeypatch.setattr(_ed25519_core, "decompress", counting)
        monkeypatch.setattr(competition, "decompress", counting, raising=False)
        _ed25519_core.decoded_key.cache_clear()
        decoded = TeamRecord.from_json_dict(json.loads(record.serialize()))
        assert ed25519.verify(decoded.public_key, signature, b"once")
        assert calls == [record.public_key]


class TestBuildSubmission:
    def test_wrong_flag_fails_fast(self, rng):
        descriptor = new_challenge(
            "c-1", "CTF{right}", title="t", points=1, kdf=KdfParams.test(), rng=rng
        )
        _, secret, _ = register_team("Team", rng=rng)
        with pytest.raises(FlagMismatch):
            build_submission(secret, descriptor, "CTF{wrong}")

    def test_correct_flag_yields_verifying_record(self, rng):
        from flagless.sigproof import verify_proof

        descriptor = new_challenge(
            "c-1", "CTF{right}", title="t", points=1, kdf=KdfParams.test(), rng=rng
        )
        record_team, secret, _ = register_team("Team", rng=rng)
        record, changeset = build_submission(secret, descriptor, "CTF{right}")
        assert verify_proof(
            record_team.public_key, descriptor.public_key, b"c-1", record.proof
        )
        assert [c.path for c in changeset.changes] == [submission_path("team", "c-1")]

    @pytest.fixture
    def scrypt_calls(self, monkeypatch):
        calls = []
        scrypt = sigproof.scrypt_kdf
        monkeypatch.setattr(sigproof, "scrypt_kdf", lambda *args: calls.append(args) or scrypt(*args))
        return calls

    def test_one_scrypt_call_builds_the_same_bytes(self, scrypt_calls):
        rng = random.Random(77)
        descriptor = new_challenge(
            "c-1", "CTF{right}", title="t", points=1, kdf=KdfParams.test(), rng=rng
        )
        _, secret, _ = register_team("Team", rng=rng)
        scrypt_calls.clear()
        _, changeset = build_submission(secret, descriptor, "  CTF{right}\n")
        assert len(scrypt_calls) == 1
        # the digest of the bytes built when the flag was derived twice
        assert hashlib.sha256(canonical_bytes(changeset.to_json_dict())).hexdigest() == (
            "f607e6994db2b7d19d64ca7cac916332eeebd1417c53d8886c530e336e45772c"
        )

    @pytest.mark.parametrize("flag,calls", [("CTF{wrong}", 1), (" \t\n", 0)], ids=["wrong", "empty"])
    def test_mismatch_costs_at_most_one_scrypt_call(self, rng, scrypt_calls, flag, calls):
        descriptor = new_challenge(
            "c-1", "CTF{right}", title="t", points=1, kdf=KdfParams.test(), rng=rng
        )
        _, secret, _ = register_team("Team", rng=rng)
        scrypt_calls.clear()
        with pytest.raises(FlagMismatch):
            build_submission(secret, descriptor, flag)
        assert len(scrypt_calls) == calls

    def test_embedded_proof_length(self, rng):
        import base64
        import json

        descriptor = new_challenge(
            "chal-xyz", "CTF{f}", title="t", points=1, kdf=KdfParams.test(), rng=rng
        )
        _, secret, _ = register_team("Team", rng=rng)
        _, changeset = build_submission(secret, descriptor, "CTF{f}")
        obj = json.loads(changeset.changes[0].content)
        assert len(base64.b64decode(obj["proof"])) == 128 + len("chal-xyz")


class TestScoreboard:
    def test_empty_competition(self, rng):
        sim = simulate(rng, n_challenges=0, n_teams=0)
        chain = sim.chain()
        assert compute_scoreboard(ledger.replay(chain), chain) == []

    def test_single_solve(self, rng):
        sim = simulate(rng, n_challenges=1, n_teams=1, solve_prob=1.0)
        chain = sim.chain()
        rows = compute_scoreboard(ledger.replay(chain), chain)
        assert len(rows) == 1
        row = rows[0]
        assert row.rank == 1 and row.solves == 1
        assert row.points == next(iter(sim.descriptors.values())).points

    def test_matrix_matches_brute_force(self, rng):
        sim = simulate(rng, n_challenges=7, n_teams=5, solve_prob=0.5)
        chain = sim.chain()
        rows = compute_scoreboard(ledger.replay(chain), chain)
        expected = brute_force_scoreboard(sim)
        assert [
            (r.rank, r.team_id, r.points, r.solves, r.last_solve_index) for r in rows
        ] == expected

    def test_ranks_are_gapless(self, rng):
        sim = simulate(rng, n_challenges=4, n_teams=6, solve_prob=0.4)
        chain = sim.chain()
        rows = compute_scoreboard(ledger.replay(chain), chain)
        assert [r.rank for r in rows] == list(range(1, len(sim.teams) + 1))

    def test_tie_break_prefers_earlier_last_solve(self, rng):
        sim = simulate(rng, n_challenges=1, n_teams=2, solve_prob=1.0)
        chain = sim.chain()
        rows = compute_scoreboard(ledger.replay(chain), chain)
        assert rows[0].points == rows[1].points
        assert rows[0].last_solve_index < rows[1].last_solve_index

    def test_determinism_across_replicas(self, rng):
        sim = simulate(rng, n_challenges=3, n_teams=4)
        chain = sim.chain()
        replica = ledger.load_chain(ledger.dump_chain(chain))
        local = scoreboard_bytes(compute_scoreboard(ledger.replay(chain), chain))
        remote = scoreboard_bytes(compute_scoreboard(ledger.replay(replica), replica))
        assert local == remote

    def test_score_conservation(self, rng):
        sim = simulate(rng, n_challenges=5, n_teams=6)
        chain = sim.chain()
        rows = compute_scoreboard(ledger.replay(chain), chain)
        total = sum(r.points for r in rows)
        assert total == sum(sim.descriptors[c].points for (_, c) in sim.solves)

    def test_unknown_challenge_solve_counts_for_nothing(self, rng):
        sim = simulate(rng, n_challenges=1, n_teams=1, solve_prob=0.0)
        chain = sim.chain()
        team_id = next(iter(sim.teams))
        append_ghost_solve(chain, team_id)
        rows = compute_scoreboard(ledger.replay(chain), chain)
        assert rows == [ScoreboardRow(rank=1, team_id=team_id, points=0, solves=0,
                                      last_solve_index=None)]
        assert CompetitionState.from_chain(chain).unresolved() == (
            f"submission for unknown challenge 'ghost' at entry {len(chain) - 1}"
        )


class TestScoreboardRow:
    ROW = {"last_solve_index": 7, "points": 300, "rank": 1, "solves": 2, "team_id": "a"}

    @pytest.mark.parametrize("last", [7, None])
    def test_round_trip(self, last):
        row = ScoreboardRow(rank=1, team_id="a", points=300, solves=2, last_solve_index=last)
        assert ScoreboardRow.from_json_dict(row.to_json_dict()) == row

    @pytest.mark.parametrize(
        "broken",
        [
            {**ROW, "bonus": 1},
            {k: v for k, v in ROW.items() if k != "rank"},
            {**ROW, "points": True},
            {**ROW, "last_solve_index": False},
            {**ROW, "solves": "2"},
            {**ROW, "team_id": 1},
            [ROW],
        ],
        ids=["extra-key", "missing-key", "bool-points", "bool-index", "str-solves",
             "int-team", "not-a-dict"],
    )
    def test_malformed_rejected(self, broken):
        with pytest.raises(ValueError):
            ScoreboardRow.from_json_dict(broken)

    def test_bytes_are_the_canonical_json_of_the_rows(self):
        # a remote's rows may carry any team id, so the direct format
        # escapes it as canonical JSON does
        names = ["a", 'q"uote', "back\\slash", "tab\tnl\n\x00", "caf\u00e9 \u2028", ""]
        rows = [
            ScoreboardRow(rank=i, team_id=name, points=10**12 * i, solves=i, last_solve_index=last)
            for i, name in enumerate(names)
            for last in (None, 0, 2**40)
        ]
        for n in range(len(rows) + 1):
            assert scoreboard_bytes(rows[:n]) == scoreboard_json(rows[:n])


class TestStateParsers:
    def test_teams_and_challenges_found(self, rng):
        sim = simulate(rng, n_challenges=2, n_teams=3, solve_prob=0)
        files = ledger.replay(sim.chain())
        assert set(teams_in(files)) == set(sim.teams)
        assert set(challenges_in(files)) == set(sim.descriptors)


class TestAudit:
    def test_honest_chain_is_clean(self, rng):
        sim = simulate(rng)
        report = audit_all(sim.chain())
        assert report.ok and report.findings == []
        assert report.entries == len(sim.chain())

    def test_report_scoreboard_matches_compute(self, rng):
        sim = simulate(rng)
        chain = sim.chain()
        report = audit_all(chain)
        assert scoreboard_bytes(report.scoreboard) == scoreboard_bytes(
            compute_scoreboard(ledger.replay(chain), chain)
        )

    def test_corrupted_proof_with_consistent_rehash(self, rng):
        # attacker rewrites one submission byte and recomputes all hashes
        sim = simulate(rng, solve_prob=0.6)
        chain = sim.chain()
        target = next(i for (_, _), i in sim.solves.items())
        entry = chain[target]
        content = bytearray(entry.changeset.changes[0].content)
        quote = content.index(b'"proof"')
        content[quote + 12] ^= 0x01  # inside the base64 payload
        forged_changeset = Changeset(
            changes=(
                FileChange(path=entry.changeset.changes[0].path, content=bytes(content)),
            ),
            author=entry.changeset.author,
        )
        forged = rebuild_consistent(chain, target, changeset=forged_changeset)
        assert verify_chain_ok_for_team_only(forged)
        report = audit_all(forged)
        assert not report.ok
        assert any(
            f.index == target and f.code in ("INVALID_PROOF", "MALFORMED_RECORD")
            for f in report.findings
        )

    def test_duplicated_submission_injected(self, rng):
        sim = simulate(rng, solve_prob=0.6)
        chain = sim.chain()
        (team_id, challenge_id), index = next(iter(sim.solves.items()))
        duplicate = chain[index].changeset
        ledger.append(chain, duplicate, timestamp=chain[-1].timestamp + 1)
        report = audit_all(chain)
        assert any(f.code == "DUPLICATE_SUBMISSION" for f in report.findings)

    def test_edited_points_detected(self, rng):
        # attacker without the organizer key rewrites a descriptor's points;
        # the last release is targeted so no later privileged entry breaks
        # first, isolating the audit-layer detection
        sim = simulate(rng, solve_prob=0.6)
        chain = sim.chain()
        cid = max(
            sim.descriptors,
            key=lambda c: next(
                e.index
                for e in chain
                if any(ch.path == challenge_path(c) for ch in e.changeset.changes)
            ),
        )
        descriptor = sim.descriptors[cid]
        inflated = ChallengeDescriptor(
            id=descriptor.id,
            title=descriptor.title,
            description=descriptor.description,
            categories=descriptor.categories,
            points=descriptor.points * 100,
            salt=descriptor.salt,
            public_key=descriptor.public_key,
            kdf=descriptor.kdf,
        )
        target = next(
            e.index
            for e in chain
            if any(c.path == challenge_path(cid) for c in e.changeset.changes)
        )
        # keeping the stale signature breaks verify_chain
        forged = rebuild_consistent(chain, target, challenge_changeset(inflated))
        assert not ledger.verify_chain(forged)
        # stripping it leaves an unsigned privileged write for the auditor
        forged = rebuild_consistent(
            chain, target, challenge_changeset(inflated), strip_sig=True
        )
        assert ledger.verify_chain(forged)
        report = audit_all(forged)
        assert any(f.index == target and f.code == "BAD_PATH" for f in report.findings)

    def test_unsigned_team_record_edit_detected(self, rng):
        sim = simulate(rng, n_teams=2, solve_prob=0)
        chain = sim.chain()
        team_id = next(iter(sim.teams))
        target = next(
            e.index
            for e in chain
            if any(c.path == team_path(team_id) for c in e.changeset.changes)
        )
        imposter = Changeset(
            changes=(FileChange(path=team_path(team_id), content=b'{"evil":1}'),),
            author="mallory",
        )
        forged = rebuild_consistent(chain, target, imposter)
        report = audit_all(forged)
        assert any(f.index == target for f in report.findings)

    def test_padded_team_record_is_one_malformed_finding(self, rng):
        sim = simulate(rng, n_challenges=1, n_teams=1, solve_prob=0)
        chain = sim.chain()
        record = register_team("Padded Crew", rng=rng)[0]
        content = record.serialize() + b" " * 4096
        padded = Changeset(changes=(FileChange(team_path(record.id), content),), author=record.id)
        entry = ledger.append(chain, padded, timestamp=chain[-1].timestamp + 1)
        assert [(f.index, f.code, f.message) for f in audit_all(chain).findings] == [
            (entry.index, "MALFORMED_RECORD", "record is not in canonical form")
        ]

    def test_flag_secrecy_at_rest(self, rng):
        sim = simulate(rng)
        raw = ledger.dump_chain(sim.chain())
        for flag in sim.flags.values():
            assert normalize_flag(flag) not in raw
        board = scoreboard_bytes(audit_all(sim.chain()).scoreboard)
        for flag in sim.flags.values():
            assert normalize_flag(flag) not in board

    def test_broken_chain_reported_not_raised(self, rng):
        sim = simulate(rng, n_challenges=1, n_teams=1)
        chain = sim.chain()
        del chain[1]
        report = audit_all(chain)
        assert not report.ok
        assert report.findings[0].code == "CHAIN"

    def test_nothing_follows_the_first_chain_finding(self, rng):
        sim = simulate(rng, n_challenges=2, n_teams=3, solve_prob=0)
        chain = sim.chain()
        chain[2] = replace_entry(chain[2], timestamp=chain[2].timestamp + 1)
        lines = ledger.dump_chain(chain).splitlines(keepends=True)
        lines[4] = b'{"garbage":1}\n'
        report = audit_all(ledger.entries(lines))
        assert _findings(report) == [(2, "CHAIN", "hash mismatch")]
        assert report.entries == 4 and report.scoreboard == []

    def test_genesis_may_write_only_meta(self, rng):
        org = keypair_from_seed(rng.randbytes(32))
        changeset = Changeset(
            changes=(
                FileChange(ledger.ORGANIZER_KEY_PATH, to_hex(org.public).encode()),
                FileChange(team_path("early"), b"{}"),
            ),
            author="organizer",
        )
        chain = [ledger.next_entry(None, changeset, 0)]
        assert _findings(audit_all(chain)) == [
            (0, "GENESIS_SCOPE", "unexpected path 'teams/early/team.json'")
        ]

    @pytest.mark.parametrize(
        "path,message",
        [
            ("challenges/Bad_Id.json", "bad path 'challenges/Bad_Id.json'"),
            (challenge_path("other"), "descriptor id does not match its path"),
        ],
        ids=["path-refused", "id-not-the-path's"],
    )
    def test_a_release_is_a_descriptor_at_its_own_path(self, rng, path, message):
        sim = simulate(rng, n_challenges=1, n_teams=0)
        chain = sim.chain()
        (descriptor,) = sim.descriptors.values()
        changeset = Changeset((FileChange(path, descriptor.serialize()),), "organizer")
        entry = ledger.append(chain, changeset, chain[-1].timestamp, org_secret=sim.org_seed)
        assert _findings(audit_all(chain)) == [(entry.index, "BAD_DESCRIPTOR", message)]

    def test_an_organizer_entry_needs_a_key_in_genesis(self, rng):
        meta = FileChange(ledger.COMPETITION_META_PATH, b"{}")
        chain = [ledger.next_entry(None, Changeset((meta,), "organizer"), 0)]
        notice = Changeset((FileChange("meta/notice", b"hi"),), "organizer")
        ledger.append(chain, notice, 1, org_secret=rng.randbytes(32))
        report = audit_all(chain)
        assert _findings(report) == [
            (0, "GENESIS_KEY", "missing or invalid organizer key"),
            (1, "CHAIN", "organizer key unavailable in genesis"),
        ]
        assert report.entries == 2

    def test_empty_chain_has_no_genesis(self):
        report = audit_all([])
        assert not report.ok and report.entries == 0 and report.scoreboard == []
        assert [(f.index, f.code, f.message) for f in report.findings] == [
            (0, "CHAIN", ledger.NO_GENESIS)
        ]


def _findings(report) -> list[tuple[int, str, str]]:
    return [(f.index, f.code, f.message) for f in report.findings]


def verify_chain_ok_for_team_only(chain) -> bool:
    """Forged team-entry rewrites keep hashes consistent, so the plain
    chain check must pass; only the audit layer catches them."""
    return bool(ledger.verify_chain(chain))
