"""The folded competition state against the rescanning algorithm it replaced.

The oracle below re-parses every team and challenge record of a plain
path -> content dict on each call and rescans the whole chain for solves,
as the validator and scoreboard once did.  Over simulated and forged
chains, the fold must give the same verdict for every entry and every
probe, and the same scoreboard and first unresolved solve after every entry.
One host, alive across the whole chain, must serve the oracle's scoreboard
after every entry: its body is the state's kept ranking, spliced per solve.
"""

from __future__ import annotations

import re

import pytest

from flagless import ledger, sigproof, validator
from flagless.canonical import canonical_bytes, parse_json, to_hex
from flagless.competition import (
    AuditFinding,
    ChallengeDescriptor,
    CompetitionState,
    ReasonCode,
    ScoreboardRow,
    SubmissionRecord,
    TeamRecord,
    ValidationVerdict,
    _CHALLENGE_PATH_RE,
    _SUBMISSION_PATH_RE,
    _TEAM_PATH_RE,
    audit_all,
    build_submission,
    challenge_path,
    new_challenge,
    register_team,
    slugify,
    submission_path,
    team_path,
    validate_changeset,
)
from flagless.ledger import ORGANIZER_KEY_PATH, Changeset, FileChange
from flagless.sigproof import keypair_from_seed
from flagless.validator import CompetitionHost

from helpers import load_host, read_body, scoreboard_json, simulate

# ------------------------------------------------------------------ oracle


def oracle_teams(files: dict[str, bytes]) -> dict[str, TeamRecord]:
    teams = {}
    for path in sorted(p for p in files if p.startswith("teams/")):
        match = _TEAM_PATH_RE.match(path)
        if not match:
            continue
        try:
            record = TeamRecord.from_json_dict(parse_json(files[path]))
        except ValueError:
            continue
        teams[match.group(1)] = record
    return teams


def oracle_challenges(files: dict[str, bytes]) -> dict[str, ChallengeDescriptor]:
    challenges = {}
    for path in sorted(p for p in files if p.startswith("challenges/")):
        match = _CHALLENGE_PATH_RE.match(path)
        if not match:
            continue
        try:
            descriptor = ChallengeDescriptor.from_json_dict(parse_json(files[path]))
        except ValueError:
            continue
        challenges[match.group(1)] = descriptor
    return challenges


def oracle_solves(chain) -> dict[tuple[str, str], int]:
    """(team, challenge) -> index of the first entry that solves it."""
    solves: dict[tuple[str, str], int] = {}
    for entry in chain:
        for change in entry.changeset.changes:
            match = _SUBMISSION_PATH_RE.match(change.path)
            if match:
                solves.setdefault((match.group(1), match.group(2)), entry.index)
    return solves


def oracle_unresolved(files: dict[str, bytes], chain) -> str | None:
    """Why the first solve naming an unknown team or challenge does not
    count, or None when there is none."""
    teams, challenges = oracle_teams(files), oracle_challenges(files)
    for (team_id, challenge_id), index in oracle_solves(chain).items():
        if team_id not in teams:
            return f"submission for unknown team {team_id!r} at entry {index}"
        if challenge_id not in challenges:
            return f"submission for unknown challenge {challenge_id!r} at entry {index}"
    return None


def oracle_scoreboard(files: dict[str, bytes], chain) -> list[ScoreboardRow]:
    """The scoreboard over the solves that name a known team and challenge."""
    teams, challenges = oracle_teams(files), oracle_challenges(files)
    points = {t: 0 for t in teams}
    count = {t: 0 for t in teams}
    last: dict[str, int | None] = {t: None for t in teams}
    for (team_id, challenge_id), index in oracle_solves(chain).items():
        if team_id not in teams or challenge_id not in challenges:
            continue
        points[team_id] += challenges[challenge_id].points
        count[team_id] += 1
        last[team_id] = index if last[team_id] is None else max(last[team_id], index)
    ordered = sorted(
        teams,
        key=lambda t: (-points[t], last[t] if last[t] is not None else float("inf"), t),
    )
    return [
        ScoreboardRow(rank, t, points[t], count[t], last[t])
        for rank, t in enumerate(ordered, start=1)
    ]


def _reject(code, message=""):
    return ValidationVerdict(code, message)


def _last_rules(
    changeset: Changeset, team_id: str, record, content: bytes
) -> ValidationVerdict | None:
    """No refusal for a changeset whose record's content is its canonical
    form and whose author is the team its path names."""
    if record.serialize() != content:
        return _reject(ReasonCode.MALFORMED_RECORD, "record is not in canonical form")
    if changeset.author != team_id:
        return _reject(ReasonCode.MALFORMED_RECORD, "author is not the team")
    return None


def oracle_validate(files: dict[str, bytes], changeset: Changeset) -> ValidationVerdict | None:
    actions = []
    for change in changeset.changes:
        team_match = _TEAM_PATH_RE.match(change.path)
        sub_match = _SUBMISSION_PATH_RE.match(change.path)
        if change.path in files:
            if sub_match:
                return _reject(
                    ReasonCode.DUPLICATE_SUBMISSION,
                    f"{sub_match.group(1)!r} already solved {sub_match.group(2)!r}",
                )
            if team_match:
                return _reject(
                    ReasonCode.DUPLICATE_TEAM,
                    f"team {team_match.group(1)!r} already registered",
                )
            return _reject(ReasonCode.IMMUTABLE_PATH, f"{change.path!r} is already committed")
        if team_match:
            actions.append((change, team_match.group(1), None))
        elif sub_match:
            actions.append((change, sub_match.group(1), sub_match.group(2)))
        else:
            return _reject(ReasonCode.BAD_PATH, f"{change.path!r} is not a team-writable path")
    if len(actions) != 1:
        return _reject(
            ReasonCode.MIXED_CONCERNS, f"changeset carries {len(actions)} actions, expected 1"
        )
    change, team_id, challenge_id = actions[0]
    if challenge_id is None:
        try:
            record = TeamRecord.from_json_dict(parse_json(change.content))
        except ValueError as exc:
            return _reject(ReasonCode.MALFORMED_RECORD, str(exc))
        if record.id != team_id:
            return _reject(
                ReasonCode.MALFORMED_RECORD, f"record id {record.id!r} does not match path"
            )
        if record.id != slugify(record.name):
            return _reject(
                ReasonCode.MALFORMED_RECORD,
                f"id {record.id!r} is not the slug of name {record.name!r}",
            )
        for existing in oracle_teams(files).values():
            if existing.public_key == record.public_key:
                return _reject(
                    ReasonCode.DUPLICATE_TEAM,
                    f"public key already registered to {existing.id!r}",
                )
        return _last_rules(changeset, team_id, record, change.content)
    teams = oracle_teams(files)
    if team_id not in teams:
        return _reject(ReasonCode.UNKNOWN_TEAM, f"team {team_id!r}")
    challenges = oracle_challenges(files)
    if challenge_id not in challenges:
        return _reject(ReasonCode.UNKNOWN_CHALLENGE, f"challenge {challenge_id!r}")
    try:
        record = SubmissionRecord.from_json_dict(parse_json(change.content))
    except ValueError as exc:
        return _reject(ReasonCode.MALFORMED_RECORD, str(exc))
    if record.team_id != team_id or record.challenge_id != challenge_id:
        return _reject(ReasonCode.MALFORMED_RECORD, "record ids do not match the path")
    if not sigproof.verify_proof(
        teams[team_id].public_key,
        challenges[challenge_id].public_key,
        challenge_id.encode("ascii"),
        record.proof,
    ):
        return _reject(ReasonCode.INVALID_PROOF)
    return _last_rules(changeset, team_id, record, change.content)


# ------------------------------------------------------------------ chains


def _team_file(team_id: str, name: str, public_key: bytes) -> bytes:
    return canonical_bytes({"id": team_id, "name": name, "public_key": to_hex(public_key)})


class Forge:
    """Appends entries no validator would accept, hashes kept consistent."""

    def __init__(self, sim):
        self.sim = sim
        self.chain = sim.chain()
        self.extra_secrets = {}

    def team_entry(self, path: str, content: bytes, author: str = "x") -> None:
        changeset = Changeset(changes=(FileChange(path=path, content=content),), author=author)
        ledger.append(self.chain, changeset, self.chain[-1].timestamp + 1)

    def org_entry(self, path: str, content: bytes) -> None:
        changeset = Changeset(changes=(FileChange(path=path, content=content),), author="org")
        ledger.append(
            self.chain, changeset, self.chain[-1].timestamp + 1, org_secret=self.sim.org_seed
        )

    def solve(self, secret, challenge_id: str) -> None:
        _, changeset = build_submission(
            secret, self.sim.descriptors[challenge_id], self.sim.flags[challenge_id]
        )
        ledger.append(self.chain, changeset, self.chain[-1].timestamp + 1)


def overwritten_team(forge, rng):
    team_id = sorted(forge.sim.teams)[0]
    record, secret, _ = register_team(forge.sim.teams[team_id].name, rng=rng)
    forge.team_entry(team_path(team_id), record.serialize())
    forge.solve(secret, sorted(forge.sim.descriptors)[-1])  # the new key now counts
    forge.solve(forge.sim.secrets[team_id], sorted(forge.sim.descriptors)[0])


def organizer_team(forge, rng):
    record, secret, _ = register_team("Org Made", rng=rng)
    forge.org_entry(team_path(record.id), record.serialize())
    forge.solve(secret, sorted(forge.sim.descriptors)[0])
    forge.extra_secrets[record.id] = secret


def malformed_team(forge, rng):
    team_id = sorted(forge.sim.teams)[1]
    forge.team_entry(team_path(team_id), b'{"evil":1}')


def reused_key(forge, rng):
    victim = forge.sim.teams[sorted(forge.sim.teams)[0]]
    # "copycat" sorts before "copycat-a" by id but after it by path ("-" < "/")
    for team_id in ("copycat", "copycat-a"):
        forge.team_entry(team_path(team_id), _team_file(team_id, team_id, victim.public_key))


def rekeyed_team(forge, rng):
    # a team rewritten to a new key frees the one it held: of two later
    # registrations with that key, the first is accepted, the second is not
    team_id = sorted(forge.sim.teams)[-1]
    record, _, _ = register_team(forge.sim.teams[team_id].name, rng=rng)
    forge.team_entry(team_path(team_id), record.serialize())
    for heir, name in (("heir", "Heir"), ("heir-2", "Heir 2")):
        content = _team_file(heir, name, forge.sim.teams[team_id].public_key)
        forge.team_entry(team_path(heir), content, author=heir)


def unknown_team(forge, rng):
    forge.team_entry(submission_path("ghost", sorted(forge.sim.descriptors)[0]), b"{}")


def unknown_challenge(forge, rng):
    forge.team_entry(submission_path(sorted(forge.sim.teams)[0], "ghost-chal"), b"{}")


def late_challenge(forge, rng):
    # a solve recorded before its challenge exists, then the release
    forge.team_entry(submission_path(sorted(forge.sim.teams)[0], "late"), b"{}")
    descriptor = ChallengeDescriptor.from_json_dict(
        {**forge.sim.descriptors[sorted(forge.sim.descriptors)[0]].to_json_dict(), "id": "late"}
    )
    forge.org_entry(challenge_path("late"), descriptor.serialize())


def repointed_challenge(forge, rng):
    cid = sorted(forge.sim.descriptors)[0]
    descriptor = forge.sim.descriptors[cid]
    doubled = ChallengeDescriptor.from_json_dict(
        {**descriptor.to_json_dict(), "points": descriptor.points * 2}
    )
    forge.org_entry(challenge_path(cid), doubled.serialize())
    forge.org_entry(challenge_path(sorted(forge.sim.descriptors)[-1]), b"not json")


def rekeyed_release(forge, rng):
    # a released challenge's key derived again from a flag handed to one
    # team, which then registers and solves with it
    old = forge.sim.descriptors[sorted(forge.sim.descriptors)[-1]]
    rekeyed = new_challenge(
        old.id, "flag{handed-out}", old.title, old.points, old.kdf, old.description,
        old.categories, rng=rng,
    )
    forge.org_entry(challenge_path(old.id), rekeyed.serialize())
    record, secret, registration = register_team("Insider", rng=rng)
    _, solve = build_submission(secret, rekeyed, "flag{handed-out}")
    for changeset in (registration, solve):
        forge.team_entry(changeset.changes[0].path, changeset.changes[0].content, record.id)
    forge.extra_secrets[record.id] = secret


def rekeyed_organizer(forge, rng):
    # the genesis key rewritten, then a release signed with the new key;
    # that last entry is the one whose signature `verify_chain` refuses
    seed = rng.randbytes(32)
    forge.org_entry(ORGANIZER_KEY_PATH, to_hex(keypair_from_seed(seed).public).encode())
    descriptor = ChallengeDescriptor.from_json_dict(
        {**forge.sim.descriptors[sorted(forge.sim.descriptors)[0]].to_json_dict(), "id": "backdoor"}
    )
    changeset = Changeset((FileChange(challenge_path("backdoor"), descriptor.serialize()),), "org")
    ledger.append(forge.chain, changeset, forge.chain[-1].timestamp + 1, org_secret=seed)


FORGERIES = [
    overwritten_team,
    organizer_team,
    malformed_team,
    reused_key,
    rekeyed_team,
    unknown_team,
    unknown_challenge,
    late_challenge,
    repointed_challenge,
    rekeyed_release,
]


# ------------------------------------------------------------------ checks


def _probes(sim, secrets, rng):
    """One of each verdict the final state can give."""
    probes = [register_team("Fresh Crew", rng=rng)[2]]
    for team_id, record in sorted(sim.teams.items()):
        probes.append(
            Changeset(
                changes=(
                    FileChange(
                        path=team_path("reuse"),
                        content=_team_file("reuse", "Reuse", record.public_key),
                    ),
                ),
                author="reuse",
            )
        )
    for team_id, secret in sorted(secrets.items()):
        for cid in sorted(sim.descriptors):
            probes.append(build_submission(secret, sim.descriptors[cid], sim.flags[cid])[1])
    probes.append(
        Changeset(changes=(FileChange(path=submission_path("ghost", "x"), content=b"{}"),), author="g")
    )
    return probes


def assert_fold_matches_oracle(sim, chain, secrets, rng, monkeypatch):
    oracle: dict[str, bytes] = {}
    fold = CompetitionState()
    # One host takes every entry, as a host loading a ledger file does:
    # team entries unchecked.  It stops at the first entry it refuses.
    monkeypatch.setattr(validator, "validate_changeset", lambda state, changeset: None)
    host = CompetitionHost(chain[:1])
    for entry in chain:
        if entry.index > 0 and entry.org_sig is None:
            assert validate_changeset(fold, entry.changeset) == oracle_validate(
                oracle, entry.changeset
            ), entry.index
        oracle.update((c.path, c.content) for c in entry.changeset.changes)
        fold.fold(entry)
        prefix = chain[: entry.index + 1]
        expected = oracle_scoreboard(oracle, prefix)
        unresolved = oracle_unresolved(oracle, prefix)
        # read the incrementally kept ranking after every entry ...
        assert fold.scoreboard() == expected, entry.index
        assert fold.unresolved() == unresolved, entry.index
        if host is not None and entry.index > 0:
            try:
                if entry.org_sig is None:
                    appended = host.apply(entry.changeset, entry.timestamp)
                else:
                    appended = host.apply_organizer(entry.changeset, sim.org_seed, entry.timestamp)
            except ledger.ChainError:  # the host refuses this entry and all after it
                host = None
            else:
                assert appended == entry
        if host is not None:
            assert read_body(host, "/scoreboard") == scoreboard_json(expected), entry.index
    # ... and count it once from a fresh fold, whose key index is built
    # only by its first probe, after every rewrite
    fresh = CompetitionState.from_chain(chain)
    for probe in _probes(sim, secrets, rng):
        verdict = oracle_validate(oracle, probe)
        assert validate_changeset(fresh, probe) == verdict
        assert validate_changeset(fold, probe) == verdict
    assert fresh.scoreboard() == expected
    report = audit_all(chain)
    assert report.scoreboard == expected
    if unresolved is not None:
        assert report.findings[-1] == AuditFinding(len(chain) - 1, "SCOREBOARD", unresolved)
    else:
        assert "SCOREBOARD" not in {f.code for f in report.findings}


def test_simulated_chain(rng, monkeypatch):
    sim = simulate(rng, n_challenges=3, n_teams=4, solve_prob=0.5)
    assert_fold_matches_oracle(sim, sim.chain(), sim.secrets, rng, monkeypatch)


@pytest.mark.parametrize("forgery", FORGERIES, ids=lambda f: f.__name__)
def test_forged_chain(rng, monkeypatch, forgery):
    sim = simulate(rng, n_challenges=2, n_teams=3, solve_prob=0.5)
    forge = Forge(sim)
    forgery(forge, rng)
    assert ledger.verify_chain(forge.chain)
    secrets = {**sim.secrets, **forge.extra_secrets}
    assert_fold_matches_oracle(sim, forge.chain, secrets, rng, monkeypatch)


def test_all_forgeries_on_one_chain(rng, monkeypatch):
    sim = simulate(rng, n_challenges=2, n_teams=3, solve_prob=0.5)
    forge = Forge(sim)
    for forgery in FORGERIES:
        forgery(forge, rng)
    assert ledger.verify_chain(forge.chain)
    secrets = {**sim.secrets, **forge.extra_secrets}
    assert_fold_matches_oracle(sim, forge.chain, secrets, rng, monkeypatch)


def test_a_rewritten_team_frees_its_old_key(rng):
    sim = simulate(rng, n_challenges=1, n_teams=3, solve_prob=0.0)
    forge = Forge(sim)
    rekeyed_team(forge, rng)
    rewrite, _, heir_2 = forge.chain[-3:]
    team_id = sorted(sim.teams)[-1]
    assert audit_all(forge.chain).findings == [
        AuditFinding(rewrite.index, "DUPLICATE_TEAM", f"team {team_id!r} already registered"),
        AuditFinding(heir_2.index, "DUPLICATE_TEAM", "public key already registered to 'heir'"),
    ]


# the audit codes of the rules the host applies to every entry it loads
HOST_RULES = {"CHAIN", "GENESIS_SCOPE", "GENESIS_KEY", "ORG_SCOPE", "ORG_REWRITE", "BAD_DESCRIPTOR"}


@pytest.mark.parametrize(
    "forgeries",
    # rekeyed_organizer's last entry does not verify, so it is not in FORGERIES
    [[forgery] for forgery in FORGERIES] + [FORGERIES, [rekeyed_organizer]],
    ids=[forgery.__name__ for forgery in FORGERIES] + ["all", "rekeyed_organizer"],
)
def test_host_refuses_exactly_what_the_audit_flags_by_its_rules(rng, forgeries):
    sim = simulate(rng, n_challenges=2, n_teams=3, solve_prob=0.5)
    forge = Forge(sim)
    for forgery in forgeries:
        forgery(forge, rng)
    flagged = [f for f in audit_all(forge.chain).findings if f.code in HOST_RULES]
    for load in (lambda: CompetitionHost(forge.chain),
                 lambda: load_host(ledger.dump_chain(forge.chain))):
        if flagged:
            with pytest.raises(ledger.ChainError, match=re.escape(str(flagged[0]))):
                load()
        else:
            # team entries are not validated again at load
            assert read_body(load()) == ledger.dump_chain(forge.chain)


# the codes of the findings at each entry a rewrite forgery appends, from its first
REWRITE_FINDINGS = {
    repointed_challenge: ["ORG_REWRITE", "ORG_REWRITE"],  # repriced, then not a descriptor
    rekeyed_release: ["ORG_REWRITE"],  # the insider's registration and solve keep the team rules
    rekeyed_organizer: ["ORG_REWRITE", "CHAIN"],
}


@pytest.mark.parametrize("forgery", REWRITE_FINDINGS, ids=lambda forgery: forgery.__name__)
def test_a_rewritten_release_is_one_finding_before_any_it_causes(rng, forgery):
    sim = simulate(rng, n_challenges=2, n_teams=3, solve_prob=0.5)
    forge = Forge(sim)
    start = len(forge.chain)
    forgery(forge, rng)
    # a SCOREBOARD finding, at the last entry, sums up the solves that no longer count
    findings = [f for f in audit_all(forge.chain).findings if f.code != "SCOREBOARD"]
    expected = list(enumerate(REWRITE_FINDINGS[forgery]))
    assert [(f.index - start, f.code) for f in findings] == expected
    for finding in findings:
        assert finding.code != "ORG_REWRITE" or finding.message.endswith("is already released")


def test_audit_stops_at_the_first_chain_finding_keeping_those_before(rng):
    sim = simulate(rng, n_challenges=2, n_teams=3, solve_prob=0.5)
    forge = Forge(sim)
    organizer_team(forge, rng)  # ORG_SCOPE, then a solve by that team
    malformed_team(forge, rng)  # DUPLICATE_TEAM
    flagged = audit_all(forge.chain).findings
    broken = len(forge.chain) - 2
    assert flagged[0].code == "ORG_SCOPE" and flagged[0].index < broken < flagged[-1].index
    del forge.chain[broken]  # the entry after it no longer links
    report = audit_all(forge.chain)
    assert report.findings == [f for f in flagged if f.index < broken] + [
        AuditFinding(broken, "CHAIN", f"index {broken + 1}, expected {broken}")
    ]
    assert report.scoreboard == [] and report.entries == len(forge.chain)


def test_team_records_decode_once_and_only_on_lookup(rng, monkeypatch):
    sim = simulate(rng, n_challenges=1, n_teams=5, solve_prob=0.0)
    calls = []
    decode = TeamRecord.from_json_dict
    monkeypatch.setattr(TeamRecord, "from_json_dict", lambda obj: calls.append(1) or decode(obj))
    state = CompetitionState.from_chain(sim.chain())
    assert calls == []
    team_id = sorted(sim.teams)[0]
    assert state.team(team_id) == sim.teams[team_id]
    assert state.team(team_id) == sim.teams[team_id]
    assert len(calls) == 1
    state.scoreboard()
    state.scoreboard()
    assert len(calls) == len(sim.teams)
