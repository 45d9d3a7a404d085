"""Seeded competition and request pools for the benchmark.

Everything the program under test sees (ledger files and HTTP bodies) is
built here from the seed, through flagless's public API only:
`new_challenge`, `register_team`, `build_submission`,
`challenge_changeset` and `ledger.append`.  Entries go straight through
`ledger.append`, so generation never runs the validator.  The same seed
gives the same bytes.

The competition has 12 challenges (test KDF profile, 100-500 points) and
120 teams.  Solves follow one seeded order over all team x challenge
pairs: the *early* ledger holds the first 200 of them, the *late* ledger
the first 600, so early is a prefix of late.  Proofs are built lazily, only
for the pairs a workload uses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from random import Random

from flagless import ledger, sigproof
from flagless.canonical import canonical_bytes
from flagless.competition import (
    ChallengeDescriptor,
    SubmissionRecord,
    TeamSecret,
    build_submission,
    challenge_changeset,
    new_challenge,
    register_team,
    submission_path,
)
from flagless.ledger import Changeset, FileChange, LedgerEntry

N_CHALLENGES = 12
N_TEAMS = 120
EARLY_SOLVES = 200
LATE_SOLVES = 600
# Entry timestamps start here, well before any wall clock the server will
# stamp its own appends with, so the chain never goes backwards.
T0 = 1_700_000_000

# One block of the submit-rush mix, repeated: 80% valid first solves, 10%
# valid proofs filed under another team, 5% resubmissions, 5% new teams.
# A fixed block (not a random draw per request) keeps every call count of
# a fixed-length run identical across seeds.
RUSH_BLOCK = (
    ("valid",) * 8 + ("invalid",) + ("valid",) * 7 + ("invalid", "duplicate", "valid", "register")
)
# One of each kind: the short probe that touches every write path.
PROBE_BLOCK = ("valid", "invalid", "duplicate", "register")


@dataclass(frozen=True)
class Request:
    """One POST /changesets with the outcome the oracle expects."""

    kind: str  # valid | invalid | duplicate | register
    body: bytes
    status: int  # 201 or 422
    code: str | None  # ReasonCode name on 422
    team_id: str
    challenge_id: str | None  # set for submissions


@dataclass
class Competition:
    seed: int
    challenges: list[ChallengeDescriptor]
    flags: dict[str, str]
    secrets: list[TeamSecret]
    order: list[tuple[int, int]]  # (team index, challenge index) solve order
    chain: list[LedgerEntry] = field(default_factory=list)
    solves: list[tuple[str, str, int]] = field(default_factory=list)
    _changesets: dict[tuple[int, int], Changeset] = field(default_factory=dict)

    @property
    def team_ids(self) -> list[str]:
        return [s.team_id for s in self.secrets]

    @property
    def points(self) -> dict[str, int]:
        return {d.id: d.points for d in self.challenges}

    def submission(self, pair: tuple[int, int]) -> Changeset:
        """Valid proof of `pair` as a changeset, built once per pair."""
        if pair not in self._changesets:
            t, c = pair
            descriptor = self.challenges[c]
            _, changeset = build_submission(
                self.secrets[t], descriptor, self.flags[descriptor.id]
            )
            self._changesets[pair] = changeset
        return self._changesets[pair]

    def ledger_bytes(self, n_solves: int) -> bytes:
        """Canonical NDJSON of genesis, challenges, teams and the first
        `n_solves` solves."""
        self.extend(n_solves)
        prefix = 1 + N_CHALLENGES + N_TEAMS + n_solves
        return ledger.dump_chain(self.chain[:prefix])

    def extend(self, n_solves: int) -> None:
        while len(self.solves) < n_solves:
            pair = self.order[len(self.solves)]
            entry = ledger.append(
                self.chain, self.submission(pair), T0 + len(self.chain)
            )
            t, c = pair
            self.solves.append(
                (self.secrets[t].team_id, self.challenges[c].id, entry.index)
            )


def build(seed: int) -> Competition:
    """Genesis, challenge releases and team registrations; no solves yet."""
    rng = Random(seed)
    org = sigproof.keypair_from_seed(rng.randbytes(sigproof.SEED_LEN))
    meta = canonical_bytes({"name": f"bench-{seed}"})
    chain = [ledger.genesis(org.public, meta, T0)]
    challenges, flags = [], {}
    for i in range(N_CHALLENGES):
        cid = f"chal-{i:02d}"
        flags[cid] = f"flag{{{rng.randbytes(12).hex()}}}"
        descriptor = new_challenge(
            cid,
            flags[cid],
            title=f"Challenge {i}",
            points=rng.randrange(100, 501, 50),
            kdf=sigproof.KdfParams.test(),
            rng=rng,
        )
        challenges.append(descriptor)
        ledger.append(
            chain, challenge_changeset(descriptor), T0 + len(chain), org_secret=org.secret
        )
    secrets = []
    for i in range(N_TEAMS):
        _, secret, changeset = register_team(f"Team {i:03d}", rng=rng)
        secrets.append(secret)
        ledger.append(chain, changeset, T0 + len(chain))
    order = [(t, c) for t in range(N_TEAMS) for c in range(N_CHALLENGES)]
    rng.shuffle(order)
    return Competition(seed, challenges, flags, secrets, order, chain)


def _body(changeset: Changeset) -> bytes:
    return canonical_bytes(changeset.to_json_dict())


def _misfiled(comp: Competition, pair: tuple[int, int]) -> Changeset:
    """Another team's valid proof for the same challenge, filed under
    `pair`'s path.  The donor is a solve the starting ledger already holds,
    so no extra proof is built."""
    t, c = pair
    donor = next(
        (p for p in comp.order[:EARLY_SOLVES] if p[1] == c and p[0] != t),
        ((t + 1) % N_TEAMS, c),
    )
    cid = comp.challenges[c].id
    victim = comp.secrets[t].team_id
    proof = SubmissionRecord.from_json_dict(
        json.loads(comp.submission(donor).changes[0].content)
    ).proof
    record = SubmissionRecord(team_id=victim, challenge_id=cid, proof=proof)
    return Changeset(
        changes=(FileChange(path=submission_path(victim, cid), content=record.serialize()),),
        author=victim,
    )


def pool(
    comp: Competition, start: int, count: int, tag: str, block: tuple[str, ...]
) -> list[Request]:
    """`count` POSTs cycling through `block`, solving pairs from `order[start:]`.

    Misfiled proofs target pairs taken from the far end of the order, which
    no pool ever solves, so they always meet INVALID_PROOF.  Resubmissions
    repeat a solve the starting ledger already holds.  New teams are named
    `<tag> NNN`, so two pools with different tags never collide.
    """
    rng = Random(f"{comp.seed}/{tag}")
    requests: list[Request] = []
    next_pair = start
    spare = len(comp.order) - 1
    registered = 0
    for i in range(count):
        kind = block[i % len(block)]
        if kind == "register":
            record, _, changeset = register_team(f"{tag} {registered:03d}", rng=rng)
            registered += 1
            requests.append(Request(kind, _body(changeset), 201, None, record.id, None))
            continue
        if kind == "valid":
            pair, next_pair = comp.order[next_pair], next_pair + 1
            changeset, status, code = comp.submission(pair), 201, None
        elif kind == "invalid":
            pair, spare = comp.order[spare], spare - 1
            changeset, status, code = _misfiled(comp, pair), 422, "INVALID_PROOF"
        else:
            pair = comp.order[rng.randrange(EARLY_SOLVES)]
            changeset, status, code = comp.submission(pair), 422, "DUPLICATE_SUBMISSION"
        t, c = pair
        requests.append(Request(kind, _body(changeset), status, code,
                                comp.secrets[t].team_id, comp.challenges[c].id))
    if next_pair > spare:
        raise ValueError("pool overlaps the pairs reserved for misfiled proofs")
    return requests
