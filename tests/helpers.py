"""Shared builders for simulated competitions and tampered chains."""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from random import Random

from flagless import ledger
from flagless.canonical import canonical_bytes, sha256
from flagless.competition import (
    ChallengeDescriptor,
    ScoreboardRow,
    TeamRecord,
    TeamSecret,
    build_submission,
    challenge_changeset,
    new_challenge,
    register_team,
    submission_path,
)
from flagless.ledger import ZERO_HASH, Changeset, FileChange, LedgerEntry, genesis
from flagless.service import make_server
from flagless.sigproof import KdfParams, keypair_from_seed
from flagless.validator import CompetitionHost, FileRegion, ValidationVerdict


def entry_hash(
    index: int, timestamp: int, prev_hash: bytes, changeset: Changeset, org_sig: bytes | None
) -> bytes:
    """SHA-256 of an entry's canonical JSON without its hash field,
    serialized from the fields: the reference the ledger's hashes are held
    to."""
    fields = {
        "changeset": changeset.to_json_dict(),
        "index": index,
        "org_sig": None if org_sig is None else org_sig.hex(),
        "prev_hash": prev_hash.hex(),
        "timestamp": timestamp,
    }
    return sha256(canonical_bytes(fields))


def scoreboard_json(rows: list[ScoreboardRow]) -> bytes:
    """`canonical_bytes` of the rows' `to_json_dict`s: the reference
    `scoreboard_bytes`, which formats them directly, is held to."""
    return canonical_bytes([row.to_json_dict() for row in rows])


def read_body(host: CompetitionHost, route: str = "/ledger") -> bytes:
    """The bytes of `host.read(route)`: a `FileRegion`'s read and closed."""
    body = host.read(route)
    if isinstance(body, FileRegion):
        with body:
            return body.read()
    return body


class BackgroundService:
    """`make_server` for `host`, serving on its own thread inside a `with`
    block."""

    def __init__(self, host: CompetitionHost, address: tuple[str, int] = ("127.0.0.1", 0)):
        self.server = make_server(host, address)
        self._thread = threading.Thread(target=self.server.serve_forever, daemon=True)

    @property
    def url(self) -> str:
        addr, port = self.server.server_address[:2]
        return f"http://{addr}:{port}"

    def __enter__(self) -> "BackgroundService":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(timeout=5)


@dataclass
class Sim:
    host: CompetitionHost
    org_seed: bytes
    flags: dict[str, str] = field(default_factory=dict)
    descriptors: dict[str, ChallengeDescriptor] = field(default_factory=dict)
    teams: dict[str, TeamRecord] = field(default_factory=dict)
    secrets: dict[str, TeamSecret] = field(default_factory=dict)
    solves: dict[tuple[str, str], int] = field(default_factory=dict)

    def chain(self):
        return self.host.snapshot()[0]


def simulate(
    rng: Random,
    n_challenges: int = 7,
    n_teams: int = 10,
    solve_prob: float = 0.5,
    kdf: KdfParams | None = None,
) -> Sim:
    """Run a whole competition in memory: release challenges, register
    teams, submit proofs for a random solve matrix."""
    kdf = kdf or KdfParams.test()
    org_seed = rng.randbytes(32)
    org = keypair_from_seed(org_seed)
    host = CompetitionHost(
        [genesis(org.public, canonical_bytes({"created_at": 0, "name": "sim"}), 0)]
    )
    sim = Sim(host=host, org_seed=org_seed)
    ts = 1
    for i in range(n_challenges):
        cid = f"chal-{i}"
        flag = f"CTF-BR{{sim_{i}_{rng.getrandbits(64):016x}}}"
        descriptor = new_challenge(
            cid,
            flag,
            title=f"Challenge {i}",
            points=(i % 5 + 1) * 100,
            kdf=kdf,
            categories=("misc",),
            rng=rng,
        )
        host.apply_organizer(challenge_changeset(descriptor), org_seed, timestamp=ts)
        ts += 1
        sim.flags[cid] = flag
        sim.descriptors[cid] = descriptor
    for j in range(n_teams):
        record, secret, changeset = register_team(f"Team {j}", rng=rng)
        result = host.apply(changeset, timestamp=ts)
        ts += 1
        assert not isinstance(result, ValidationVerdict), result
        sim.teams[record.id] = record
        sim.secrets[record.id] = secret
    pairs = [
        (tid, cid)
        for tid in sim.teams
        for cid in sim.descriptors
        if rng.random() < solve_prob
    ]
    rng.shuffle(pairs)
    for tid, cid in pairs:
        _, changeset = build_submission(
            sim.secrets[tid], sim.descriptors[cid], sim.flags[cid]
        )
        result = host.apply(changeset, timestamp=ts)
        ts += 1
        assert not isinstance(result, ValidationVerdict), result
        sim.solves[(tid, cid)] = result.index
    return sim


def padded_chain(rng: Random, org_seed: bytes, size: int, entries: int = 32) -> list[LedgerEntry]:
    """A chain of at least `size` bytes, quick to build: genesis, then
    `entries` organizer entries that each rewrite `meta/padding` with
    random bytes, so a folded state keeps only the last of them."""
    org = keypair_from_seed(org_seed)
    chain = [genesis(org.public, canonical_bytes({"created_at": 0, "name": "padded"}), 0)]
    for i in range(entries):
        # base64 makes each line a third longer than its content
        padding = FileChange(path="meta/padding", content=rng.randbytes(size * 3 // 4 // entries))
        ledger.append(chain, Changeset((padding,), "organizer"), i + 1, org_secret=org_seed)
    return chain


def brute_force_scoreboard(sim: Sim) -> list[tuple[int, str, int, int, int | None]]:
    """Independent scorer: plain matrix summation plus a stable sort."""
    rows = []
    for tid in sim.teams:
        solved = [(cid, i) for (t, cid), i in sim.solves.items() if t == tid]
        points = sum(sim.descriptors[cid].points for cid, _ in solved)
        last = max((i for _, i in solved), default=None)
        rows.append((tid, points, len(solved), last))
    rows.sort(key=lambda r: (-r[1], r[3] if r[3] is not None else math.inf, r[0]))
    return [
        (rank, tid, points, count, last)
        for rank, (tid, points, count, last) in enumerate(rows, start=1)
    ]


def append_ghost_solve(chain: list[LedgerEntry], team_id: str) -> None:
    """Forge a solve by `team_id` of challenge "ghost", which the chain
    never released, onto the end of `chain`; the hashes still link."""
    changeset = Changeset(
        changes=(FileChange(path=submission_path(team_id, "ghost"), content=b"{}"),),
        author=team_id,
    )
    ledger.append(chain, changeset, timestamp=chain[-1].timestamp + 1)


def rebuild_consistent(
    chain: list[LedgerEntry],
    index: int,
    changeset=None,
    strip_sig: bool = False,
) -> list[LedgerEntry]:
    """Forge a chain the way an attacker without the organizer key would:
    replace entry `index` and recompute every downstream hash so the chain
    still links.  Organizer signatures cannot be recreated, only kept
    (now stale) or stripped."""
    forged = list(chain[:index])
    for entry in chain[index:]:
        cs = entry.changeset
        sig = entry.org_sig
        if entry.index == index:
            if changeset is not None:
                cs = changeset
            if strip_sig:
                sig = None
        prev = forged[-1].hash if forged else ZERO_HASH
        forged.append(
            LedgerEntry(
                index=entry.index,
                timestamp=entry.timestamp,
                prev_hash=prev,
                changeset=cs,
                org_sig=sig,
                hash=entry_hash(entry.index, entry.timestamp, prev, cs, sig),
            )
        )
    return forged
