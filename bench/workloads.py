"""The workloads, their correctness checks and their traced runs.

submit-rush  one closed-loop client POSTs /changesets on a fresh connection
             per request against `serve` on the early ledger.
spectate     one closed-loop client GETs the scoreboard, challenges and
             ledger on a keep-alive connection, with a few POSTed solves on
             fresh connections, against `serve` on the late ledger.

There is no workload timing `flagless audit` as a whole: on a shared
2-vCPU virtual machine (Python 3.11, pure kernel) one 20-27 s audit per run
spread by up to a fifth (IQR over median) across ten runs.  The audit
still runs in every traced run, on the ledger `serve` persisted, where its
layers are timed and its report is checked.

Both workloads report the same end-to-end metrics (`E2E_UNITS`).  They are
CPU time and memory of `serve`, not wall time: on that machine, time
stolen by other tenants moved wall-clock latencies by a third from run to
run, and CPU time excludes it.  The wall-clock latencies (median, and p95 where
the samples support it, per route, with the sample counts) and rates are
in the report beside them (`REPORT_UNITS`).  With `trace`, a fixed-length
traced run gives the per-layer metrics instead.
"""

from __future__ import annotations

import http.client
import json
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
import harness
import layers
from harness import KeepAlive, Server, fresh, run_cli
from oracle import expected_scoreboard, percentile, tail_supported
from spans import merge

from flagless import ledger
from flagless.canonical import canonical_bytes

E2E_UNITS = {
    # CPU time of `serve` from spawn to its first 200, median of SETUP_STARTS
    "setup_s": "s",
    # CPU time of `serve` per request it answered in the measured phase
    "cpu_ms_per_op": "ms",
    # peak RSS of the `serve` child
    "rss_mb": "MiB",
}
REPORT_UNITS = {
    "setup_wall_s": "s",
    "submit_per_s": "1/s",
    "submit_p50_ms": "ms",
    "submit_p95_ms": "ms",
    "scoreboard_p50_ms": "ms",
    "scoreboard_p95_ms": "ms",
    "challenges_p50_ms": "ms",
    "ledger_p50_ms": "ms",
    "reads_per_s": "1/s",
    "server_rss_mb": "MiB",
    "samples": "count",
    "failed_share": "ratio",
    "trace_overhead_ms": "ms",
}

# Cold starts of `serve` behind setup_s, reported as their median.
SETUP_STARTS = 9
# Request pools are generated before timing, sized for this many requests
# per measured second; a faster program ends the phase early, never
# repeats a request.
RUSH_PER_S = 40
# The pairs left unsolved after the early ledger allow this many (80% valid).
RUSH_MAX = 1000
SPECTATE_PER_S = 60
# One block of the spectate loop: 70% scoreboard, 15% challenges, 10%
# ledger, 5% POSTed solves.  A single client: with two, the scoreboard
# latency swung by a fifth from run to run as the clients fell into and
# out of step.
SPECTATE_BLOCK = (
    "scoreboard", "scoreboard", "challenges", "scoreboard", "scoreboard",
    "ledger", "scoreboard", "scoreboard", "scoreboard", "changesets",
    "scoreboard", "scoreboard", "challenges", "scoreboard", "scoreboard",
    "ledger", "scoreboard", "scoreboard", "challenges", "scoreboard",
)
# Fixed lengths of the traced run, so its call counts repeat exactly.
TRACE_RUSH = 100
TRACE_SPECTATE = 100
PROBE_GETS = 5

# A closed-loop step: (route, request) with a request for POSTs only.
Op = tuple[str, "gen.Request | None"]


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failures."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, note: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(note)
        return ok


@dataclass
class Session:
    """What one `serve` child acknowledged, and what the clients saw."""

    start: bytes  # starting ledger bytes
    entries: int  # entries in the starting ledger
    acks: list[tuple[int, str]] = field(default_factory=list)
    solves: list[tuple[str, str, int]] = field(default_factory=list)
    teams: list[str] = field(default_factory=list)
    latency_ms: dict[str, list[float]] = field(default_factory=dict)
    client_ms: dict[str, float] = field(default_factory=dict)
    elapsed_s: float = 0.0
    cpu_s: float = 0.0  # serve's CPU time over the driven phase
    rss_mb: float = 0.0

    def record(self, route: str, rid: str, seconds: float) -> None:
        self.latency_ms.setdefault(route, []).append(seconds * 1e3)
        self.client_ms[rid] = seconds * 1e3


def _solves(ops: list[Op]) -> int:
    """Pairs the valid POSTs among `ops` solve, which later pools skip."""
    return sum(1 for _, req in ops if req is not None and req.kind == "valid")


class Run:
    """State shared by the phases of one benchmark invocation."""

    def __init__(self, workload: str, seed: int, seconds: int, work: Path):
        self.workload, self.seconds, self.work = workload, seconds, work
        self.tally = Tally()
        self.comp = gen.build(seed)
        self.n_solves = gen.EARLY_SOLVES if workload == "submit-rush" else gen.LATE_SOLVES
        self.start = self.comp.ledger_bytes(self.n_solves)
        self.start_solves = list(self.comp.solves[: self.n_solves])
        self.entries = self.start.count(b"\n")
        self.challenges_body = canonical_bytes([d.to_json_dict() for d in self.comp.challenges])
        self._files = 0

    def path(self, stem: str) -> Path:
        self._files += 1
        return self.work / f"{self._files:03d}-{stem}"

    def ledger_copy(self) -> Path:
        path = self.path("ledger.ndjson")
        path.write_bytes(self.start)
        return path

    def pool(self, count: int, tag: str, block: tuple[str, ...], skip: int) -> list[gen.Request]:
        return gen.pool(self.comp, self.n_solves + skip, count, tag, block)

    def rush_ops(self, count: int) -> list[Op]:
        count = min(count, RUSH_MAX)
        return [("changesets", req) for req in self.pool(count, "rush", gen.RUSH_BLOCK, 0)]

    def spectate_ops(self, count: int) -> list[Op]:
        block = len(SPECTATE_BLOCK)
        posts = iter(self.pool(count // block + 1, "watch", ("valid",), 0))
        routes = (SPECTATE_BLOCK[i % block] for i in range(count))
        return [(r, next(posts) if r == "changesets" else None) for r in routes]

    def probe_ops(self, skip: int) -> list[Op]:
        """One POST of each kind and a few keep-alive GETs of each route,
        so the traced run of every workload crosses every layer."""
        posts = self.pool(len(gen.PROBE_BLOCK), "probe", gen.PROBE_BLOCK, skip)
        return [("changesets", req) for req in posts] + [
            (route, None) for route in ("scoreboard", "challenges", "ledger")
            for _ in range(PROBE_GETS)
        ]

    # ------------------------------------------------------------- set-up

    def setup(self) -> tuple[float, float]:
        """Median (CPU s, wall s) of `serve` from spawn to its first 200."""
        cpu, wall = [], []
        for _ in range(SETUP_STARTS):
            with Server(self.ledger_copy(), self.path("serve.err")) as server:
                server.kill()
                cpu.append(server.exit_cpu_s)
                wall.append(server.ready_s)
        return statistics.median(cpu), statistics.median(wall)

    # ------------------------------------------------------------ traffic

    def post(self, session: Session, port: int, req: gen.Request, rid: str) -> None:
        try:
            status, body, seconds = fresh(port, "POST", "/changesets", req.body, rid)
        except (OSError, http.client.HTTPException) as exc:
            self.tally.check(False, f"POST {req.kind}: {exc!r}")
            return
        session.record("changesets", rid, seconds)
        note = f"POST {req.kind} {req.team_id}/{req.challenge_id}: {status} {body[:120]!r}"
        if not self.tally.check(status == req.status, note):
            return
        reply = json.loads(body)
        if status != 201:
            self.tally.check(reply.get("code") == req.code, note)
            return
        index = reply["index"]
        self.tally.check(index == session.entries + len(session.acks), note)
        session.acks.append((index, reply["hash"]))
        if req.challenge_id is None:
            session.teams.append(req.team_id)
        else:
            session.solves.append((req.team_id, req.challenge_id, index))

    def get(self, session: Session, client: KeepAlive, route: str, rid: str) -> None:
        try:
            status, body, seconds = client.get(f"/{route}", rid)
        except (OSError, http.client.HTTPException) as exc:
            client.close()  # the next request reconnects
            self.tally.check(False, f"GET /{route}: {exc!r}")
            return
        session.record(route, rid, seconds)
        ok = status == 200
        if ok and route == "challenges":
            ok = body == self.challenges_body
        elif ok and route == "ledger":
            ok = body.startswith(session.start)
        elif ok and route == "scoreboard":
            ranks = [row["rank"] for row in json.loads(body)]
            ok = ranks == list(range(1, len(ranks) + 1)) and len(ranks) >= gen.N_TEAMS
        self.tally.check(ok, f"GET /{route}: {status} {body[:120]!r}")

    def closed_loop(self, session: Session, port: int, ops: list[Op], tag: str,
                    seconds: float | None = None) -> None:
        """Send `ops` one after another, each once the previous answer is
        in, until done or `seconds` have passed: POSTs on a fresh
        connection each, GETs on one keep-alive connection."""
        conn = KeepAlive(port)
        start = time.perf_counter()
        try:
            for i, (route, req) in enumerate(ops):
                if seconds is not None and time.perf_counter() - start >= seconds:
                    break
                if req is None:
                    self.get(session, conn, route, f"{tag}-{i}")
                else:
                    self.post(session, port, req, f"{tag}-{i}")
        finally:
            conn.close()
        session.elapsed_s = time.perf_counter() - start

    # -------------------------------------------------------------- checks

    def expected_scoreboard(self, session: Session) -> list[dict]:
        return expected_scoreboard(
            self.comp.team_ids + session.teams,
            self.comp.points,
            self.start_solves + session.solves,
        )

    def serve(self, drive, trace_out: Path | None = None) -> tuple[Session, Path]:
        """Start `serve` on a copy of the starting ledger, run `drive`,
        then check the final scoreboard and, after SIGINT, that the
        persisted ledger holds every acknowledged entry."""
        session = Session(self.start, self.entries)
        path = self.ledger_copy()
        with Server(path, self.path("serve.err"), trace_out) as server:
            cpu = server.cpu_s()
            drive(session, server.port)
            session.cpu_s = server.cpu_s() - cpu
            status, body, _ = fresh(server.port, "GET", "/scoreboard")
            self.tally.check(
                status == 200 and json.loads(body) == self.expected_scoreboard(session),
                f"final scoreboard differs from the independent scorer: {status}",
            )
            session.rss_mb = server.peak_rss_mb()
            self.tally.check(server.stop() == 0, "serve did not exit cleanly on SIGINT")
        chain = ledger.read_ledger(str(path))
        self.tally.check(
            len(chain) == self.entries + len(session.acks)
            and all(chain[i].hash.hex() == h for i, h in session.acks),
            "persisted ledger lacks an acknowledged entry",
        )
        return session, path

    def audit(self, path: Path, session: Session, trace_out: Path) -> None:
        """Audit the ledger `session`'s server persisted; the report must be
        clean and carry the independent scoreboard."""
        out = self.path("audit.json")
        code = run_cli(
            ["--json", "audit", "--ledger", str(path)], out, self.path("audit.err"), trace_out
        )
        try:
            report = json.loads(out.read_bytes())
        except ValueError:
            report = {}
        self.tally.check(
            code == 0
            and report.get("ok") is True
            and report.get("findings") == []
            and report.get("entries") == self.entries + len(session.acks)
            and report.get("scoreboard") == self.expected_scoreboard(session),
            f"audit of {path.name}: exit {code}, report {str(report)[:200]}",
        )


# ------------------------------------------------------------------ metrics


def _timing(name: str, samples: list[float], tail: bool = True) -> dict[str, float]:
    """Median, and p95 when ten samples lie beyond it, in ms; nothing for
    a route that got no answer."""
    found = {f"{name}_p50_ms": statistics.median(samples)} if samples else {}
    if tail and tail_supported(len(samples), 95):
        found[f"{name}_p95_ms"] = percentile(samples, 95)
    return found


def e2e(run: Run) -> tuple[dict[str, float], dict[str, object]]:
    """Untraced run for `run.seconds`: (end-to-end metrics, named report)."""
    setup_cpu, setup_wall = run.setup()
    if run.workload == "submit-rush":
        ops, tag = run.rush_ops(RUSH_PER_S * run.seconds), "rush"
    else:
        ops, tag = run.spectate_ops(SPECTATE_PER_S * run.seconds), "watch"
    session, _ = run.serve(lambda s, port: run.closed_loop(s, port, ops, tag, run.seconds))
    lat = {route: session.latency_ms.get(route, [])
           for route in ("changesets", "scoreboard", "challenges", "ledger")}
    answered = sum(len(v) for v in lat.values())
    report: dict[str, object] = {"setup_wall_s": setup_wall}
    if run.workload == "submit-rush":
        report.update(submit_per_s=len(session.acks) / session.elapsed_s,
                      **_timing("submit", lat["changesets"]))
    else:
        report.update(
            **_timing("scoreboard", lat["scoreboard"]),
            **_timing("challenges", lat["challenges"], tail=False),
            **_timing("ledger", lat["ledger"], tail=False),
            **_timing("submit", lat["changesets"], tail=False),
            reads_per_s=(answered - len(lat["changesets"])) / session.elapsed_s,
        )
    report.update(server_rss_mb=session.rss_mb,
                  samples={route: len(v) for route, v in lat.items() if v})
    return {
        "setup_s": setup_cpu,
        "cpu_ms_per_op": 1e3 * session.cpu_s / max(answered, 1),
        "rss_mb": session.rss_mb,
    }, report


def micro_rows(run: Run) -> dict[str, float]:
    """In-process kernel, KDF and proof timings (median per call, ms), and
    the CLI's import time from a fresh interpreter."""
    from flagless import _ed25519_core, _ed25519_pykernel, ed25519, sigproof

    secret = run.comp.secrets[0].keypair()
    descriptor = run.comp.challenges[0]
    challenge = sigproof.derive_challenge_keys(
        run.comp.flags[descriptor.id], descriptor.salt, descriptor.kdf
    )
    cid = descriptor.id.encode("ascii")
    sig = ed25519.sign(secret.secret, cid)
    salt = descriptor.salt

    def ms(fn, reps: int) -> float:
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return 1e3 * statistics.median(times)

    pure = _ed25519_pykernel
    rows = {
        "ed25519.sign_ms.pure": ms(lambda: _ed25519_core.sign(secret.secret, cid, pure), 15),
        "ed25519.verify_ms.pure": ms(
            lambda: _ed25519_core.verify(secret.public, sig, cid, pure), 15
        ),
        "ed25519.sign_ms.selected": ms(lambda: ed25519.sign(secret.secret, cid), 15),
        "ed25519.verify_ms.selected": ms(lambda: ed25519.verify(secret.public, sig, cid), 15),
        "ed25519.decompress_ms": ms(lambda: _ed25519_core.decompress(secret.public), 40),
        "sigproof.prove_ms": ms(lambda: sigproof.prove(secret, challenge.secret, cid), 10),
    }
    for name, make in sigproof.PROFILES.items():
        params = make()
        reps = 3 if params.cost_n > 2**10 else 40
        rows[f"sigproof.scrypt_ms.{name}"] = ms(
            lambda: sigproof.scrypt_seed(b"flag{bench}", salt, params), reps
        )
    imports = []
    for _ in range(5):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import flagless.cli"],
            env=harness.child_env(), cwd=harness.ROOT, check=True,
        )
        imports.append(time.perf_counter() - start)
    rows["cli.import_s"] = statistics.median(imports)
    return rows


def traced(run: Run) -> tuple[dict[str, float], dict[str, object]]:
    """Fixed-length run twice, untraced then traced: (layer metrics,
    report).  `trace.overhead_ms` is the difference of the main
    operation's median between the two."""
    micro = micro_rows(run)
    serve_spans = run.path("serve.spans.json")
    audit_spans = run.path("audit.spans.json")
    if run.workload == "submit-rush":
        ops, route = run.rush_ops(TRACE_RUSH), "changesets"
    else:
        ops, route = run.spectate_ops(TRACE_SPECTATE), "scoreboard"
    probe = run.probe_ops(_solves(ops))

    def drive(s: Session, port: int) -> None:
        run.closed_loop(s, port, ops, run.workload)
        run.closed_loop(s, port, probe, "probe")

    plain, _ = run.serve(drive)
    session, path = run.serve(drive, serve_spans)
    overhead_ms = statistics.median(session.latency_ms[route]) - statistics.median(
        plain.latency_ms[route]
    )
    run.audit(path, session, audit_spans)
    spans = merge(*(json.loads(p.read_text()) for p in (serve_spans, audit_spans)))
    metrics = layers.span_metrics(spans, session.client_ms)
    metrics.update(micro)
    metrics["trace.overhead_ms"] = overhead_ms
    return metrics, {"trace_overhead_ms": overhead_ms}


def run_workload(workload: str, seed: int, seconds: int, trace: bool, work: Path):
    """Run one workload: (metrics, report, tally)."""
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(workload, seed, seconds, work)
        metrics, report = traced(run) if trace else e2e(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return metrics, report, run.tally
