"""Per-layer metrics from the spans of one traced run.

Each layer metric aggregates every traced process of the run (the `serve`
child and the `audit` child): a `_ms` metric is the mean time per call,
`_calls` counts calls, and `outside_ms` is the median over requests of the
client's latency minus the server's handler span for the same request id.
`lock_wait_ms` is the self time of `CompetitionHost.apply` (the span minus
its validate and append children), and `bytes_written_per_entry` the
ledger bytes `serve` wrote per entry it appended.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import ATTR, END, NAME, RID, START, self_times, under

LAYER_UNITS = {
    "service.changesets.handler_ms": "ms",
    "service.scoreboard.handler_ms": "ms",
    "service.changesets.outside_ms": "ms",
    "service.scoreboard.outside_ms": "ms",
    "service.challenges.outside_ms": "ms",
    "validator.apply_ms": "ms",
    "validator.validate_ms": "ms",
    "validator.lock_wait_ms": "ms",
    "validator.snapshot_ms": "ms",
    "validator.accept_ratio": "ratio",
    "competition.teams_in_ms": "ms",
    "competition.teams_in_calls": "count",
    "competition.challenges_in_ms": "ms",
    "competition.challenges_in_calls": "count",
    "competition.decompress_calls_per_changeset": "count",
    "competition.scoreboard_ms": "ms",
    "competition.audit_all_s": "s",
    "sigproof.verify_proof_ms": "ms",
    "sigproof.verify_proof_calls": "count",
    "sigproof.host_scrypt_calls": "count",
    "ed25519.verify_calls": "count",
    "ledger.append_ms": "ms",
    "ledger.dump_chain_ms": "ms",
    "ledger.load_chain_ms": "ms",
    "ledger.verify_chain_ms": "ms",
    "ledger.write_ledger_ms": "ms",
    "ledger.bytes_written_per_entry": "bytes",
    # measured in-process or from a fresh interpreter, not from spans
    "ed25519.sign_ms.pure": "ms",
    "ed25519.verify_ms.pure": "ms",
    "ed25519.sign_ms.selected": "ms",
    "ed25519.verify_ms.selected": "ms",
    "ed25519.decompress_ms": "ms",
    "sigproof.prove_ms": "ms",
    "sigproof.scrypt_ms.competition": "ms",
    "sigproof.scrypt_ms.test": "ms",
    "cli.import_s": "s",
    "trace.overhead_ms": "ms",
}


def _by_name(spans: list[list]) -> dict[str, list[int]]:
    found: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        found[s[NAME]].append(i)
    return found


def _mean_ms(times: list[float], idx: list[int]) -> float:
    return 1e3 * sum(times[i] for i in idx) / len(idx) if idx else 0.0


def span_metrics(spans: list[list], client_ms: dict[str, float]) -> dict[str, float]:
    """Traced-run layer metrics.  `client_ms` maps request id to the
    latency the client measured for it."""
    names = _by_name(spans)
    spent = [s[END] - s[START] for s in spans]

    def mean(name: str) -> float:
        return _mean_ms(spent, names[name])

    def outside(route: str) -> float:
        gaps = [
            client_ms[spans[i][RID]] - 1e3 * spent[i]
            for i in names[f"service.{route}"]
            if spans[i][RID] in client_ms
        ]
        return statistics.median(gaps) if gaps else 0.0

    applies = names["validator.apply"]
    validates = names["validator.validate"]
    decompress_in_validate = sum(
        1 for i in names["ed25519.decompress"] if under(spans, i, "validator.validate")
    )
    written = [spans[i][ATTR] for i in names["ledger.write_ledger"]]
    appended = len(names["ledger.append"])
    return {
        "service.changesets.handler_ms": mean("service.changesets"),
        "service.scoreboard.handler_ms": mean("service.scoreboard"),
        "service.changesets.outside_ms": outside("changesets"),
        "service.scoreboard.outside_ms": outside("scoreboard"),
        "service.challenges.outside_ms": outside("challenges"),
        "validator.apply_ms": mean("validator.apply"),
        "validator.validate_ms": mean("validator.validate"),
        "validator.lock_wait_ms": _mean_ms(self_times(spans), applies),
        "validator.snapshot_ms": mean("validator.snapshot"),
        "validator.accept_ratio": (
            sum(1 for i in applies if spans[i][ATTR]) / len(applies) if applies else 0.0
        ),
        "competition.teams_in_ms": mean("competition.teams_in"),
        "competition.teams_in_calls": len(names["competition.teams_in"]),
        "competition.challenges_in_ms": mean("competition.challenges_in"),
        "competition.challenges_in_calls": len(names["competition.challenges_in"]),
        "competition.decompress_calls_per_changeset": (
            decompress_in_validate / len(validates) if validates else 0.0
        ),
        "competition.scoreboard_ms": mean("competition.scoreboard"),
        "competition.audit_all_s": mean("competition.audit_all") / 1e3,
        "sigproof.verify_proof_ms": mean("sigproof.verify_proof"),
        "sigproof.verify_proof_calls": len(names["sigproof.verify_proof"]),
        "sigproof.host_scrypt_calls": len(names["sigproof.scrypt"]),
        "ed25519.verify_calls": len(names["ed25519.verify"]),
        "ledger.append_ms": mean("ledger.append"),
        "ledger.dump_chain_ms": mean("ledger.dump_chain"),
        "ledger.load_chain_ms": mean("ledger.load_chain"),
        "ledger.verify_chain_ms": mean("ledger.verify_chain"),
        "ledger.write_ledger_ms": mean("ledger.write_ledger"),
        "ledger.bytes_written_per_entry": sum(written) / appended if appended else 0.0,
    }
