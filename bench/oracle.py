"""Reference answers the benchmark checks the program against.

Nothing here imports flagless: the scorer works from the generator's
solve list and the indices the server returned, so a scoreboard bug in the
program cannot hide behind the same bug in the check.
"""

from __future__ import annotations

import math


def expected_scoreboard(
    team_ids: list[str],
    points: dict[str, int],
    solves: list[tuple[str, str, int]],
) -> list[dict]:
    """Scoreboard rows as `GET /scoreboard` must serve them.

    `solves` holds (team id, challenge id, ledger index); only the first
    solve of a pair counts.  Teams rank by points, then by the earlier last
    solve (teams without one go last), then by id.
    """
    first: dict[tuple[str, str], int] = {}
    for team, challenge, index in solves:
        key = (team, challenge)
        first[key] = min(index, first.get(key, index))
    total = dict.fromkeys(team_ids, 0)
    count = dict.fromkeys(team_ids, 0)
    last: dict[str, int | None] = dict.fromkeys(team_ids)
    for (team, challenge), index in first.items():
        total[team] += points[challenge]
        count[team] += 1
        last[team] = index if last[team] is None else max(last[team], index)
    ordered = sorted(
        team_ids,
        key=lambda t: (-total[t], math.inf if last[t] is None else last[t], t),
    )
    return [
        {
            "last_solve_index": last[t],
            "points": total[t],
            "rank": rank,
            "solves": count[t],
            "team_id": t,
        }
        for rank, t in enumerate(ordered, start=1)
    ]


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least `pct`
    percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_supported(n: int, pct: float) -> bool:
    """True when at least ten of `n` samples lie beyond the `pct` percentile,
    the least a reported tail should rest on."""
    return n - math.ceil(pct / 100 * n) >= 10
