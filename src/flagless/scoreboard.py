"""The scoreboard: its ranking rule, its rows and their canonical bytes.

Teams rank by points, highest first; ties go to the earlier last solve
(ledger order, not claimed wall clocks), then to the team id, and teams
with no counted solve come last.  Ranks run from 1 with no gaps.  Which
solves count is `competition.CompetitionState`'s to say: it passes each
to a `Board`.  `GET /scoreboard` serves the body a `Board` keeps, and
`scoreboard_bytes` gives any list of rows the same bytes, through the one
row function, `row_bytes`.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable
from json.encoder import encode_basestring

from .canonical import is_int, json_object

_NO_SOLVE = (0, 0, None)  # a team's totals before its first counted solve
_NEVER = float("inf")  # the last solve of a team with none, which ranks it last


class ScoreboardRow(namedtuple("ScoreboardRow", "rank team_id points solves last_solve_index")):
    """One team's line of the scoreboard.  A named tuple rather than a
    `Record`: `CompetitionState.scoreboard` builds one per team on each
    call, and a tuple is built in less than half the time.  The host's
    body builds none: its `Board` keeps each row's bytes."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return self._asdict()

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ScoreboardRow":
        json_object(obj, set(cls._fields), "scoreboard row")
        if not all(is_int(obj[k]) for k in ("points", "rank", "solves")):
            raise ValueError("rank, points and solves must be integers")
        if obj["last_solve_index"] is not None and not is_int(obj["last_solve_index"]):
            raise ValueError("last_solve_index must be an integer or null")
        if not isinstance(obj["team_id"], str):
            raise ValueError("team_id must be a string")
        return cls(**obj)


def row_bytes(rank: int, team_id: str, points: int, solves: int, last: int | None) -> bytes:
    """The canonical JSON of one row, its `to_json_dict`, formatted
    directly rather than through `canonical_bytes`: its keys in sorted
    order, its integers as digits and its team id as `json` escapes a
    string."""
    row = '{"last_solve_index":%s,"points":%d,"rank":%d,"solves":%d,"team_id":%s}' % (
        "null" if last is None else last, points, rank, solves, encode_basestring(team_id)
    )
    return row.encode("utf-8")


def scoreboard_bytes(rows: list[ScoreboardRow]) -> bytes:
    """The canonical JSON of `rows`, the list of their `to_json_dict`s."""
    return b"[" + b",".join(row_bytes(*row) for row in rows) + b"]"


class Board:
    """The scoreboard, kept: the totals of each team with a counted solve,
    each team's sort key in rank order (`keys`), and `body`, the canonical
    JSON of the rows.

    A solve counted after `rank` moves its team up by bisection, since its
    key only falls, and splices `body`: only the rows from the team's new
    rank to its old one are rendered again, as only their ranks change.
    A row starts one byte (the `[`) past the widths of the rows above it,
    each its bytes and a comma.
    """

    __slots__ = ("totals", "keys", "body", "_widths")

    def __init__(self) -> None:
        self.totals: dict[str, list[int]] = {}  # team id -> [points, solves, last solve index]

    def add(self, team_id: str, points: int, index: int) -> None:
        row = self.totals.setdefault(team_id, [0, 0, index])
        row[0] += points
        row[1] += 1
        row[2] = max(row[2], index)

    def key(self, team_id: str) -> tuple:
        points, _, last = self.totals.get(team_id, _NO_SOLVE)
        return (-points, _NEVER if last is None else last, team_id)

    def rank(self, team_ids: Iterable[str]) -> "Board":
        """Order `team_ids` by the totals `add` counted, and render every row."""
        self.keys = sorted(map(self.key, team_ids))
        rows = [row_bytes(*self.row(at)) for at in range(len(self.keys))]
        self.body = b"[" + b",".join(rows) + b"]"
        self._widths = [len(row) + 1 for row in rows]
        return self

    def row(self, at: int) -> tuple:
        """The fields of the row at 0-based position `at`, in `ScoreboardRow` order."""
        team_id = self.keys[at][2]
        return (at + 1, team_id, *self.totals.get(team_id, _NO_SOLVE))

    def count(self, team_id: str, points: int, index: int) -> None:
        """`add`, then move the team to its new rank and splice its rows."""
        old = bisect_left(self.keys, self.key(team_id))
        self.add(team_id, points, index)
        del self.keys[old]
        new = bisect_left(self.keys, key := self.key(team_id))
        self.keys.insert(new, key)
        rows = [row_bytes(*self.row(at)) for at in range(new, old + 1)]
        start = 1 + sum(self._widths[:new])
        end = start + sum(self._widths[new : old + 1]) - 1
        view = memoryview(self.body)
        self.body = b"".join((view[:start], b",".join(rows), view[end:]))
        self._widths[new : old + 1] = [len(row) + 1 for row in rows]
