"""Command-line interface for organizers, players, and auditors.

Player commands target either a local ledger file (--ledger) or a running
service (--service-url) and behave identically against both: a --ledger
target reads each body with `CompetitionHost.read(route)` on the file and
submits through `service.answer`, as `serve` does, so the commands parse
the same bytes and statuses from either.  Organizer commands (init,
challenge add) are local-only: privileged entries are signed with the
organizer key, which never belongs on the wire.

`init` creates the ledger file; every later entry is appended by the one
`CompetitionHost` holding the file (`serve`, `challenge add`, or a local
`team register` or `submit`), and is on disk before the command reports
it.  A command that finds the file held exits 1 and leaves it untouched,
so `challenge add` needs `serve` stopped.

Exit codes: 0 success, 1 domain rejection (wrong flag, rejected changeset,
audit findings), 2 usage error.
"""

from __future__ import annotations

import argparse
import getpass
import os
import sys
import time

from . import competition, ledger, service, sigproof
from .canonical import canonical_bytes, canonical_dumps, is_int, parse_json
from .competition import (
    AuditReport,
    ChallengeDescriptor,
    ScoreboardRow,
    TeamSecret,
    audit_all,
    build_submission,
    challenge_changeset,
    new_challenge,
    register_team,
    scoreboard_bytes,
)
from .sigproof import PROFILES
from .validator import CompetitionHost, FileRegion


class CliError(Exception):
    def __init__(self, message: str, exit_code: int = 1):
        super().__init__(message)
        self.exit_code = exit_code


class _Refused(CliError):
    """A 422 whose body does not decode: the changeset was not appended."""


# ---------------------------------------------------------------- targets


class _Target:
    """The player commands' reads and submissions, built on two hooks:
    `_get(route)`, the body of `GET route`, and `_post(changeset)`, the
    status and body of `POST /changesets`.  A body that is not JSON of the
    shape its command expects, or nests too deeply to parse, is a `CliError`."""

    def challenges(self) -> list[ChallengeDescriptor]:
        return self._listing("/challenges", ChallengeDescriptor.from_json_dict)

    def scoreboard(self) -> list[ScoreboardRow]:
        return self._listing("/scoreboard", ScoreboardRow.from_json_dict)

    def _listing(self, route: str, parse) -> list:
        try:
            items = parse_json(self._get(route))
            if not isinstance(items, list):
                raise ValueError("not a list")
            return [parse(item) for item in items]
        except ValueError as exc:
            raise CliError(f"malformed answer to GET {route}: {exc}") from None

    def submit(self, changeset) -> dict:
        status, body = self._post(changeset)
        try:
            payload = parse_json(body)
        except ValueError:
            payload = None
        if status == 201 and isinstance(payload, dict) and is_int(payload.get("index")):
            return {**payload, "outcome": "ACCEPT"}
        if status == 422 and isinstance(payload, dict) and isinstance(payload.get("code"), str):
            return {**payload, "outcome": "REJECT"}
        error = _Refused if status == 422 else CliError
        raise error(f"unexpected {status} answer to POST /changesets")


class LocalTarget(_Target):
    def __init__(self, ledger_path: str):
        self.path = ledger_path

    def ledger_bytes(self) -> bytes:
        # the raw file, not a host's: `audit` reports a forged file that
        # a host would refuse to load
        with open(self.path, "rb") as fh:
            return fh.read()

    def _get(self, route: str) -> bytes:
        with CompetitionHost.load(self.ledger_bytes()) as host:
            body = host.read(route)
        if isinstance(body, FileRegion):
            with body:
                return body.read()
        return body

    def _post(self, changeset) -> tuple[int, bytes]:
        with CompetitionHost.open(self.path) as host:
            status, payload = service.answer(host, changeset)
        return status, canonical_bytes(payload)


class RemoteTarget(_Target):
    def __init__(self, base_url: str):
        self.base_url = base_url.rstrip("/")

    def _get(self, route: str) -> bytes:
        import urllib.request  # on first use: `serve` and local commands never load it

        try:
            with urllib.request.urlopen(self.base_url + route, timeout=60) as resp:
                return resp.read()
        except urllib.error.HTTPError as exc:
            raise CliError(f"GET {route} failed: {exc.code}") from exc
        except urllib.error.URLError as exc:
            raise CliError(f"cannot reach service: {exc.reason}") from exc

    def ledger_bytes(self) -> bytes:
        return self._get("/ledger")

    def _post(self, changeset) -> tuple[int, bytes]:
        import urllib.request

        body = canonical_bytes(changeset.to_json_dict())
        request = urllib.request.Request(
            self.base_url + "/changesets",
            data=body,
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=60) as resp:
                return resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read()
        except urllib.error.URLError as exc:
            raise CliError(f"cannot reach service: {exc.reason}") from exc


def _target(args) -> LocalTarget | RemoteTarget:
    if args.service_url:
        return RemoteTarget(args.service_url)
    return LocalTarget(args.ledger)


# ------------------------------------------------------------ key files


def _write_private_file(path: str, payload: bytes) -> None:
    if os.path.exists(path):
        raise CliError(f"refusing to overwrite {path}")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    with os.fdopen(fd, "wb") as fh:
        fh.write(payload)


def _read_secret(path: str) -> TeamSecret:
    try:
        with open(path, "rb") as fh:
            return TeamSecret.from_json_dict(parse_json(fh.read()))
    except OSError as exc:
        raise CliError(f"cannot read secret file: {exc}") from exc
    except ValueError as exc:
        raise CliError(f"bad secret file {path}: {exc}") from exc


def _read_flag(args) -> str:
    if args.flag is not None:
        return args.flag
    if args.flag_file:
        try:
            with open(args.flag_file, "r", encoding="utf-8") as fh:
                return fh.read()
        except OSError as exc:
            raise CliError(f"cannot read flag file: {exc}") from exc
    return getpass.getpass("Flag: ")


# ------------------------------------------------------------- commands


def cmd_init(args) -> int:
    os.makedirs(args.dir, exist_ok=True)
    ledger_path = os.path.join(args.dir, "ledger.ndjson")
    key_path = os.path.join(args.dir, "organizer.key")
    if os.path.exists(ledger_path):
        raise CliError(f"ledger already exists at {ledger_path}")
    seed = os.urandom(sigproof.SEED_LEN)
    keys = sigproof.keypair_from_seed(seed)
    meta = canonical_bytes({"created_at": int(time.time()), "name": args.name})
    entry = ledger.genesis(keys.public, meta, int(time.time()))
    _write_private_file(
        key_path,
        canonical_bytes(TeamSecret(team_id="organizer", seed=seed).to_json_dict()),
    )
    ledger.write_ledger(ledger_path, [entry])
    if args.json:
        print(canonical_dumps({"ledger": ledger_path, "organizer_key": key_path}))
    else:
        print(f"initialized competition {args.name!r}")
        print(f"  ledger:        {ledger_path}")
        print(f"  organizer key: {key_path}  (keep this private)")
    return 0


def cmd_challenge_add(args) -> int:
    secret = _read_secret(args.organizer_key or os.path.join(os.path.dirname(args.ledger), "organizer.key"))
    flag = _read_flag(args)
    descriptor = new_challenge(
        challenge_id=args.id,
        flag=flag,
        title=args.title,
        points=args.points,
        kdf=PROFILES[args.kdf_profile](),
        description=args.description,
        categories=tuple(args.category),
    )
    with CompetitionHost.open(args.ledger) as host:
        if any(d["id"] == args.id for d in parse_json(host.read("/challenges"))):
            raise CliError(f"challenge {args.id!r} already released")
        entry = host.apply_organizer(challenge_changeset(descriptor), secret.seed)
    if args.json:
        print(canonical_dumps({"entry": entry.index, "id": args.id}))
    else:
        print(f"released challenge {args.id!r} ({args.points} pts) at entry {entry.index}")
    return 0


def cmd_team_register(args) -> int:
    record, secret, changeset = register_team(args.name)
    _write_private_file(args.secret_out, canonical_bytes(secret.to_json_dict()))
    try:
        result = _target(args).submit(changeset)
    except (BlockingIOError, FileNotFoundError, _Refused):  # held or missing file, or refused
        os.unlink(args.secret_out)
        raise
    if result["outcome"] != "ACCEPT":
        os.unlink(args.secret_out)
        print(f"registration rejected: {result['code']}: {result.get('message', '')}", file=sys.stderr)
        return 1
    if args.json:
        print(canonical_dumps({"entry": result["index"], "id": record.id}))
    else:
        print(f"registered team {record.id!r} at entry {result['index']}")
        print(f"  secret key saved to {args.secret_out}  (keep this private)")
    return 0


def cmd_challenges(args) -> int:
    listing = _target(args).challenges()
    if args.json:
        print(canonical_dumps([d.to_json_dict() for d in listing]))
        return 0
    if not listing:
        print("no challenges released yet")
        return 0
    width = max(len(d.id) for d in listing)
    for d in listing:
        cats = ",".join(d.categories) or "-"
        print(f"{d.id:<{width}}  {d.points:>5} pts  [{cats}]  {d.title}")
    return 0


def cmd_submit(args) -> int:
    secret = _read_secret(args.secret)
    target = _target(args)
    descriptors = {d.id: d for d in target.challenges()}
    if args.challenge not in descriptors:
        raise CliError(f"unknown challenge {args.challenge!r}")
    flag = _read_flag(args)
    try:
        _, changeset = build_submission(secret, descriptors[args.challenge], flag)
    except competition.FlagMismatch:
        print("flag mismatch: not submitting", file=sys.stderr)
        return 1
    result = target.submit(changeset)
    if args.json:
        print(canonical_dumps(result))
    elif result["outcome"] == "ACCEPT":
        print(f"ACCEPT: solve recorded at entry {result['index']}")
    else:
        print(f"REJECT {result['code']}: {result.get('message', '')}")
    return 0 if result["outcome"] == "ACCEPT" else 1


def cmd_score(args) -> int:
    rows = _target(args).scoreboard()
    payload = scoreboard_bytes(rows)
    with open(args.out, "wb") as fh:
        fh.write(payload)
    if args.json:
        print(payload.decode("utf-8"))
        return 0
    if not rows:
        print("no teams yet")
        return 0
    width = max(len(r.team_id) for r in rows)
    print(f"{'#':>3}  {'team':<{width}}  {'points':>6}  {'solves':>6}")
    for r in rows:
        print(f"{r.rank:>3}  {r.team_id:<{width}}  {r.points:>6}  {r.solves:>6}")
    return 0


def cmd_audit(args) -> int:
    raw = _target(args).ledger_bytes()
    try:
        chain = ledger.load_chain(raw)
    except ledger.ChainError as exc:
        print(f"ledger does not parse: {exc}", file=sys.stderr)
        return 1
    report: AuditReport = audit_all(chain)
    if args.json:
        print(canonical_dumps(report.to_json_dict()))
    else:
        for finding in report.findings:
            print(f"entry {finding.index}: {finding.code}: {finding.message}")
        status = "clean" if report.ok else f"{len(report.findings)} finding(s)"
        print(f"audited {report.entries} entries: {status}")
    return 0 if report.ok else 1


def cmd_serve(args) -> int:
    bind_host, _, port = args.listen.rpartition(":")
    with CompetitionHost.open(args.ledger) as host:
        server = service.make_server(host, (bind_host or "127.0.0.1", int(port)))
        print(f"serving on http://{server.server_address[0]}:{server.server_address[1]}")
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
    return 0


# --------------------------------------------------------------- parser


def _add_target_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--ledger", metavar="PATH", help="local ledger file")
    group.add_argument("--service-url", metavar="URL", help="running service")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagless",
        description="run, play, and audit a proof-based CTF",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create a competition ledger and organizer key")
    p.add_argument("--name", required=True)
    p.add_argument("--dir", required=True)
    p.set_defaults(func=cmd_init)

    chal = sub.add_parser("challenge", help="organizer challenge operations")
    chal_sub = chal.add_subparsers(dest="challenge_command", required=True)
    p = chal_sub.add_parser("add", help="derive keys from a flag and release a challenge")
    p.add_argument("--id", required=True, help="challenge slug")
    p.add_argument("--title", required=True)
    p.add_argument("--points", required=True, type=int)
    p.add_argument("--description", default="")
    p.add_argument("--category", action="append", default=[])
    p.add_argument("--flag", help="flag on the command line (tests/automation)")
    p.add_argument("--flag-file", help="read the flag from a file")
    p.add_argument("--kdf-profile", choices=sorted(PROFILES), default="competition")
    p.add_argument("--ledger", required=True, metavar="PATH")
    p.add_argument("--organizer-key", metavar="PATH")
    p.set_defaults(func=cmd_challenge_add)

    team = sub.add_parser("team", help="team operations")
    team_sub = team.add_subparsers(dest="team_command", required=True)
    p = team_sub.add_parser("register", help="create a team key pair and register")
    p.add_argument("--name", required=True)
    p.add_argument("--secret-out", required=True, metavar="PATH")
    _add_target_options(p)
    p.set_defaults(func=cmd_team_register)

    p = sub.add_parser("challenges", help="list released challenges")
    _add_target_options(p)
    p.set_defaults(func=cmd_challenges)

    p = sub.add_parser("submit", help="prove a solve (checks the flag locally first)")
    p.add_argument("--challenge", required=True)
    p.add_argument("--secret", required=True, metavar="PATH", help="team secret file")
    p.add_argument("--flag", help="flag on the command line (tests/automation)")
    p.add_argument("--flag-file", help="read the flag from a file")
    _add_target_options(p)
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("score", help="print the scoreboard and write scoreboard.json")
    p.add_argument("--out", default="scoreboard.json", metavar="PATH")
    _add_target_options(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("audit", help="independently re-verify the whole competition")
    _add_target_options(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("serve", help="expose a ledger over HTTP")
    p.add_argument("--ledger", required=True, metavar="PATH")
    p.add_argument("--listen", default="127.0.0.1:8337", metavar="HOST:PORT")
    p.set_defaults(func=cmd_serve)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help (0) and usage errors (2)
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, ValueError) as exc:  # ChainError included
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
