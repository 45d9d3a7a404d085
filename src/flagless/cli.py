"""Command-line interface for organizers, players, and auditors.

Player commands target either a local ledger file (--ledger) or a running
service (--service-url) and behave identically against both: a --ledger
target reads each body with `CompetitionHost.read(route)` on the file and
submits through `service.answer`, as `serve` does, so the commands parse
the same bytes and statuses from either.  Organizer commands (init,
challenge add) are local-only: privileged entries are signed with the
organizer key, which never belongs on the wire.  `challenge add` makes
no rule of its own: the host refuses a second release of an id
(`ORG_REWRITE`), as `flagless audit` flags one.

`init` creates the ledger file; every later entry is appended by the one
`CompetitionHost` holding the file (`serve`, `challenge add`, or a local
`team register` or `submit`), and is on disk before the command reports
it.  A command that finds the file held exits 1 and leaves it untouched,
so `challenge add` needs `serve` stopped.

`serve` reads its two options itself, without argparse, when they take
the plain form (`_serve_args`); every other command line goes to the
parser that `build_parser` builds, so usage errors and `--help` stay
argparse's.  `serve` never loads `argparse` or `gettext`, nor `tempfile`
(with the `shutil`, `bz2` and `lzma` it pulls in), `random` or `typing`.
`serve` binds IPv4 only: the HOST of `--listen HOST:PORT` is an IPv4
address or a host name, and a HOST with a colon (`[::1]`, `::1`) is a
usage error.

Exit codes: 0 success, 1 domain rejection (wrong flag, rejected changeset,
audit findings), 2 usage error.
"""

from __future__ import annotations

import io
import os
import signal
import sys
import threading
import time
import types

from . import competition, ledger, service, sigproof
from .canonical import canonical_bytes, canonical_dumps, is_int, parse_json
from .competition import (
    ChallengeDescriptor,
    TeamSecret,
    audit_all,
    build_submission,
    challenge_changeset,
    new_challenge,
    register_team,
)
from .scoreboard import ScoreboardRow, scoreboard_bytes
from .sigproof import PROFILES
from .validator import CompetitionHost

LISTEN = "127.0.0.1:8337"  # `serve --listen`'s default


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
    shape its command expects, or nests too deeply to parse, is a `CliError`.
    Submissions go inside a `with` block, which reads may share."""

    def __enter__(self) -> "_Target":
        return self

    def __exit__(self, *exc) -> None:
        pass

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
    """The ledger file at `path`.  A read outside a `with` block views the
    file without its lock; the block holds the file in one host, which its
    reads and submissions share, so the file is loaded once."""

    def __init__(self, ledger_path: str):
        self.path = ledger_path
        self._held: CompetitionHost | None = None

    def __enter__(self) -> "LocalTarget":
        self._held = CompetitionHost.open(self.path)
        return self

    def __exit__(self, *exc) -> None:
        self._held.close()
        self._held = None

    def ledger_file(self) -> io.BufferedReader:
        # the raw file, not a host's: `audit` reports a forged file that
        # a host would refuse to load
        return open(self.path, "rb")

    def _get(self, route: str) -> bytes:
        # a JSON route's body; the ledger is read through `ledger_file`
        if self._held is not None:
            return self._held.read(route)
        with CompetitionHost.view(self.path) as host:
            return host.read(route)

    def _post(self, changeset) -> tuple[int, bytes]:
        return service.answer(self._held, changeset)


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

    def ledger_file(self) -> io.BytesIO:
        return io.BytesIO(self._get("/ledger"))

    def _post(self, changeset) -> tuple[int, bytes]:
        import urllib.request

        request = urllib.request.Request(
            self.base_url + "/changesets",
            data=changeset.serialize(),
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
    ledger.create_file(path, payload, 0o600)


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
    import getpass  # on first use: `serve` and the other commands never load it

    return getpass.getpass("Flag: ")


# ------------------------------------------------------------- commands


def cmd_init(args) -> int:
    os.makedirs(args.dir, exist_ok=True)
    ledger.sync_directory(args.dir)  # the directory's own name, if it is new
    ledger_path = os.path.join(args.dir, "ledger.ndjson")
    key_path = os.path.join(args.dir, "organizer.key")
    if os.path.exists(ledger_path):
        raise CliError(f"ledger already exists at {ledger_path}")
    seed = os.urandom(sigproof.SEED_LEN)
    keys = sigproof.keypair_from_seed(seed)
    meta = canonical_bytes({"created_at": int(time.time()), "name": args.name})
    entry = ledger.genesis(keys.public, meta, int(time.time()))
    _write_private_file(key_path, TeamSecret(team_id="organizer", seed=seed).serialize())
    try:
        ledger.write_ledger(ledger_path, [entry])
    except BaseException:
        os.unlink(key_path)  # so that `init` can be run again
        raise
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
        entry = host.apply_organizer(challenge_changeset(descriptor), secret.seed)
    if args.json:
        print(canonical_dumps({"entry": entry.index, "id": args.id}))
    else:
        print(f"released challenge {args.id!r} ({args.points} pts) at entry {entry.index}")
    return 0


def cmd_team_register(args) -> int:
    record, secret, changeset = register_team(args.name)
    _write_private_file(args.secret_out, secret.serialize())
    try:
        with _target(args) as target:
            result = target.submit(changeset)
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
    flag = _read_flag(args)
    # the flag first, so no prompt holds a local file; the file is then
    # held from its read to its append, as `serve` holds it all its life
    with _target(args) as target:
        descriptors = {d.id: d for d in target.challenges()}
        if args.challenge not in descriptors:
            raise CliError(f"unknown challenge {args.challenge!r}")
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
    with _target(args).ledger_file() as fh:
        report = audit_all(ledger.entries(fh))
    if args.json:
        print(canonical_dumps(report.to_json_dict()))
    else:
        for finding in report.findings:
            print(finding)
        status = "clean" if report.ok else f"{len(report.findings)} finding(s)"
        print(f"audited {report.entries} entries: {status}")
    return 0 if report.ok else 1


def cmd_serve(args) -> int:
    with CompetitionHost.open(args.ledger) as host:
        server = service.make_server(host, args.listen)
        # SIGINT and SIGTERM let each connection end after its current
        # answer, not raise in the middle of one.  One ignored at start (a
        # background job's SIGINT) stays ignored.  The others are blocked in
        # every thread and taken by a thread that waits for them: a handler
        # would run only on the main thread, which serves too, between two
        # steps of its Python code, so a signal caught just before that
        # thread enters `accept` would wait there for the next connection.
        signals = (signal.SIGINT, signal.SIGTERM)
        stops = {s for s in signals if signal.getsignal(s) is not signal.SIG_IGN}
        if stops:
            signal.pthread_sigmask(signal.SIG_BLOCK, stops)

            def stop() -> None:
                signal.sigwait(stops)
                server.shutdown()

            threading.Thread(target=stop, daemon=True).start()
        print(f"serving on http://{server.server_address[0]}:{server.server_address[1]}")
        try:
            server.serve_forever()
        finally:
            server.server_close()
    return 0


# --------------------------------------------------------------- parser


def address(value: str) -> tuple[str, int]:
    """`serve --listen`'s HOST:PORT as the address to bind; with no host
    (no colon, or nothing before it) the host is 127.0.0.1.  Raises
    ValueError unless the port is ASCII digits that name 0 to 65535, and
    at a host with a colon: `serve` binds IPv4 only, so HOST is an IPv4
    address or a host name."""
    bind_host, _, port = value.rpartition(":")
    if not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise ValueError(f"not a port: {port!r}")
    if ":" in bind_host:
        raise ValueError(f"not an IPv4 address or host name: {bind_host!r}")
    return bind_host or "127.0.0.1", int(port)


def _add_target_options(parser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--ledger", metavar="PATH", help="local ledger file")
    group.add_argument("--service-url", metavar="URL", help="running service")


def build_parser():
    """The `argparse.ArgumentParser` of every command."""
    import argparse  # here, not at the top: `serve` reads its options itself

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
    p.add_argument("--listen", default=LISTEN, type=address, metavar="HOST:PORT")
    p.set_defaults(func=cmd_serve)

    return parser


def _serve_args(argv: list[str]):
    """The options of a `serve` command line of the plain form, or None.
    That form is an optional leading `--json`, `serve`, then `--ledger V`
    and, optionally, `--listen V`, each once and in either order, with no
    value that starts with `-` and a `--listen` value that `address`
    takes; argparse reads any such line the same way.  It parses any other
    line, the near misses among them (`--ledger=V`, `--led V`, `--help`)
    and a bad address, so their answers and errors stay its own."""
    as_json = argv[:1] == ["--json"]
    command, *rest = argv[as_json:] or [None]
    options = dict(zip(rest[::2], rest[1::2]))
    if (
        command != "serve"
        or len(options) * 2 != len(rest)
        or not {"--ledger"} <= options.keys() <= {"--ledger", "--listen"}
        or any(value.startswith("-") for value in options.values())
    ):
        return None
    try:
        listen = address(options.get("--listen", LISTEN))
    except ValueError:
        return None
    return types.SimpleNamespace(
        json=as_json, command="serve", func=cmd_serve, ledger=options["--ledger"], listen=listen
    )


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _serve_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
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
