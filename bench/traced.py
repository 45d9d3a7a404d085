"""Run the flagless CLI with spans recorded at each layer boundary.

    python3 bench/traced.py SPANS_OUT <flagless arguments...>

Wraps the public entry points of every layer, each under every name it is
looked up by (`validator` imports `teams_in` and `challenges_in` by name,
`competition` imports `decompress`, `cli` imports `audit_all`), then calls
`flagless.cli.main`.  Spans are written to SPANS_OUT as the process exits.
Nothing under `src/` changes; only this process's module attributes do.
"""

from __future__ import annotations

import atexit
import os
import sys

from harness import REQUEST_ID_HEADER
from spans import Tracer

ROUTES = ("/changesets", "/scoreboard", "/challenges", "/ledger")


def _bytes_written(args, result) -> int:
    path, _ = args
    return os.path.getsize(path)


def install(tracer: Tracer) -> None:
    from flagless import _ed25519_core, cli, competition, ed25519, ledger, service, sigproof, validator

    def accepted(args, result) -> bool:
        return not isinstance(result, validator.ValidationVerdict)

    def patch(name, owners, attr_name, attr=None):
        wrapped = tracer.wrap(name, getattr(owners[0], attr_name), attr)
        for owner in owners:
            setattr(owner, attr_name, wrapped)

    def handler(method):
        def traced(self):
            route = self.path.strip("/") if self.path in ROUTES else "other"
            rid = self.headers.get(REQUEST_ID_HEADER)
            return tracer.span(f"service.{route}", method, self, rid=rid)

        return traced

    service._Handler.do_GET = handler(service._Handler.do_GET)
    service._Handler.do_POST = handler(service._Handler.do_POST)

    host = validator.CompetitionHost
    patch("validator.apply", [host], "apply", accepted)
    patch("validator.snapshot", [host], "snapshot")
    patch("validator.validate", [validator], "validate_changeset")
    patch("competition.teams_in", [competition, validator], "teams_in")
    patch("competition.challenges_in", [competition, validator, cli], "challenges_in")
    patch("competition.scoreboard", [competition, cli], "compute_scoreboard")
    patch("competition.audit_all", [competition, cli], "audit_all")
    patch("sigproof.verify_proof", [sigproof], "verify_proof")
    patch("sigproof.scrypt", [sigproof], "scrypt_kdf")
    patch("ed25519.sign", [ed25519], "sign")
    patch("ed25519.verify", [ed25519], "verify")
    patch("ed25519.decompress", [_ed25519_core, competition], "decompress")
    patch("ledger.append", [ledger], "append")
    patch("ledger.dump_chain", [ledger], "dump_chain")
    patch("ledger.load_chain", [ledger], "load_chain")
    patch("ledger.verify_chain", [ledger, competition], "verify_chain")
    patch("ledger.write_ledger", [ledger], "write_ledger", _bytes_written)


def main() -> None:
    out, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    atexit.register(tracer.dump, out)
    from flagless import cli

    sys.argv = ["flagless", *args]
    cli.main()


if __name__ == "__main__":
    main()
