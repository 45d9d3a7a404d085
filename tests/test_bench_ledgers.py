"""The benchmark's generated ledgers keep their bytes.

`bench/gen.py` builds the ledgers that every benchmark workload serves,
through `ledger.genesis` and `ledger.append`, from a seed.  Their digests
are pinned here, so a change to how entries are made, signed or
serialized fails a test rather than only moving a benchmark figure.
"""

import importlib.util
import sys
from pathlib import Path

from flagless.canonical import sha256

GEN = Path(__file__).resolve().parent.parent / "bench" / "gen.py"

LEDGER_SHA256 = {
    "EARLY_SOLVES": "172c5dbcd7e8b3cc2df6dce79a50072419724c6a483210403b61d15574f89c1f",
    "LATE_SOLVES": "5ac06a481e62d57ddaec8f3bf9c17b802f42179e709f30e4abb5f32769abff69",
}


def test_the_seed_1_ledgers_hash_as_pinned(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # writes nothing under bench/
    spec = importlib.util.spec_from_file_location("bench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, gen)  # dataclasses look the module up
    spec.loader.exec_module(gen)
    competition = gen.build(1)
    digests = {
        name: sha256(competition.ledger_bytes(getattr(gen, name))).hex() for name in LEDGER_SHA256
    }
    assert digests == LEDGER_SHA256
