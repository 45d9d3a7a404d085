"""Chain integrity: hashing, linking, folding, canonical NDJSON, tampering."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagless import ledger
from flagless.canonical import canonical_bytes
from flagless.ledger import (
    ZERO_HASH,
    ChainError,
    Changeset,
    FileChange,
    LedgerEntry,
    LedgerState,
    append,
    dump_chain,
    dump_entry,
    genesis,
    load_chain,
    organizer_key,
    replay,
    snapshot_at,
    verify_chain,
)
from flagless.sigproof import keypair_from_seed
from flagless.validator import CompetitionHost


def _org(rng):
    return keypair_from_seed(rng.randbytes(32))


def _chain(rng, n_extra=0, org=None):
    org = org or _org(rng)
    chain = [genesis(org.public, b'{"name":"t"}', timestamp=100)]
    for i in range(n_extra):
        changeset = Changeset(
            changes=(FileChange(path=f"teams/t{i}/team.json", content=f"c{i}".encode()),),
            author=f"t{i}",
        )
        append(chain, changeset, timestamp=100 + i)
    return chain, org


class TestPaths:
    @pytest.mark.parametrize(
        "path",
        ["/abs", "a//b", "a/../b", "..", "", "x/" , "a/" + "b" * 256],
    )
    def test_bad_paths_rejected(self, path):
        with pytest.raises(ValueError):
            FileChange(path=path, content=b"")

    def test_good_paths(self):
        FileChange(path="teams/a/team.json", content=b"x")
        FileChange(path="meta/competition.json", content=b"")


class TestChangeset:
    def test_must_not_be_empty(self):
        with pytest.raises(ValueError):
            Changeset(changes=(), author="x")

    def test_paths_must_be_distinct(self):
        change = FileChange(path="a", content=b"")
        with pytest.raises(ValueError):
            Changeset(changes=(change, change), author="x")

    def test_round_trip(self):
        changeset = Changeset(
            changes=(
                FileChange(path="a/b", content=b"\x00\xff"),
                FileChange(path="c", content=b""),
            ),
            author="someone",
        )
        assert Changeset.from_json_dict(changeset.to_json_dict()) == changeset


class TestGenesis:
    def test_shape(self, rng):
        org = _org(rng)
        entry = genesis(org.public, b"{}", timestamp=5)
        assert entry.index == 0
        assert entry.prev_hash == ZERO_HASH
        assert verify_chain([entry])
        assert organizer_key([entry]) == org.public

    def test_timestamp_changes_hash(self, rng):
        org = _org(rng)
        a = genesis(org.public, b"{}", timestamp=1)
        b = genesis(org.public, b"{}", timestamp=2)
        assert a.hash != b.hash


class TestAppend:
    def test_indices_increment(self, rng):
        chain, _ = _chain(rng, n_extra=2)
        assert [e.index for e in chain] == [0, 1, 2]
        assert verify_chain(chain)

    def test_timestamp_regression_rejected(self, rng):
        chain, _ = _chain(rng, n_extra=1)
        changeset = Changeset(
            changes=(FileChange(path="teams/x/team.json", content=b"x"),), author="x"
        )
        with pytest.raises(ChainError):
            append(chain, changeset, timestamp=chain[-1].timestamp - 1)

    def test_append_only(self, rng):
        chain, _ = _chain(rng, n_extra=3)
        before = [e.hash for e in chain]
        changeset = Changeset(
            changes=(FileChange(path="teams/new/team.json", content=b"n"),), author="n"
        )
        append(chain, changeset, timestamp=chain[-1].timestamp + 1)
        assert [e.hash for e in chain[:-1]] == before

    def test_org_signed_append_verifies(self, rng):
        chain, org = _chain(rng)
        changeset = Changeset(
            changes=(FileChange(path="challenges/c.json", content=b"{}"),),
            author="organizer",
        )
        entry = append(chain, changeset, timestamp=200, org_secret=org.secret)
        assert entry.org_sig is not None
        assert verify_chain(chain)

    def test_org_sig_from_wrong_key_fails(self, rng):
        chain, _ = _chain(rng)
        impostor = keypair_from_seed(rng.randbytes(32))
        changeset = Changeset(
            changes=(FileChange(path="challenges/c.json", content=b"{}"),),
            author="organizer",
        )
        append(chain, changeset, timestamp=200, org_secret=impostor.secret)
        verdict = verify_chain(chain)
        assert not verdict and verdict.index == 1
        assert "signature" in verdict.reason


class TestVerifyChain:
    def test_tampered_content_detected(self, rng):
        chain, _ = _chain(rng, n_extra=4)
        target = chain[3]
        bad_changeset = Changeset(
            changes=(FileChange(path=target.changeset.changes[0].path, content=b"evil"),),
            author=target.changeset.author,
        )
        chain[3] = LedgerEntry(
            index=target.index,
            timestamp=target.timestamp,
            prev_hash=target.prev_hash,
            changeset=bad_changeset,
            org_sig=target.org_sig,
            hash=target.hash,  # stale on purpose
        )
        verdict = verify_chain(chain)
        assert not verdict and verdict.index == 3 and "hash" in verdict.reason

    def test_removed_entry_detected(self, rng):
        chain, _ = _chain(rng, n_extra=4)
        del chain[2]
        verdict = verify_chain(chain)
        assert not verdict and verdict.index == 2

    def test_reordered_entries_detected(self, rng):
        chain, _ = _chain(rng, n_extra=4)
        chain[1], chain[2] = chain[2], chain[1]
        assert not verify_chain(chain)

    def test_empty_chain_is_vacuously_ok(self):
        assert verify_chain([])


class TestSnapshots:
    def test_genesis_snapshot(self, rng):
        chain, _ = _chain(rng, n_extra=3)
        state = snapshot_at(chain, 0)
        assert set(state.files) == {"meta/organizer.pub", "meta/competition.json"}

    def test_last_snapshot_equals_replay(self, rng):
        chain, _ = _chain(rng, n_extra=5)
        assert snapshot_at(chain, len(chain) - 1).files == replay(chain).files

    def test_last_writer_wins(self, rng):
        chain, org = _chain(rng)
        for content in (b"one", b"two"):
            changeset = Changeset(
                changes=(FileChange(path="meta/notice", content=content),),
                author="organizer",
            )
            append(chain, changeset, timestamp=200, org_secret=org.secret)
        assert replay(chain).get("meta/notice") == b"two"
        assert snapshot_at(chain, 1).get("meta/notice") == b"one"

    def test_out_of_range(self, rng):
        chain, _ = _chain(rng)
        with pytest.raises(IndexError):
            snapshot_at(chain, 1)

    def test_snapshot_consistency_on_untouched_paths(self, rng):
        chain, _ = _chain(rng, n_extra=6)
        early = snapshot_at(chain, 2)
        late = snapshot_at(chain, 6)
        touched = {
            c.path for e in chain[3:7] for c in e.changeset.changes
        }
        for path, content in early.files.items():
            if path not in touched:
                assert late.files[path] == content

    def test_replay_requires_valid_chain(self, rng):
        chain, _ = _chain(rng, n_extra=2)
        del chain[1]
        with pytest.raises(ChainError):
            replay(chain)


class TestReplayDeterminism:
    def test_independent_replays_agree(self, rng):
        chain, _ = _chain(rng, n_extra=10)
        assert replay(chain).files == replay(chain).files

    def test_dump_load_replay_round_trip(self, rng):
        chain, _ = _chain(rng, n_extra=10)
        loaded = load_chain(dump_chain(chain))
        assert loaded == chain
        assert replay(loaded).files == replay(chain).files

    def test_thousand_entries_match_incremental_oracle(self, rng):
        # oracle: state maintained change-by-change during construction
        org = _org(rng)
        chain = [genesis(org.public, b"{}", timestamp=0)]
        oracle = LedgerState()
        oracle.apply(chain[0].changeset)
        for i in range(1000):
            # reused paths exercise overwrite folding as well
            changeset = Changeset(
                changes=(
                    FileChange(
                        path=f"teams/t{i % 97}/team.json",
                        content=rng.randbytes(24),
                    ),
                ),
                author=f"t{i}",
            )
            append(chain, changeset, timestamp=chain[-1].timestamp)
            oracle.apply(changeset)
        assert len(chain) == 1001
        assert replay(chain).files == oracle.files


class TestCanonicalNdjson:
    def test_non_canonical_line_rejected(self, rng):
        chain, _ = _chain(rng, n_extra=1)
        raw = dump_chain(chain)
        with_spaces = raw.replace(b'","', b'" , "', 1)
        with pytest.raises(ChainError):
            load_chain(with_spaces)

    def test_uppercase_hex_rejected(self, rng):
        chain, _ = _chain(rng, n_extra=1)
        raw = dump_chain(chain)
        hash_hex = chain[1].hash.hex().encode()
        assert hash_hex in raw
        with pytest.raises(ChainError):
            load_chain(raw.replace(hash_hex, hash_hex.upper()))

    def test_unknown_keys_rejected(self, rng):
        chain, _ = _chain(rng)
        line = dump_entry(chain[0])
        patched = line.replace(b'{"changeset"', b'{"bonus":1,"changeset"')
        with pytest.raises(ChainError):
            load_chain(patched + b"\n")

    def test_blank_interior_line_rejected(self, rng):
        chain, _ = _chain(rng, n_extra=1)
        lines = dump_chain(chain).split(b"\n")
        lines.insert(1, b"")
        with pytest.raises(ChainError):
            load_chain(b"\n".join(lines))

    def test_boolean_index_and_timestamp_rejected(self, rng):
        # JSON `true` decodes to a bool, which Python counts as the int 1
        org = _org(rng)
        changeset = genesis(org.public, b'{"name":"t"}', timestamp=0).changeset

        def line(index, timestamp, prev_hash):
            digest = ledger.entry_hash(index, timestamp, prev_hash, changeset, None)
            return digest, canonical_bytes(
                {
                    "changeset": changeset.to_json_dict(),
                    "hash": digest.hex(),
                    "index": index,
                    "org_sig": None,
                    "prev_hash": prev_hash.hex(),
                    "timestamp": timestamp,
                }
            ) + b"\n"

        good_hash, good = line(0, 1, ZERO_HASH)
        bool_hash, bool_time = line(0, True, ZERO_HASH)
        with pytest.raises(ChainError, match="timestamp"):
            load_chain(bool_time)
        with pytest.raises(ChainError, match="index"):
            load_chain(good + line(True, 1, good_hash)[1])
        with pytest.raises(ChainError):
            load_chain(bool_time + line(True, 1, bool_hash)[1])

    def test_deeply_nested_line_rejected(self):
        with pytest.raises(ChainError):
            load_chain(b"[" * 100_000 + b"\n")

    @settings(max_examples=40, deadline=None)
    @given(
        contents=st.lists(st.binary(max_size=32), min_size=1, max_size=4),
        author=st.text(min_size=1, max_size=12),
    )
    def test_entry_round_trip_property(self, contents, author):
        changes = tuple(
            FileChange(path=f"meta/f{i}", content=c) for i, c in enumerate(contents)
        )
        changeset = Changeset(changes=changes, author=author)
        entry = ledger.make_entry(0, 7, ZERO_HASH, changeset)
        line = dump_entry(entry)
        assert load_chain(line + b"\n") == [entry]

    def test_single_bit_mutations_detected_sample(self, rng):
        chain, _ = _chain(rng, n_extra=6)
        raw = dump_chain(chain)
        CompetitionHost.load(raw)
        mutation_rng = random.Random(99)
        for _ in range(60):
            pos = mutation_rng.randrange(len(raw))
            bit = 1 << mutation_rng.randrange(8)
            mutated = bytearray(raw)
            mutated[pos] ^= bit
            try:
                loaded = load_chain(bytes(mutated))
            except ChainError:
                continue  # detected at parse time
            assert not verify_chain(loaded), f"undetected flip at byte {pos} bit {bit}"
            with pytest.raises(ChainError):
                CompetitionHost.load(bytes(mutated))
