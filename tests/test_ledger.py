"""Chain integrity: hashing, linking, folding, canonical NDJSON, tampering."""

import functools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagless import canonical, ledger
from flagless.canonical import canonical_bytes, sha256
from flagless.competition import register_team
from flagless.ledger import (
    ZERO_HASH,
    ChainError,
    Changeset,
    FileChange,
    LedgerEntry,
    append,
    dump_chain,
    dump_entry,
    genesis,
    load_chain,
    organizer_key,
    replay,
    verify_chain,
)
from flagless.sigproof import keypair_from_seed
from flagless.validator import CompetitionHost

from helpers import entry_hash, load_host, replace_entry, simulate


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
        assert organizer_key(entry) == org.public

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

    def test_a_clock_behind_the_head_stamps_the_heads_time(self, rng, monkeypatch):
        chain, _ = _chain(rng, n_extra=1)
        changeset = Changeset((FileChange("teams/late/team.json", b"x"),), "late")
        monkeypatch.setattr(time, "time", lambda: chain[-1].timestamp - 1.0)
        entry = append(chain, changeset)
        assert entry.timestamp == chain[-2].timestamp and verify_chain(chain)

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


@functools.cache
def _heads():
    """The organizer key pair, and for each kind of head the chain that
    ends in it: none (the next entry is genesis), a team entry and an
    organizer entry."""
    org = keypair_from_seed(bytes(range(32)))
    start = [genesis(org.public, b'{"name":"t"}', timestamp=100)]
    team, signed = list(start), list(start)
    append(team, register_team("Head", rng=random.Random(5))[2], 200)
    append(signed, Changeset((FileChange("meta/notice", b"hi"),), "organizer"), 300, org.secret)
    return org, {"none": (), "team": tuple(team), "organizer": tuple(signed)}


# Text that canonical JSON escapes, or that spells the keys `link_fault`
# and `dump_entry` find an entry's fields by.
_AWKWARD = st.sampled_from(
    ['"', "\\", "\u00e9", "\u2603", "\U0001f600", ',"org_sig":"', ',"index":']
)
_CHARACTERS = st.characters(codec="utf-8", exclude_characters="/")
_TEXT = st.lists(st.one_of(_AWKWARD, st.text(_CHARACTERS, max_size=4)), max_size=6).map("".join)


class TestNextEntry:
    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["none", "team", "organizer"]),
        text=_TEXT,
        later=st.integers(0, 10**6),
        signed=st.booleans(),
    )
    def test_the_maker_and_the_checker_agree(self, kind, text, later, signed):
        org, heads = _heads()
        head = heads[kind][-1] if heads[kind] else None
        changeset = Changeset((FileChange(f"meta/n{text}", f"c{text}".encode()),), text)
        timestamp = (0 if head is None else head.timestamp) + later
        secret = org.secret if signed else None
        entry = ledger.next_entry(head, changeset, timestamp, secret)
        assert ledger.link_fault(head, entry, org.public) is None
        line = dump_entry(entry)
        if head is not None:
            assert dump_entry(append(list(heads[kind]), changeset, timestamp, secret)) == line
            if signed:
                with CompetitionHost(heads[kind]) as host:
                    assert dump_entry(host.apply_organizer(changeset, secret, timestamp)) == line
        (change,) = changeset.changes
        flipped = change.content[:-1] + bytes([change.content[-1] ^ 1])
        for changed in (
            replace_entry(entry, index=entry.index + 1),
            replace_entry(entry, prev_hash=bytes([entry.prev_hash[0] ^ 1]) + entry.prev_hash[1:]),
            replace_entry(entry, timestamp=entry.timestamp + 1),
            replace_entry(entry, changeset=Changeset((FileChange(change.path, flipped),), text)),
        ):
            assert ledger.link_fault(head, changed, org.public) is not None


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

    def test_replaced_entry_is_hashed_from_its_new_fields(self, rng):
        sim = simulate(rng, n_challenges=1, n_teams=2, solve_prob=0.0)
        chain = load_chain(dump_chain(sim.chain()))  # every entry keeps its preimage
        team, release = chain[-1], chain[1]
        assert release.org_sig is not None and verify_chain(chain)
        bad_changeset = Changeset(
            changes=(FileChange(path=team.changeset.changes[0].path, content=b"evil"),),
            author=team.changeset.author,
        )
        for index, changes in ((team.index, {"changeset": bad_changeset}),
                               (release.index, {"timestamp": release.timestamp + 1})):
            forged = list(chain)
            forged[index] = replace_entry(chain[index], **changes)
            verdict = verify_chain(forged)
            assert not verdict and verdict.index == index and verdict.reason == "hash mismatch"
        evil = replace_entry(team, changeset=bad_changeset)
        assert b'"ZXZpbA=="' in dump_entry(evil) and b'"ZXZpbA=="' not in dump_entry(team)
        # with the hash made good, the organizer signature still covers the old bytes
        stamped = replace_entry(release, timestamp=release.timestamp + 1)
        forged = list(chain)
        forged[release.index] = replace_entry(stamped, hash=sha256(stamped.preimage()))
        assert verify_chain(forged).reason == "organizer signature invalid"

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


class TestPrefixReplays:
    def test_genesis_prefix(self, rng):
        chain, _ = _chain(rng, n_extra=3)
        assert set(replay(chain[:1])) == {"meta/organizer.pub", "meta/competition.json"}

    def test_every_prefix_replays(self, rng):
        chain, _ = _chain(rng, n_extra=5)
        files = {}
        for i, entry in enumerate(chain):
            files.update((c.path, c.content) for c in entry.changeset.changes)
            assert replay(chain[: i + 1]) == files

    def test_last_writer_wins(self, rng):
        chain, org = _chain(rng)
        for content in (b"one", b"two"):
            changeset = Changeset(
                changes=(FileChange(path="meta/notice", content=content),),
                author="organizer",
            )
            append(chain, changeset, timestamp=200, org_secret=org.secret)
        assert replay(chain)["meta/notice"] == b"two"
        assert replay(chain[:2])["meta/notice"] == b"one"

    def test_prefix_consistency_on_untouched_paths(self, rng):
        chain, _ = _chain(rng, n_extra=6)
        early = replay(chain[:3])
        late = replay(chain[:7])
        touched = {
            c.path for e in chain[3:7] for c in e.changeset.changes
        }
        for path, content in early.items():
            if path not in touched:
                assert late[path] == content

    def test_replay_requires_valid_chain(self, rng):
        chain, _ = _chain(rng, n_extra=2)
        del chain[1]
        with pytest.raises(ChainError):
            replay(chain)


class TestReplayDeterminism:
    def test_independent_replays_agree(self, rng):
        chain, _ = _chain(rng, n_extra=10)
        assert replay(chain) == replay(chain)

    def test_dump_load_replay_round_trip(self, rng):
        chain, _ = _chain(rng, n_extra=10)
        loaded = load_chain(dump_chain(chain))
        assert loaded == chain
        assert replay(loaded) == replay(chain)

    def test_thousand_entries_match_incremental_oracle(self, rng):
        # oracle: state maintained change-by-change during construction
        org = _org(rng)
        chain = [genesis(org.public, b"{}", timestamp=0)]
        oracle = {c.path: c.content for c in chain[0].changeset.changes}
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
            oracle.update((c.path, c.content) for c in changeset.changes)
        assert len(chain) == 1001
        assert replay(chain) == oracle


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
            digest = entry_hash(index, timestamp, prev_hash, changeset, None)
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

    def test_last_line_cut_short_rejected(self, rng):
        chain, _ = _chain(rng, n_extra=2)
        raw = dump_chain(chain)
        with pytest.raises(ChainError, match="ledger line 2: cut short"):
            load_chain(raw[:-1])
        with pytest.raises(ChainError, match="ledger line 3: cut short"):
            load_chain(raw + b"{")
        # `entries` reads lazily: each entry comes out as soon as its line
        # is read, so the entries before the cut line come out before the error
        pulled = []

        def lines():
            for line in raw[:-1].splitlines(keepends=True):
                pulled.append(line)
                yield line

        reader = ledger.entries(lines())
        for i in range(2):
            assert next(reader) == chain[i] and len(pulled) == i + 1
        with pytest.raises(ChainError, match="ledger line 2: cut short"):
            next(reader)

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
        entry = ledger.next_entry(None, changeset, 7)
        line = dump_entry(entry)
        assert load_chain(line + b"\n") == [entry]

    def test_a_line_without_its_hash_field_hashes_to_the_entry_hash(self, rng):
        sim = simulate(rng, n_challenges=2, n_teams=2, solve_prob=1.0)
        chain = sim.chain()
        lines = dump_chain(chain).split(b"\n")[:-1]
        assert len(lines) == len(chain)
        for entry, line in zip(chain, lines):
            at = line.rindex(b',"hash":"')
            cut = line[:at] + line[at + len(b',"hash":"') + 64 + 1 :]
            fields = entry.index, entry.timestamp, entry.prev_hash, entry.changeset, entry.org_sig
            assert sha256(cut) == entry_hash(*fields) == entry.hash

    def test_load_and_a_team_append_serialize_each_entry_once(self, rng, monkeypatch):
        """Besides each entry once, a load serializes each challenge
        descriptor and an accepted append its record, both to check that
        their content is canonical."""
        sim = simulate(rng, n_challenges=2, n_teams=2, solve_prob=1.0)
        data = dump_chain(sim.chain())
        changeset = register_team("Counted", rng=rng)[2]
        calls = []
        dumps = canonical.canonical_dumps
        monkeypatch.setattr(canonical, "canonical_dumps", lambda obj: calls.append(1) or dumps(obj))
        host = load_host(data)
        assert len(calls) == data.count(b"\n") + 2
        calls.clear()
        assert host.apply(changeset).index == data.count(b"\n")
        assert len(calls) == 2

    def test_single_bit_mutations_detected_sample(self, rng):
        chain, _ = _chain(rng, n_extra=6)
        raw = dump_chain(chain)
        load_host(raw)
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
                load_host(bytes(mutated))
