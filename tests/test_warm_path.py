"""The warm path does no preprocessing twice.

A repeated ``decide`` reads its verdict from the plan cache, a repeated
unweighted count reads its total from its slot and runs no kernel, the
counting DP that a weighted count reruns reads its grouping, and each
unweighted leaf's message (its group sizes), from the relations' probe
caches, and the batched pipeline's blocks ramp from 64 answers up to B,
so the first answers cost less than a whole block.  The ramp's decoded
blocks are memoised on the cached pipeline, so a warm first-100 copies
them and walks nothing.  Each check compares against a naive count or
answer set, a write that must rebuild, a cold stream, or the stream of
exactly-B blocks.  The memos and the ramp exist on the columnar engine
only, so those tests force it.
"""

import itertools
import random

import numpy as np
import pytest

from repro import obs
from repro.core.plancache import clear_plan_cache, plan_cache
from repro.core.planner import count, decide, enumerate_answers
from repro.counting.acq_count import (
    count_cq_naive,
    count_full_acyclic_join,
    derive_counting_join,
)
from repro.counting.weighted import WeightFunction
from repro.data.database import Database
from repro.data.relation import Relation
from repro.dynamic.delta import DeltaCounter
from repro.engine import enumerate as block_module
from repro.engine import use_engine
from repro.engine.columnar import default_dictionary
from repro.enumeration.free_connex import FreeConnexEnumerator
from repro.eval.naive import evaluate_cq_naive
from repro.eval.yannakakis import materialise_atoms
from repro.logic.parser import parse_cq
from tests.conftest import at_block_size

PATH3 = "Q(x, y, z, w) :- R(x, y), S(y, z), T(z, w)"
SELFJOIN = "Q(x, y, z, w) :- R(x, y), R(y, z), R(z, w)"
PROJ = "Q(x, z) :- R(x, y), S(y, z), T(z, w)"
PREFIX = "Q(x, y, z) :- R(x, y), S(y, z), T(z, w)"
# a one-node join tree, and a root with three leaves, two of which join
# it on the same column
SINGLE = "Q(x, y) :- R(x, y)"
STAR = "Q(x, y, z, w, u) :- R(x, y), S(x, z), T(y, w), S(y, u)"
COUNTED = [PATH3, SELFJOIN, PROJ, SINGLE, STAR]
ENGINES = pytest.mark.parametrize("engine", ["tuple", "columnar"])
# dyadic weights: every product and sum the counts form is exact in
# float64, so the columnar kernel and the naive sum agree bit for bit
WEIGHTED = {"integral": WeightFunction(lambda v: v % 3 + 1),
            "dyadic": WeightFunction(lambda v: (v % 5) * 0.25 + 0.5)}
WEIGHTS = pytest.mark.parametrize(
    "weights", [None, *WEIGHTED.values()], ids=["unweighted", *WEIGHTED])
# B -> the ramp before the first block of exactly B answers
RAMPS = {7: [], 64: [], 100: [64], 1024: [64, 128, 256, 512]}


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def _db(n=60, domain=15, seed=0, base=0):
    rng = random.Random(seed)
    return Database([
        Relation(name, 2, [(base + rng.randrange(domain),
                            base + rng.randrange(domain))
                           for _ in range(n)])
        for name in "RST"])


#: an add, then a delete, on each of R, S and T
WRITES = 6


def _write(db, step):
    """Write ``step``: an even step adds a tuple over the relation's
    values that it lacks, an odd one deletes every tuple sharing a
    value with its first tuple, so keys leave the relation."""
    rel = list(db)[step // 2]
    first = next(iter(rel))
    if step % 2:
        for t in [t for t in rel if t[0] == first[0] or t[1] == first[1]]:
            rel.discard(t)
    else:
        values = sorted({v for t in rel for v in t})
        rel.add(next(t for t in itertools.product(values, repeat=2)
                     if t not in rel))


# ------------------------------------------------------------------ decide


@ENGINES
def test_second_decide_is_a_plan_cache_hit(engine):
    q = parse_cq("Q() :- R(x, y), S(y, z), T(z, w)")
    db = _db()
    with use_engine(engine):
        with obs.capture() as cold:
            assert decide(q, db)
        hits = plan_cache().hits
        with obs.capture() as warm:
            assert decide(q, db)
    assert [s for s in cold.spans if s.name == "yannakakis.semijoin"]
    assert plan_cache().hits == hits + 1
    assert warm.counters.get("plancache.hits") == 1
    assert "plancache.misses" not in warm.counters
    assert not [s for s in warm.spans if s.name == "yannakakis.semijoin"]


@ENGINES
@pytest.mark.parametrize("text, relation, witness", [
    ("Q() :- R(x, y), S(y, z)", "S", (2, 5)),
    ("Q() :- E(x, y), E(y, z), E(z, x)", "E", (3, 1)),
], ids=["acyclic", "cyclic"])
def test_a_write_rebuilds_the_verdict(engine, text, relation, witness):
    """The last witness goes, then comes back: each write flips a
    verdict that was served warm just before it."""
    db = Database([Relation("R", 2, [(1, 2), (3, 4)]),
                   Relation("S", 2, [(2, 5), (9, 9)]),
                   Relation("E", 2, [(1, 2), (2, 3), (3, 1), (3, 4)])])
    q = parse_cq(text)
    rel = db.relation(relation)
    with use_engine(engine):
        assert decide(q, db) and decide(q, db)
        rel.discard(witness)
        assert not decide(q, db) and not decide(q, db)
        rel.add(witness)
        assert decide(q, db) and decide(q, db)


# ------------------------------------------------------------------- count


@ENGINES
@pytest.mark.parametrize("text", COUNTED)
def test_second_count_reads_the_cached_total(engine, text):
    """The cold count runs the DP; the warm one returns the total its
    slot holds, with no probe-cache lookup and no message passing."""
    q = parse_cq(text)
    db = _db()
    with use_engine(engine):
        with obs.capture() as cold:
            expected = count(q, db)
        with obs.capture() as warm:
            assert count(q, db) == expected
    assert expected == count_cq_naive(q, db)
    assert [s.attrs["backend"] for s in cold.spans
            if s.name == "count.message_passing"] == [engine]
    assert not [s for s in warm.spans if s.name == "count.message_passing"]
    assert not [key for key in warm.counters
                if key.startswith("kernel.probe_cache_")]


@ENGINES
@WEIGHTS
@pytest.mark.parametrize("text", COUNTED)
def test_counts_after_each_write_match_the_naive_count(engine, weights,
                                                       text):
    q = parse_cq(text)
    db = _db()
    with use_engine(engine):
        for step in range(WRITES):
            assert count(q, db, weights) == count_cq_naive(q, db, weights)
            _write(db, step)
            assert count(q, db, weights) == count_cq_naive(q, db, weights)


@ENGINES
@pytest.mark.parametrize("weights", WEIGHTED.values(), ids=list(WEIGHTED))
@pytest.mark.parametrize("text", COUNTED)
def test_a_weighted_count_never_reads_the_cached_total(engine, weights,
                                                        text):
    """Weighted counts before and after the unweighted one that fills
    the slot run their own DP and sum the weights."""
    q = parse_cq(text)
    db = _db()
    expected = count_cq_naive(q, db, weights)
    with use_engine(engine):
        assert count(q, db, weights) == expected
        assert count(q, db) == count_cq_naive(q, db)
        assert count(q, db, weights) == expected


def _entries():
    """The kinds and values of the plan cache's live entries."""
    return [(key[0], value) for key, value in plan_cache()._entries.items()]


@ENGINES
@pytest.mark.parametrize("text, expected", [
    (PROJ, None),
    ("Q() :- R(x, y), S(y, z), T(z, w)", 1),
    ("Q(x, z) :- R(x, y), S(y, z), T(z, 99)", 0),
    ("Q(x, y, z) :- R(x, y), S(y, z), T(z, 99)", 0),
], ids=["projected", "boolean", "unsatisfiable-projected",
        "unsatisfiable-full"])
def test_a_count_keeps_one_entry_holding_its_total(engine, text, expected):
    """The cold count builds one entry, the slot holding its total (1
    for a satisfiable Boolean query, 0 for one with no answer), and the
    warm count reads it: a projected count keeps no derived join and no
    reduced atoms beside it."""
    q = parse_cq(text)
    db = _db()
    total = count_cq_naive(q, db)
    assert expected in (None, total)
    with use_engine(engine):
        for run in ("cold", "warm"):
            with obs.capture() as t:
                assert count(q, db) == total
            builds = [s.attrs["kind"] for s in t.spans
                      if s.name == "plan.build"]
            assert builds == (["count"] if run == "cold" else []), run
            assert _entries() == [("count", total)]


@ENGINES
@pytest.mark.parametrize("text, seeds", [(PROJ, False), (PATH3, True)],
                         ids=["projected", "quantifier-free"])
def test_after_a_write_the_slot_rebuilds_or_seeds(engine, text, seeds):
    """A write turns a quantifier-free count's total into a seeded
    :class:`DeltaCounter`; a projected count has no maintained state
    and rebuilds its total cold."""
    q = parse_cq(text)
    db = _db()
    with use_engine(engine):
        assert count(q, db) == count_cq_naive(q, db)
        for step in range(WRITES):
            _write(db, step)
            with obs.capture() as t:
                assert count(q, db) == count_cq_naive(q, db)
            builds = [s.attrs["kind"] for s in t.spans
                      if s.name == "plan.build"]
            seeded = sum(s.name == "delta.counter_build" for s in t.spans)
            (kind, value), = _entries()
            assert kind == "count"
            assert isinstance(value, DeltaCounter) == seeds
            if seeds:
                assert (builds, seeded) == ([], step == 0)
            else:
                assert (builds, seeded) == (["count"], 0)


def _group_sizes(relations):
    """The group sizes the counting DP has built on ``relations``, by
    relation schema and memo key: one array per unweighted leaf it
    counted."""
    return {(tuple(map(str, rel.variables)), key): entry._sizes
            for rel in relations
            for key, (_against, entry) in rel._probecache.items()
            if key[0] == "dp_group" and entry._sizes is not None}


@pytest.mark.parametrize("text", [PATH3, PROJ, SINGLE, STAR])
def test_warm_counts_share_each_leafs_read_only_group_sizes(text):
    """The DP over the cached derived join, the one a weighted count
    reruns, reads each unweighted leaf's group sizes back from the
    unchanged columns' probe caches."""
    q = parse_cq(text)
    db = _db()

    def dp():
        derived = derive_counting_join(q, db, engine="columnar")
        return count_full_acyclic_join(derived), _group_sizes(derived)

    expected, first = dp()
    total, second = dp()
    assert total == expected
    leaves = {PATH3: 2, PROJ: 1, SINGLE: 1, STAR: 3}[text]
    assert len(first) == leaves and first.keys() == second.keys()
    for key, sizes in first.items():
        assert second[key] is sizes
        assert not sizes.flags.writeable
        with pytest.raises(ValueError):
            sizes[0] += 1
    assert expected == count_cq_naive(q, db)


def test_a_write_to_a_leaf_rebuilds_its_group_sizes():
    """``T(z, w)`` is a leaf of PATH3's join tree: after a write to
    ``T`` its group sizes are a fresh array and the count is the naive
    one.  The counts take the cold path directly: after a write,
    ``count`` would seed the maintained state instead."""
    q = parse_cq(PATH3)
    db = _db()

    def cold_count():
        return count_full_acyclic_join(derive_counting_join(q, db))

    def group_sizes():
        return _group_sizes(derive_counting_join(q, db, engine="columnar"))

    with use_engine("columnar"):
        cold_count()
        before = group_sizes()
        for step in (4, 5):             # an add to T, then a delete
            _write(db, step)
            assert cold_count() == count_cq_naive(q, db)
            after = group_sizes()
            (leaf,) = [key for key in after if key[0] == ("z", "w")]
            assert after[leaf] is not before[leaf]
            before = after


@ENGINES
@pytest.mark.parametrize("text", [PATH3, SINGLE, STAR])
def test_a_leaf_emptied_by_deletes_counts_zero(engine, text):
    """The last atom of each query is a leaf of its join tree (the
    root of SINGLE's): its relation is emptied after a warm count."""
    q = parse_cq(text)
    db = _db()
    rel = db.relation(q.atoms[-1].relation)
    with use_engine(engine):
        assert count(q, db) == count(q, db) > 0
        for row in list(rel):
            rel.discard(row)
        assert count(q, db) == 0 == count_cq_naive(q, db)
        assert count_full_acyclic_join(materialise_atoms(q, db)) == 0


@WEIGHTS
@pytest.mark.parametrize("text", [PATH3, SELFJOIN])
def test_materialised_atoms_count_right_after_writes(weights, text):
    """Unreduced atoms keep their symbol's probe cache until that symbol
    is written: a write to one relation leaves the others' groupings
    and gathers in place, so a gather must notice that its child
    changed.  The data's values are encoded after 5,000 others, so
    their codes lie far past the relations' sizes and each node's
    groups are numbered by the rank of their key: a write that deletes
    a key renumbers the groups after it, and a gather kept from before
    it would point at the wrong groups.  The self-join's three atoms
    share one probe cache, so all three nodes' groupings and both
    edges' gathers live in one dict.  Cold, warm and after each write,
    the count is the naive one."""
    dictionary = default_dictionary()
    filler = 10 ** 12 + len(dictionary)
    dictionary.encode_column(np.arange(filler, filler + 5_000,
                                       dtype=np.int64))
    q = parse_cq(text)
    db = _db(base=10 ** 13 + len(dictionary))
    for step in range(WRITES + 1):
        if step:
            _write(db, step - 1)
        for _run in ("cold", "warm"):
            rels = materialise_atoms(q, db, "columnar")
            if text == SELFJOIN:
                assert rels[0]._probecache is rels[1]._probecache
                assert rels[1]._probecache is rels[2]._probecache
            assert count_full_acyclic_join(rels, weights) == \
                count_cq_naive(q, db, weights)


def test_weight_table_follows_the_count_not_the_dictionary():
    """A weighted count's table holds the counted relations' distinct
    values, however many values the process-wide dictionary has
    encoded for other databases."""
    dictionary = default_dictionary()
    base = 10 ** 12 + len(dictionary)
    dictionary.encode_column(np.arange(base, base + 50_000, dtype=np.int64))
    # every row takes part in an answer, so the counted relations hold
    # exactly these values
    r = [(i, i % 5) for i in range(20)]
    s = [(i % 5, 100 + i) for i in range(10)]
    db = Database([Relation("R", 2, r), Relation("S", 2, s)])
    q = parse_cq("Q(x, y, z) :- R(x, y), S(y, z)")
    w = WeightFunction(lambda v: v % 3 + 1)
    with obs.capture() as t:
        got = count(q, db, w, engine="columnar")
    assert len(dictionary) > 50_000
    assert got == count_cq_naive(q, db, w)
    values = {v for row in r + s for v in row}
    assert t.gauges["weights.code_table_size"] == len(values)


# ------------------------------------------------------------------ blocks


def _block_db():
    """Enough answers of PREFIX for every ramp, two blocks of B and a
    shorter tail."""
    return _db(n=1500, domain=300, seed=4)


def _blocks(db):
    e = FreeConnexEnumerator(parse_cq(PREFIX), db, engine="columnar")
    return list(e.blocks())


@pytest.mark.parametrize("block_size", sorted(RAMPS))
def test_columnar_blocks_ramp_up_to_b(block_size):
    with at_block_size(block_size):
        sizes = [len(b) for b in _blocks(_block_db())]
    ramp = RAMPS[block_size]
    full, tail = divmod(sum(sizes) - sum(ramp), block_size)
    assert full >= 2 and tail > 0
    assert sizes == ramp + [block_size] * full + [tail]


def test_the_first_block_expands_small_chunks():
    """Each level of the walk ramps its chunks too: the first block's
    expansions each take at most 64 rows, not B."""
    db = _block_db()
    e = FreeConnexEnumerator(parse_cq(PREFIX), db, engine="columnar")
    e.preprocess()
    with obs.capture() as t:
        assert len(next(e.blocks())) == 64
    rows_in = [s.attrs["rows_in"] for s in t.spans if s.name == "block.expand"]
    assert rows_in and max(rows_in) <= 64


@pytest.mark.parametrize("block_size", sorted(RAMPS))
def test_ramped_stream_is_the_exact_block_stream(block_size, monkeypatch):
    """The ramp changes the block sizes, never the answers or their
    order: the stream is the one exactly-B blocks give, and every
    prefix ``islice`` takes is its prefix."""
    db = _block_db()
    q = parse_cq(PREFIX)
    with at_block_size(block_size):
        ramped = _prefix(q, db, None)
        prefixes = {k: _prefix(q, db, k) for k in (1, 63, 64, 65, 100, 1025)}
        monkeypatch.setattr(block_module, "RAMP_START", block_size)
        # an iterator reads RAMP_START when it is built: build a fresh one
        clear_plan_cache()
        exact_blocks = _blocks(db)
    assert {len(b) for b in exact_blocks[:-1]} == {block_size}
    exact = [a for b in exact_blocks for a in b]
    assert len(exact) > 1025
    assert ramped == exact
    for k, prefix in prefixes.items():
        assert prefix == exact[:k], k


def test_interleaved_streams_keep_their_own_ramp():
    """Two streams over one cached pipeline, advanced in turn, each
    get the block sizes they get alone."""
    db = _block_db()
    q = parse_cq(PREFIX)
    first, second = (FreeConnexEnumerator(q, db, engine="columnar")
                     for _ in range(2))
    first.preprocess()
    second.preprocess()
    assert first._inner is second._inner
    alone = list(first.blocks())
    assert [len(b) for b in alone[:2]] == [64, 128]
    streams = ([], [])
    # zip_longest takes one block of each stream in turn
    for pair in itertools.zip_longest(first.blocks(), second.blocks()):
        for got, block in zip(streams, pair):
            if block is not None:
                got.append(block)
    assert streams == (alone, alone)


# ------------------------------------------------------------- ramp memo


def _iterator(q, db):
    """The cached pipeline's block iterator for ``q`` on ``db``."""
    e = FreeConnexEnumerator(q, db, engine="columnar")
    e.preprocess()
    return e._inner._block_iter


def _prefix(q, db, k):
    return list(itertools.islice(enumerate_answers(q, db, engine="columnar"),
                                 k))


PREFIXES = (1, 63, 64, 65, 100, 192, 960, 961)


@pytest.mark.parametrize("block_size", sorted(RAMPS))
def test_warm_prefixes_equal_the_cold_stream(block_size):
    """Prefixes read while the memo fills, then again once it is full,
    and full scans, all equal the stream a cold pipeline gives."""
    db = _block_db()
    q = parse_cq(PREFIX)
    with at_block_size(block_size):
        cold = _prefix(q, db, None)
        assert len(cold) > 961 + 2 * block_size
        clear_plan_cache()
        for memo in ("filling", "full"):
            for k in PREFIXES:
                assert _prefix(q, db, k) == cold[:k], (memo, k)
            assert _prefix(q, db, None) == cold, memo
        memo = _iterator(q, db)._ramp
    assert [len(b) for b in memo] == RAMPS[block_size]


@pytest.mark.parametrize("edit", ["clear", "append"])
def test_a_consumer_cannot_alter_the_memo(edit):
    """Editing a yielded block, the one its first consumer decoded or a
    copy of the memo, changes nothing the next consumer reads."""
    db = _block_db()
    q = parse_cq(PREFIX)
    cold = _prefix(q, db, None)
    clear_plan_cache()
    for _consumer in range(2):
        it = _iterator(q, db)
        for block in itertools.islice(it.blocks(), 5):
            if edit == "clear":
                block.clear()
            else:
                block.append(("not", "an", "answer"))
        assert _prefix(q, db, None) == cold


@pytest.mark.parametrize("block_size", sorted(RAMPS))
@pytest.mark.parametrize("taken", [1, 65, 200])
def test_a_full_scan_after_a_consumer_left_mid_ramp(block_size, taken):
    """A consumer leaves after ``taken`` answers, part-way through the
    ramp; a second takes more than the memo holds and leaves too; a
    full scan then serves the memo, walks past it and equals the cold
    stream."""
    db = _block_db()
    q = parse_cq(PREFIX)
    with at_block_size(block_size):
        cold = _prefix(q, db, None)
        clear_plan_cache()
        assert _prefix(q, db, taken) == cold[:taken]
        assert _prefix(q, db, 2 * taken) == cold[:2 * taken]
        assert _prefix(q, db, None) == cold


def test_interleaved_consumers_fill_the_memo_once():
    """Two consumers walk a cold iterator in turn, each past the blocks
    the other memoised: every ramp block lands in the memo once, in
    order, and both read the cold blocks."""
    db = _block_db()
    q = parse_cq(PREFIX)
    cold = _blocks(db)
    clear_plan_cache()
    it = _iterator(q, db)
    first, second = it.blocks(), it.blocks()
    got = ([], [])
    for reader in (0, 1, 1, 0, 0, 1, 1, 0, 0, 1):
        got[reader].append(next((first, second)[reader]))
    assert got == (cold[:5], cold[:5])
    assert [list(b) for b in it._ramp] == cold[:4]
    assert _prefix(q, db, None) == [a for b in cold for a in b]


def test_a_built_iterator_keeps_its_ramp_start(monkeypatch):
    """An iterator reads ``RAMP_START`` and ``DEFAULT_BLOCK_SIZE`` when
    it is built: patched after a consumer memoised part of the ramp, the
    cached iterator's later walks still cut the blocks of its memo, and
    only a fresh plan takes the new start and B."""
    db = _block_db()
    q = parse_cq(PREFIX)
    cold = _blocks(db)
    clear_plan_cache()
    assert _prefix(q, db, 100) == [a for b in cold for a in b][:100]
    # patched in place, not through at_block_size, which would clear
    # the plan cache and with it the iterator under test
    monkeypatch.setattr(block_module, "RAMP_START", 32)
    monkeypatch.setattr(block_module, "DEFAULT_BLOCK_SIZE", 100)
    assert _blocks(db) == cold
    clear_plan_cache()
    assert [len(b) for b in _blocks(db)[:4]] == [32, 64, 100, 100]


def _chain_db(n):
    """``Q(x, y, z) :- R(x, y), S(y, z)`` on this database has exactly
    ``n`` answers: each ``y`` has one ``S`` row."""
    return Database([Relation("R", 2, [(i, i % 10) for i in range(n)]),
                     Relation("S", 2, [(j, -j) for j in range(10)])])


@pytest.mark.parametrize("block_size, n, sizes", [
    (1024, 100, [64, 36]),
    (1024, 960, [64, 128, 256, 512]),
    (100, 30, [30]),
    (100, 64, [64]),
], ids=["inside-1024", "last-block-1024", "inside-100", "last-block-100"])
@pytest.mark.parametrize("first_reads", ["all", "exactly-n"])
def test_a_stream_that_ends_in_the_ramp(block_size, n, sizes, first_reads):
    """A stream that ends inside the ramp, or exactly at its last
    block.  A later scan serves the whole stream from the memo, whether
    the first consumer read to the end or stopped at the last answer."""
    db = _chain_db(n)
    q = parse_cq("Q(x, y, z) :- R(x, y), S(y, z)")
    expected = evaluate_cq_naive(q, db)
    with at_block_size(block_size):
        it = _iterator(q, db)
        if first_reads == "all":
            first = list(it.blocks())
        else:
            first = list(itertools.islice(it.blocks(), len(sizes)))
        assert [len(b) for b in first] == sizes
        cold = [a for b in first for a in b]
        assert len(cold) == n and set(cold) == expected
        for _ in range(2):
            with obs.capture() as t:
                assert _prefix(q, db, None) == cold
            assert t.counters["enum.ramp_hits"] == len(sizes)
    assert [len(b) for b in it._ramp] == sizes


@ENGINES
@pytest.mark.parametrize("block_size", sorted(RAMPS))
def test_after_a_write_the_first_100_are_the_naive_answers(engine,
                                                          block_size):
    """Fewer than 100 answers, so a first-100 is the whole answer set:
    after each add or discard it equals the naive answers, though the
    memo of the plan before the write was full."""
    db = _db(n=40, domain=20)
    q = parse_cq(PREFIX)
    with use_engine(engine), at_block_size(block_size):
        for step in range(WRITES + 1):
            if step:
                _write(db, step - 1)
            expected = evaluate_cq_naive(q, db)
            assert 0 < len(expected) < 100
            for run in ("cold", "warm"):
                got = list(itertools.islice(enumerate_answers(q, db), 100))
                assert len(got) == len(set(got))
                assert set(got) == expected, (step, run)


@pytest.mark.parametrize("block_size",
                         [1, 7, 63, 64, 65, 100, 129, 1000, 1024])
def test_the_memo_holds_fewer_than_2b_answers(block_size):
    """After a full scan the memo holds the ramp: fewer than 2B
    answers, in blocks each shorter than B."""
    db = _block_db()
    q = parse_cq(PREFIX)
    with at_block_size(block_size):
        _prefix(q, db, None)
        memo = [len(b) for b in _iterator(q, db)._ramp]
    assert sum(memo) < 2 * block_size
    assert all(size < block_size for size in memo)
    if block_size in RAMPS:
        assert memo == RAMPS[block_size]


def test_a_warm_first_100_reads_two_memo_blocks():
    """``enum.ramp_hits`` counts the blocks served from the memo: none
    on a cold first-100, which expands its chunks; both of a warm one's
    blocks (64 and 128 answers), with no expansion."""
    db = _block_db()
    q = parse_cq(PREFIX)
    with obs.capture() as cold:
        first = _prefix(q, db, 100)
    with obs.capture() as warm:
        assert _prefix(q, db, 100) == first
    assert "enum.ramp_hits" not in cold.counters
    assert [s for s in cold.spans if s.name == "block.expand"]
    assert warm.counters["enum.ramp_hits"] == 2
    assert warm.counters["enum.answers"] == 64 + 128
    assert not [s for s in warm.spans if s.name == "block.expand"]
