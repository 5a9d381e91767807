"""Property-based parity of the batched columnar enumeration pipeline.

The amortised block-at-a-time emission (repro.engine.enumerate) must
produce the *same answer multiset* as the tuple-at-a-time constant-delay
enumerator on random free-connex CQs, for every block size — the order
may differ (blocks follow key-sorted probe runs), but nothing may be
dropped, duplicated, or invented, at any chunking boundary.  On one
engine, every way of reading the answers (the planner, iteration, the
blocks, the per-answer stream) gives the same sequence, a warm read of
every prefix (served from the cached pipeline's ramp memo) gives the
cold one, and the batch probe's gathers find the same runs as
``searchsorted`` would.
"""

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.classify import plan_for
from repro.core.plancache import clear_plan_cache, plan_cache
from repro.core.planner import enumerate_answers
from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine import enumerate as block_module
from repro.engine.columnar import (
    ColumnarRelation,
    ValueDictionary,
    default_dictionary,
)
from repro.engine.enumerate import BlockIterator, _BatchProbe, batchable
from repro.enumeration.base import Enumerator
from repro.enumeration.free_connex import FreeConnexEnumerator
from repro.enumeration.full_acyclic import FullJoinEnumerator
from repro.enumeration.ucq_union import UCQEnumerator, enumerate_ucq
from repro.errors import UnsupportedQueryError
from repro.eval.naive import evaluate_cq_naive
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.jointree import JoinTree
from repro.logic.atoms import Atom
from repro.logic.cq import ConjunctiveQuery
from repro.logic.parser import parse_cq
from repro.logic.terms import Variable
from tests.conftest import at_block_size

# columnar runs repeat every test at block size 7 (tests/conftest.py)
pytestmark = pytest.mark.usefixtures("default_block_size")

BLOCK_SIZES = (1, 7, 1024)

DOMAIN = st.integers(min_value=0, max_value=4)


def _rows(draw, arity, max_rows=10):
    return draw(st.lists(
        st.tuples(*([DOMAIN] * arity)), min_size=0, max_size=max_rows))


@st.composite
def free_connex_instance(draw):
    """A random free-connex acyclic CQ with a database (tree-structured
    atom generation guarantees alpha-acyclicity; free-connexity is
    enforced by assumption)."""
    n_atoms = draw(st.integers(min_value=1, max_value=4))
    atom_vars = []
    fresh = 0
    for i in range(n_atoms):
        if i == 0:
            shared = []
        else:
            parent = atom_vars[draw(st.integers(0, i - 1))]
            shared = draw(st.lists(st.sampled_from(parent), min_size=1,
                                   max_size=len(parent), unique=True))
        n_fresh = draw(st.integers(min_value=0 if shared else 1, max_value=2))
        mine = list(shared)
        for _ in range(n_fresh):
            mine.append(Variable(f"v{fresh}"))
            fresh += 1
        atom_vars.append(draw(st.permutations(mine)))

    atoms = [Atom(f"R{i}", vs) for i, vs in enumerate(atom_vars)]
    all_vars = sorted({v for vs in atom_vars for v in vs},
                      key=lambda v: v.name)
    head = draw(st.lists(st.sampled_from(all_vars), unique=True, min_size=1,
                         max_size=len(all_vars)))
    cq = ConjunctiveQuery(head, atoms)
    assume(cq.is_free_connex())

    db = Database()
    for i, vs in enumerate(atom_vars):
        db.add_relation(Relation(f"R{i}", len(vs), _rows(draw, len(vs))))
    return cq, db


@settings(max_examples=60, deadline=None)
@given(free_connex_instance())
def test_batched_multiset_parity(instance):
    """Tuple-at-a-time vs batched columnar, block sizes {1, 7, 1024}."""
    cq, db = instance
    reference = Counter(FreeConnexEnumerator(cq, db, engine="tuple"))
    assert Counter(reference.keys()) == reference  # enumerators emit sets
    assert set(reference) == evaluate_cq_naive(cq, db)
    for block_size in BLOCK_SIZES:
        with at_block_size(block_size):
            got = Counter(FreeConnexEnumerator(cq, db, engine="columnar"))
        assert got == reference, block_size


@settings(max_examples=40, deadline=None)
@given(free_connex_instance())
def test_full_join_enumerator_batched_parity(instance):
    """FullJoinEnumerator's own batched path (projection-free joins)."""
    cq, db = instance
    assume(cq.is_quantifier_free())
    from repro.engine import get_engine

    eng = get_engine("columnar")
    relations = [eng.materialise_atom(db, atom) for atom in cq.atoms]
    tuple_rels = [r.to_varrelation() for r in relations]
    reference = Counter(FullJoinEnumerator(tuple_rels, cq.head))
    for block_size in BLOCK_SIZES:
        with at_block_size(block_size):
            enum = FullJoinEnumerator(list(relations), cq.head)
            got = Counter(enum)
            assert got == reference, block_size
            # restartable: a second pass over the same enumerator agrees
            assert Counter(enum) == reference, block_size


def _columnar_pair(dictionary):
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    r = ColumnarRelation((x, z), [(i, i % 5) for i in range(40)],
                         dictionary=dictionary)
    s = ColumnarRelation((z, y), [(i % 5, 100 + i) for i in range(40)],
                         dictionary=dictionary)
    return [r, s], (x, z, y)


def test_blocks_respect_block_size():
    relations, head = _columnar_pair(ValueDictionary())
    with at_block_size(7):
        it = BlockIterator(relations, head)
    blocks = list(it.blocks())
    assert all(0 < len(b) <= 7 for b in blocks)
    # every answer of R(x, z) |><| S(z, y) in exactly one block
    expected = Counter((x, x % 5, 100 + i) for x in range(40)
                       for i in range(40) if i % 5 == x % 5)
    assert Counter(t for b in blocks for t in b) == expected
    assert list(it.blocks()) == blocks  # restartable, same order


@pytest.mark.parametrize("reduce", [True, False])
def test_empty_non_root_relation_yields_nothing(reduce):
    d = ValueDictionary()
    (r, s), head = _columnar_pair(d)
    empty = ColumnarRelation(s.variables, dictionary=d)
    h = Hypergraph(set(head),
                   [frozenset(r.variables), frozenset(s.variables)])
    tree = JoinTree(h, root=0, parent={0: None, 1: 0})
    with at_block_size(7):
        it = BlockIterator([r, empty], head, tree=tree, reduce=reduce)
    assert list(it.blocks()) == []


def test_block_iterator_rejects_mixed_backends():
    d = ValueDictionary()
    relations, head = _columnar_pair(d)
    from repro.eval.join import VarRelation

    with pytest.raises(TypeError):
        BlockIterator([relations[0], VarRelation(relations[1].variables)],
                      head)
    with pytest.raises(TypeError):
        other = ColumnarRelation(relations[1].variables,
                                 dictionary=ValueDictionary())
        BlockIterator([relations[0], other], head)


def test_block_iterator_rejects_uncovered_head():
    relations, _head = _columnar_pair(ValueDictionary())
    with pytest.raises(ValueError):
        BlockIterator(relations, (Variable("nope"),))


def test_no_entry_point_takes_a_block_size():
    """B is the module's ``DEFAULT_BLOCK_SIZE`` and nothing else: no
    entry point takes a per-call block size, and an enumerator carries
    none of its own."""
    import inspect

    for entry in (enumerate_answers, FreeConnexEnumerator,
                  FullJoinEnumerator, BlockIterator, UCQEnumerator,
                  enumerate_ucq):
        assert "block_size" not in inspect.signature(entry).parameters, entry
    q = parse_cq("Q(x) :- R(x, z), S(z, y)")
    db = Database([Relation("R", 2, [(1, 2)]), Relation("S", 2, [(2, 3)])])
    with pytest.raises(TypeError):
        enumerate_answers(q, db, block_size=7)
    assert not hasattr(FreeConnexEnumerator(q, db), "block_size")


def test_at_block_size_leaves_no_b_or_plan_behind():
    """The sweep helper restores B and drops the plans built at its B on
    exit, even when its body raises, so no test sees another's B."""
    q = parse_cq("Q(x) :- R(x, z), S(z, y)")
    db = Database([Relation("R", 2, [(i, i % 3) for i in range(9)]),
                   Relation("S", 2, [(i % 3, i) for i in range(9)])])
    before = block_module.DEFAULT_BLOCK_SIZE
    with pytest.raises(RuntimeError):
        with at_block_size(before + 1):
            assert block_module.DEFAULT_BLOCK_SIZE == before + 1
            assert len(plan_cache()) == 0
            list(enumerate_answers(q, db, engine="columnar"))
            assert len(plan_cache()) > 0
            raise RuntimeError
    assert block_module.DEFAULT_BLOCK_SIZE == before
    assert len(plan_cache()) == 0


def test_batchable_predicate():
    d = ValueDictionary()
    relations, _ = _columnar_pair(d)
    assert batchable(relations)
    assert not batchable([])
    assert not batchable(relations + [
        ColumnarRelation((Variable("w"),), dictionary=ValueDictionary())])


def test_tuple_path_block_chunking():
    """blocks() on the tuple backend chunks the per-tuple stream."""
    q = parse_cq("Q(x, z, y) :- R(x, z), S(z, y)")
    db = Database([
        Relation("R", 2, [(i, i % 3) for i in range(9)]),
        Relation("S", 2, [(i % 3, i) for i in range(9)]),
    ])
    enum = FreeConnexEnumerator(q, db, engine="tuple")
    enum.preprocess()
    with at_block_size(4):
        blocks = list(enum._inner.blocks())
    assert all(len(b) <= 4 for b in blocks)
    assert set(t for b in blocks for t in b) == evaluate_cq_naive(q, db)


# ------------------------------------------------------- one answer stream


@settings(max_examples=40, deadline=None)
@given(free_connex_instance())
@pytest.mark.parametrize("engine", ["tuple", "columnar"])
def test_every_reading_gives_one_sequence(engine, instance):
    """The planner, iteration, concatenated blocks and the per-answer
    stream agree answer for answer on either engine."""
    cq, db = instance
    plan = plan_for(cq)
    assume(plan.route == "free-connex")
    def fresh():
        return FreeConnexEnumerator(plan.query, db, engine=engine)

    for block_size in BLOCK_SIZES:
        with at_block_size(block_size):
            planned = list(enumerate_answers(cq, db, engine=engine))
            enum = fresh()
            enum.preprocess()
            per_answer = list(enum._enumerate())
            assert list(fresh()) == planned, block_size
            blocks = list(fresh().blocks())
        assert all(blocks), block_size
        assert [a for b in blocks for a in b] == planned, block_size
        assert per_answer == planned, block_size


def _take(cq, db, k):
    return list(itertools.islice(enumerate_answers(cq, db), k))


@settings(max_examples=40, deadline=None)
@given(free_connex_instance())
def test_a_warm_read_of_every_prefix_equals_the_first(instance):
    """Prefixes read in order on a cold plan cache (the pipeline
    memoises its ramp blocks as they grow), then read again warm, are
    the same answers in the same order as one cold scan."""
    cq, db = instance
    clear_plan_cache()
    full = list(enumerate_answers(cq, db))
    ks = sorted({*range(min(len(full), 200) + 2), len(full)})
    clear_plan_cache()
    first = [_take(cq, db, k) for k in ks]
    warm = [_take(cq, db, k) for k in ks]
    assert first == [full[:k] for k in ks]
    assert warm == first


def test_unsupported_query_raises_at_first_next():
    it = enumerate_answers(42, Database())
    with pytest.raises(UnsupportedQueryError):
        next(it)


def test_one_answer_builds_one_block():
    q = parse_cq("Q(x, z, y) :- R(x, z), S(z, y)")
    db = Database([
        Relation("R", 2, [(i, i % 3) for i in range(30)]),
        Relation("S", 2, [(i % 3, i) for i in range(30)]),
    ])
    with at_block_size(7), obs.capture() as t:
        it = enumerate_answers(q, db, engine="columnar")
        assert "enum.blocks" not in t.counters  # nothing ran yet
        next(it)
    assert t.counters["enum.blocks"] == 1
    assert t.counters["enum.answers"] == 7


class _Steps(Enumerator):
    """A per-answer enumerator that counts its own steps."""

    def __init__(self, n):
        super().__init__()
        self.n = n
        self.steps = 0

    def _preprocess(self):
        pass

    def _enumerate(self):
        for i in range(self.n):
            self.steps += 1
            yield (i,)


def test_chunked_blocks_grow_from_one_answer():
    """Per-answer enumerators: the first answer costs one step, k
    answers fewer than 2k, and blocks double up to the block size."""
    e = _Steps(100)
    next(iter(e))
    assert e.steps == 1
    e = _Steps(100)
    assert list(itertools.islice(e, 10)) == [(i,) for i in range(10)]
    assert e.steps < 20
    e = _Steps(100)
    with at_block_size(16):
        assert [len(b) for b in e.blocks()] == [1, 2, 4, 8, 16, 16, 16, 16,
                                                16, 5]


def test_decode_table_is_current_after_preprocess():
    """A rebuild of the decode table is O(|dom|): preprocessing pays it,
    on a cold build and on a plan-cache hit, never the first block."""
    q = parse_cq("Q(x, z, y) :- R(x, z), S(z, y)")
    db = Database([
        Relation("R", 2, [(i, i % 3) for i in range(30)]),
        Relation("S", 2, [(i % 3, i) for i in range(30)]),
    ])
    dictionary = default_dictionary()
    for round_ in range(2):  # cold build, then a plan-cache hit
        for i in range(50):
            dictionary.encode(("fresh value", round_, i))
        enum = FreeConnexEnumerator(q, db, engine="columnar")
        enum.preprocess()
        table = dictionary._table
        assert table is not None and len(table) == len(dictionary)
        next(iter(enum))
        assert dictionary._table is table, round_


# ----------------------------------------------------------- batch probes


def _searchsorted_reference(probe):
    """The same probe with its rank tables and offsets dropped, so every
    lookup takes the ``searchsorted`` path."""
    ref = _BatchProbe.__new__(_BatchProbe)
    ref.nrows, ref.order = probe.nrows, probe.order
    ref.sorted_keys = probe.sorted_keys
    ref.steps = [(su, None, cu, None) for su, _st, cu, _ct in probe.steps]
    ref.offsets = None
    return ref


def _assert_lookups_agree(probe, columns, keys):
    """``lookup`` equals the searchsorted reference, and each run holds
    exactly the rows with that key, in row order."""
    keys = [np.asarray(k, dtype=np.int64) for k in keys]
    lo, counts = probe.lookup(keys, len(keys[0]))
    ref_lo, ref_counts = _searchsorted_reference(probe).lookup(
        keys, len(keys[0]))
    assert counts.tolist() == ref_counts.tolist()
    hit = counts > 0
    assert lo[hit].tolist() == ref_lo[hit].tolist()
    for i in range(len(keys[0])):
        rows = probe.order[lo[i]:lo[i] + counts[i]].tolist()
        assert rows == [r for r in range(probe.nrows)
                        if all(c[r] == k[i] for c, k in zip(columns, keys))]


def test_probe_sparse_column_falls_back_to_searchsorted():
    col = np.array([5_000_000, 0, 5_000_000, 70_000, 0], dtype=np.int64)
    probe = _BatchProbe([col], len(col))
    assert probe.steps[0][3] is None  # too sparse for a rank table
    _assert_lookups_agree(probe, [col],
                          [[0, 70_000, 5_000_000, 3, 6_000_000, 0]])


def test_probe_wide_two_column_key_falls_back_to_searchsorted():
    n = 3000
    a = np.arange(n, dtype=np.int64)
    b = (a * 7919) % n
    probe = _BatchProbe([a, b], n)
    assert probe.steps[0][3] is not None and probe.steps[1][3] is not None
    assert probe.offsets is None  # n * n packed keys: too sparse
    _assert_lookups_agree(probe, [a, b],
                          [[0, 1, 2, 5, n - 1, 7], [0, 7919 % n, 5, 1, 0, 0]])


def test_probe_dense_gathers():
    a = np.array([3, 1, 3, 2, 1, 3], dtype=np.int64)
    b = np.array([0, 0, 1, 0, 0, 1], dtype=np.int64)
    probe = _BatchProbe([a, b], len(a))
    assert probe.offsets is not None
    assert all(step[3] is not None for step in probe.steps)
    _assert_lookups_agree(probe, [a, b],
                          [[3, 1, 2, 3, 0, 4], [1, 0, 0, 0, 0, 1]])
    single = _BatchProbe([a], len(a))
    _assert_lookups_agree(single, [a], [[3, 1, 2, 0, 4]])


def test_probe_codes_past_the_table_count_zero():
    """Codes above every table's end — e.g. values interned after the
    probe was built — find no rows instead of raising IndexError."""
    a = np.array([0, 1, 2, 2], dtype=np.int64)
    b = np.array([1, 1, 0, 1], dtype=np.int64)
    for cols, keys in (([a], [[2, 4, 10_000, 10 ** 12]]),
                       ([a, b], [[2, 2, 10 ** 12, 1], [1, 10 ** 12, 1, 10]])):
        probe = _BatchProbe(cols, len(a))
        _lo, counts = probe.lookup(
            [np.asarray(k, dtype=np.int64) for k in keys], len(keys[0]))
        assert counts.tolist()[1:] == [0] * (len(keys[0]) - 1)
        assert counts[0] > 0
