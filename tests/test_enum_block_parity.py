"""Property-based parity of the batched columnar enumeration pipeline.

The amortised block-at-a-time emission (repro.engine.enumerate) must
produce the *same answer multiset* as the tuple-at-a-time constant-delay
enumerator on random free-connex CQs, for every block size — the order
may differ (blocks follow key-sorted probe runs), but nothing may be
dropped, duplicated, or invented, at any chunking boundary.
"""

from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine.columnar import ColumnarRelation, ValueDictionary
from repro.engine.enumerate import (
    BlockIterator,
    batchable,
    resolve_block_size,
)
from repro.enumeration.free_connex import FreeConnexEnumerator
from repro.enumeration.full_acyclic import FullJoinEnumerator
from repro.eval.naive import evaluate_cq_naive
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.jointree import JoinTree
from repro.logic.atoms import Atom
from repro.logic.cq import ConjunctiveQuery
from repro.logic.parser import parse_cq
from repro.logic.terms import Variable

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
    reference = Counter(FreeConnexEnumerator(cq, db, engine="tuple",
                                             block_size=0))
    assert Counter(reference.keys()) == reference  # enumerators emit sets
    assert set(reference) == evaluate_cq_naive(cq, db)
    for block_size in BLOCK_SIZES:
        got = Counter(FreeConnexEnumerator(cq, db, engine="columnar",
                                           block_size=block_size))
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
    reference = Counter(FullJoinEnumerator(tuple_rels, cq.head, block_size=0))
    for block_size in BLOCK_SIZES:
        enum = FullJoinEnumerator(list(relations), cq.head,
                                  block_size=block_size)
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
    it = BlockIterator(relations, head, block_size=7)
    blocks = list(it.blocks())
    assert all(len(b) <= 7 for b in blocks)
    assert sum(len(b) for b in blocks) == len(list(it))
    # every answer in exactly one block
    assert Counter(t for b in blocks for t in b) == Counter(it)


@pytest.mark.parametrize("reduce", [True, False])
def test_empty_non_root_relation_yields_nothing(reduce):
    d = ValueDictionary()
    (r, s), head = _columnar_pair(d)
    empty = ColumnarRelation(s.variables, dictionary=d)
    h = Hypergraph(set(head),
                   [frozenset(r.variables), frozenset(s.variables)])
    tree = JoinTree(h, root=0, parent={0: None, 1: 0})
    it = BlockIterator([r, empty], head, block_size=7, tree=tree,
                       reduce=reduce)
    assert list(it) == []
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


def test_resolve_block_size_env(monkeypatch):
    monkeypatch.delenv("REPRO_BLOCK_SIZE", raising=False)
    assert resolve_block_size(None) == 1024
    assert resolve_block_size(32) == 32
    assert resolve_block_size(0) == 0
    monkeypatch.setenv("REPRO_BLOCK_SIZE", "77")
    assert resolve_block_size(None) == 77
    monkeypatch.setenv("REPRO_BLOCK_SIZE", "junk")
    with pytest.raises(ValueError):
        resolve_block_size(None)


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
    enum = FreeConnexEnumerator(q, db, engine="tuple", block_size=4)
    enum.preprocess()
    blocks = list(enum._inner.blocks())
    assert all(len(b) <= 4 for b in blocks)
    assert set(t for b in blocks for t in b) == evaluate_cq_naive(q, db)
