"""Parity and unit tests for engine-wide per-symbol work sharing.

Self-join queries name one stored relation through several atoms, and
the stored relation's memo (:mod:`repro.engine.symbols`) shares one
build (one dictionary encode, one probe structure, one masked column
set) per relation version across all of them.  Sharing must be
invisible: every backend must return exactly the answers of the naive
evaluator — including duplicate-variable atoms ``R(x, x)``, constant
atoms ``R(3, y)``, and interleaved updates that drop the memo
mid-stream — and must enumerate in the same order whether the memo is
built or serves the run.  The classifier half pins the
Carmeli–Segoufin self-join analysis: core-based verdicts are decisive,
not hedged with the old "lower bound stated for self-join-free queries"
caveat.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classify import classify
from repro.core.plancache import clear_plan_cache, plan_cache
from repro.counting.acq_count import count_acq
from repro.data.database import Database
from repro.data.relation import Relation
from repro import obs
from repro.engine.base import ColumnarEngine, TupleEngine
from repro.engine.columnar import (ValueDictionary, default_dictionary,
                                   encoded_relation_columns)
from repro.engine.symbols import atom_signature, shared
from repro.enumeration.free_connex import FreeConnexEnumerator
from repro.eval.join import atom_to_varrelation
from repro.eval.naive import cq_is_satisfiable_naive, evaluate_cq_naive
from repro.eval.yannakakis import full_reducer, yannakakis, yannakakis_boolean
from repro.logic.atoms import Atom
from repro.logic.cq import ConjunctiveQuery
from repro.logic.parser import parse_cq
from repro.logic.terms import Constant, Variable
from repro.obs.fitting import expected_verdict

ENGINES = ("tuple", "columnar")

DOMAIN = st.integers(min_value=0, max_value=4)


@st.composite
def selfjoin_instance(draw):
    """A random *acyclic* self-join CQ over one binary symbol ``R``, plus
    a random database.  Atoms grow tree-shaped (each new atom hangs off
    one existing variable), which keeps the variable graph a forest and
    hence the query alpha-acyclic; the second term is a fresh variable,
    the anchor again (``R(v, v)``), or a constant — so the strategy
    exercises every :func:`atom_signature` layout."""
    n_atoms = draw(st.integers(min_value=2, max_value=4))
    anchor = Variable("v0")
    pool = [anchor]
    fresh = 1
    atoms = []
    for i in range(n_atoms):
        anchor = pool[0] if i == 0 else draw(st.sampled_from(pool))
        kind = draw(st.sampled_from(["fresh", "dup", "const"]))
        if kind == "fresh":
            other = Variable(f"v{fresh}")
            fresh += 1
            pool.append(other)
        elif kind == "dup":
            other = anchor
        else:
            other = Constant(draw(DOMAIN))
        terms = [other, anchor] if draw(st.booleans()) else [anchor, other]
        atoms.append(Atom("R", terms))
    all_vars = sorted({t for a in atoms for t in a.terms
                       if isinstance(t, Variable)}, key=lambda v: v.name)
    head = draw(st.lists(st.sampled_from(all_vars), unique=True,
                         max_size=len(all_vars)))
    cq = ConjunctiveQuery(head, atoms)
    rows = draw(st.lists(st.tuples(DOMAIN, DOMAIN), min_size=0, max_size=12))
    db = Database([Relation("R", 2, rows)])
    return cq, db


# ----------------------------------------------------- cross-engine parity


@settings(max_examples=40, deadline=None)
@given(selfjoin_instance())
def test_selfjoin_answer_parity(instance):
    cq, db = instance
    clear_plan_cache()
    if cq.is_boolean():
        expect = cq_is_satisfiable_naive(cq, db)
        for engine in ENGINES:
            assert yannakakis_boolean(cq, db, engine=engine) == expect
        return
    expect = evaluate_cq_naive(cq, db)
    for engine in ENGINES:
        assert set(yannakakis(cq, db, engine=engine)) == expect


@settings(max_examples=40, deadline=None)
@given(selfjoin_instance())
def test_selfjoin_count_parity(instance):
    """The cache is cleared before each engine's count, so each builds
    the count's slot with its own kernel."""
    cq, db = instance
    expect = (1 if cq_is_satisfiable_naive(cq, db) else 0) \
        if cq.is_boolean() else len(evaluate_cq_naive(cq, db))
    for engine in ENGINES:
        clear_plan_cache()
        with obs.capture() as tr:
            assert count_acq(cq, db, engine=engine) == expect
        assert [s.attrs["kind"] for s in tr.spans
                if s.name == "plan.build"] == ["count"]
        assert {s.attrs["backend"] for s in tr.spans
                if s.name == "count.message_passing"} <= {engine}


@settings(max_examples=30, deadline=None)
@given(selfjoin_instance())
def test_selfjoin_enumeration_parity(instance):
    """Quantifier-free variant (all variables in the head): free-connex
    by construction, so every backend must enumerate the same answer
    set, and the *order* within one backend must not depend on whether
    the run built the memo (the engine's first run) or was served by it
    (the same engine again, with the plan cache cleared)."""
    cq, db = instance
    all_vars = sorted(cq.variables(), key=lambda v: v.name)
    qf = ConjunctiveQuery(all_vars, cq.atoms)
    expect = evaluate_cq_naive(qf, db)
    for eng in (TupleEngine(), ColumnarEngine()):
        clear_plan_cache()
        built = list(FreeConnexEnumerator(qf, db, engine=eng))
        clear_plan_cache()
        served = list(FreeConnexEnumerator(qf, db, engine=eng))
        assert set(built) == expect
        assert served == built


def test_interleaved_updates_invalidate_workspace():
    """Mutations bump the stored relation's version and drop its memo;
    the next query must see the new data on every backend (a stale
    shared materialisation would be silently wrong), and misses account
    for the rebuild."""
    q = parse_cq("Q(x, y, z) :- R(x, y), R(y, z)")
    db = Database([Relation("R", 2, [(i, i + 1) for i in range(20)])])
    for step in range(4):
        expect = evaluate_cq_naive(q, db)
        misses_before = plan_cache().stats()["symbol_workspace_misses"]
        for engine in ENGINES:
            assert set(yannakakis(q, db, engine=engine)) == expect
        if step % 2 == 0:
            db.relation("R").add((100 + step, 0))   # append-only
        else:
            db.relation("R").discard((step, step + 1))  # delete
        assert plan_cache().stats()["symbol_workspace_misses"] \
            > misses_before


# ------------------------------------------------------------ memo internals


def test_same_symbol_atoms_share_one_probe_cache():
    """All-distinct-variable atoms over one symbol share the memo's
    position-keyed probe cache: one miss (the first atom), one hit (the
    second), and ``R(x, y)`` / ``R(y, z)`` probing column 0
    resolve to the same probe object."""
    db = Database([Relation("E", 2, [(i % 25, (i * 7) % 25)
                                     for i in range(800)])])
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    eng = ColumnarEngine()
    with obs.capture() as tracer:
        r1 = eng.materialise_atom(db, Atom("E", (x, y)))
        r2 = eng.materialise_atom(db, Atom("E", (y, z)))
    assert tracer.counters.get("engine.symbol_workspace_misses") == 1
    assert tracer.counters.get("engine.symbol_workspace_hits") == 1
    assert r1._probecache is r2._probecache
    assert r1.batch_probe((x,)) is r2.batch_probe((y,))


def test_version_bump_gives_a_fresh_probe_cache():
    db = Database([Relation("E", 2, [(1, 2), (2, 3)])])
    atom = Atom("E", (Variable("x"), Variable("y")))
    eng = ColumnarEngine()
    r1 = eng.materialise_atom(db, atom)
    before = r1._probecache
    r1.batch_probe((r1.variables[0],))
    assert len(before) > 0
    db.relation("E").add((3, 4))  # version bump
    with obs.capture() as tracer:
        r2 = eng.materialise_atom(db, atom)
    assert tracer.counters.get("engine.symbol_workspace_misses") == 1
    assert r2._probecache is not before
    assert len(r2) == 3


def test_masked_atoms_share_variants_by_signature():
    """Constant and duplicate-variable atoms materialise masked columns,
    so they never share the base probe cache; atoms with the *same*
    signature share one variant whatever their variable names."""
    db = Database([Relation("E", 2, [(1, 1), (1, 2), (2, 2)])])
    x, u = Variable("x"), Variable("u")
    eng = ColumnarEngine()
    dup = eng.materialise_atom(db, Atom("E", (x, x)))
    plain = eng.materialise_atom(db, Atom("E", (x, Variable("y"))))
    const = eng.materialise_atom(db, Atom("E", (x, Constant(2))))
    dup2 = eng.materialise_atom(db, Atom("E", (u, u)))
    const2 = eng.materialise_atom(db, Atom("E", (u, Constant(2))))
    other = eng.materialise_atom(db, Atom("E", (x, Constant(1))))
    assert dup._probecache is not plain._probecache
    assert const._probecache is not plain._probecache
    assert set(dup) == {(1,), (2,)}       # rows with t[0] == t[1]
    assert set(const) == {(1,), (2,)}     # rows with t[1] == 2
    assert dup2._probecache is dup._probecache
    assert const2._probecache is const._probecache
    assert other._probecache is not const._probecache
    assert set(other) == {(1,)}           # rows with t[1] == 1


def test_atom_signature_layouts():
    x, y = Variable("x"), Variable("y")
    u = Variable("u")
    assert atom_signature(Atom("R", [x, y])) is None
    assert atom_signature(Atom("R", [x, x])) == (("dup", 1, 0),)
    assert atom_signature(Atom("R", [Constant(3), y])) == (("const", 0, 3),)
    # signatures are variable-name independent: R(x, x) and R(u, u)
    # share one masked materialisation
    assert atom_signature(Atom("R", [x, x])) == atom_signature(Atom("R", [u, u]))
    assert atom_signature(Atom("R", [Constant(3), x])) \
        == atom_signature(Atom("R", [Constant(3), u]))
    assert atom_signature(Atom("R", [Constant(2), x])) \
        != atom_signature(Atom("R", [Constant(3), x]))


def test_workspace_hit_miss_and_version_invalidation():
    """The memo builds each artefact once per version: a second lookup
    at the same version is a hit, a no-op write keeps the memo, and a
    write that bumps the version drops it, so the next lookup builds
    afresh."""
    r = Relation("R", 2, [(1, 2)])
    builds = []

    def build():
        builds.append(len(r))
        return [len(r)]

    with obs.capture() as tracer:
        first = shared(r, "key", build)
        assert shared(r, "key", build) is first        # same version: hit
    assert tracer.counters.get("engine.symbol_workspace_misses") == 1
    assert tracer.counters.get("engine.symbol_workspace_hits") == 1
    r.add((1, 2))                                  # no-op: no version bump
    assert shared(r, "key", build) is first
    r.add((3, 4))                                  # version bump
    assert r.memo == {}                            # stale memo dropped
    assert shared(r, "key", build) == [2]
    assert builds == [1, 2]


def test_workspace_variant_memoised_once():
    """Each signature's masked artefact is built once per version,
    whatever the atoms' variable names: on columnar a variant miss for
    the first atom of each signature and a variant hit for every later
    one, beside one miss and three hits of the encoded columns; on
    tuple one projected row list per signature.  The memo holds one
    entry per artefact."""
    db = Database([Relation("E", 2, [(1, 1), (1, 2), (2, 2)])])
    x, u = Variable("x"), Variable("u")
    atoms = [Atom("E", (x, x)), Atom("E", (u, u)),
             Atom("E", (x, Constant(2))), Atom("E", (u, Constant(2)))]
    before = plan_cache().stats()["symbol_workspace_variant_hits"]
    with obs.capture() as tracer:
        for atom in atoms:
            ColumnarEngine().materialise_atom(db, atom)
    assert tracer.counters.get("engine.symbol_workspace_misses") == 1
    assert tracer.counters.get("engine.symbol_workspace_hits") == 3
    assert tracer.counters.get("engine.symbol_workspace_variant_misses") == 2
    assert tracer.counters.get("engine.symbol_workspace_variant_hits") == 2
    assert plan_cache().stats()["symbol_workspace_variant_hits"] \
        - before == 2
    with obs.capture() as tracer:
        rows = [TupleEngine().materialise_atom(db, atom) for atom in atoms]
    assert tracer.counters.get("engine.symbol_workspace_misses") == 2
    assert tracer.counters.get("engine.symbol_workspace_hits") == 2
    assert [set(r) for r in rows] == [{(1,), (2,)}] * 4
    # the encoded columns, two masked column sets, two row lists
    assert len(db.relation("E").memo) == 5


@pytest.mark.parametrize("text", [
    "Q(x, y, z) :- R(x, y), R(y, z)",
    "Q(x, y) :- R(x, x), R(x, y)",
    "Q(y, z) :- R(3, y), R(y, z)",
])
def test_engines_with_their_own_dictionaries_share_nothing(text):
    """Two columnar engines over one database, one with its own
    dictionary, materialise the same atoms in turn.  The memo keys each
    columnar artefact on its dictionary, so each engine reads its own
    codes and probe caches, and its counts and answers are the naive
    evaluator's."""
    own = ValueDictionary()
    # past every code the default dictionary gives this data, so the
    # two engines' codes for it are disjoint
    filler = len(default_dictionary()) + 1_000
    own.encode_column(np.arange(10 ** 15, 10 ** 15 + filler,
                                dtype=np.int64))
    engines = (ColumnarEngine(), ColumnarEngine(own))
    q = parse_cq(text)
    db = Database([Relation("R", 2, [(i % 7, (3 * i) % 7)
                                     for i in range(30)])])
    expect = evaluate_cq_naive(q, db)
    first = {}
    for _round in range(2):
        for eng in engines:
            rels = [eng.materialise_atom(db, atom) for atom in q.atoms]
            for rel, atom in zip(rels, q.atoms):
                assert rel.dictionary is eng.dictionary
                assert set(rel) == set(atom_to_varrelation(db, atom))
            first.setdefault(eng.dictionary, rels[0])
            clear_plan_cache()
            assert count_acq(q, db, engine=eng) == len(expect)
            assert set(yannakakis(q, db, engine=eng)) == expect
    a, b = (first[eng.dictionary] for eng in engines)
    assert a._probecache is not b._probecache
    column = a.variables[0]
    assert not set(a.column(column).tolist()) \
        & set(b.column(column).tolist())


def test_a_write_frees_the_encoded_columns():
    """The write that bumps a relation's version drops its memo: with
    the collector off, the encoded columns die at the write."""
    rel = Relation("R", 2, [(i, i + 1) for i in range(50)])
    cols, _nrows = encoded_relation_columns(rel, default_dictionary())
    column = weakref.ref(cols[0])
    del cols
    gc.disable()
    try:
        assert column() is not None            # held by the memo
        rel.add((100, 101))
        assert column() is None
    finally:
        gc.enable()


def test_semijoin_coalescing_counted_and_sound():
    """When one tree node is reduced by two sources whose shared columns
    are the *same arrays* (per-symbol sharing aliases them), the second
    pass is provably a no-op and gets coalesced — without changing the
    reduction, which must equal the tuple engine's (tuple relations
    expose no column arrays, so nothing coalesces there).  A
    star-shaped join tree (root with two same-symbol children) forces
    the situation deterministically."""
    from repro.eval.yannakakis import materialise_atoms
    from repro.hypergraph.jointree import JoinTree

    q = parse_cq("Q(x, y1, y2, y3) :- R(x, y1), R(x, y2), R(x, y3)")
    db = Database([Relation("R", 2, [(i % 5, i) for i in range(40)])])
    star = JoinTree(q.hypergraph(), 0, {0: None, 1: 0, 2: 0})
    assert star.is_valid()
    reduced, coalesced = {}, {}
    for engine in ENGINES:
        with obs.capture() as t:
            _, reduced[engine] = full_reducer(
                q, db, tree=star,
                relations=materialise_atoms(q, db, engine),
                engine=engine)
        coalesced[engine] = t.counters.get("yannakakis.coalesced_semijoins",
                                           0)
    assert coalesced["columnar"] > 0
    assert coalesced["tuple"] == 0
    for a, b in zip(reduced["columnar"], reduced["tuple"]):
        assert set(a) == set(b)


# ------------------------------------------------- classifier: self-joins


def test_cyclic_query_with_acyclic_core_is_decisively_tractable():
    """R(x,y),R(y,z),R(z,x),R(x,x) looks cyclic, but y,z collapse onto x
    (the loop atom absorbs the triangle): the homomorphic core is the
    free-connex ACQ Q(x) :- R(x,x), so every task is decisively easy."""
    q = parse_cq("Q(x) :- R(x, y), R(y, z), R(z, x), R(x, x)")
    rep = classify(q)
    assert rep.query_class == "cyclic CQ (acyclic core)"
    assert rep.fact("core_is_proper") is True
    assert rep.fact("effective_acyclic") is True
    assert rep.fact("effective_free_connex") is True
    assert rep.verdict("decide").tractable is True
    assert rep.verdict("count").tractable is True
    assert rep.verdict("enumerate").tractable is True
    # the observatory's expectation rides on the effective structure
    assert expected_verdict(q, "total") == "linear"
    assert expected_verdict(q, "delay") == "constant-delay"


def test_triangle_selfjoin_lower_bound_is_decisive():
    """The triangle's core is the triangle: no identification removes
    the cyclic structure, so the Hyperclique bound transfers to the
    self-join query — stated decisively, not hedged as 'lower bound
    stated for self-join-free queries'."""
    q = parse_cq("Q() :- R(x, y), R(y, z), R(z, x)")
    rep = classify(q)
    assert rep.query_class == "cyclic CQ"
    assert rep.fact("self_join_free") is False
    assert rep.fact("core_acyclic") is False
    v = rep.verdict("enumerate")
    assert v.tractable is False
    assert "Carmeli-Segoufin" in v.caveat
    assert "self-join-free" not in v.caveat
    assert expected_verdict(q, "total") == "superlinear"


def test_acyclic_selfjoin_matmul_bound_transfers():
    """The same-symbol path Q(x,z) :- R(x,y),R(y,z) is its own core, so
    the Mat-Mul non-free-connex bound lifts from the self-join-free
    setting to this query."""
    q = parse_cq("Q(x, z) :- R(x, y), R(y, z)")
    rep = classify(q)
    assert rep.fact("self_join_free") is False
    assert rep.fact("core_is_proper") is False
    assert rep.fact("effective_free_connex") is False
    v = rep.verdict("enumerate")
    assert v.tractable is False
    assert "Carmeli-Segoufin" in v.caveat
    assert expected_verdict(q, "delay") == "linear"


def test_free_connex_selfjoin_star_is_constant_delay():
    q = parse_cq("Q(x, y1, y2) :- R(x, y1), R(x, y2)")
    rep = classify(q)
    assert rep.fact("self_join_free") is False
    assert rep.verdict("enumerate").tractable is True
    assert expected_verdict(q, "delay") == "constant-delay"
    assert rep.fact("self_join_signature") == (("R", 2),)
