"""Parity and unit tests for engine-wide per-symbol work sharing.

Self-join queries name one stored relation through several atoms, and
the :class:`repro.engine.symbols.SymbolWorkspace` shares one build (one
dictionary encode, one probe structure, one masked column set) per
(symbol, database version) across all of them.  Sharing must be
invisible: every backend must return exactly the answers of the naive
evaluator — including duplicate-variable atoms ``R(x, x)``, constant
atoms ``R(3, y)``, and interleaved updates that invalidate the
workspace mid-stream — and must enumerate in the same order whether
the workspace is built or serves the run.  The classifier half pins the
Carmeli–Segoufin self-join analysis: core-based verdicts are decisive,
not hedged with the old "lower bound stated for self-join-free queries"
caveat.
"""

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
from repro.engine.symbols import SymbolWorkspace, atom_signature
from repro.enumeration.free_connex import FreeConnexEnumerator
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
    cq, db = instance
    expect = (1 if cq_is_satisfiable_naive(cq, db) else 0) \
        if cq.is_boolean() else len(evaluate_cq_naive(cq, db))
    clear_plan_cache()
    for engine in ENGINES:
        assert count_acq(cq, db, engine=engine) == expect


@settings(max_examples=30, deadline=None)
@given(selfjoin_instance())
def test_selfjoin_enumeration_parity(instance):
    """Quantifier-free variant (all variables in the head): free-connex
    by construction, so every backend must enumerate the same answer
    set, and the *order* within one backend must not depend on whether
    the run built the workspace (a fresh engine) or was served by it
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


@pytest.mark.usefixtures("cold_pipeline")
def test_interleaved_updates_invalidate_workspace():
    """Mutations bump the stored relation's version; the next query must
    see the new data on every backend (a stale shared materialisation
    would be silently wrong), and workspace misses account for the
    invalidation."""
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


# ------------------------------------------------------- workspace internals


def test_same_symbol_atoms_share_one_probe_cache():
    """All-distinct-variable atoms over one symbol share the entry's
    position-keyed probe cache: one workspace miss (the first atom), one
    hit (the second), and ``R(x, y)`` / ``R(y, z)`` probing column 0
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
    ws = SymbolWorkspace()
    r = Relation("R", 2, [(1, 2)])
    e1 = ws.entry("R", r)
    assert ws.entry("R", r) is e1          # same version: hit
    r.add((3, 4))                                  # version bump
    e2 = ws.entry("R", r)
    assert e2 is not e1
    assert ws.stats()["entries"] == 1              # stale entry dropped


def test_workspace_variant_memoised_once():
    ws = SymbolWorkspace()
    r = Relation("R", 2, [(1, 1), (1, 2)])
    entry = ws.entry("R", r)
    calls = []

    def build():
        calls.append(1)
        return ("payload",)

    key = ("cols", (("dup", 1, 0),))
    assert entry.variant(key, build) == ("payload",)
    assert entry.variant(key, build) == ("payload",)
    assert len(calls) == 1
    assert ws.stats()["variants"] == 1


def test_workspace_lru_eviction():
    ws = SymbolWorkspace(limit=2)
    rels = [Relation(f"R{i}", 1, [(i,)]) for i in range(3)]
    for rel in rels:
        ws.entry(rel.name, rel)
    assert ws.stats()["entries"] == 2              # oldest evicted


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
