"""Property-based parity suite: the tuple and columnar backends must give
identical results for every relational operation and for full Yannakakis
evaluation / counting on random acyclic conjunctive queries.

Queries are generated tree-structured (each new atom shares a nonempty
variable subset with one earlier atom), which guarantees alpha-acyclicity
by construction; the naive evaluator is the ground truth."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.plancache import clear_plan_cache
from repro.counting.acq_count import count_acq, count_quantifier_free_acyclic
from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine.columnar import ColumnarRelation, ValueDictionary
from repro.eval.join import VarRelation
from repro.eval.naive import cq_is_satisfiable_naive, evaluate_cq_naive
from repro.eval.yannakakis import full_reducer, yannakakis, yannakakis_boolean
from repro.logic.atoms import Atom
from repro.logic.cq import ConjunctiveQuery
from repro.logic.terms import Variable

DOMAIN = st.integers(min_value=0, max_value=4)


def _rows(draw, arity, max_rows=10):
    return draw(st.lists(
        st.tuples(*([DOMAIN] * arity)), min_size=0, max_size=max_rows))


@st.composite
def acyclic_instance(draw):
    """A random acyclic CQ together with a random database for it."""
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
    all_vars = sorted({v for vs in atom_vars for v in vs}, key=lambda v: v.name)
    head = draw(st.lists(st.sampled_from(all_vars), unique=True,
                         max_size=len(all_vars)))
    cq = ConjunctiveQuery(head, atoms)

    db = Database()
    for i, vs in enumerate(atom_vars):
        db.add_relation(Relation(f"R{i}", len(vs), _rows(draw, len(vs))))
    return cq, db


@st.composite
def relation_pair(draw):
    """Two relations with (possibly) overlapping variable sets, built on
    both backends over the same rows."""
    pool = [Variable(n) for n in ("a", "b", "c", "d")]
    left = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3,
                         unique=True))
    right = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3,
                          unique=True))
    rows_l = _rows(draw, len(left))
    rows_r = _rows(draw, len(right))
    d = ValueDictionary()
    return (
        VarRelation(left, rows_l), VarRelation(right, rows_r),
        ColumnarRelation(left, rows_l, dictionary=d),
        ColumnarRelation(right, rows_r, dictionary=d),
    )


@settings(max_examples=60, deadline=None)
@given(relation_pair())
def test_operation_parity(rels):
    vl, vr, cl, cr = rels
    assert set(cl) == set(vl) and len(cl) == len(vl)
    assert set(cl.semijoin(cr)) == set(vl.semijoin(vr))
    if set(vl.variables) & set(vr.variables):
        joined_c, joined_v = cl.join(cr), vl.join(vr)
        assert joined_c.variables == joined_v.variables
        assert set(joined_c) == set(joined_v)
    for k in range(1, len(vl.variables) + 1):
        sub = vl.variables[:k]
        assert set(cl.project(sub)) == set(vl.project(sub))


@settings(max_examples=60, deadline=None)
@given(acyclic_instance())
def test_yannakakis_parity(instance):
    cq, db = instance
    if cq.is_boolean():
        expect = cq_is_satisfiable_naive(cq, db)
        assert yannakakis_boolean(cq, db, engine="tuple") == expect
        assert yannakakis_boolean(cq, db, engine="columnar") == expect
        return
    expect = evaluate_cq_naive(cq, db)
    assert set(yannakakis(cq, db, engine="tuple")) == expect
    assert set(yannakakis(cq, db, engine="columnar")) == expect


@settings(max_examples=60, deadline=None)
@given(acyclic_instance())
def test_full_reducer_parity(instance):
    cq, db = instance
    _, red_t = full_reducer(cq, db, engine="tuple")
    _, red_c = full_reducer(cq, db, engine="columnar")
    for rt, rc in zip(red_t, red_c):
        assert rt.variables == rc.variables
        assert set(rt) == set(rc)


@settings(max_examples=60, deadline=None)
@given(acyclic_instance())
def test_count_parity(instance):
    """Each engine counts on an empty plan cache, so each call builds
    the count's slot with its own kernel rather than reading the total
    the other engine cached."""
    cq, db = instance
    expect = (1 if cq_is_satisfiable_naive(cq, db) else 0) \
        if cq.is_boolean() else len(evaluate_cq_naive(cq, db))
    for engine in ("tuple", "columnar"):
        clear_plan_cache()
        with obs.capture() as tr:
            assert count_acq(cq, db, engine=engine) == expect
        assert [s.attrs["kind"] for s in tr.spans
                if s.name == "plan.build"] == ["count"]
        assert {s.attrs["backend"] for s in tr.spans
                if s.name == "count.message_passing"} <= {engine}
    if cq.is_quantifier_free() and not cq.is_boolean():
        assert count_quantifier_free_acyclic(cq, db, engine="columnar") == expect
