"""Property-based tests (hypothesis) on the core invariants:

* GYO / join trees: acyclic <=> join tree exists, and built trees satisfy
  the connectedness condition;
* beta-acyclicity <=> all edge-subsets alpha-acyclic;
* free-connex <=> quantified star size <= 1;
* every S-component of an alpha-acyclic hypergraph is alpha-acyclic;
* the planner's enumerate (duplicate-free), count, weighted count and
  decide == naive evaluation on every engine, including on self-join
  queries that fold onto an acyclic core;
* star-size counting == naive counting, for arbitrary weights;
* cover algebra: minimal covers are covers, mutually incomparable,
  <= k! many; representative sets preserve the cover set;
* Gray code: visits every subset exactly once, one flip per step;
* Davis-Putnam == brute-force SAT under any elimination order;
* Yannakakis == naive.
"""

import math
from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.database import Database
from repro.data.relation import Relation
from repro.logic.atoms import Atom
from repro.logic.cq import ConjunctiveQuery
from repro.logic.terms import Variable

# ------------------------------------------------------------- strategies

VAR_NAMES = ["x", "y", "z", "u", "w"]


@st.composite
def hypergraphs(draw):
    from repro.hypergraph.hypergraph import Hypergraph

    n_edges = draw(st.integers(1, 5))
    edges = []
    for _ in range(n_edges):
        size = draw(st.integers(1, 3))
        edge = draw(st.sets(st.sampled_from(VAR_NAMES), min_size=size,
                            max_size=size))
        edges.append(frozenset(edge))
    vertices = {v for e in edges for v in e}
    return Hypergraph(vertices, edges)


@st.composite
def acyclic_queries_with_dbs(draw):
    """A random ACQ (2-3 atoms over a path-ish variable layout, a random
    head) plus a random database — restricted to acyclic shapes by
    construction check."""
    layouts = [
        [("R", ["x", "y"]), ("S", ["y", "z"])],
        [("R", ["x", "y"]), ("S", ["y", "z"]), ("T", ["z", "u"])],
        [("R", ["x", "y"]), ("S", ["y", "z"]), ("B", ["y"])],
        [("T3", ["x", "y", "z"]), ("R", ["x", "u"])],
        [("R", ["x", "y"]), ("S", ["u", "w"])],
        [("R", ["x", "y"]), ("S", ["y", "z"]), ("T", ["z", "u"]),
         ("U", ["u", "w"])],
        # a star around y: each leaf has a private variable, existential
        # when the head leaves it out
        [("R", ["x", "y"]), ("S", ["y", "z"]), ("T", ["y", "u"])],
    ]
    layout = draw(st.sampled_from(layouts))
    all_vars = sorted({v for _, vs in layout for v in vs})
    head_size = draw(st.integers(0, len(all_vars)))
    head = draw(st.permutations(all_vars))[:head_size]
    q = ConjunctiveQuery(head, [Atom(r, vs) for r, vs in layout])

    domain = list(range(draw(st.integers(2, 5))))
    rels = []
    for name, vs in layout:
        rel = Relation(name, len(vs))
        n_tuples = draw(st.integers(0, 10))
        for _ in range(n_tuples):
            rel.add(tuple(draw(st.sampled_from(domain)) for _ in vs))
        rels.append(rel)
    db = Database(rels, domain=domain)
    return q, db


@st.composite
def folded_selfjoin_queries_with_dbs(draw):
    """An acyclic query from :func:`acyclic_queries_with_dbs` plus three
    same-symbol copies of one of its atoms over fresh existential
    variables, in a random atom order.  For the atom ``R(.., u, .., v, ..)``
    the copies replace ``u`` by ``a``, ``v`` by ``b``, and both, like
    ``E(x, y), E(x, z), E(w, y), E(w, z)`` built on ``E(x, y)``.  The
    four atoms close the cycle u-v-a-b, so the result is cyclic, while
    the endomorphism a -> u, b -> v folds it back onto the acyclic
    query: its core."""
    q, db = draw(acyclic_queries_with_dbs())
    atom = draw(st.sampled_from([a for a in q.atoms if a.arity >= 2]))
    i, j = sorted(draw(st.permutations(range(atom.arity)))[:2])
    a, b = Variable("a0"), Variable("b0")

    def copy(replace):
        return Atom(atom.relation, [replace.get(p, t)
                                    for p, t in enumerate(atom.terms)])

    extra = [copy({i: a}), copy({j: b}), copy({i: a, j: b})]
    atoms = draw(st.permutations(list(q.atoms) + extra))
    return ConjunctiveQuery(q.head, atoms), db


# ----------------------------------------------------------------- GYO


@given(hypergraphs())
@settings(max_examples=80, deadline=None)
def test_join_tree_exists_iff_acyclic(h):
    from repro.errors import NotAcyclicError
    from repro.hypergraph.jointree import build_join_tree, is_alpha_acyclic

    if is_alpha_acyclic(h):
        tree = build_join_tree(h)
        assert tree.is_valid()
    else:
        try:
            tree = build_join_tree(h)
        except NotAcyclicError:
            return
        raise AssertionError("cyclic hypergraph produced a join tree")


@given(hypergraphs(), st.sets(st.sampled_from(VAR_NAMES)))
@settings(max_examples=80, deadline=None)
def test_s_components_of_acyclic_hypergraphs_are_acyclic(h, s):
    """Star-size counting joins each S-component along its own join
    tree, so every S-component of an alpha-acyclic hypergraph must be
    alpha-acyclic."""
    from repro.hypergraph.components import s_components
    from repro.hypergraph.jointree import is_alpha_acyclic

    if is_alpha_acyclic(h):
        for comp in s_components(h, s):
            assert is_alpha_acyclic(comp.subhypergraph(h)), (h, s, comp)


@given(hypergraphs())
@settings(max_examples=60, deadline=None)
def test_beta_acyclicity_characterisation(h):
    from repro.hypergraph.acyclicity import (
        all_subhypergraphs_alpha_acyclic,
        is_beta_acyclic,
    )

    assert is_beta_acyclic(h) == all_subhypergraphs_alpha_acyclic(h)


@given(acyclic_queries_with_dbs())
@settings(max_examples=60, deadline=None)
def test_free_connex_iff_star_size_le_one(qdb):
    q, _db = qdb
    if q.is_acyclic():
        assert q.is_free_connex() == (q.quantified_star_size() <= 1)


# ----------------------------------------------------------- enumeration


ENGINES = ("tuple", "columnar")


@given(st.one_of(acyclic_queries_with_dbs(),
                 folded_selfjoin_queries_with_dbs()),
       st.dictionaries(st.integers(0, 4), st.integers(-3, 3), max_size=5))
@settings(max_examples=60, deadline=None)
def test_engines_agree_with_naive(qdb, weight_map):
    """The planner's enumerate, count (plain and weighted) and decide
    agree with naive evaluation on every engine, including on the
    folded self-join queries it runs on their acyclic core."""
    from repro.core.classify import plan_for
    from repro.core.plancache import clear_plan_cache
    from repro.core.planner import count, decide, enumerate_answers
    from repro.counting.acq_count import count_cq_naive
    from repro.counting.weighted import WeightFunction
    from repro.engine import use_engine
    from repro.eval.naive import cq_is_satisfiable_naive, evaluate_cq_naive
    from repro.logic.parser import parse_cq

    q, db = qdb
    plan = plan_for(q)
    assert plan_for(parse_cq(repr(q))) is plan
    if not q.is_acyclic():
        assert plan.on_core and plan.route in ("free-connex", "acyclic")
    expect = evaluate_cq_naive(q, db)
    w = WeightFunction(weight_map)
    boolean = q.with_head(())
    for engine in ENGINES:
        clear_plan_cache()
        with use_engine(engine):
            got = list(enumerate_answers(q, db))
            assert len(got) == len(set(got)), engine
            assert set(got) == expect, engine
            assert count(q, db) == count_cq_naive(q, db), engine
            assert count(q, db, w) == count_cq_naive(q, db, w), engine
            assert decide(boolean, db) == \
                cq_is_satisfiable_naive(boolean, db), engine


@given(acyclic_queries_with_dbs(),
       st.dictionaries(st.integers(0, 4), st.integers(-3, 3), max_size=5))
@settings(max_examples=50, deadline=None)
def test_counting_agrees_with_naive_weighted(qdb, weight_map):
    from repro.counting.acq_count import count_acq, count_cq_naive
    from repro.counting.weighted import WeightFunction

    q, db = qdb
    if not q.is_acyclic():
        return
    w = WeightFunction(weight_map)
    assert count_acq(q, db, w) == count_cq_naive(q, db, w)


# ----------------------------------------------------------------- covers


@given(st.integers(1, 3),
       st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3),
                          st.integers(1, 3)), min_size=0, max_size=6))
@settings(max_examples=60, deadline=None)
def test_cover_algebra(k, raw_rows):
    from repro.enumeration.covers import (
        Table,
        covers_equal,
        is_cover,
        minimal_covers,
        more_general,
        representative_set,
    )

    rows = {i: r[:k] for i, r in enumerate(raw_rows)}
    t = Table.from_rows(rows) if rows else Table({}, k)
    mc = minimal_covers(t)
    assert len(mc) <= math.factorial(k)
    for c in mc:
        assert is_cover(t, c)
    for c1 in mc:
        for c2 in mc:
            if c1 != c2:
                assert not more_general(c1, c2)
    assert covers_equal(t, representative_set(t))


# -------------------------------------------------------------- Gray code


@given(st.integers(0, 10))
@settings(max_examples=20, deadline=None)
def test_gray_code_visits_every_subset_once(n):
    from repro.enumeration.gray import gray_flip_sequence

    current = set()
    seen = {frozenset()}
    for flip in gray_flip_sequence(n):
        assert 0 <= flip < n
        current ^= {flip}
        key = frozenset(current)
        assert key not in seen
        seen.add(key)
    assert len(seen) == 2 ** n


# ------------------------------------------------------------------ SAT


@given(st.lists(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3, 4, -4]),
                         min_size=1, max_size=3, unique_by=abs),
                min_size=0, max_size=8),
       st.permutations([1, 2, 3, 4]))
@settings(max_examples=60, deadline=None)
def test_davis_putnam_any_order(cnf, order):
    from repro.csp.cnf import clauses_satisfiable_bruteforce
    from repro.csp.davis_putnam import davis_putnam

    clauses = [frozenset(c) for c in cnf]
    assert davis_putnam(clauses, list(order)) == \
        clauses_satisfiable_bruteforce(clauses, 4)


# -------------------------------------------------------------- relations


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=15),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=15))
@settings(max_examples=50, deadline=None)
def test_varrelation_join_is_set_semantics(t1, t2):
    from repro.eval.join import VarRelation

    x, y, z = Variable("x"), Variable("y"), Variable("z")
    r = VarRelation((x, y), t1)
    s = VarRelation((y, z), t2)
    expected = {(a, b, c) for (a, b) in set(t1) for (b2, c) in set(t2) if b == b2}
    assert set(r.join(s)) == expected
    semi = {(a, b) for (a, b) in set(t1) if any(b == b2 for (b2, _c) in set(t2))}
    assert set(r.semijoin(s)) == semi
