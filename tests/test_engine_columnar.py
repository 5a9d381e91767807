"""Unit tests for the pluggable engine layer (repro.engine): the backend
registry, the dictionary-encoded columnar kernel, and the satellite
index/caching optimisations that ride along with it."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine import (
    available_engines,
    get_engine,
    resolve_engine,
    set_engine,
    use_engine,
)
from repro.engine.base import ColumnarEngine, TupleEngine
from repro.engine.columnar import (
    ColumnarRelation,
    ValueDictionary,
    _encode_rows,
    _unique_inverse,
    first_occurrences,
    group_ids,
    materialise_atom_columnar,
)
from repro.eval.join import VarRelation, atom_to_varrelation
from repro.hypergraph.jointree import cached_join_tree
from repro.logic.parser import parse_cq
from repro.logic.terms import Variable

x, y, z = Variable("x"), Variable("y"), Variable("z")


# ------------------------------------------------------------------ registry


def test_registry_lists_both_backends():
    assert "tuple" in available_engines()
    assert "columnar" in available_engines()


def test_get_engine_default_is_tuple(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    set_engine(None)
    assert get_engine().name == "tuple"


def test_get_engine_honours_env_var(monkeypatch):
    set_engine(None)
    monkeypatch.setenv("REPRO_ENGINE", "columnar")
    assert get_engine().name == "columnar"


def test_set_engine_overrides_env(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "tuple")
    set_engine("columnar")
    try:
        assert get_engine().name == "columnar"
    finally:
        set_engine(None)


def test_use_engine_restores_previous_selection():
    set_engine(None)
    before = get_engine().name
    with use_engine("tuple" if before == "columnar" else "columnar") as eng:
        assert get_engine().name == eng.name != before
    assert get_engine().name == before


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        get_engine("no-such-backend")
    with pytest.raises(ValueError):
        set_engine("no-such-backend")


def test_resolve_engine_accepts_name_instance_and_none():
    assert resolve_engine("tuple").name == "tuple"
    eng = ColumnarEngine()
    assert resolve_engine(eng) is eng
    set_engine(None)
    assert resolve_engine(None).name == get_engine().name


# --------------------------------------------------------- value dictionary


def test_value_dictionary_roundtrip():
    d = ValueDictionary()
    values = [3, "a", (1, 2), None, 3, "a"]
    codes = [d.encode(v) for v in values]
    assert codes[0] == codes[4] and codes[1] == codes[5]
    assert [d.decode(c) for c in codes[:4]] == [3, "a", (1, 2), None]
    assert d.code_of("missing") is None


def _reference_encode(rows, width):
    """Codes a fresh dictionary must assign, column by column: ascending
    (as Python ints) when every value is a 64-bit int and not all are
    bools, first-seen order otherwise."""
    flat = [v for t in rows for v in t]
    ascending = (bool(flat) and not all(isinstance(v, bool) for v in flat)
                 and all(isinstance(v, int) and -2**63 <= v < 2**63
                         for v in flat))
    codes, values, cols = {}, [], []
    for j in range(width):
        column = [int(t[j]) if ascending else t[j] for t in rows]
        for v in sorted(set(column)) if ascending else column:
            if v not in codes:
                codes[v] = len(values)
                values.append(v)
        cols.append([codes[v] for v in column])
    return cols, values


@pytest.mark.parametrize("rows", [
    [(-3, 5), (-10, -3), (7, -10), (-3, 5)],
    [(3, -1), (1, 2), (2, -1), (3, 3)],
    [(10**12, 5), (-(10**12), 5)],
    [(True, 3), (0, False), (2, True)],
    [(True, False), (False, False)],
    [(1.5, 2), (0.5, 1.5), (2.0, 3)],
    [("b", "a"), ("a", "c"), ("b", 1)],
    [(2**70, 1), (-(2**70), 2**70), (3, 1)],
    [],
], ids=["negative-ints", "dense-ints", "sparse-ints", "bools-and-ints",
        "bools", "floats", "strings", "beyond-int64", "zero-rows"])
def test_encode_rows_assigns_codes_in_reference_order(rows):
    d = ValueDictionary()
    cols = _encode_rows(rows, 2, d)
    want_cols, want_values = _reference_encode(rows, 2)
    assert [c.dtype for c in cols] == [np.int64, np.int64]
    assert [c.tolist() for c in cols] == want_cols
    assert repr(d._values) == repr(want_values)


@pytest.mark.parametrize("arr", [
    np.array([3, 1, 2, 1, 3], dtype=np.int64),
    np.array([-5, 10**12, -5, 7], dtype=np.int64),
    np.array([2**63 - 1, 2**63 - 2, 2**63 - 1], dtype=np.int64),
    np.array([-2**63, -2**63 + 1, -2**63], dtype=np.int64),
    np.array([-100, 100, 0, -100], dtype=np.int8),
    np.array([2**64 - 1, 0, 2**64 - 1], dtype=np.uint64),
    np.array([], dtype=np.int64),
], ids=["dense", "sparse", "int64-max", "int64-min", "int8", "uint64",
        "empty"])
def test_unique_inverse_matches_np_unique(arr):
    want_uniq, want_inverse = np.unique(arr, return_inverse=True)
    uniq, inverse = _unique_inverse(arr)
    assert uniq.dtype == want_uniq.dtype
    assert uniq.tolist() == want_uniq.tolist()
    assert inverse.tolist() == want_inverse.reshape(-1).tolist()


@st.composite
def dense_group_ids(draw):
    """Dense group ids with their ``card``: repeated ids, one group,
    all-distinct ids, ``card`` above ``n`` (unused ids), or no rows."""
    shape = draw(st.sampled_from(
        ["repeats", "single", "distinct", "gaps", "empty"]))
    n = 0 if shape == "empty" else draw(st.integers(1, 60))
    if shape == "single":
        ids = [0] * n
        card = 1
    elif shape == "distinct":
        ids = draw(st.permutations(range(n)))
        card = n
    elif shape == "empty":
        ids = []
        card = draw(st.integers(1, 4))
    else:
        card = (draw(st.integers(1, max(1, n // 2))) if shape == "repeats"
                else draw(st.integers(n + 1, 4 * n + 8)))
        ids = draw(st.lists(st.integers(0, card - 1), min_size=n,
                            max_size=n))
    return np.array(ids, dtype=np.int64), card


@settings(max_examples=200, deadline=None)
@given(dense_group_ids())
def test_first_occurrences_matches_sorted_unique_index(case):
    ids, card = case
    want = np.sort(np.unique(ids, return_index=True)[1])
    assert first_occurrences(ids, card).tolist() == want.tolist()


def test_group_ids_distinguishes_composite_keys():
    a = np.array([0, 0, 1, 1, 0], dtype=np.int64)
    b = np.array([0, 1, 0, 1, 0], dtype=np.int64)
    ids, card = group_ids([a, b], 5)
    assert card >= 4
    # equal rows share an id, distinct rows do not
    assert ids[0] == ids[4]
    assert len({ids[0], ids[1], ids[2], ids[3]}) == 4


# ------------------------------------------------------ columnar relation ops


def _pair(rows_r, rows_s):
    r = ColumnarRelation((x, y), rows_r)
    s = ColumnarRelation((y, z), rows_s, dictionary=r.dictionary)
    return r, s


def test_columnar_matches_varrelation_on_core_ops():
    rows_r = [(1, 2), (1, 3), (2, 3), (4, 5)]
    rows_s = [(2, 7), (3, 8), (9, 9)]
    cr, cs = _pair(rows_r, rows_s)
    vr, vs = VarRelation((x, y), rows_r), VarRelation((y, z), rows_s)

    assert set(cr.semijoin(cs)) == set(vr.semijoin(vs))
    assert set(cr.join(cs)) == set(vr.join(vs))
    assert set(cr.project([y])) == set(vr.project([y]))
    assert set(cr.project([y, x])) == set(vr.project([y, x]))
    assert len(cr) == len(vr)


def test_columnar_join_column_order_and_duplicate_free():
    cr, cs = _pair([(1, 2), (1, 2)], [(2, 3)])
    assert len(cr) == 1  # construction dedupes
    joined = cr.join(cs)
    assert joined.variables == (x, y, z)
    assert set(joined) == {(1, 2, 3)}


def test_columnar_project_preserves_first_seen_order():
    rel = ColumnarRelation((x, y), [(5, 1), (3, 1), (5, 2), (3, 9)])
    assert list(rel.project([x])) == [(5,), (3,)]


def test_columnar_probe_interface_matches_tuple_backend():
    rows = [(1, 2), (1, 3), (2, 3)]
    cr = ColumnarRelation((x, y), rows)
    vr = VarRelation((x, y), rows)
    assert sorted(cr.probe((x,), (1,))) == sorted(vr.probe((x,), (1,)))
    assert sorted(cr.index_on((x,))[(1,)]) == sorted(vr.index_on((x,))[(1,)])
    assert (1, 2) in cr and (9, 9) not in cr


def test_columnar_mixed_type_rows_do_not_coerce():
    # numpy would coerce [(1, "a")] to strings; the encoder must not
    rel = ColumnarRelation((x, y), [(1, "a"), ("b", 2)])
    assert set(rel) == {(1, "a"), ("b", 2)}


def test_columnar_empty_and_nullary():
    empty = ColumnarRelation((x,))
    assert len(empty) == 0 and list(empty) == []
    other = ColumnarRelation((x,), [(1,)], dictionary=empty.dictionary)
    assert len(empty.semijoin(other)) == 0
    assert len(other.semijoin(empty)) == 0


# ------------------------------------------------- atom materialisation paths


def _db():
    db = Database()
    db.add_relation(Relation("R", 2, [(1, 1), (1, 2), (2, 2), (3, 1)]))
    return db


@pytest.mark.parametrize("query", [
    "Q(x, y) :- R(x, y)",
    "Q(x) :- R(x, x)",
    "Q(x) :- R(x, 1)",
    "Q(x) :- R(1, x)",
])
def test_materialise_atom_parity(query):
    db = _db()
    atom = parse_cq(query).atoms[0]
    tup = atom_to_varrelation(db, atom)
    col = materialise_atom_columnar(db, atom)
    assert set(col) == set(tup)
    assert col.variables == tup.variables


def test_engine_objects_materialise_consistently():
    db = _db()
    atom = parse_cq("Q(x) :- R(x, x)").atoms[0]
    assert set(TupleEngine().materialise_atom(db, atom)) == \
        set(ColumnarEngine().materialise_atom(db, atom))


# ----------------------------------------------------- satellite: indexes etc


def test_atom_to_varrelation_uses_index_for_constants():
    db = _db()
    atom = parse_cq("Q(x) :- R(x, 2)").atoms[0]
    rel = db.relation("R")
    atom_to_varrelation(db, atom)
    # the constant position should now be indexed on the base relation
    assert any(pos == (1,) for pos in rel._indexes)


def test_relation_discard_maintains_indexes_incrementally():
    rel = Relation("R", 2, [(1, 2), (1, 3), (2, 4)])
    idx = rel.index_on((0,))
    assert sorted(idx[(1,)]) == [(1, 2), (1, 3)]
    rel.discard((1, 2))
    idx2 = rel.index_on((0,))
    assert idx2[(1,)] == [(1, 3)]
    rel.discard((2, 4))
    assert (2,) not in rel.index_on((0,))
    # discarding a missing tuple is a no-op
    rel.discard((9, 9))
    assert len(rel) == 1


def test_cached_join_tree_memoises_per_hypergraph():
    q1 = parse_cq("Q(x, y) :- R(x, z), S(z, y)")
    q2 = parse_cq("Q(x) :- R(x, z), S(z, y)")
    t1 = cached_join_tree(q1.hypergraph())
    t2 = cached_join_tree(q2.hypergraph())
    assert t1 is t2  # same body hypergraph -> same memoised tree
