"""Unit tests for repro.data.relation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.relation import Relation
from repro.errors import MalformedQueryError


def test_add_and_contains():
    r = Relation("R", 2)
    r.add((1, 2))
    assert (1, 2) in r
    assert (2, 1) not in r
    assert len(r) == 1


def test_add_is_idempotent():
    r = Relation("R", 2, [(1, 2), (1, 2), (3, 4)])
    assert len(r) == 2


def test_arity_is_enforced():
    r = Relation("R", 2)
    with pytest.raises(MalformedQueryError):
        r.add((1, 2, 3))


def test_negative_arity_rejected():
    with pytest.raises(MalformedQueryError):
        Relation("R", -1)


def test_insertion_order_is_preserved():
    r = Relation("R", 1, [(3,), (1,), (2,)])
    assert r.tuples() == [(3,), (1,), (2,)]


def test_index_probe():
    r = Relation("R", 2, [(1, 2), (1, 3), (2, 3)])
    assert sorted(r.probe([0], (1,))) == [(1, 2), (1, 3)]
    assert r.probe([1], (3,)) == [(1, 3), (2, 3)]
    assert r.probe([0, 1], (2, 3)) == [(2, 3)]
    assert r.probe([0], (99,)) == []


def test_index_updates_on_add():
    r = Relation("R", 2, [(1, 2)])
    r.index_on([0])
    r.add((1, 5))
    assert sorted(r.probe([0], (1,))) == [(1, 2), (1, 5)]


def test_index_out_of_range():
    r = Relation("R", 2, [(1, 2)])
    with pytest.raises(IndexError):
        r.index_on([2])


def test_discard():
    r = Relation("R", 2, [(1, 2), (3, 4)])
    r.discard((1, 2))
    assert (1, 2) not in r
    assert len(r) == 1
    r.discard((9, 9))  # no-op
    assert len(r) == 1
    # indexes rebuilt correctly after deletion
    assert r.probe([0], (3,)) == [(3, 4)]
    assert r.probe([0], (1,)) == []


def test_project():
    r = Relation("R", 3, [(1, 2, 3), (1, 2, 4), (5, 6, 7)])
    p = r.project([0, 1])
    assert set(p) == {(1, 2), (5, 6)}
    assert p.arity == 2


def test_select():
    r = Relation("R", 2, [(1, 2), (2, 2), (3, 1)])
    s = r.select(lambda t: t[0] < t[1])
    assert set(s) == {(1, 2)}


def test_semijoin():
    r = Relation("R", 2, [(1, 2), (2, 3), (4, 5)])
    s = Relation("S", 2, [(2, 9), (5, 9)])
    out = r.semijoin([1], s, [0])
    assert set(out) == {(1, 2), (4, 5)}


def test_semijoin_arity_mismatch():
    r = Relation("R", 2, [(1, 2)])
    s = Relation("S", 2, [(2, 9)])
    with pytest.raises(MalformedQueryError):
        r.semijoin([0, 1], s, [0])


def test_distinct_and_domain_values():
    r = Relation("R", 2, [(1, 2), (1, 3)])
    assert set(r.distinct([0])) == {(1,)}
    assert r.domain_values() == {1, 2, 3}


def test_equality_and_copy():
    r = Relation("R", 2, [(1, 2)])
    c = r.copy()
    assert r == c
    c.add((3, 4))
    assert r != c
    renamed = r.copy(name="R2")
    assert renamed != r


def test_relation_unhashable():
    with pytest.raises(TypeError):
        hash(Relation("R", 1))


def test_size_contribution():
    r = Relation("R", 3, [(1, 2, 3), (4, 5, 6)])
    assert r.size_contribution() == 6


def test_empty_relation_is_falsy():
    assert not Relation("R", 2)
    assert Relation("R", 2, [(1, 2)])


# --------------------------------------------------- bulk constructor

# small pools, so rows repeat; 0 == False == 0.0 == -0.0 collapse too
VALUES = st.one_of(st.integers(-2, 2), st.booleans(), st.text(max_size=1),
                   st.sampled_from([-0.0, 0.0, 0.5, 1.0]))


@st.composite
def rows_of_arity(draw):
    arity = draw(st.integers(0, 3))
    row = st.lists(VALUES, min_size=arity, max_size=arity)
    rows = draw(st.lists(st.one_of(row, row.map(tuple)), max_size=12))
    return arity, rows


def _built_by_add(arity, rows):
    ref = Relation("R", arity)
    for row in rows:
        ref.add(row)
    return ref


@settings(max_examples=200, deadline=None)
@given(rows_of_arity(), VALUES)
def test_bulk_constructor_matches_add_loop(drawn, extra):
    arity, rows = drawn
    bulk, ref = Relation("R", arity, rows), _built_by_add(arity, rows)
    assert repr(bulk.tuples()) == repr(ref.tuples())
    assert len(bulk) == len(ref)
    assert bulk.version == ref.version
    assert len(bulk.delta_log) == 0
    for cols in ([], list(range(arity)), list(range(arity))[:1]):
        assert repr(bulk.index_on(cols)) == repr(ref.index_on(cols))
    # later writes log the same ops from the constructed version on
    v = bulk.version
    new = (extra,) * arity
    for rel in (bulk, ref):
        rel.add(new)
        rel.discard(rows[0] if rows else new)
    assert bulk.version == ref.version
    assert repr(bulk.deltas_since(v)) == repr(ref.deltas_since(v))
    assert repr(bulk.tuples()) == repr(ref.tuples())


@pytest.mark.parametrize("bad", [(3,), (3, 4, 5)])
def test_bulk_constructor_rejects_wrong_width_rows(bad):
    message = rf"'Q' has arity 2, got tuple of length {len(bad)}"
    with pytest.raises(MalformedQueryError, match=message):
        Relation("Q", 2, [(1, 2), bad, (5, 6)])
