"""Unit tests for VarRelation and the relational operators."""

import pytest

from repro.data.database import Database
from repro.errors import SchemaMismatchError
from repro.eval.join import VarRelation, atom_to_varrelation, product
from repro.logic.atoms import Atom
from repro.logic.terms import Variable

x, y, z = Variable("x"), Variable("y"), Variable("z")


def test_schema_and_add():
    r = VarRelation((x, y), [(1, 2), (1, 3)])
    assert len(r) == 2
    assert (1, 2) in r
    with pytest.raises(ValueError):
        r.add((1,))


def test_duplicate_schema_rejected():
    with pytest.raises(ValueError):
        VarRelation((x, x))


def test_probe_by_variables():
    r = VarRelation((x, y), [(1, 2), (1, 3), (2, 3)])
    assert sorted(r.probe((x,), (1,))) == [(1, 2), (1, 3)]


def test_project():
    r = VarRelation((x, y), [(1, 2), (1, 3)])
    p = r.project((x,))
    assert p.variables == (x,)
    assert set(p) == {(1,)}


def test_semijoin_shared_variables():
    r = VarRelation((x, y), [(1, 2), (2, 3)])
    s = VarRelation((y, z), [(2, 9)])
    out = r.semijoin(s)
    assert set(out) == {(1, 2)}


def test_semijoin_no_shared_variables():
    r = VarRelation((x,), [(1,), (2,)])
    s_nonempty = VarRelation((y,), [(5,)])
    s_empty = VarRelation((y,))
    assert set(r.semijoin(s_nonempty)) == {(1,), (2,)}
    assert len(r.semijoin(s_empty)) == 0


def test_natural_join():
    r = VarRelation((x, y), [(1, 2), (2, 3)])
    s = VarRelation((y, z), [(2, 9), (3, 8)])
    out = r.join(s)
    assert out.variables == (x, y, z)
    assert set(out) == {(1, 2, 9), (2, 3, 8)}


def test_join_without_shared_is_cartesian():
    r = VarRelation((x,), [(1,), (2,)])
    s = VarRelation((y,), [(5,)])
    assert set(r.join(s)) == {(1, 5), (2, 5)}


def test_rename_merges_columns():
    r = VarRelation((x, y), [(1, 1), (1, 2)])
    merged = r.rename({y: x})
    assert merged.variables == (x,)
    assert set(merged) == {(1,)}  # (1, 2) dropped: conflicting merge


def test_assignment_view():
    r = VarRelation((x, y), [(1, 2)])
    assert r.assignment((1, 2)) == {x: 1, y: 2}


def test_atom_to_varrelation_handles_constants():
    db = Database.from_relations({"R": [(1, 2), (3, 2), (1, 5)]})
    rel = atom_to_varrelation(db, Atom("R", [x, 2]))
    assert rel.variables == (x,)
    assert set(rel) == {(1,), (3,)}


def test_atom_to_varrelation_handles_repeats():
    db = Database.from_relations({"R": [(1, 1), (1, 2)]})
    rel = atom_to_varrelation(db, Atom("R", [x, x]))
    assert set(rel) == {(1,)}


def test_atom_to_varrelation_arity_check():
    db = Database.from_relations({"R": [(1, 2)]})
    with pytest.raises(SchemaMismatchError):
        atom_to_varrelation(db, Atom("R", [x]))


def test_product_of_list():
    r = VarRelation((x,), [(1,)])
    s = VarRelation((y,), [(2,)])
    out = product([r, s])
    assert set(out) == {(1, 2)}
    unit = product([])
    assert set(unit) == {()}


def test_index_updates_on_add():
    r = VarRelation((x, y))
    r.index_on((x,))
    r.add((1, 2))
    assert r.probe((x,), (1,)) == [(1, 2)]
