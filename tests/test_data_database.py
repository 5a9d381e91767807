"""Unit tests for repro.data.database — including the ||D|| size measure
and the degree notion of Section 3.1."""

import pytest

from repro.data.database import Database
from repro.data.relation import Relation
from repro.errors import MalformedQueryError, SchemaMismatchError


def make_db():
    return Database.from_relations({
        "R": [(1, 2), (2, 3)],
        "S": [(2,), (9,)],
    })


def test_from_relations_infers_arity():
    db = make_db()
    assert db.relation("R").arity == 2
    assert db.relation("S").arity == 1


def test_from_relations_rejects_empty():
    with pytest.raises(MalformedQueryError):
        Database.from_relations({"R": []})


def test_domain_collects_all_values():
    db = make_db()
    assert set(db.domain) == {1, 2, 3, 9}
    assert db.domain_size() == 4
    assert 2 in db
    assert 42 not in db


def test_isolated_domain_values():
    db = make_db()
    db.add_domain_values([100, 200])
    assert 100 in db
    assert db.domain_size() == 6


def test_size_measure():
    # ||D|| = |sigma| + |Dom| + sum |R| * ar(R) = 2 + 4 + (2*2 + 2*1)
    db = make_db()
    assert db.size() == 2 + 4 + 4 + 2


def test_tuple_count():
    assert make_db().tuple_count() == 4


def test_degree_counts_tuples_per_element():
    db = make_db()
    # element 2 occurs in R-tuples (1,2), (2,3) and S-tuple (2,) -> degree 3
    assert db.degrees()[2] == 3
    assert db.degree() == 3


def test_degree_counts_tuple_once_for_repeats():
    db = Database.from_relations({"R": [(1, 1)]})
    assert db.degrees()[1] == 1


def test_missing_relation_raises():
    with pytest.raises(SchemaMismatchError):
        make_db().relation("T")
    assert not make_db().has_relation("T")


def test_duplicate_relation_rejected():
    db = make_db()
    with pytest.raises(MalformedQueryError):
        db.add_relation(Relation("R", 2))


def test_copy_is_independent():
    db = make_db()
    db2 = db.copy()
    db2.relation("R").add((7, 8))
    assert (7, 8) not in db.relation("R")


def test_restrict_domain():
    db = make_db()
    sub = db.restrict_domain([1, 2])
    assert set(sub.relation("R")) == {(1, 2)}
    assert set(sub.relation("S")) == {(2,)}
    assert set(sub.domain) == {1, 2}


def test_iteration_and_names():
    db = make_db()
    assert db.relation_names() == ["R", "S"]
    assert [r.name for r in db] == ["R", "S"]


def test_empty_database_degree():
    assert Database().degree() == 0


# ------------------------------------------------------ lazy domain


def stale_domain_db():
    """A relation written to after it was registered."""
    r = Relation("R", 2, [(1, 2)])
    db = Database([r])
    r.add((3, 4))
    return db


def test_domain_sees_values_added_after_registration():
    assert 3 in stale_domain_db()


def test_size_counts_values_added_after_registration():
    # ||D|| = 1 relation + 4 domain values + 2 tuples * arity 2
    assert stale_domain_db().size() == 9


def test_degrees_cover_values_added_after_registration():
    assert stale_domain_db().degrees()[3] == 1


def test_fo_answers_range_over_values_added_after_registration():
    from repro.eval.naive import fo_answers
    from repro.logic.fo_parser import parse_fo

    answers = fo_answers(parse_fo("exists y. R(x, y)"), stale_domain_db())
    assert answers == {(1,), (3,)}


def test_explicit_domain_keeps_relation_values_first():
    r = Relation("R", 2, [(1, 2)])
    db = Database([r], domain=[9])
    assert db.domain == [1, 2, 9]
    r.add((2, 5))
    assert db.domain == [1, 2, 9, 5]


def test_reading_the_domain_leaves_the_fingerprint_unchanged():
    r = Relation("R", 2, [(1, 2)])
    db = Database([r], domain=[9])
    r.add((3, 4))
    before = db.fingerprint()
    assert db.domain_size() == 5
    assert db.fingerprint() == before
    db.add_domain_values([9, 3])        # both already present
    assert db.fingerprint() == before
    db.add_domain_values([10])
    assert db.fingerprint() != before


def test_copy_and_restriction_start_from_a_synced_domain():
    db = stale_domain_db()
    assert set(db.copy().domain) == {1, 2, 3, 4}
    assert db.restrict_domain([3, 4]).domain == [3, 4]


def test_new_value_write_refreshes_the_count_plan():
    from repro import count, obs
    from repro.core.plancache import plan_cache
    from repro.logic.parser import parse_query

    q = parse_query("Q(x, y, z) :- R(x, y), S(y, z)")
    r = Relation("R", 2, [(1, 2), (5, 2)])
    db = Database([r, Relation("S", 2, [(2, 3)])])
    assert count(q, db) == 2
    r.add((9, 2))
    assert count(q, db) == 3            # the first write seeds the state
    refreshes = plan_cache().refreshes
    r.add((7, 2))                       # 7 is a new domain value
    assert 7 in db                      # reading the domain syncs it
    with obs.capture() as tr:
        assert count(q, db) == 4
    assert plan_cache().refreshes > refreshes
    # a refresh of that state, not a second seed
    assert not [s for s in tr.spans if s.name == "delta.counter_build"]
