"""Shared fixtures: small canonical databases and queries."""

from __future__ import annotations

import pytest

from repro.core.plancache import incremental_scope
from repro.data.database import Database
from repro.data.relation import Relation
from repro.logic.parser import parse_cq


@pytest.fixture
def cold_pipeline():
    """Run the test with incremental refresh off.

    For tests that assert the spans or counters of the cold pipeline
    (materialise, full reduction, the counting DP, workspace misses).
    Under ``REPRO_INCREMENTAL=1`` the delta refreshers build and refresh
    the plans and emit their own spans instead; the answers agree, so
    only the telemetry these tests check would differ."""
    with incremental_scope(False):
        yield


@pytest.fixture
def small_db() -> Database:
    """A small two-relation database used across the suite."""
    return Database.from_relations({
        "R": [(1, 2), (2, 3), (3, 4), (1, 3)],
        "S": [(2, 10), (3, 30), (4, 40), (3, 10)],
    })


@pytest.fixture
def path_query():
    """The path ACQ of Example 4.1 (phi_1)."""
    return parse_cq("Q(x, y, z) :- E(x, y), E(y, z)")


@pytest.fixture
def triangle_db() -> Database:
    """A graph with exactly one triangle (1, 2, 3) plus a pendant path."""
    edges = [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5)]
    rel = Relation("E", 2)
    for u, v in edges:
        rel.add((u, v))
        rel.add((v, u))
    return Database([rel])


@pytest.fixture
def figure1_query():
    """The Figure 1 query (second S atom renamed S2: the paper reuses S at
    two different arities, which a database schema cannot)."""
    return parse_cq(
        "Q(x1, x2, x3) :- R(x1, x2), S(x2, x3, y3), R(x1, y1), "
        "T(y3, y4, y5), S2(x2, y2)"
    )
