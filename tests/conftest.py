"""Shared fixtures: small canonical databases and queries, and the
block size enumeration runs at."""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.core.plancache import clear_plan_cache
from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine import enumerate as block_module
from repro.engine import get_engine
from repro.logic.parser import parse_cq


@contextmanager
def at_block_size(size):
    """Enumerate at block size ``size`` in the scope: patch
    ``DEFAULT_BLOCK_SIZE`` and clear the plan cache on entry and on
    exit, since a cached pipeline keeps the block size it was built
    with.  A context manager, not a fixture, so a ``@given`` body can
    enter it once per example."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(block_module, "DEFAULT_BLOCK_SIZE", size)
        clear_plan_cache()
        try:
            yield
        finally:
            clear_plan_cache()


def pytest_generate_tests(metafunc):
    """On the columnar engine, run every test that uses
    ``default_block_size`` at the default block size and at 7."""
    if ("default_block_size" in metafunc.fixturenames
            and get_engine().name == "columnar"):
        metafunc.parametrize("default_block_size", [None, 7], indirect=True,
                             ids=["B=default", "B=7"])


@pytest.fixture
def default_block_size(request):
    """The block size enumerators run at: ``DEFAULT_BLOCK_SIZE``, or 7
    where :func:`pytest_generate_tests` asks for it.  Seven-answer
    blocks put block boundaries everywhere in the columnar pipeline: in
    the chunked answer stream, in the carry between batches and in the
    gather probes' batches.  On the tuple engine a block only chunks the
    per-answer stream, so the suite runs there at the default alone."""
    size = getattr(request, "param", None)
    if size is None:
        yield None
        return
    with at_block_size(size):
        yield size


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
