"""repro — fine-grained complexity analysis of queries, executable.

A faithful, from-scratch reproduction of Arnaud Durand, *Fine-Grained
Complexity Analysis of Queries: From Decision to Counting and
Enumeration* (PODS 2020): every structural notion, every algorithm and
every lower-bound reduction of the survey, over a pure-Python in-memory
relational engine.

Quickstart::

    from repro import Database, parse_query, classify, count, enumerate_answers

    db = Database.from_relations({
        "R": [(1, 2), (2, 3)],
        "S": [(2, 10), (3, 30)],
    })
    q = parse_query("Q(x, y) :- R(x, z), S(z, y)")
    print(classify(q))              # acyclic? free-connex? which theorem?
    print(count(q, db))             # routed to the best counting engine
    for row in enumerate_answers(q, db):
        print(row)                  # constant delay when free-connex

Subpackages: ``data`` (relations, databases, generators), ``logic``
(CQ/UCQ/NCQ/FO ASTs and parser), ``hypergraph`` (join trees, acyclicity,
free-connex, star sizes), ``eval`` (Yannakakis & baselines),
``enumeration`` (constant/linear delay engines, Gray codes),
``counting`` (star-size counting, FPRAS), ``csp`` (beta-acyclic NCQ),
``mso`` (treewidth DP), ``sparse`` (degrees & shallow minors),
``reductions`` (lower bounds), ``core`` (classifier & planner), ``perf``
(delay & scaling measurements).
"""

from repro.data.database import Database
from repro.data.relation import Relation
from repro.logic.atoms import Atom, Comparison
from repro.logic.cq import ConjunctiveQuery
from repro.logic.ncq import NegativeConjunctiveQuery
from repro.logic.parser import parse_query, parse_cq
from repro.logic.terms import Constant, Variable
from repro.logic.ucq import UnionOfConjunctiveQueries
from repro.core.classify import classify
from repro.core.planner import answer, count, decide, enumerate_answers
from repro.core.report import ComplexityReport, TaskVerdict
from repro.errors import (
    ConfigurationError,
    EnumerationError,
    MalformedQueryError,
    NotAcyclicError,
    NotFreeConnexError,
    QuerySyntaxError,
    ReproError,
    SchemaMismatchError,
    UnsupportedQueryError,
)

__version__ = "1.0.0"

__all__ = [
    "Database",
    "Relation",
    "Atom",
    "Comparison",
    "ConjunctiveQuery",
    "UnionOfConjunctiveQueries",
    "NegativeConjunctiveQuery",
    "Variable",
    "Constant",
    "parse_query",
    "parse_cq",
    "classify",
    "answer",
    "count",
    "decide",
    "enumerate_answers",
    "ComplexityReport",
    "TaskVerdict",
    "ReproError",
    "QuerySyntaxError",
    "MalformedQueryError",
    "SchemaMismatchError",
    "NotAcyclicError",
    "NotFreeConnexError",
    "UnsupportedQueryError",
    "EnumerationError",
    "ConfigurationError",
    "__version__",
]
