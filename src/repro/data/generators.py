"""Synthetic instance generators.

The paper evaluates nothing on real data — every claim is about asymptotic
shape over *classes* of instances.  These generators produce the instance
families used throughout the examples, tests and benchmarks:

* random relations and databases of prescribed size,
* bounded-degree graphs/structures (Section 3.1),
* low-degree families: a k-clique plus 2^k isolated vertices (Section 3.2),
* (m, n)-grid graphs (Section 3.3),
* random bipartite graphs (Equation 2, perfect matchings),
* Boolean matrices encoded as binary relations (Theorem 4.8 / Mat-Mul),
* random k-DNF and k-CNF formulas (Sections 4.5 and 5.1).

Everything is deterministic given a seed.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.data.database import Database
from repro.data.relation import Relation


def _rng(seed: Optional[int]) -> random.Random:
    return random.Random(seed)


# --------------------------------------------------------------------- random


def random_relation(name: str, arity: int, domain: Sequence[Any], n_tuples: int,
                    seed: Optional[int] = None) -> Relation:
    """Random relation with (up to) ``n_tuples`` tuples over ``domain``."""
    rng = _rng(seed)
    return Relation(name, arity,
                    [tuple(rng.choice(domain) for _ in range(arity))
                     for _ in range(n_tuples)])


def random_database(schema: Dict[str, int], domain_size: int, tuples_per_relation: int,
                    seed: Optional[int] = None) -> Database:
    """Random database over domain {0..domain_size-1} for ``{name: arity}``."""
    rng = _rng(seed)
    domain = list(range(domain_size))
    rels = [
        random_relation(name, arity, domain, tuples_per_relation, seed=rng.randrange(2**30))
        for name, arity in schema.items()
    ]
    return Database(rels, domain=domain)


# ----------------------------------------------------------- graph structures


def graph_database(edges: Sequence[Tuple[Any, Any]], symmetric: bool = True,
                   vertices: Optional[Sequence[Any]] = None,
                   edge_name: str = "E") -> Database:
    """Wrap an edge list as a database with one binary relation ``E``.

    With ``symmetric=True`` both orientations of every edge are stored, the
    usual encoding of undirected graphs as relational structures.
    """
    rel = Relation(edge_name, 2)
    for u, v in edges:
        rel.add((u, v))
        if symmetric:
            rel.add((v, u))
    db = Database([rel])
    if vertices is not None:
        db.add_domain_values(vertices)
    return db


def path_graph(n: int) -> Database:
    """Path 0 - 1 - ... - (n-1); degree <= 2."""
    return graph_database([(i, i + 1) for i in range(n - 1)], vertices=range(n))


def cycle_graph(n: int) -> Database:
    """Cycle on n vertices; degree exactly 2."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    return graph_database(edges, vertices=range(n))


def grid_graph(m: int, n: int) -> Database:
    """The (m, n)-grid of Section 3.3: vertices {1..m} x {1..n}.

    Grids have treewidth min(m, n) — the canonical family of sparse but
    unbounded-treewidth structures on which MSO stays intractable.
    """
    edges = []
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if i < m:
                edges.append(((i, j), (i + 1, j)))
            if j < n:
                edges.append(((i, j), (i, j + 1)))
    return graph_database(edges, vertices=[(i, j) for i in range(1, m + 1)
                                           for j in range(1, n + 1)])


def random_bounded_degree_graph(n: int, degree: int, seed: Optional[int] = None) -> Database:
    """Random graph on n vertices with maximum degree <= ``degree``.

    Built by sampling candidate edges and rejecting those that would exceed
    the bound — the resulting class is of bounded degree in the sense of
    Section 3.1 and therefore enjoys linear-time FO model checking.
    """
    rng = _rng(seed)
    deg = [0] * n
    edges = set()
    attempts = 4 * n * max(degree, 1)
    for _ in range(attempts):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or (u, v) in edges or (v, u) in edges:
            continue
        # each undirected edge contributes 2 tuples, i.e. 2 to the degree of
        # each endpoint in the relational degree measure; we bound the graph
        # degree (number of neighbours)
        if deg[u] >= degree or deg[v] >= degree:
            continue
        edges.add((u, v))
        deg[u] += 1
        deg[v] += 1
    return graph_database(sorted(edges), vertices=range(n))


def random_bounded_degree_database(n: int, degree: int, schema: Dict[str, int],
                                   seed: Optional[int] = None) -> Database:
    """Random database of bounded degree: each element occurs in at most
    ``degree`` tuples overall."""
    rng = _rng(seed)
    occupancy = {x: 0 for x in range(n)}
    rels = []
    for name, arity in schema.items():
        rel = Relation(name, arity)
        for _ in range(n * degree):
            t = tuple(rng.randrange(n) for _ in range(arity))
            if all(occupancy[v] < degree for v in set(t)):
                if t not in rel:
                    rel.add(t)
                    for v in set(t):
                        occupancy[v] += 1
        rels.append(rel)
    return Database(rels, domain=range(n))


def clique_plus_independent(k: int) -> Database:
    """A k-clique plus 2^k isolated vertices (Section 3.2).

    The family {this graph : k in N} has *low degree* (degree k on
    n ~ 2^k vertices, i.e. O(log n)) but is not closed under substructures:
    the induced clique alone has unbounded relative degree.
    """
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    vertices = list(range(k + 2 ** k))
    return graph_database(edges, vertices=vertices)


def low_degree_graph(n: int, seed: Optional[int] = None) -> Database:
    """Random graph on n vertices with max degree ~ log2(n) — a member of a
    low-degree class (Definition 3.8)."""
    degree = max(2, n.bit_length())
    return random_bounded_degree_graph(n, degree, seed=seed)


def random_bipartite_graph(n: int, p: float, seed: Optional[int] = None
                           ) -> Tuple[Database, List[Any], List[Any]]:
    """Random bipartite graph A = {a_0..}, B = {b_0..}; edge prob ``p``.

    Returns (database with relation E from A to B, A, B) — the instance
    family of Equation 2 (perfect-matching counting).
    """
    rng = _rng(seed)
    a = [("a", i) for i in range(n)]
    b = [("b", i) for i in range(n)]
    rel = Relation("E", 2)
    for x in a:
        for y in b:
            if rng.random() < p:
                rel.add((x, y))
    db = Database([rel])
    db.add_domain_values(a)
    db.add_domain_values(b)
    return db, a, b


# -------------------------------------------------------------- matrix coding


def boolean_matrix(n: int, density: float, seed: Optional[int] = None) -> List[List[int]]:
    """Random n x n Boolean matrix as a list of rows."""
    rng = _rng(seed)
    return [[1 if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]


def matrices_to_database(a: List[List[int]], b: List[List[int]],
                         name_a: str = "A", name_b: str = "B") -> Database:
    """Encode matrices as binary relations: (i, j) in R_A iff A[i][j] = 1.

    This is the database D_BM of Section 4.1.2 on which the matrix
    multiplication query Pi(x, y) = exists z A(x, z) and B(z, y) computes
    the Boolean product.
    """
    n = len(a)
    ra = Relation(name_a, 2)
    rb = Relation(name_b, 2)
    for i in range(n):
        for j in range(n):
            if a[i][j]:
                ra.add((i, j))
            if b[i][j]:
                rb.add((i, j))
    db = Database([ra, rb])
    db.add_domain_values(range(n))
    return db


# ------------------------------------------------------------ formula instances


def random_kdnf(n_vars: int, n_terms: int, k: int = 3, seed: Optional[int] = None
                ) -> List[List[int]]:
    """Random k-DNF over variables 1..n_vars.

    A formula is a list of terms; a term is a list of non-zero ints, where
    ``v`` means the variable v positively and ``-v`` negated.  This is the
    instance family for #DNF / the Karp-Luby FPRAS (Section 5.1).
    """
    rng = _rng(seed)
    terms = []
    for _ in range(n_terms):
        chosen = rng.sample(range(1, n_vars + 1), min(k, n_vars))
        terms.append([v if rng.random() < 0.5 else -v for v in chosen])
    return terms


def random_kcnf(n_vars: int, n_clauses: int, k: int = 3, seed: Optional[int] = None
                ) -> List[List[int]]:
    """Random k-CNF in the same literal convention as :func:`random_kdnf`."""
    rng = _rng(seed)
    clauses = []
    for _ in range(n_clauses):
        chosen = rng.sample(range(1, n_vars + 1), min(k, n_vars))
        clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
    return clauses
