"""Instance-family descriptors packaging the sparsity dichotomy
(Theorems 3.6/3.7: nowhere dense = tractable FO, somewhere dense closed
under subgraphs = AW[*]-complete).

A class descriptor generates members of a parameterised instance family
and reports the structural facts the dichotomy keys on — degree growth
and shallow-clique-minor content — so tests and benchmarks can verify
the families sit on the intended side of the frontier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.data.database import Database
from repro.data import generators
from repro.mso.treedecomp import Graph, adjacency_from_database
from repro.sparse.degree import low_degree_epsilon, structure_degree
from repro.sparse.minors import clique_minor_number


@dataclass
class ClassDescriptor:
    """A named family of graph databases indexed by a size parameter."""

    name: str
    make: Callable[[int], Database]
    expected_nowhere_dense: bool
    closed_under_subgraphs: bool

    def member(self, n: int) -> Database:
        return self.make(n)

    def profile(self, n: int, r: int = 1, max_k: int = 5) -> Dict[str, object]:
        """Structural facts for the size-n member."""
        db = self.make(n)
        graph: Graph = adjacency_from_database(db)
        return {
            "name": self.name,
            "n": n,
            "size": db.size(),
            "degree": structure_degree(db),
            "low_degree_epsilon": low_degree_epsilon(db),
            "clique_minor_number_r%d" % r: clique_minor_number(graph, r, max_k),
            "expected_nowhere_dense": self.expected_nowhere_dense,
        }


def BoundedDegreeClass(degree: int = 3, seed: int = 0) -> ClassDescriptor:
    """Random graphs of maximum degree <= ``degree`` — bounded degree,
    hence nowhere dense, hence FO-tractable (Theorems 3.1/3.2/3.6)."""
    return ClassDescriptor(
        name=f"bounded-degree({degree})",
        make=lambda n: generators.random_bounded_degree_graph(n, degree, seed=seed + n),
        expected_nowhere_dense=True,
        closed_under_subgraphs=True,
    )


def LowDegreeClass(seed: int = 0) -> ClassDescriptor:
    """Graphs of degree O(log n) — low degree (Definition 3.8), pseudo-
    linear FO (Theorems 3.9/3.10), but NOT closed under substructures."""
    return ClassDescriptor(
        name="low-degree(log n)",
        make=lambda n: generators.low_degree_graph(n, seed=seed + n),
        expected_nowhere_dense=True,
        closed_under_subgraphs=False,
    )


def GridClass() -> ClassDescriptor:
    """Square grids — sparse, unbounded treewidth, nowhere dense (planar
    graphs exclude K_5 minors at every depth); the MSO frontier family of
    Section 3.3."""
    import math

    def make(n: int) -> Database:
        side = max(2, int(math.isqrt(n)))
        return generators.grid_graph(side, side)

    return ClassDescriptor(
        name="grid",
        make=make,
        expected_nowhere_dense=True,
        closed_under_subgraphs=False,
    )


def CliqueClass() -> ClassDescriptor:
    """Complete graphs — the canonical somewhere-dense family: K_n is an
    r-minor of itself for every r, so no N_r exists (Definition 3.5); its
    subgraph closure is AW[*]-complete for FO (Theorem 3.7)."""

    def make(n: int) -> Database:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        return generators.graph_database(edges, vertices=range(n))

    return ClassDescriptor(
        name="clique",
        make=make,
        expected_nowhere_dense=False,
        closed_under_subgraphs=False,
    )
