"""r-neighbourhoods, isomorphism types and Hanf censuses (Section 3.1).

The engine room of FO locality on sparse structures: on a degree-<= c
graph, the radius-r ball around any vertex has at most c^{r+1} vertices,
so its isomorphism type is one of finitely many.  Hanf's theorem says two
structures satisfying the same *census* ("how many vertices have ball
type tau", counted up to a threshold) satisfy the same FO sentences of
corresponding quantifier rank — which is why model checking reduces to
one linear census pass (Theorem 3.1's engine, here made explicit).

Supported structures: graph databases — one binary edge relation plus
any number of unary colour relations.  Isomorphism of the (small) balls
is decided exactly by backtracking with degree/colour invariants.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from repro.data.database import Database

V = Hashable


@dataclass
class BallStructure:
    """The induced substructure on a radius-r ball, with its center."""

    center: V
    radius: int
    vertices: Tuple[V, ...]
    adjacency: Dict[V, Set[V]]
    colours: Dict[V, FrozenSet[str]]

    def size(self) -> int:
        return len(self.vertices)

    def invariant(self) -> Tuple:
        """A cheap isomorphism invariant: sorted refined colour profile.

        One round of colour refinement seeded with (distance-from-center,
        colours, degree) — complete enough to bucket candidates before
        the exact check."""
        dist = _distances(self.adjacency, self.center)
        base = {
            v: (dist.get(v, -1), tuple(sorted(self.colours[v])),
                len(self.adjacency[v]))
            for v in self.vertices
        }
        refined = {
            v: (base[v], tuple(sorted(base[u] for u in self.adjacency[v])))
            for v in self.vertices
        }
        return tuple(sorted(refined.values()))


def _distances(adjacency: Dict[V, Set[V]], source: V) -> Dict[V, int]:
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt: List[V] = []
        for u in frontier:
            for w in adjacency.get(u, ()):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def full_adjacency(db: Database, edge_name: str = "E") -> Dict[V, Set[V]]:
    """Undirected adjacency of the whole graph (self-loops dropped)."""
    adjacency: Dict[V, Set[V]] = {}
    for u, w in db.relation(edge_name):
        if u != w:
            adjacency.setdefault(u, set()).add(w)
            adjacency.setdefault(w, set()).add(u)
    return adjacency


def extract_ball(db: Database, center: V, r: int, edge_name: str = "E",
                 adjacency: Optional[Dict[V, Set[V]]] = None,
                 colour_names: Optional[List[str]] = None) -> BallStructure:
    """The induced coloured subgraph on N_r(center).

    Pass a precomputed ``adjacency`` (from :func:`full_adjacency`) when
    extracting many balls — the census does, keeping it one linear pass.
    """
    if adjacency is None:
        adjacency = full_adjacency(db, edge_name)
    # BFS to depth r
    inside = {center}
    frontier = [center]
    for _ in range(r):
        nxt: List[V] = []
        for u in frontier:
            for w in adjacency.get(u, ()):
                if w not in inside:
                    inside.add(w)
                    nxt.append(w)
        frontier = nxt
    induced = {v: (adjacency.get(v, set()) & inside) for v in inside}
    if colour_names is None:
        colour_names = [rel.name for rel in db if rel.arity == 1]
    colours = {
        v: frozenset(name for name in colour_names
                     if (v,) in db.relation(name))
        for v in inside
    }
    return BallStructure(center=center, radius=r,
                         vertices=tuple(sorted(inside, key=str)),
                         adjacency=induced, colours=colours)


def balls_isomorphic(a: BallStructure, b: BallStructure) -> bool:
    """Exact isomorphism of two balls, centers mapped to centers."""
    if a.size() != b.size() or a.invariant() != b.invariant():
        return False
    # backtracking with (distance, colours, degree) signatures
    dist_a = _distances(a.adjacency, a.center)
    dist_b = _distances(b.adjacency, b.center)

    def signature(ball: BallStructure, dist: Dict[V, int], v: V) -> Tuple:
        return (dist.get(v, -1), tuple(sorted(ball.colours[v])),
                len(ball.adjacency[v]))

    sig_b: Dict[Tuple, List[V]] = {}
    for v in b.vertices:
        sig_b.setdefault(signature(b, dist_b, v), []).append(v)

    order = sorted(a.vertices, key=lambda v: (dist_a.get(v, -1), str(v)))
    mapping: Dict[V, V] = {}
    used: Set[V] = set()

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in sig_b.get(signature(a, dist_a, v), []):
            if w in used:
                continue
            if (v == a.center) != (w == b.center):
                continue
            # edges to already-mapped vertices must agree
            ok = True
            for u in a.adjacency[v]:
                if u in mapping and mapping[u] not in b.adjacency[w]:
                    ok = False
                    break
            if ok:
                for u, mu in mapping.items():
                    if v in a.adjacency[u]:
                        continue
                    if w in b.adjacency[mu] and v not in a.adjacency[u]:
                        ok = False
                        break
            if not ok:
                continue
            mapping[v] = w
            used.add(w)
            if extend(i + 1):
                return True
            del mapping[v]
            used.discard(w)
        return False

    return extend(0)


class TypeRegistry:
    """Interns ball types: equal types share an integer id."""

    def __init__(self) -> None:
        self._buckets: Dict[Tuple, List[Tuple[int, BallStructure]]] = {}
        self._next = 0
        self.representatives: Dict[int, BallStructure] = {}

    def type_of(self, ball: BallStructure) -> int:
        key = (ball.size(), ball.invariant())
        for type_id, rep in self._buckets.get(key, []):
            if balls_isomorphic(ball, rep):
                return type_id
        type_id = self._next
        self._next += 1
        self._buckets.setdefault(key, []).append((type_id, ball))
        self.representatives[type_id] = ball
        return type_id


def hanf_census(db: Database, r: int, edge_name: str = "E",
                registry: Optional[TypeRegistry] = None
                ) -> Tuple[Counter, TypeRegistry]:
    """The r-ball type census of the structure: Counter(type id -> how
    many vertices realise it).  Linear in ||D|| for fixed r on bounded
    degree (each ball has constant size)."""
    registry = registry or TypeRegistry()
    census: Counter = Counter()
    adjacency = full_adjacency(db, edge_name)
    colour_names = [rel.name for rel in db if rel.arity == 1]
    for v in db.domain:
        ball = extract_ball(db, v, r, edge_name, adjacency=adjacency,
                            colour_names=colour_names)
        census[registry.type_of(ball)] += 1
    return census, registry


def hanf_equivalent(db1: Database, db2: Database, r: int, threshold: int,
                    edge_name: str = "E") -> bool:
    """Hanf equivalence: the two censuses agree on every type up to
    ``threshold`` (counts above it are indistinguishable).  Structures
    equivalent at radius 3^q and threshold q x (max ball size) satisfy
    the same FO sentences of quantifier rank q."""
    registry = TypeRegistry()
    census1, _ = hanf_census(db1, r, edge_name, registry)
    census2, _ = hanf_census(db2, r, edge_name, registry)
    types = set(census1) | set(census2)
    return all(
        min(census1.get(t, 0), threshold) == min(census2.get(t, 0), threshold)
        for t in types
    )
