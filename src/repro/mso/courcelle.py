"""The Courcelle-style DP harness over nice tree decompositions.

A :class:`PropertySpec` (see :mod:`repro.mso.properties`) describes a
vertex-labelled property: states are assignments of a finite label set to
the current bag, with transition rules for introduce/forget/join nodes.
The harness runs one bottom-up pass maintaining, per node, a table

    state -> semiring value

with three instantiations of the value semiring:

* decision — "is the table non-empty at the root" (Theorem 3.11);
* counting — number of labelings reaching each state (the counting
  extension of Courcelle's theorem, [6] in the paper);
* optimisation — best solution size (min or max) with multiplicity.

All passes are linear in the number of decomposition nodes for a fixed
width, i.e. linear in ||G|| — the bound of Theorem 3.11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.mso.treedecomp import (
    Graph,
    NiceTreeDecomposition,
    make_nice,
    tree_decomposition,
)

V = Hashable
# a state assigns a label to every bag vertex, as a sorted tuple of pairs
State = Tuple[Tuple[V, Any], ...]


def _state(mapping: Dict[V, Any]) -> State:
    return tuple(sorted(mapping.items(), key=lambda kv: str(kv[0])))


class PropertySpec:
    """A vertex-labelling property, defined by its local transition rules.

    Subclasses define ``labels`` plus the three hooks; see
    :mod:`repro.mso.properties` for the canonical instances.
    """

    labels: Tuple[Any, ...] = ()

    def introduce_labels(self, vertex: V, label: Any, bag_state: Dict[V, Any],
                         neighbours: Iterable[V]) -> Optional[Dict[V, Any]]:
        """Return the updated bag labelling when ``vertex`` gets ``label``
        (neighbours = already-present bag neighbours), or None if locally
        inconsistent."""
        raise NotImplementedError

    def forget_ok(self, vertex: V, label: Any, bag_state: Dict[V, Any]) -> bool:
        """May ``vertex`` leave the bag with this label? (e.g. dominating
        set requires a forgotten vertex to be dominated)."""
        return True

    def join_compatible(self, label_left: Any, label_right: Any) -> Optional[Any]:
        """Combine the labels of one vertex from two subtrees, or None."""
        return label_left if label_left == label_right else None

    def accept_root(self) -> bool:
        return True

    def solution_labels(self) -> Tuple[Any, ...]:
        """Labels meaning 'vertex belongs to the solution set' (for size
        accounting and enumeration)."""
        return ()

    def join_size_overlap(self, state: Dict[V, Any]) -> int:
        """Solution-set size counted twice at a join (bag vertices in the
        solution), to subtract once."""
        sol = set(self.solution_labels())
        return sum(1 for lab in state.values() if lab in sol)


@dataclass
class DPTables:
    """The result of a bottom-up pass: per node,
    state -> (count, min solution size, max solution size)."""

    nice: NiceTreeDecomposition
    tables: List[Dict[State, Tuple[int, int, int]]]

    def root_table(self) -> Dict[State, Tuple[int, int, int]]:
        return self.tables[self.nice.root]


def run_dp(graph: Graph, spec: PropertySpec,
           nice: Optional[NiceTreeDecomposition] = None,
           track_counts: bool = True) -> DPTables:
    """One bottom-up pass computing, per reachable state, the number of
    labelings reaching it together with the smallest and largest
    solution-set size among them.  Linear in the decomposition size for a
    fixed width and label set.

    ``track_counts=False`` clamps every count to 1: the exact counts of
    natural properties have Theta(n) bits, so Python's exact arithmetic
    makes counting inherently ~quadratic on real hardware (the paper's
    RAM model charges unit cost per operation); decision and optimisation
    queries do not need the counts and stay truly linear.
    """
    if nice is None:
        nice = make_nice(tree_decomposition(graph))
    tables: List[Dict[State, Tuple[int, int, int]]] = [dict() for _ in nice.nodes]

    for i in nice.bottom_up():
        node = nice.nodes[i]
        table: Dict[State, Tuple[int, int, int]] = {}
        if node.kind == "leaf":
            table[_state({})] = (1, 0, 0)
        elif node.kind == "introduce":
            child_table = tables[node.children[0]]
            v = node.vertex
            neighbours = [u for u in graph.get(v, ()) if u in node.bag and u != v]
            sol = set(spec.solution_labels())
            for state, (count, lo, hi) in child_table.items():
                bag_state = dict(state)
                for label in spec.labels:
                    updated = spec.introduce_labels(v, label, dict(bag_state), neighbours)
                    if updated is None:
                        continue
                    delta = 1 if label in sol else 0
                    key = _state(updated)
                    old = table.get(key)
                    if old is None:
                        table[key] = (count, lo + delta, hi + delta)
                    else:
                        table[key] = (old[0] + count, min(old[1], lo + delta),
                                      max(old[2], hi + delta))
        elif node.kind == "forget":
            child_table = tables[node.children[0]]
            v = node.vertex
            for state, (count, lo, hi) in child_table.items():
                bag_state = dict(state)
                label = bag_state.pop(v)
                if not spec.forget_ok(v, label, bag_state):
                    continue
                key = _state(bag_state)
                old = table.get(key)
                if old is None:
                    table[key] = (count, lo, hi)
                else:
                    table[key] = (old[0] + count, min(old[1], lo), max(old[2], hi))
        elif node.kind == "join":
            left = tables[node.children[0]]
            right = tables[node.children[1]]
            for lstate, (lc, llo, lhi) in left.items():
                lmap = dict(lstate)
                for rstate, (rc, rlo, rhi) in right.items():
                    rmap = dict(rstate)
                    combined: Dict[V, Any] = {}
                    ok = True
                    for v2 in lmap:
                        merged = spec.join_compatible(lmap[v2], rmap[v2])
                        if merged is None:
                            ok = False
                            break
                        combined[v2] = merged
                    if not ok:
                        continue
                    overlap = spec.join_size_overlap(combined)
                    key = _state(combined)
                    count = lc * rc if track_counts else 1
                    lo = llo + rlo - overlap
                    hi = lhi + rhi - overlap
                    old = table.get(key)
                    if old is None:
                        table[key] = (count, lo, hi)
                    else:
                        table[key] = (old[0] + count, min(old[1], lo),
                                      max(old[2], hi))
        else:  # pragma: no cover
            raise ValueError(f"unknown nice node kind {node.kind!r}")
        if not track_counts:
            # clamp at every node: additions would otherwise regrow big ints
            table = {k: (1, lo, hi) for k, (_c, lo, hi) in table.items()}
        tables[i] = table
    return DPTables(nice, tables)


def decide(graph: Graph, spec: PropertySpec) -> bool:
    """Theorem 3.11: linear-time model checking of the property."""
    tables = run_dp(graph, spec, track_counts=False)
    return bool(tables.root_table())


def count_solutions(graph: Graph, spec: PropertySpec) -> int:
    """Number of satisfying labelings (e.g. proper 3-colourings,
    independent sets) — the counting extension of Courcelle's theorem."""
    tables = run_dp(graph, spec)
    return sum(count for count, _lo, _hi in tables.root_table().values())


def optimise(graph: Graph, spec: PropertySpec, maximise: bool = False
             ) -> Optional[int]:
    """Best solution-set size (min by default, max with ``maximise``),
    or None when the property is unsatisfiable on the graph.
    """
    tables = run_dp(graph, spec, track_counts=False)
    root = tables.root_table()
    if not root:
        return None
    if maximise:
        return max(hi for _c, _lo, hi in root.values())
    return min(lo for _c, lo, _hi in root.values())
