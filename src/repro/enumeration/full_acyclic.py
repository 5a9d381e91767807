"""Constant-delay enumeration of a globally consistent acyclic full join.

This is the kernel under the free-connex algorithm (Theorem 4.6): given
relations R_1..R_m over variable sets forming an alpha-acyclic hypergraph,
*globally consistent* (every tuple of every relation participates in at
least one join result), the full join can be enumerated with delay
O(m) — independent of the data — by nested index probes along a join tree
in depth-first preorder:

* by the running-intersection property, the variables a node shares with
  everything enumerated before it are exactly those shared with its
  parent, so one hash probe per node suffices;
* by global consistency no probe ever comes back empty, so the nested
  loops never hit a dead end and each step of the iteration makes output
  progress.

Global consistency is the caller's responsibility; for safety the
constructor can run a full-reducer pass (pairwise consistency along a join
tree implies global consistency for acyclic schemes — Beeri, Fagin, Maier,
Yannakakis 1983).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import obs
from repro.engine.enumerate import BlockIterator, batchable
from repro.enumeration.base import Answer, Enumerator
from repro.eval.join import VarRelation
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.jointree import JoinTree, build_join_tree
from repro.logic.terms import Variable


#: answers amortised into one ``obs.delay`` on the traced tuple-path
#: probe join (mirrors the batched pipeline's per-block recording)
_DELAY_STRIDE = 256


def reduce_relations(tree: JoinTree, relations: List[VarRelation]
                     ) -> List[VarRelation]:
    """Full reducer on bare relations along a join tree (node i uses
    relations[i]); returns the reduced list."""
    relations = list(relations)
    with obs.span("full_join.reduce", nodes=len(relations)):
        for node in tree.bottom_up():
            parent = tree.parent[node]
            if parent is not None:
                relations[parent] = relations[parent].semijoin(relations[node])
        for node in tree.top_down():
            for child in tree.children[node]:
                relations[child] = relations[child].semijoin(relations[node])
    return relations


class FullJoinEnumerator(Enumerator):
    """Enumerate the natural join of ``relations`` with constant delay.

    When every relation is a ColumnarRelation over one shared
    dictionary, the batched pipeline
    (:class:`repro.engine.enumerate.BlockIterator`) emits blocks that
    ramp from 64 answers up to B (``DEFAULT_BLOCK_SIZE``, 1024);
    otherwise the probe join's stream is chunked into blocks of 1, 2,
    4, ... answers up to B.

    Parameters
    ----------
    relations:
        The relations to join; their variable sets must form an
        alpha-acyclic hypergraph.
    head:
        Output variable order.  Must cover *all* join variables —
        otherwise the same head tuple could be emitted repeatedly (use the
        free-connex engine for genuine projections).
    reduce:
        When True (default) run the full reducer first, guaranteeing
        global consistency; set False only when the inputs are known
        consistent (saves one linear pass).
    """

    def __init__(self, relations: Sequence[VarRelation],
                 head: Sequence[Variable], reduce: bool = True):
        super().__init__()
        self._relations = list(relations)
        self._head = tuple(head)
        self._reduce = reduce
        self._block_iter: Optional[BlockIterator] = None
        all_vars: Dict[Variable, None] = {}
        for r in self._relations:
            for v in r.variables:
                all_vars.setdefault(v, None)
        if set(self._head) != set(all_vars):
            raise ValueError(
                "head must cover exactly the join variables; "
                f"head={sorted(v.name for v in self._head)} "
                f"join={sorted(v.name for v in all_vars)}"
            )
        self._tree: Optional[JoinTree] = None
        self._order: List[int] = []
        self._probe_vars: List[Tuple[Variable, ...]] = []
        self._empty = False

    # ------------------------------------------------------------ preprocess

    def _preprocess(self) -> None:
        h = Hypergraph(
            {v for r in self._relations for v in r.variables},
            [frozenset(r.variables) for r in self._relations],
        )
        self._tree = build_join_tree(h)  # raises NotAcyclicError if cyclic
        if self._reduce:
            self._relations = reduce_relations(self._tree, self._relations)
        if any(len(r) == 0 for r in self._relations):
            self._empty = True
            return
        if batchable(self._relations):
            # batched columnar pipeline: probe structures replace the
            # decoded hash indexes entirely
            self._block_iter = BlockIterator(
                self._relations, self._head, tree=self._tree, reduce=False)
            return
        # DFS preorder; for each node, the probe variables (shared with parent)
        self._order = self._tree.top_down()
        self._probe_vars = []
        for node in self._order:
            parent = self._tree.parent[node]
            if parent is None:
                self._probe_vars.append(())
            else:
                parent_vars = set(self._relations[parent].variables)
                self._probe_vars.append(tuple(
                    v for v in self._relations[node].variables if v in parent_vars
                ))
        # warm the probe indexes during preprocessing, not mid-enumeration
        with obs.span("full_join.index_build", nodes=len(self._order)):
            for node, pv in zip(self._order, self._probe_vars):
                self._relations[node].index_on(pv)

    # ------------------------------------------------------------- enumerate

    def warm_decode_table(self) -> None:
        """Bring the batched pipeline's decode table up to date (see
        :meth:`repro.engine.enumerate.BlockIterator.warm_decode_table`);
        the tuple path decodes nothing."""
        if self._block_iter is not None:
            self._block_iter.warm_decode_table()

    def _blocks(self) -> Iterator[List[Answer]]:
        """The batched pipeline's native blocks; the tuple path chunks
        its per-tuple stream (:meth:`Enumerator._blocks`)."""
        if self._block_iter is not None:
            return self._block_iter.blocks()
        return super()._blocks()

    def _enumerate(self) -> Iterator[Answer]:
        if self._empty:
            return
        if self._block_iter is not None:
            for block in self._block_iter.blocks():
                yield from block
            return
        if obs.enabled():
            yield from self._enumerate_recorded()
            return
        yield from self._probe_join()

    def _enumerate_recorded(self) -> Iterator[Answer]:
        """The tuple-path probe join with amortised delay recording,
        run only while tracing is live.

        The batched pipeline records one ``obs.delay`` per kernel block
        (see :meth:`repro.engine.enumerate.BlockIterator.blocks`); the
        tuple path has no native blocks, so production gaps are summed
        across ``_DELAY_STRIDE`` answers before one ``obs.delay``, which
        also counts them as one block.  Clock reads bracket each yield,
        so consumer time between answers never inflates the recorded
        delays."""
        import time

        clock = time.perf_counter_ns
        produced = 0
        gap_acc = 0
        last = clock()
        for tup in self._probe_join():
            gap_acc += clock() - last
            produced += 1
            yield tup
            last = clock()
            if produced >= _DELAY_STRIDE:
                obs.delay(gap_acc, produced)
                produced = 0
                gap_acc = 0
        if produced:
            obs.delay(gap_acc, produced)

    def _probe_join(self) -> Iterator[Answer]:
        order = self._order
        relations = self._relations
        probe_vars = self._probe_vars
        head = self._head
        assignment: Dict[Variable, Any] = {}

        def rec(i: int) -> Iterator[Answer]:
            if i == len(order):
                yield tuple(assignment[v] for v in head)
                return
            node = order[i]
            rel = relations[node]
            pv = probe_vars[i]
            key = tuple(assignment[v] for v in pv)
            for t in rel.index_on(pv).get(key, ()):
                added = []
                for v, val in zip(rel.variables, t):
                    if v not in assignment:
                        assignment[v] = val
                        added.append(v)
                yield from rec(i + 1)
                for v in added:
                    del assignment[v]

        yield from rec(0)
