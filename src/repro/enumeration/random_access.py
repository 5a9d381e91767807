"""Random access and random-order enumeration for free-connex ACQs.

The survey's "additional extensions" paragraph (Section 4.3) points at
[Carmeli, Zeevi, Berkholz, Kimelfeld, Schweikardt 2019]: for free-connex
queries one can, after the same linear preprocessing, support

* ``answer(j)`` — return the j-th answer (in a fixed enumeration order)
  in query-size time, and
* random-*order* enumeration — a uniformly random permutation of the
  answers, emitted one by one without repetition and without
  materialising the answer set.

The structure making this possible is the derived quantifier-free join
of the free-connex engine: over its join tree, count, for every node
tuple, the number of join results in the subtree below it (one linear
message-passing pass, as in the counting engine, but *keeping* the
per-tuple counts).  An answer index then decomposes along the tree like
a mixed-radix numeral: at each node, a binary search over the sibling
tuples' cumulative counts picks the branch, and the children split the
residual index by their subtree-count products.

``answer(j)`` costs O(|query| * log ||D||); random order is sampling
indexes without replacement (a Fisher-Yates over [0, count) driven by a
permutation generator that stores O(#emitted) state).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.data.database import Database
from repro.enumeration.free_connex import derive_free_join
from repro.errors import EnumerationError, NotFreeConnexError, UnsupportedQueryError
from repro.eval.join import VarRelation
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.jointree import build_join_tree
from repro.logic.cq import ConjunctiveQuery
from repro.logic.terms import Variable

Tup = Tuple[Any, ...]


class _NodeIndex:
    """Per (node, parent-key) bucket: the node's tuples in a fixed order
    with cumulative subtree counts, enabling O(log) index descent."""

    __slots__ = ("tuples", "cumulative")

    def __init__(self) -> None:
        self.tuples: List[Tup] = []
        self.cumulative: List[int] = []  # cumulative[i] = sum counts[0..i]

    def add(self, tup: Tup, count: int) -> None:
        total = self.cumulative[-1] if self.cumulative else 0
        self.tuples.append(tup)
        self.cumulative.append(total + count)

    def total(self) -> int:
        return self.cumulative[-1] if self.cumulative else 0

    def locate(self, index: int) -> Tuple[Tup, int]:
        """The tuple owning ``index`` and the residual index within it."""
        pos = bisect_right(self.cumulative, index)
        if pos >= len(self.tuples):
            raise EnumerationError(
                f"index {index} out of range (bucket total {self.total()})")
        before = self.cumulative[pos - 1] if pos else 0
        return self.tuples[pos], index - before


class RandomAccessEnumerator:
    """answer(j), count(), inverted lookup and random-order iteration for
    a free-connex ACQ, after one linear preprocessing pass."""

    def __init__(self, cq: ConjunctiveQuery, db: Database):
        if cq.has_comparisons():
            raise UnsupportedQueryError(
                "random access is implemented for comparison-free queries")
        if not cq.is_acyclic() or not cq.is_free_connex():
            raise NotFreeConnexError(
                f"{cq!r} is not free-connex; random access in query-size "
                "time is not available (Theorem 4.8 territory)")
        self.cq = cq
        self.db = db
        self._prepare()

    # ------------------------------------------------------------ building

    def _prepare(self) -> None:
        derived = derive_free_join(self.cq, self.db)
        if self.cq.is_boolean():
            # zero or one answer: the empty tuple
            self._boolean_count = 0 if derived is None else 1
            self._relations: List[VarRelation] = []
            return
        self._boolean_count = None
        if derived is None:
            self._relations = []
            self._total = 0
            return
        h = Hypergraph(
            {v for r in derived for v in r.variables},
            [frozenset(r.variables) for r in derived],
        )
        tree = build_join_tree(h)
        from repro.enumeration.full_acyclic import reduce_relations

        self._relations = reduce_relations(tree, list(derived))
        if any(len(r) == 0 for r in self._relations):
            self._total = 0
            return
        self._tree = tree
        self._order = tree.top_down()
        # probe variables per node (shared with parent)
        self._probe_vars: Dict[int, Tuple[Variable, ...]] = {}
        for node in self._order:
            parent = tree.parent[node]
            if parent is None:
                self._probe_vars[node] = ()
            else:
                pv = set(self._relations[parent].variables)
                self._probe_vars[node] = tuple(
                    v for v in self._relations[node].variables if v in pv)
        # bottom-up subtree counts per tuple, bucketed by parent key
        self._buckets: Dict[int, Dict[Tup, _NodeIndex]] = {}
        counts: Dict[int, Dict[Tup, int]] = {}
        for node in tree.bottom_up():
            rel = self._relations[node]
            pv = self._probe_vars[node]
            key_pos = [rel.position(v) for v in pv]
            child_info = []
            for c in tree.children[node]:
                cpv = self._probe_vars[c]
                child_info.append(
                    (c, [rel.position(v) for v in cpv]))
            node_counts: Dict[Tup, int] = {}
            buckets: Dict[Tup, _NodeIndex] = {}
            for t in rel:
                count = 1
                for c, pos in child_info:
                    child_key = tuple(t[p] for p in pos)
                    bucket = self._buckets[c].get(child_key)
                    count *= bucket.total() if bucket else 0
                if count == 0:
                    continue  # cannot happen after reduction, defensive
                node_counts[t] = count
                key = tuple(t[p] for p in key_pos)
                buckets.setdefault(key, _NodeIndex()).add(t, count)
            counts[node] = node_counts
            self._buckets[node] = buckets
        root_bucket = self._buckets[tree.root].get(())
        self._total = root_bucket.total() if root_bucket else 0

    # ------------------------------------------------------------- queries

    def count(self) -> int:
        """|phi(D)| (also obtainable via the counting engine; here it is a
        by-product of the index)."""
        if self._boolean_count is not None:
            return self._boolean_count
        return getattr(self, "_total", 0)

    def answer(self, j: int) -> Tup:
        """The j-th answer, 0-based, in the index's fixed order."""
        if j < 0 or j >= self.count():
            raise IndexError(f"answer index {j} out of range 0..{self.count() - 1}")
        if self._boolean_count is not None:
            return ()
        assignment: Dict[Variable, Any] = {}

        def descend(node: int, index: int) -> None:
            pv = self._probe_vars[node]
            key = tuple(assignment[v] for v in pv)
            bucket = self._buckets[node][key]
            tup, residual = bucket.locate(index)
            rel = self._relations[node]
            for v, val in zip(rel.variables, tup):
                assignment[v] = val
            # split the residual index across the children (mixed radix,
            # rightmost child varies fastest)
            children = self._tree.children[node]
            child_totals = []
            for c in children:
                cpv = self._probe_vars[c]
                ckey = tuple(assignment[v] for v in cpv)
                child_totals.append((c, self._buckets[c][ckey].total()))
            for c, total in reversed(child_totals):
                index_c = residual % total
                residual //= total
                descend(c, index_c)

        descend(self._tree.root, j)
        return tuple(assignment[v] for v in self.cq.head)

    def __len__(self) -> int:
        return self.count()

    def __getitem__(self, j: int) -> Tup:
        return self.answer(j)

    def in_order(self) -> Iterator[Tup]:
        """All answers in index order (for tests: must equal answer(0..))."""
        for j in range(self.count()):
            yield self.answer(j)

    def random_order(self, seed: Optional[int] = None) -> Iterator[Tup]:
        """A uniformly random permutation of the answers, lazily.

        Uses the classic swap-dictionary Fisher-Yates so only O(#emitted)
        state is kept — no materialisation of the answer set.
        """
        rng = random.Random(seed)
        n = self.count()
        swaps: Dict[int, int] = {}
        for i in range(n):
            j = rng.randrange(i, n)
            vi = swaps.get(i, i)
            vj = swaps.get(j, j)
            swaps[i], swaps[j] = vj, vi
            yield self.answer(swaps[i])

    def sample(self, k: int, seed: Optional[int] = None,
               replacement: bool = True) -> List[Tup]:
        """k answers sampled uniformly (with or without replacement)."""
        rng = random.Random(seed)
        n = self.count()
        if not replacement:
            if k > n:
                raise ValueError(f"cannot sample {k} of {n} without replacement")
            out: List[Tup] = []
            for tup in self.random_order(seed=rng.randrange(2 ** 30)):
                out.append(tup)
                if len(out) == k:
                    break
            return out
        return [self.answer(rng.randrange(n)) for _ in range(k)]
