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
of the free-connex engine and the counting kernel's messages over its
join tree (:func:`repro.engine.columnar.acyclic_join_messages`, one
linear bottom-up pass, Theorem 4.21), kept per row instead of summed
away: each row's subtree count, its group of rows sharing its key over
the parent's variables, and, per tree edge, each parent row's child
group.  A node's rows are sorted stably by group, with a running sum
of their counts, so a group is one contiguous run of cumulative counts.

The answer order is a mixed-radix numeral over the tree: the root's
rows, in the derived relation's row order, are the most significant
digit; under a fixed row, its children's subtrees split the residual
index with the rightmost child varying fastest; and within a child's
group the rows again follow the derived relation's row order.  The
join is derived on columnar relations whatever the engine, so the order
is the same on both.  ``answer(j)`` descends the tree by a binary
search in each group's run, in O(|query| * log ||D||).  Random order
samples indexes without replacement (a Fisher-Yates over [0, count)
driven by a permutation generator that stores O(#emitted) state).

The sums are int64 while the product of the derived relations' row
counts stays below :data:`~repro.engine.columnar.COUNT_BOUND`; at or
past it the same kernel sums Python ints (all-ones object row
weights), so counts and indexes stay exact past 2^63.
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.data.database import Database
from repro.engine.columnar import (
    COUNT_BOUND,
    _dp_gather,
    acyclic_join_messages,
    message_tree,
)
from repro.enumeration.free_connex import derive_free_join
from repro.errors import NotFreeConnexError, UnsupportedQueryError
from repro.logic.cq import ConjunctiveQuery

Tup = Tuple[Any, ...]


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
        derived = derive_free_join(self.cq, self.db, engine="columnar")
        # a satisfiable Boolean query has one answer, (), and no join
        self._total = 0 if derived is None else 1
        self._root: Optional[int] = None
        if not derived:
            return
        tree, share_vars = message_tree(derived)
        weights = None
        if math.prod(len(r) for r in derived) >= COUNT_BOUND:
            # int64 sums could wrap: sum Python ints instead
            weights = {node: np.ones(len(r), dtype=object)
                       for node, r in enumerate(derived)}
        # per node: rows sorted stably by group, their running count,
        # each group's run [bounds[g], bounds[g + 1]) and total
        self._runs = {}
        groups_of = {}
        for node, values, groups, padded in acyclic_join_messages(
                derived, tree, share_vars, weights):
            order = np.argsort(groups.ids, kind="stable")
            bounds = np.zeros(groups.card + 2, dtype=np.int64)
            np.cumsum(groups.sizes, out=bounds[1:])
            self._runs[node] = (order, np.cumsum(values[order]), bounds,
                                padded)
            groups_of[node] = groups
        # per node: its children and each parent row's group in each
        self._children = {
            node: [(child, _dp_gather(derived[node], derived[child], edge,
                                      share_vars[child], groups_of[child]))
                   for edge, child in enumerate(tree.children[node])]
            for node in tree.nodes()}
        # each head variable's column, in the first relation holding it
        self._head = []
        for v in self.cq.head:
            node = next(n for n, r in enumerate(derived) if r.has_variable(v))
            self._head.append((derived[node].column(v), node))
        self._decode = derived[0].dictionary.decode
        self._root = tree.root
        self._total = int(self._runs[tree.root][3][0])

    # ------------------------------------------------------------- queries

    def count(self) -> int:
        """|phi(D)| (also obtainable via the counting engine; here it is a
        by-product of the index)."""
        return self._total

    def answer(self, j: int) -> Tup:
        """The j-th answer, 0-based, in the index's fixed order."""
        if j < 0 or j >= self._total:
            raise IndexError(
                f"answer index {j} out of range 0..{self._total - 1}")
        if self._root is None:      # a Boolean query's one answer
            return ()
        rows: Dict[int, int] = {}
        self._descend(self._root, 0, j, rows)
        return tuple(self._decode(int(col[rows[node]]))
                     for col, node in self._head)

    def _descend(self, node: int, group: int, index: int,
                 rows: Dict[int, int]) -> None:
        """Pick the row of ``node``'s ``group`` owning ``index``, then
        split the residual over its children."""
        order, cum, bounds, _padded = self._runs[node]
        lo, hi = int(bounds[group]), int(bounds[group + 1])
        before = int(cum[lo - 1]) if lo else 0
        pos = lo + int(cum[lo:hi].searchsorted(before + index, "right"))
        residual = before + index - (int(cum[pos - 1]) if pos else 0)
        row = int(order[pos])
        rows[node] = row
        # mixed radix, rightmost child varying fastest
        for child, gather in reversed(self._children[node]):
            child_group = int(gather[row])
            total = int(self._runs[child][3][child_group])
            residual, index_c = divmod(residual, total)
            self._descend(child, child_group, index_c, rows)

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
