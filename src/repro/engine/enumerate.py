"""Batched columnar answer emission: block-at-a-time join-tree expansion.

The tuple-at-a-time enumerators (:mod:`repro.enumeration.full_acyclic`)
realise the paper's constant-delay bound with one Python-level hash probe
per join-tree node per answer — correct, but interpreter speed dominates.
"Enumeration Complexity: Incremental Time, Delay and Space" (arXiv
2309.17042) frames delay as an *amortised budget*, which licenses
emitting answers in blocks: a block of B answers produced by O(m)
vectorized kernel calls costs O(m / B) interpreted steps per answer.
It also measures *incremental time*, the cost of the first k answers,
which is why blocks ramp up to B rather than start at it.

:class:`BlockIterator` walks the join tree in the same parent-before-child
order as the per-tuple enumerator, but carries a *batch* of partial
assignments as dictionary-encoded int64 columns:

* **preprocessing** builds, per non-root node, a :class:`_BatchProbe`:
  the node's probe columns (variables shared with its parent) are folded
  into one dense int64 key per row (pairwise packing with
  re-densification through a presence bitmap, ``np.unique`` only for
  sparse keys, so intermediates never overflow), then the rows are
  stably argsorted by key — insertion order is preserved inside each key
  group.  Rank tables over each column's sorted uniques and CSR offsets
  over the packed key make a probe a handful of gathers;
* **expansion** of one batch against a node is the parent-code gather +
  group-offset arithmetic of the columnar join kernel: gather each
  batch key's rank and its run of matching rows from the probe's
  tables, ``repeat``/``cumsum`` the runs open, and gather both sides'
  columns — O(1) work per key, no per-tuple Python;
* batches are re-chunked to at most ``block_size`` rows *before* each
  expansion, so the largest array ever materialised is
  ``block_size * max-fanout-per-node`` — memory stays proportional to the
  block size, not to the output;
* chunks and blocks follow one schedule (:func:`block_schedule`):
  :data:`RAMP_START` (64) rows first, doubling up to ``block_size``,
  then ``block_size``; each level of the walk keeps its own schedule,
  so the first answers expand small chunks and ``islice(stream, k)``
  pays for fewer than ``2k + 64`` answers, not for a whole block;
* at the leaves the finished batches are cut into blocks of the
  scheduled sizes (a batch's short tail carries into the next batch's
  first block, so only the stream's last block is shorter), and each
  block's head columns are decoded through the shared
  :class:`~repro.engine.columnar.ValueDictionary` and emitted as a list
  of Python tuples.  The dictionary's decode table is brought up to date
  while preprocessing, so its O(|dom|) rebuild never lands inside a
  block;
* the decoded *ramp*, every block before the first block of exactly
  ``block_size`` answers (64, 128, 256 and 512 answers at B = 1024;
  fewer than 2B at any B), is memoised on the iterator by the first
  consumer that decodes it.  The plan cache shares one iterator per
  database version, so a warm ``islice(stream, k)`` with k inside the
  ramp copies memoised blocks and runs no walk; a consumer that reads
  past the memo walks from the root and skips the memoised pieces
  without decoding them.

Chunking rows differently never reorders the depth-first walk, so the
answers and their order do not depend on the schedule.  Each iterator
reads :data:`RAMP_START` once, when it is built, so its memo and every
later walk cut the same blocks.

On globally consistent (fully reduced) inputs no probe comes back empty,
so every expansion makes output progress — the amortised-delay analogue
of the paper's no-dead-end argument for Theorem 4.6.  The emitted answer
*multiset* equals the tuple-at-a-time enumerator's (the order of answers
may differ: blocks follow key-sorted probe runs, not index insertion
order); ``tests/test_enum_block_parity.py`` checks this property on
random free-connex queries.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.engine.columnar import ColumnarRelation, _unique_inverse
from repro.errors import ConfigurationError
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.jointree import JoinTree, cached_join_tree
from repro.logic.terms import Variable

Tup = Tuple[Any, ...]

DEFAULT_BLOCK_SIZE = 1024

#: the batched pipeline's first block; blocks double from here up to B
RAMP_START = 64


def block_schedule(first: int, limit: int) -> Iterator[int]:
    """Block sizes ``first``, ``2 * first``, ``4 * first``, ... up to
    ``limit``, then ``limit`` for ever.

    The ramp bounds incremental time, the cost of the first k answers:
    the blocks holding them sum to less than ``2k + first`` answers, and
    a long stream still pays one block step per ``limit`` answers."""
    size = min(first, limit)
    while True:
        yield size
        size = min(2 * size, limit)


def resolve_block_size(block_size: Optional[int] = None) -> int:
    """Normalise a ``block_size`` argument: ``None`` means
    :data:`DEFAULT_BLOCK_SIZE`, and a value below 1 raises
    :class:`~repro.errors.ConfigurationError`."""
    if block_size is None:
        return DEFAULT_BLOCK_SIZE
    if block_size <= 0:
        raise ConfigurationError(
            f"block_size must be a positive integer, got {block_size!r}")
    return int(block_size)


def batchable(relations: Sequence[Any]) -> bool:
    """Can ``relations`` feed the batched pipeline?  All columnar, one
    shared dictionary (codes are only comparable inside one dictionary)."""
    if not relations:
        return False
    if not all(isinstance(r, ColumnarRelation) for r in relations):
        return False
    dictionary = relations[0].dictionary
    return all(r.dictionary is dictionary for r in relations)


def _dense(entries: int, length: int) -> bool:
    """May a gather structure of ``entries`` slots index an array of
    ``length`` items?  Only within a constant factor (plus slack for
    small arrays), so its memory stays linear in the relation."""
    return entries <= 4 * length + 4096


def _rank_table(uniq: np.ndarray) -> Optional[np.ndarray]:
    """``table[v]``: the rank of ``v`` in the sorted-unique ``uniq``, or
    -1 when ``v`` is absent; ``None`` when ``uniq`` is empty or too
    sparse.

    The last slot lies past ``uniq``'s largest value, so it is always
    -1: :func:`_ranks` clamps larger values onto it."""
    if len(uniq) == 0:
        return None
    entries = int(uniq[-1]) + 2
    if not _dense(entries, len(uniq)):
        return None
    table = np.full(entries, -1, dtype=np.int64)
    table[uniq] = np.arange(len(uniq), dtype=np.int64)
    return table


def _ranks(uniq: np.ndarray, table: Optional[np.ndarray],
           values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(rank, hit)`` of non-negative ``values`` in the non-empty
    sorted-unique ``uniq``: ``hit`` marks the values that occur, and
    every rank is clamped into ``[0, len(uniq))``, so it can index."""
    if table is not None:
        rank = table[np.minimum(values, len(table) - 1)]
        hit = rank >= 0
        np.maximum(rank, 0, out=rank)
        return rank, hit
    rank = np.searchsorted(uniq, values)
    np.minimum(rank, len(uniq) - 1, out=rank)
    return rank, uniq[rank] == values


def _offsets(sorted_keys: np.ndarray, space: int) -> Optional[np.ndarray]:
    """CSR offsets over packed keys in ``[0, space)``: the rows with key
    ``k`` sit at sorted positions ``off[k]:off[k + 1]``.  ``None`` when
    the key space is too sparse for the row count."""
    if not _dense(space + 1, len(sorted_keys)):
        return None
    off = np.zeros(space + 1, dtype=np.int64)
    np.cumsum(np.bincount(sorted_keys, minlength=space), out=off[1:])
    return off


class _BatchProbe:
    """Sorted-key probe structure of one join-tree node.

    Folds the node's probe columns into a single dense int64 key per row
    and argsorts the rows by key.  A batch of probe keys resolves to
    (start, count) runs by gathers: one per key column through the
    rank table of the column's sorted uniques, and one more through the
    rank table of the packed prefix's uniques from the second column on;
    then ``lo = off[k]`` and ``count = off[k + 1] - lo`` through CSR
    offsets over the packed key.  A structure too sparse to build
    (:func:`_dense`) falls back to ``searchsorted``, which costs a log
    factor per key and finds the same runs.
    """

    __slots__ = ("steps", "order", "sorted_keys", "offsets", "nrows")

    def __init__(self, key_columns: Sequence[np.ndarray], nrows: int):
        self.nrows = nrows
        # per key column: (sorted uniques of the packed prefix and their
        # rank table, both None for the first column; sorted uniques of
        # the column and their rank table)
        self.steps: List[Tuple[Any, Any, np.ndarray, Any]] = []
        packed = np.zeros(nrows, dtype=np.int64)
        for col in key_columns:
            cu, col_dense = _unique_inverse(col)
            if not self.steps:
                self.steps.append((None, None, cu, _rank_table(cu)))
                packed = col_dense
                continue
            su, dense = _unique_inverse(packed)
            self.steps.append((su, _rank_table(su), cu, _rank_table(cu)))
            packed = dense * len(cu) + col_dense
        self.order = np.argsort(packed, kind="stable")
        self.sorted_keys = packed[self.order]
        self.offsets = _offsets(self.sorted_keys, self._key_space())

    def _key_space(self) -> int:
        """Packed keys lie in ``[0, space)``."""
        if not self.steps or self.nrows == 0:
            return 1
        su, _st, cu, _ct = self.steps[-1]
        return len(cu) * (len(su) if su is not None else 1)

    def lookup(self, key_columns: Sequence[np.ndarray], k: int
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Resolve a batch of ``k`` probe keys to ``(lo, counts)``:
        ``counts[i]`` matching rows starting at sorted position ``lo[i]``.
        Keys the node never saw (including codes interned after this
        probe was built) get a count of 0."""
        if self.nrows == 0:
            zeros = np.zeros(k, dtype=np.int64)
            return zeros, zeros
        packed = np.zeros(k, dtype=np.int64)
        valid: Optional[np.ndarray] = None
        for (su, st, cu, ct), col in zip(self.steps, key_columns):
            rank, hit = _ranks(cu, ct, col)
            if su is not None:
                srank, shit = _ranks(su, st, packed)
                hit &= shit
                hit &= valid
                rank += srank * len(cu)
            packed, valid = rank, hit
        off = self.offsets
        if off is not None:
            lo = off[packed]
            counts = off[packed + 1] - lo
        else:
            lo = np.searchsorted(self.sorted_keys, packed, side="left")
            counts = np.searchsorted(self.sorted_keys, packed,
                                     side="right") - lo
        if valid is not None:
            counts *= valid
        return lo, counts


def build_probe(rel: ColumnarRelation, probe_vars: Sequence[Variable]):
    """The node's batch probe structure, memoised on the relation.

    The probe's index (the argsort inside ``_BatchProbe``) is the
    expensive part of probe construction; caching it on the relation
    (:meth:`ColumnarRelation.cached_probe`, shared across ``copy()``
    views and invalidated by the relation's version counter) means
    repeated enumerator builds over the same reduced relations — warm
    plan-cache runs, reruns at a different block size — skip the
    rebuild entirely.  Dispatches through
    :meth:`ColumnarRelation.batch_probe`, whose position-keyed cache
    entries are shared across same-symbol atoms.
    """
    return rel.batch_probe(tuple(probe_vars))


class BlockIterator:
    """Batched enumeration of a consistent acyclic full join.

    Parameters
    ----------
    relations:
        :class:`ColumnarRelation` operands sharing one dictionary; their
        variable sets must form an alpha-acyclic hypergraph.
    head:
        Output variable order; must cover every join variable (genuine
        projections belong to the free-connex preprocessing, which hands
        this class projection-free inputs).
    block_size:
        The largest emitted block (the amortisation unit B); blocks
        ramp up to it from :data:`RAMP_START`.
    tree:
        Optional prebuilt join tree (nodes indexing ``relations``).
    reduce:
        Run the full reducer first (True unless the caller guarantees
        global consistency).

    :meth:`blocks` yields lists of up to ``block_size`` answers.  It is
    restartable, so one ``BlockIterator`` can be shared (e.g. through
    the plan cache) by many consumers.  The probe structures and the
    block schedule are fixed at construction; the only state that grows
    after it is the memo of the decoded ramp blocks (fewer than
    ``2 * block_size`` answers), which every consumer reads and none
    can alter: it holds tuples and hands out copies.
    """

    def __init__(self, relations: Sequence[ColumnarRelation],
                 head: Sequence[Variable],
                 block_size: Optional[int] = None,
                 tree: Optional[JoinTree] = None,
                 reduce: bool = True):
        if not batchable(relations):
            raise TypeError(
                "BlockIterator needs ColumnarRelation operands sharing one "
                "ValueDictionary; materialise them on the columnar engine"
            )
        self._head = tuple(head)
        self.block_size = resolve_block_size(block_size)
        self._ramp_start = RAMP_START
        # the ramp: every block before the first of exactly B answers
        self._ramp_blocks = sum(1 for _ in itertools.takewhile(
            lambda size: size < self.block_size, self._schedule()))
        self._ramp: List[Tuple[Tup, ...]] = []
        relations = list(relations)
        if tree is None:
            h = Hypergraph(
                {v for r in relations for v in r.variables},
                [frozenset(r.variables) for r in relations],
            )
            tree = cached_join_tree(h)
        if reduce:
            from repro.enumeration.full_acyclic import reduce_relations

            relations = reduce_relations(tree, relations)
        self._relations = relations
        self._empty = any(len(r) == 0 for r in relations)
        self._dict = relations[0].dictionary
        self._order = tree.top_down()
        # per level: probe variables (bound so far = shared with parent,
        # by the running-intersection property), fresh output variables,
        # and the sorted probe structure
        self._probe_vars: List[Tuple[Variable, ...]] = []
        self._fresh_vars: List[Tuple[Variable, ...]] = []
        self._probes: List[Optional[_BatchProbe]] = []
        bound: set = set()
        with obs.span("block_iter.build_probes", levels=len(self._order),
                      block_size=self.block_size):
            for level, node in enumerate(self._order):
                rel = relations[node]
                pv = tuple(v for v in rel.variables if v in bound)
                fresh = tuple(v for v in rel.variables if v not in bound)
                bound.update(rel.variables)
                self._probe_vars.append(pv)
                self._fresh_vars.append(fresh)
                if level == 0:
                    self._probes.append(None)
                else:
                    self._probes.append(build_probe(rel, pv))
        missing = [v for v in self._head if v not in bound]
        if missing:
            raise ValueError(
                f"head variables {[v.name for v in missing]} do not occur "
                "in any relation"
            )
        self.warm_decode_table()

    def warm_decode_table(self) -> None:
        """Bring the dictionary's decode table up to date.

        A stale table is rebuilt in O(|dom|) on first use; preprocessing
        (and a plan-cache hit, whose dictionary may have grown since)
        pays that here, so no block does."""
        self._dict.decode_table()

    # ------------------------------------------------------------- pipeline

    def _expand(self, level: int, batch: Dict[Variable, np.ndarray],
                nrows: int) -> Tuple[Dict[Variable, np.ndarray], int]:
        """Join one batch of partial assignments against level's node.

        With tracing live, each batch probe gets its own span carrying
        the level and in/out row counts (the per-level "batch probe"
        unit of the amortised-delay argument); disabled, the cost is one
        attribute check per block — not per answer."""
        if not obs.enabled():
            return self._expand_raw(level, batch, nrows)
        with obs.span("block.expand", level=level, rows_in=nrows) as sp:
            out, total = self._expand_raw(level, batch, nrows)
            sp.set("rows_out", total)
            if total == 0:
                # a dead end: on fully reduced inputs every expansion
                # must make progress (Theorem 4.6's no-dead-end
                # invariant) — `repro analyze` flags any occurrence
                obs.count("enum.dead_ends")
            return out, total

    def _expand_raw(self, level: int, batch: Dict[Variable, np.ndarray],
                    nrows: int) -> Tuple[Dict[Variable, np.ndarray], int]:
        node = self._order[level]
        rel = self._relations[node]
        probe = self._probes[level]
        pv = self._probe_vars[level]
        lo, counts = probe.lookup([batch[v] for v in pv], nrows)
        total = int(counts.sum())
        if total == 0:
            return {}, 0
        batch_idx = np.repeat(np.arange(nrows, dtype=np.int64), counts)
        run_starts = np.cumsum(counts) - counts  # exclusive prefix sum
        within = np.arange(total, dtype=np.int64) - np.repeat(run_starts,
                                                              counts)
        rel_rows = probe.order[np.repeat(lo, counts) + within]
        out = {v: col[batch_idx] for v, col in batch.items()}
        for v in self._fresh_vars[level]:
            out[v] = rel.column(v)[rel_rows]
        return out, total

    def _walk(self, level: int, batch: Dict[Variable, np.ndarray],
              nrows: int, chunks: List[Iterator[int]]
              ) -> Iterator[Tuple[List[np.ndarray], int]]:
        """Depth-first block expansion: chunk, expand, recurse.  Each
        level's chunks take their row counts from its own schedule,
        ``chunks[level]``, so the first answers expand small chunks.
        Yields each finished batch as its head code columns and row
        count."""
        if nrows == 0:
            return
        if level == len(self._order):
            yield [batch[v] for v in self._head], nrows
            return
        sizes = chunks[level]
        start = 0
        while start < nrows:
            stop = min(start + next(sizes), nrows)
            chunk = {v: col[start:stop] for v, col in batch.items()}
            expanded, total = self._expand(level, chunk, stop - start)
            yield from self._walk(level + 1, expanded, total, chunks)
            start = stop

    def _full_pieces(self, finished: Iterator[Tuple[List[np.ndarray], int]],
                     sizes: Iterator[int]
                     ) -> Iterator[Tuple[List[np.ndarray], int]]:
        """Cut the finished batches into pieces of the next size
        ``sizes`` gives; only the stream's last piece may be shorter.
        A batch's short tail is carried into the next batch's first
        piece, so no block is cut short at a batch boundary."""
        size = next(sizes)
        carry: List[np.ndarray] = []
        have = 0
        for cols, nrows in finished:
            start = 0
            if have:
                start = min(size - have, nrows)
                carry = [np.concatenate((c0, c[:start]))
                         for c0, c in zip(carry, cols)]
                have += start
                if have < size:
                    continue
                yield carry, have
                size = next(sizes)
            while nrows - start >= size:
                yield [c[start:start + size] for c in cols], size
                start += size
                size = next(sizes)
            carry = [c[start:] for c in cols]
            have = nrows - start
        if have:
            yield carry, have

    # -------------------------------------------------------------- iteration

    def _schedule(self) -> Iterator[int]:
        """This iterator's block (and chunk) sizes."""
        return block_schedule(self._ramp_start, self.block_size)

    def blocks(self) -> Iterator[List[Tup]]:
        """Yield answer blocks (lists of head tuples): the first holds
        ``min(RAMP_START, B)`` answers, each next one twice as many up
        to B, and every later block exactly B; only the last block may
        be shorter.  Taking k answers thus decodes fewer than
        ``2k + RAMP_START``, while a full scan pays one block step per
        B answers.  Every call cuts the same blocks, so consumers
        sharing one cached iterator see the same block sizes, and the
        answers and their order do not depend on the block sizes.

        The ramp's blocks (those before the first block of exactly B)
        are decoded once per iterator: the first consumer to decode one
        stores it in the memo, and every later call yields a copy of
        it, counted as one ``enum.ramp_hits``, without walking.  Only a
        call that reads past the memo starts the walk from the root; it
        skips the memoised pieces without decoding them, so a full scan
        costs what it would with no memo.

        The head columns are decoded once per block.  Each block's
        production gap (consumer time excluded: the clock restarts after
        the yield returns) goes to the active tracer with its answer
        count — one ``obs.delay`` per block, which also grows the
        ``enum.blocks`` / ``enum.answers`` counters, so the per-answer
        hot path stays untouched."""
        if self._empty:
            return
        ramp = self._ramp
        index = 0
        clock = time.perf_counter_ns
        last = clock()
        while index < len(ramp):
            block = list(ramp[index])
            obs.count("enum.ramp_hits")
            obs.delay(clock() - last, len(block))
            yield block
            last = clock()
            index += 1
        root = self._relations[self._order[0]]
        batch = {v: root.column(v) for v in root.variables}
        table = self._dict.decode_table()
        chunks = [self._schedule() for _ in self._order]
        finished = self._walk(1, batch, len(root), chunks)
        pieces = self._full_pieces(finished, self._schedule())
        # consume the pieces the memo served, undecoded
        next(itertools.islice(pieces, index, index), None)
        for cols, n in pieces:
            if cols:
                block = list(zip(*[table[c].tolist() for c in cols]))
            else:  # zero-ary head: n copies of ()
                block = [()] * n
            if index < self._ramp_blocks:
                # a store, not an append: a consumer interleaved with
                # this one (or another thread) may have memoised an
                # equal block here since this walk started
                ramp[index:index + 1] = [tuple(block)]
            obs.delay(clock() - last, n)
            yield block
            last = clock()
            index += 1
