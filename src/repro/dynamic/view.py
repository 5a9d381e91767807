"""A dynamically maintained free-connex view (counter-based IVM).

Structure (cf. the "Dynamic Yannakakis" line of work the paper's
conclusion cites): take the join tree of H + {free variables}, rooted at
the virtual free edge.  In that tree every free variable occurring in a
subtree already occurs in the subtree's top node (connectedness through
the root), so the answers are exactly the star join

    phi(D)  =  join over root children c of  P_c,
    P_c     =  pi_{F_c}(alive tuples of c),   F_c = vars(c) /\\ free

where a tuple is *alive* when it is present and every child of its node
has at least one alive matching tuple.  The maintenance is the up wave
of :class:`~repro.dynamic.delta.SupportCounters` run on that tree: a
tuple is alive when it is ``up``, and root c's ``up_count`` is P_c with
multiplicities, so deletes never rescan base data.

Guarantees (and honest non-guarantees):

* ``insert`` / ``delete`` touch only tuples whose alive status actually
  changes (plus one probe per affected parent tuple);
* ``count_answers`` / ``enumerate`` run on the maintained P_c relations
  (size <= the alive data, never the full history of updates);
* enumeration across the star is not guaranteed constant-delay after
  updates — dynamic cross-subtree consistency is exactly the hard part
  of the dynamic Yannakakis literature; the benchmarks measure the delay
  instead of assuming it.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.data.database import Database
from repro.dynamic.delta import SupportCounters
from repro.errors import NotFreeConnexError, SchemaMismatchError, UnsupportedQueryError
from repro.eval.join import VarRelation
from repro.hypergraph.freeconnex import free_connex_join_tree
from repro.logic.cq import ConjunctiveQuery

Tup = Tuple[Any, ...]


class DynamicFreeConnexView:
    """An incrementally maintained free-connex ACQ view.

    With ``materialize=True`` the view additionally keeps the answer set
    itself incrementally maintained: ``count_answers`` becomes O(1),
    ``enumerate`` streams the stored answers, and ``pop_changes`` returns
    the exact (added, removed) answer deltas since the last call — the
    classical materialised-view/IVM contract, at O(answer delta) cost per
    update.
    """

    def __init__(self, cq: ConjunctiveQuery, db: Optional[Database] = None,
                 materialize: bool = False):
        if cq.has_comparisons():
            raise UnsupportedQueryError(
                "the dynamic view supports comparison-free queries")
        if not cq.is_acyclic() or not cq.is_free_connex():
            raise NotFreeConnexError(f"{cq!r} is not free-connex")
        self.cq = cq
        self.free = tuple(cq.head)
        # the tree depends on the query alone, so views over many
        # databases (and repeated view construction) share one entry
        from repro.core.plancache import cached_plan

        tree, _virtual = cached_plan(
            "free_connex_tree", cq, None, "-",
            lambda: free_connex_join_tree(cq))
        self._support = SupportCounters(cq, tree)
        self._roots = [n for n in self._support.nodes if n.parent is None]
        self._arities = cq.relation_arities()
        # positions of each projection's variables within the head
        head_index = {v: i for i, v in enumerate(self.free)}
        self._head_pos: Dict[int, List[int]] = {
            n.index: [head_index[v] for v in n.share] for n in self._roots}
        self._answers: Optional[Set[Tup]] = set() if materialize else None
        # net answer deltas since the last pop_changes: tup -> +1 / -1
        self._delta: Dict[Tup, int] = {}
        if db is not None:
            crossed = self._support._seed(db, "delta.view_build")
            if self._answers is not None:
                self._record(crossed, adding=True)

    # ------------------------------------------------------------- updates

    def insert(self, relation: str, tup: Sequence[Any]) -> None:
        """Insert one tuple into a base relation."""
        self._update("+", relation, tup)

    def delete(self, relation: str, tup: Sequence[Any]) -> None:
        """Delete one tuple from a base relation."""
        self._update("-", relation, tup)

    def _update(self, op: str, relation: str, tup: Sequence[Any]) -> None:
        arity = self._arities.get(relation)
        if arity is None:
            return
        tup = tuple(tup)
        if len(tup) != arity:
            raise SchemaMismatchError(
                f"relation {relation!r} has arity {arity}, "
                f"got the {len(tup)}-tuple {tup!r}")
        crossed = self._support._apply({relation: [(op, tup)]})
        if crossed and self._answers is not None:
            self._record(crossed, adding=op == "+")

    # ---------------------------------------------------- materialisation

    def _record(self, crossed: Dict[int, Set[Tup]], adding: bool) -> None:
        """Fold one batch's projection changes (the roots' entries of
        ``crossed``) into the stored answers.

        A batch of inserts only adds projection keys and a batch of
        deletes only removes them, so the answers it adds (removes) are
        those with some component among the added (removed) keys.  Each
        changed key is joined against the other projections as they
        stand after an insert batch, and as they stood before a delete
        batch (after, plus the keys it removed): one op can change two
        projections at once in a self-join.  A Boolean view needs no
        special case: its projections hold at most the key ``()``.
        """
        answers = self._answers
        assert answers is not None
        removed = {} if adding else crossed
        for root in self._roots:
            for key in crossed.get(root.index, ()):
                for answer in self._join(root, key, removed):
                    if (answer in answers) == adding:
                        continue
                    if adding:
                        answers.add(answer)
                    else:
                        answers.discard(answer)
                    self._bump(answer, 1 if adding else -1)

    def _join(self, root, key: Tup,
              removed: Dict[int, Set[Tup]]) -> Iterator[Tup]:
        """The answers extending ``key`` of ``root`` by one key of each
        other root's projection or of its ``removed`` keys."""
        template: List[Any] = [None] * len(self.free)
        for pos, value in zip(self._head_pos[root.index], key):
            template[pos] = value
        others = [(self._head_pos[n.index],
                   (n.up_count, removed.get(n.index, ())))
                  for n in self._roots if n is not root]

        def expand(i: int) -> Iterator[Tup]:
            if i == len(others):
                yield tuple(template)
                return
            positions, pools = others[i]
            for pool in pools:
                for cand in pool:
                    touched = []
                    ok = True
                    for slot, p in enumerate(positions):
                        if template[p] is None:
                            template[p] = cand[slot]
                            touched.append(p)
                        elif template[p] != cand[slot]:
                            ok = False
                            break
                    if ok:
                        yield from expand(i + 1)
                    for p in touched:
                        template[p] = None

        return expand(0)

    def _bump(self, answer: Tup, sign: int) -> None:
        net = self._delta.get(answer, 0) + sign
        if net == 0:
            self._delta.pop(answer, None)
        else:
            self._delta[answer] = net

    def pop_changes(self) -> Tuple[List[Tup], List[Tup]]:
        """(added, removed) answer tuples since the last call
        (``materialize=True`` views only).  Net changes: an answer that
        came and went within the window appears in neither list."""
        if self._answers is None:
            raise UnsupportedQueryError(
                "pop_changes needs DynamicFreeConnexView(materialize=True)")
        added = [a for a, net in self._delta.items() if net > 0]
        removed = [a for a, net in self._delta.items() if net < 0]
        self._delta = {}
        return added, removed

    # --------------------------------------------------------------- reads

    def _projections(self) -> Optional[List[VarRelation]]:
        """The projections P_c over at least one variable, or None when
        some P_c is empty (then there is no answer)."""
        if not all(n.up_count for n in self._roots):
            return None
        return [VarRelation(n.share, n.up_count.keys())
                for n in self._roots if n.share]

    def is_satisfiable(self) -> bool:
        """Is phi(D) non-empty right now?"""
        return self.first_answer() is not None

    def first_answer(self) -> Optional[Tup]:
        for answer in self.enumerate():
            return answer
        return None

    def enumerate(self) -> Iterator[Tup]:
        """Enumerate the current answers (no repetition)."""
        if self._answers is not None:
            yield from list(self._answers)
            return
        relations = self._projections()
        if relations is None:
            return
        if not self.free:
            yield ()
            return
        from repro.enumeration.full_acyclic import FullJoinEnumerator

        yield from FullJoinEnumerator(relations, self.free, reduce=True)

    def answers(self) -> Set[Tup]:
        return set(self.enumerate())

    def count_answers(self) -> int:
        """|phi(D)| over the maintained projections (message passing over
        the star join; cost proportional to the projections' sizes)."""
        if self._answers is not None:
            return len(self._answers)
        relations = self._projections()
        if relations is None:
            return 0
        if not self.free:
            return 1
        from repro.counting.acq_count import count_full_acyclic_join

        # the star join can repeat F_c sets across subtrees: full-reduce
        # then count
        return count_full_acyclic_join(relations)

    def stats(self) -> Dict[str, int]:
        """Maintenance counters, for tests and benchmarks."""
        nodes = self._support.nodes
        return {
            "stored_tuples": sum(len(n.rows) for n in nodes),
            "alive_tuples": sum(len(n.up) for n in nodes),
            "projection_size": sum(len(n.up_count) for n in self._roots),
        }
