"""Ordered Davis-Putnam resolution (Section 4.5, Theorem 4.31).

The classical DP procedure eliminates one variable at a time: all
resolvents of clauses containing x with clauses containing -x replace
both sets.  In general the clause count can explode; the theorem's
insight is that on *beta-acyclic* instances a **nest-point elimination
order** (Duris' characterisation, see
:func:`repro.hypergraph.acyclicity.nest_point_elimination_order`) keeps
every resolvent's variable set inside an existing clause scope, so the
procedure stays quasi-linear.

The implementation maintains per-variable occurrence lists so that each
elimination touches only the clauses actually mentioning the variable —
without this, even trivially-chained instances would cost a full clause
scan per variable and the quasi-linear shape of Theorem 4.31 would be
invisible.  :class:`DPStats` records resolvent and peak-clause counts so
benchmarks can watch exactly the quantity the theorem bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Set

from repro.csp.cnf import Clause, is_tautology


@dataclass
class DPStats:
    """Work counters for one DP run."""

    eliminations: int = 0
    resolvents: int = 0
    peak_clauses: int = 0
    satisfiable: Optional[bool] = None


def davis_putnam(clauses: Iterable[Clause], order: Sequence[int],
                 stats: Optional[DPStats] = None) -> bool:
    """Decide satisfiability by eliminating variables in ``order``.

    ``order`` must cover every variable occurring in the clauses; extra
    variables are ignored.  Returns True iff satisfiable.
    """
    stats = stats if stats is not None else DPStats()
    current: Set[Clause] = set()
    occurrences: Dict[int, Set[Clause]] = {}

    def insert(c: Clause) -> None:
        if c in current:
            return
        current.add(c)
        for lit in c:
            occurrences.setdefault(abs(lit), set()).add(c)

    def remove(c: Clause) -> None:
        current.discard(c)
        for lit in c:
            bucket = occurrences.get(abs(lit))
            if bucket is not None:
                bucket.discard(c)

    for c in clauses:
        if not c:
            stats.satisfiable = False
            return False
        if not is_tautology(c):
            insert(c)
    stats.peak_clauses = len(current)

    for var in order:
        bucket = occurrences.get(var)
        if not bucket:
            continue
        pos = [c for c in bucket if var in c]
        neg = [c for c in bucket if -var in c]
        if not pos and not neg:
            continue
        stats.eliminations += 1
        for c in pos + neg:
            remove(c)
        for cp in pos:
            for cn in neg:
                resolvent = (cp - {var}) | (cn - {-var})
                stats.resolvents += 1
                if not resolvent:
                    stats.satisfiable = False
                    return False
                if not is_tautology(resolvent):
                    insert(resolvent)
        stats.peak_clauses = max(stats.peak_clauses, len(current))

    # all variables eliminated: with a complete order no clause remains
    stats.satisfiable = not current
    return not current
