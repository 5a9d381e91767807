"""Per-symbol work sharing on the stored relation's memo.

The unit of repeated work in a self-join query is the relation *symbol*,
not the atom: ``R(x, y), R(y, z), R(z, x)`` names one stored relation
three times, and every per-atom artefact — the dictionary encoding, the
sorted probe structures, the constant/duplicate-variable masks —
depends only on the stored rows and the *positions* involved, never on
the variable names the atom happens to use.  So each artefact lives in
the stored relation's memo (:attr:`repro.data.relation.Relation.memo`),
built once per version and read by every atom, run and engine over it:

* under a :class:`~repro.engine.columnar.ValueDictionary`, the encoded
  columns and one position-keyed **probe cache** served to every
  all-distinct-variable atom (``_BatchProbe`` keys on column positions,
  so ``R(x, y)`` and ``R(u, v)`` probing column 0 resolve to the same
  structure);
* under ``(dictionary, signature)``, the masked column set, with its own
  probe cache, of the atoms with that constant/dup-var
  :func:`atom_signature` — ``R(x, x)`` and ``R(u, u)`` share one, and so
  do ``R(3, x)`` and ``R(3, y)``;
* under the signature alone, the tuple engine's projected rows.

Keying on the dictionary keeps an engine with its own dictionary from
reading another dictionary's codes.  The write that bumps a relation's
version drops its memo, and the memo dies with its relation.

Because shared materialisations reuse the *same ndarray objects*, the
semijoin coalescing in :mod:`repro.eval.yannakakis` can prove two
reduction passes identical by comparing column identities.

Counters: a build counts as a miss and a reuse as a hit, as
``engine.symbol_workspace_{hits,misses}`` (a masked column set's as
``engine.symbol_workspace_variant_{hits,misses}``) on the active tracer
and in :data:`COUNTS`, whose totals
:meth:`repro.core.plancache.PlanCache.stats` reports.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict, Optional, Tuple

from repro import obs

#: process-wide builds and reuses of shared artefacts, by counter name
COUNTS: "Counter[str]" = Counter()


def atom_signature(atom) -> Optional[Tuple]:
    """The constant/duplicate-variable layout of an atom, by position.

    ``None`` for the *base* layout (all terms distinct variables): such
    atoms materialise to the stored columns in term order, so they all
    share the base probe cache.  Otherwise a hashable tuple of
    ``('const', pos, value)`` / ``('dup', pos, first_pos)`` markers:
    two atoms with equal signatures select and project exactly the same
    rows and columns regardless of their variable names, so their
    materialisations (and probe caches) are shareable.
    """
    from repro.logic.terms import Constant

    first_pos: Dict[Any, int] = {}
    marks = []
    for pos, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            marks.append(("const", pos, term.value))
        elif term in first_pos:
            marks.append(("dup", pos, first_pos[term]))
        else:
            first_pos[term] = pos
    return tuple(marks) if marks else None


def shared(rel, key: Any, build: Callable[[], Any],
           counter: str = "symbol_workspace") -> Any:
    """Stored relation ``rel``'s artefact ``key`` at its current
    version: ``build()``'s result, built on the first call (a miss) and
    reused after (a hit)."""
    memo = rel.memo
    value = memo.get(key)
    if value is None:
        value = memo[key] = build()
        event = counter + "_misses"
    else:
        event = counter + "_hits"
    COUNTS[event] += 1
    obs.count("engine." + event)
    return value


__all__ = [
    "COUNTS",
    "atom_signature",
    "shared",
]
