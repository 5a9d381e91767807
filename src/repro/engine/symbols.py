"""Engine-wide per-symbol work sharing: the :class:`SymbolWorkspace`.

The unit of repeated work in a self-join query is the relation *symbol*,
not the atom: ``R(x, y), R(y, z), R(z, x)`` names one stored relation
three times, and every per-atom artefact — the dictionary encoding, the
sorted probe structures, the constant/duplicate-variable masks —
depends only on the stored rows and the *positions* involved, never on
the variable names the atom happens to use.  This module lets both
backends (tuple and columnar) share one build per (symbol, database
version):

* one **entry** per (symbol, stored-relation serial, version), LRU'd;
  like :mod:`repro.core.plancache`, the workspace holds each relation
  only weakly, and its entries go on the first call after it dies;
* per entry, one shared position-keyed **probe cache** served to every
  all-distinct-variable atom over the symbol (``_BatchProbe`` keys on
  column positions, so ``R(x, y)`` and ``R(u, v)`` probing column 0
  resolve to the same structure);
* per entry, a **variant** table keyed by the atom's constant/dup-var
  *signature* — ``R(x, x)`` and ``R(u, u)`` share one masked column set
  (and its own probe cache); ``R(3, x)`` and ``R(3, y)`` likewise —
  closing the gap where masked atoms silently bypassed all sharing.

Because shared materialisations reuse the *same ndarray objects*, the
semijoin coalescing in :mod:`repro.eval.yannakakis` can prove two
reduction passes identical by comparing column identities.

Counters: ``engine.symbol_workspace_{hits,misses}`` aggregate across
backends, and ``engine.symbol_workspace_variant_{hits,misses}`` track
the masked-atom variants.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro import obs
from repro.data.relation import DeathWatch

#: stored-relation versions whose shared artefacts stay alive (LRU)
SYMBOL_WORKSPACE_LIMIT = 64


def atom_signature(atom) -> Optional[Tuple]:
    """The constant/duplicate-variable layout of an atom, by position.

    ``None`` for the *base* layout (all terms distinct variables): such
    atoms materialise to the stored columns in term order, so they all
    share the entry's base probe cache.  Otherwise a hashable tuple of
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


class _SymbolEntry:
    """Shared artefacts of one (symbol, stored relation, version)."""

    __slots__ = ("probes", "variants")

    def __init__(self):
        #: position-keyed probe cache for the base (all-distinct) layout;
        #: installed as the materialised relations' ``_probecache``
        self.probes: Dict[Any, Any] = {}
        #: signature -> backend-specific payload (masked column sets,
        #: projected row lists, ...) plus their own shared probe caches
        self.variants: Dict[Any, Any] = {}

    def variant(self, key: Any, builder) -> Any:
        """Memoise one masked/derived materialisation on the entry."""
        payload = self.variants.get(key)
        if payload is None:
            obs.count("engine.symbol_workspace_variant_misses")
            payload = builder()
            self.variants[key] = payload
        else:
            obs.count("engine.symbol_workspace_variant_hits")
        return payload


class SymbolWorkspace:
    """Per-engine registry of shared per-symbol artefacts.

    Keys are (symbol, stored relation's serial, version); a mutation
    bumps the stored relation's version, and the next lookup drops the
    stale entry.  Entries whose relation died go on the next call.
    """

    def __init__(self, limit: int = SYMBOL_WORKSPACE_LIMIT):
        self.limit = int(limit)
        self._entries: "OrderedDict[Tuple[str, int, int], _SymbolEntry]" = \
            OrderedDict()
        self._deaths = DeathWatch()

    def _purge(self) -> None:
        dead = self._deaths.drain()
        if dead:
            for key in [k for k in self._entries if k[1] in dead]:
                del self._entries[key]

    def entry(self, name: str, rel: Any) -> _SymbolEntry:
        """The live entry for ``rel``'s current version (hit), or a fresh
        one replacing its stale versions (miss)."""
        self._purge()
        key = (name, rel.serial, rel.version)
        found = self._entries.get(key)
        if found is not None:
            self._entries.move_to_end(key)
            obs.count("engine.symbol_workspace_hits")
            return found
        obs.count("engine.symbol_workspace_misses")
        for k in [k for k in self._entries if k[:2] == key[:2]]:
            del self._entries[k]
        self._deaths.watch(rel)
        made = _SymbolEntry()
        self._entries[key] = made
        while len(self._entries) > self.limit:
            self._entries.popitem(last=False)
        return made

    def stats(self) -> Dict[str, int]:
        """Introspection for tests/doctor: live workspace inventory."""
        self._purge()
        return {
            "entries": len(self._entries),
            "probes": sum(len(e.probes) for e in self._entries.values()),
            "variants": sum(len(e.variants)
                            for e in self._entries.values()),
        }

    def clear(self) -> None:
        self._entries.clear()
        self._deaths.clear()


__all__ = [
    "SYMBOL_WORKSPACE_LIMIT",
    "SymbolWorkspace",
    "atom_signature",
]
