"""Engine protocol: how algorithms obtain their relations.

An *engine* materialises query atoms in the relation representation the
join-tree algorithms operate on: it is a ``name`` and
:meth:`Engine.materialise_atom`, which shares per-symbol work through
the stored relation's memo (:mod:`repro.engine.symbols`).  Both
backends' relations share the ``VarRelation`` duck interface (``variables``,
``position``, ``project``, ``semijoin``, ``join``, ``index_on``,
``probe``, iteration, ``add``), so
:func:`repro.eval.yannakakis.full_reducer`,
:func:`repro.counting.acq_count.count_acq` and the free-connex
preprocessing run unmodified on either; only materialisation goes
through the engine.

* :class:`TupleEngine` — the seed behaviour: Python tuples in hash-indexed
  dicts (:class:`repro.eval.join.VarRelation`).
* :class:`ColumnarEngine` — dictionary-encoded numpy columns
  (:class:`repro.engine.columnar.ColumnarRelation`).
"""

from __future__ import annotations

from repro.data.database import Database
from repro.logic.atoms import Atom


class Engine:
    """Abstract backend: atom materialisation."""

    name: str = "abstract"

    def materialise_atom(self, db: Database, atom: Atom):
        """Materialise one atom against the database (constants and
        repeated variables resolved), sharing the per-symbol work through
        the stored relation's memo (:mod:`repro.engine.symbols`)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class TupleEngine(Engine):
    """The tuple-at-a-time dict backend (exact seed behaviour)."""

    name = "tuple"

    def materialise_atom(self, db: Database, atom: Atom):
        """Materialise via :func:`repro.eval.join.atom_to_varrelation`;
        atoms with constants or repeated variables share one projected
        row list per signature on the stored relation's memo, so a
        self-join pair like ``E(x, x), E(y, y)`` pays the selection scan
        once per version (the per-relation hash structures stay per-atom
        — they key on variable names and are mutated by consumers)."""
        from repro.engine.symbols import atom_signature, shared
        from repro.eval.join import VarRelation, atom_to_varrelation

        sig = atom_signature(atom)
        if sig is None:
            return atom_to_varrelation(db, atom)
        rows = shared(db.relation(atom.relation), sig,
                      lambda: atom_to_varrelation(db, atom).tuples())
        return VarRelation(atom.variables(), rows)


class ColumnarEngine(Engine):
    """The numpy columnar backend (see :mod:`repro.engine.columnar`)."""

    name = "columnar"

    def __init__(self, dictionary=None):
        from repro.engine.columnar import default_dictionary

        # explicit None check: a freshly created (empty) ValueDictionary
        # is falsy, and silently swapping it for the process-global one
        # would leak every value the session ever encoded into callers
        # that asked for isolation
        self.dictionary = (dictionary if dictionary is not None
                           else default_dictionary())

    def materialise_atom(self, db: Database, atom: Atom):
        from repro.engine.columnar import materialise_atom_columnar

        return materialise_atom_columnar(db, atom, self.dictionary)
