"""Engine protocol: how algorithms obtain and convert relations.

An *engine* is a factory for the relation representation the join-tree
algorithms operate on.  Both backends produce objects sharing the
``VarRelation`` duck interface (``variables``, ``position``, ``project``,
``semijoin``, ``join``, ``index_on``, ``probe``, iteration, ``add``), so
:func:`repro.eval.yannakakis.full_reducer`,
:func:`repro.counting.acq_count.count_acq` and the free-connex
preprocessing run unmodified on either; only materialisation and
conversion go through the engine.

* :class:`TupleEngine` — the seed behaviour: Python tuples in hash-indexed
  dicts (:class:`repro.eval.join.VarRelation`).
* :class:`ColumnarEngine` — dictionary-encoded numpy columns
  (:class:`repro.engine.columnar.ColumnarRelation`).
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence, Tuple

from repro.data.database import Database
from repro.logic.atoms import Atom
from repro.logic.terms import Variable

Tup = Tuple[Any, ...]


class Engine:
    """Abstract backend: relation construction, materialisation, conversion."""

    name: str = "abstract"

    def relation(self, variables: Sequence[Variable],
                 tuples: Optional[Iterable[Tup]] = None):
        """A fresh relation over ``variables`` holding ``tuples``."""
        raise NotImplementedError

    def materialise_atom(self, db: Database, atom: Atom):
        """Materialise one atom against the database (constants and
        repeated variables resolved), sharing the per-symbol work through
        the engine's :class:`~repro.engine.symbols.SymbolWorkspace`."""
        raise NotImplementedError

    def from_relation(self, rel):
        """Convert a relation of any backend into this backend
        (no copy when it already belongs here)."""
        raise NotImplementedError

    def to_varrelation(self, rel):
        """Convert a relation of this backend into a tuple-backed
        :class:`~repro.eval.join.VarRelation`."""
        from repro.eval.join import VarRelation

        if isinstance(rel, VarRelation):
            return rel
        return VarRelation(rel.variables, iter(rel))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class TupleEngine(Engine):
    """The tuple-at-a-time dict backend (exact seed behaviour)."""

    name = "tuple"

    def __init__(self):
        from repro.engine.symbols import SymbolWorkspace

        self.workspace = SymbolWorkspace()

    def relation(self, variables: Sequence[Variable],
                 tuples: Optional[Iterable[Tup]] = None):
        from repro.eval.join import VarRelation

        return VarRelation(variables, tuples)

    def materialise_atom(self, db: Database, atom: Atom):
        """Materialise via :func:`repro.eval.join.atom_to_varrelation`;
        atoms with constants or repeated variables share one projected
        row list per (symbol, signature, version) through the workspace,
        so a self-join pair like ``E(x, x), E(y, y)`` pays the selection
        scan once (the per-relation hash structures stay per-atom — they
        key on variable names and are mutated by consumers)."""
        from repro.engine.symbols import atom_signature
        from repro.eval.join import VarRelation, atom_to_varrelation

        sig = atom_signature(atom)
        if sig is None:
            return atom_to_varrelation(db, atom)
        rel = db.relation(atom.relation)
        entry = self.workspace.entry(atom.relation, rel)
        rows = entry.variant(
            ("rows", sig),
            lambda: atom_to_varrelation(db, atom).tuples())
        return VarRelation(atom.variables(), rows)

    def from_relation(self, rel):
        from repro.eval.join import VarRelation

        if isinstance(rel, VarRelation):
            return rel
        return VarRelation(rel.variables, iter(rel))


class ColumnarEngine(Engine):
    """The numpy columnar backend (see :mod:`repro.engine.columnar`)."""

    name = "columnar"

    def __init__(self, dictionary=None):
        from repro.engine.columnar import default_dictionary
        from repro.engine.symbols import SymbolWorkspace

        # explicit None check: a freshly created (empty) ValueDictionary
        # is falsy, and silently swapping it for the process-global one
        # would leak every value the session ever encoded into callers
        # that asked for isolation
        self.dictionary = (dictionary if dictionary is not None
                           else default_dictionary())
        self.workspace = SymbolWorkspace()

    def relation(self, variables: Sequence[Variable],
                 tuples: Optional[Iterable[Tup]] = None):
        from repro.engine.columnar import ColumnarRelation

        return ColumnarRelation(variables, tuples,
                                dictionary=self.dictionary)

    def materialise_atom(self, db: Database, atom: Atom):
        from repro.engine.columnar import materialise_atom_columnar

        return materialise_atom_columnar(db, atom, self.dictionary,
                                         workspace=self.workspace)

    def from_relation(self, rel):
        from repro.engine.columnar import ColumnarRelation

        if isinstance(rel, ColumnarRelation) and rel.dictionary is self.dictionary:
            return rel
        return ColumnarRelation(rel.variables, iter(rel),
                                dictionary=self.dictionary)
