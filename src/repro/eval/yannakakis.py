"""Yannakakis' algorithm for acyclic conjunctive queries (Theorem 4.2).

Three entry points:

* :func:`full_reducer` — the semijoin program: a bottom-up then top-down
  pass of semijoins along a join tree.  Afterwards the node relations are
  *globally consistent*: every tuple of every node participates in at
  least one satisfying assignment of the whole body.  Cost O(||phi||
  * ||D||) up to hashing.
* :func:`yannakakis_boolean` — Boolean answering: the query is satisfiable
  iff no relation becomes empty during the bottom-up pass.
* :func:`yannakakis` — full output-sensitive evaluation: after reduction,
  :func:`join_project` joins bottom-up and keeps, at each step, only the
  columns that are free or still needed by an atom not yet joined, so
  intermediate results stay within O(||D|| * ||phi(D)||), giving total
  time O(||phi|| * ||D|| * ||phi(D)||).

:func:`free_join` turns reduced relations into the join over free
variables that free-connex enumeration and star-size counting consume,
running :func:`join_project` per S-component where no atom holds the
component's free variables.

All entry points accept an ``engine`` (a backend name, an
:class:`~repro.engine.Engine`, or None for the process-wide selection —
see :mod:`repro.engine`) and an optional prebuilt ``tree``; with no tree
given, one is built once per hypergraph and memoised
(:func:`repro.hypergraph.jointree.cached_join_tree`).
"""

from __future__ import annotations

from typing import (AbstractSet, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple, Union)

from repro import obs
from repro.data.database import Database
from repro.eval.join import VarRelation
from repro.hypergraph.components import s_components
from repro.hypergraph.jointree import JoinTree, cached_join_tree
from repro.logic.cq import ConjunctiveQuery
from repro.logic.terms import Variable

EngineLike = Union[str, None, "object"]


def _engine(engine: EngineLike):
    from repro.engine import resolve_engine

    return resolve_engine(engine)


def materialise_atoms(cq: ConjunctiveQuery, db: Database,
                      engine: EngineLike = None) -> List[VarRelation]:
    """One relation per atom (constants/repeated variables resolved),
    in the selected backend's representation."""
    eng = _engine(engine)
    with obs.span("yannakakis.materialise_atoms", atoms=len(cq.atoms),
                  engine=eng.name) as sp:
        out = [eng.materialise_atom(db, atom) for atom in cq.atoms]
        sp.set("rows", sum(len(r) for r in out))
        return out


def _traced_semijoin(left: VarRelation, right: VarRelation, phase: str,
                     node: int) -> VarRelation:
    """One semijoin pass step, with input/output cardinalities recorded
    on the span when tracing is live (plain call otherwise)."""
    if not obs.enabled():
        return left.semijoin(right)
    with obs.span("yannakakis.semijoin", phase=phase, node=node) as sp:
        sp.set("in_left", len(left))
        sp.set("in_right", len(right))
        out = left.semijoin(right)
        sp.set("out", len(out))
        return out


def _semijoin_signature(target: VarRelation, source: VarRelation):
    """What a semijoin pass *does* to ``target``, up to provable equality.

    A semijoin keeps the target rows whose shared-variable values occur
    in the source — it depends only on the source's shared-column
    contents.  Identifying those contents by ``(variable, array
    identity, row count)`` is sound because columnar relations never
    mutate a published column array (reductions build fresh arrays), and
    it is exactly what per-symbol sharing makes useful: a k-atom
    self-join's materialisations alias the *same* arrays, so k-1 of the
    reduction passes against them are provably identical.  ``None``
    (never coalesce) for tuple-backed relations and for passes with no
    shared variables (those enforce emptiness, not membership).
    """
    column = getattr(source, "column", None)
    if column is None:
        return None
    shared = [v for v in source.variables if target.has_variable(v)]
    if not shared:
        return None
    n = len(source)
    return tuple((v, id(column(v)), n) for v in shared)


def full_reducer(cq: ConjunctiveQuery, db: Database,
                 tree: Optional[JoinTree] = None,
                 relations: Optional[List[VarRelation]] = None,
                 engine: EngineLike = None
                 ) -> Tuple[JoinTree, List[VarRelation]]:
    """Run the full semijoin reduction.

    Returns the join tree used and the list of reduced relations (indexed
    like ``cq.atoms``).  Raises :class:`NotAcyclicError` on cyclic queries.

    With neither ``tree`` nor ``relations`` given, the result is served
    from the plan cache (:mod:`repro.core.plancache`) when an entry for
    (query, engine, database state) exists; the reduced relations are
    returned as shallow copies, so callers may index or mutate them
    without corrupting the cache.
    """
    if tree is None and relations is None:
        from repro.core.plancache import cached_plan

        eng = _engine(engine)
        tree, reduced = cached_plan(
            "full_reducer", cq, db, eng.name,
            lambda: _full_reduce(cached_join_tree(cq.hypergraph()),
                                 materialise_atoms(cq, db, eng)))
        return tree, [r.copy() for r in reduced]
    if tree is None:
        tree = cached_join_tree(cq.hypergraph())
    if relations is None:
        relations = materialise_atoms(cq, db, engine)
    return _full_reduce(tree, relations)


def _full_reduce(tree: JoinTree, relations: List[VarRelation]
                 ) -> Tuple[JoinTree, List[VarRelation]]:
    relations = list(relations)
    # coalesce provably-identical passes: once a target was reduced by a
    # source with these exact shared-column identities, repeating the
    # pass is a no-op — semijoins only remove rows, and membership of
    # the surviving rows in the (unchanged) source is already
    # established.  Skipping keeps the same relation object, so contents
    # and row order are untouched.  Distinct atoms alias columns when
    # per-symbol materialisation shared them.
    applied: Dict[int, set] = {}

    def _reduce_step(target: int, source: int, phase: str) -> None:
        sig = _semijoin_signature(relations[target], relations[source])
        if sig is not None:
            seen = applied.setdefault(target, set())
            if sig in seen:
                obs.count("yannakakis.coalesced_semijoins")
                return
            seen.add(sig)
        relations[target] = _traced_semijoin(
            relations[target], relations[source], phase, target)

    with obs.span("yannakakis.full_reduce", nodes=len(relations)) as sp:
        sp.set("rows_in", sum(len(r) for r in relations))
        # bottom-up: parent := parent semijoin child
        for node in tree.bottom_up():
            parent = tree.parent[node]
            if parent is not None:
                _reduce_step(parent, node, "bottom_up")
        # top-down: child := child semijoin parent
        for node in tree.top_down():
            for child in tree.children[node]:
                _reduce_step(child, node, "top_down")
        sp.set("rows_out", sum(len(r) for r in relations))
    return tree, relations


def yannakakis_boolean(cq: ConjunctiveQuery, db: Database,
                       tree: Optional[JoinTree] = None,
                       engine: EngineLike = None) -> bool:
    """Satisfiability of an acyclic (Boolean or not) body in O(||phi||*||D||)."""
    if tree is None:
        tree = cached_join_tree(cq.hypergraph())
    relations = materialise_atoms(cq, db, engine)
    if any(len(r) == 0 for r in relations):
        return False
    for node in tree.bottom_up():
        parent = tree.parent[node]
        if parent is not None:
            relations[parent] = _traced_semijoin(
                relations[parent], relations[node], "boolean_bottom_up", parent)
            if len(relations[parent]) == 0:
                return False
    return all(len(relations[n]) > 0 for n in tree.nodes())


def yannakakis(cq: ConjunctiveQuery, db: Database,
               tree: Optional[JoinTree] = None,
               engine: EngineLike = None) -> VarRelation:
    """Compute phi(D) for an acyclic CQ, output-sensitively (Theorem 4.2).

    Full reduction, then :func:`join_project` onto the free variables;
    the columns come out in head order.
    """
    tree, relations = full_reducer(cq, db, tree=tree, engine=engine)
    result = join_project(tree, relations, cq.free_variables())
    # normalise column order to the head with one projection (head
    # variables are exactly the free variables, all retained)
    head = tuple(cq.head)
    if result.variables == head:
        return result
    return result.project(head)


def join_project(tree: JoinTree, relations: Sequence[VarRelation],
                 output_vars: Iterable[Variable]) -> VarRelation:
    """The bottom-up join-project pass: pi_output(join of ``relations``).

    ``relations[i]`` holds the rows of ``tree``'s node ``i`` (its
    variables are the node's edge).  Each node joins its children's
    results one at a time; before the first join and after each one it
    keeps only the variables still needed: the output variables, those
    of the parent's atom and those of the children not yet joined.  By
    running intersection no other variable of the subtree occurs outside
    it, so each existential variable goes as soon as its last atom is
    joined.

    On globally consistent relations (after :func:`full_reducer`) every
    intermediate row extends to an output row, so an intermediate holds
    at most ||D|| rows per output row; the output of an S-component of
    star size s has at most ||D||^s rows.  The span records ``rows_in``,
    ``rows_out`` and ``rows_max``, the largest intermediate.
    """
    output = frozenset(output_vars)
    edges = tree.hypergraph.edges
    joined: Dict[int, VarRelation] = {}
    rows_max = 0
    with obs.span("yannakakis.join_project", nodes=len(relations)) as sp:
        sp.set("rows_in", sum(len(r) for r in relations))
        for node in tree.bottom_up():
            parent = tree.parent[node]
            keep = output if parent is None else output | edges[parent]
            children = tree.children[node]
            acc = _project_onto(relations[node],
                                keep.union(*(edges[c] for c in children)))
            rows_max = max(rows_max, len(acc))
            for i, child in enumerate(children):
                acc = acc.join(joined[child])
                rows_max = max(rows_max, len(acc))
                acc = _project_onto(
                    acc, keep.union(*(edges[c] for c in children[i + 1:])))
            joined[node] = acc
        result = joined[tree.root]
        sp.set("rows_out", len(result))
        sp.set("rows_max", rows_max)
    return result


def _project_onto(rel: VarRelation, needed: AbstractSet[Variable]
                  ) -> VarRelation:
    """``rel`` restricted to the columns in ``needed``, in its own
    column order; ``rel`` itself when every column stays."""
    keep = [v for v in rel.variables if v in needed]
    if len(keep) == len(rel.variables):
        return rel
    return rel.project(keep)


def free_join(cq: ConjunctiveQuery, reduced: Sequence[VarRelation]
              ) -> Optional[List[VarRelation]]:
    """Relations over free variables whose natural join is phi(D), or
    None when phi(D) is empty.

    ``reduced`` holds ``cq``'s fully reduced atom relations
    (:func:`full_reducer`), indexed like ``cq.atoms``.  The result is
    psi_0, the relations of the atoms whose variables are all free, then
    one relation pi_F(phi(D)) per S-component with free vertices F
    (Sections 4.3 and 4.4).  A component projects the first atom of the
    query holding all of F; by global consistency that projection is
    exactly pi_F(phi(D)).  Free-connex queries always have such an atom
    (star size 1).  Otherwise :func:`join_project` runs along the
    component's join tree, keeping at most ||D|| rows per row of a
    projection that has at most ||D||^s, s the star size.  Atoms
    without variables and fully quantified components contribute
    nothing: their satisfiability is already in ``reduced``, which full
    reduction leaves empty everywhere or nowhere.
    """
    if any(len(r) == 0 for r in reduced):
        return None
    free = cq.free_variables()
    h = cq.hypergraph()
    derived = [reduced[i] for i, edge in enumerate(h.edges)
               if edge and edge <= free]
    for comp in s_components(h, free):
        if not comp.s_vertices:
            continue
        f_vars = tuple(sorted(comp.s_vertices, key=lambda v: v.name))
        holder = next((i for i, edge in enumerate(h.edges)
                       if comp.s_vertices <= edge), None)
        if holder is not None:
            derived.append(reduced[holder].project(f_vars))
            continue
        rel = join_project(cached_join_tree(comp.subhypergraph(h)),
                           [reduced[i] for i in comp.edge_indexes], f_vars)
        derived.append(rel if rel.variables == f_vars
                       else rel.project(f_vars))
    return derived


def acyclic_answers(cq: ConjunctiveQuery, db: Database,
                    engine: EngineLike = None) -> Set[Tuple]:
    """phi(D) as a set of head tuples (convenience wrapper)."""
    return set(yannakakis(cq, db, engine=engine))
