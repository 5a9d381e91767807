"""Free-connex acyclic queries (Definition 4.4, Figure 1).

An acyclic conjunctive query phi(x) is *free-connex* iff its hypergraph
remains alpha-acyclic after adding the hyperedge {x} (the set of free
variables).  Boolean queries and queries with a single free variable are
free-connex by definition — and the test below agrees, because adding an
empty or singleton edge never creates a cycle.

:func:`free_connex_join_tree` builds the witness structure the
constant-delay enumerator uses: a join tree of H + {x} rooted at the added
free edge.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import NotAcyclicError, NotFreeConnexError
from repro.hypergraph.jointree import JoinTree, build_join_tree, is_alpha_acyclic


def is_free_connex(cq) -> bool:
    """Definition 4.4: phi acyclic and H + {free(phi)} acyclic."""
    h = cq.hypergraph()
    if not is_alpha_acyclic(h):
        return False
    return is_alpha_acyclic(h.with_edge(cq.free_variables()))


def is_s_connex(cq, s_vars) -> bool:
    """phi is S-connex: H + {S} is acyclic (used by Definition 4.11).

    Note: unlike free-connexity this does not require S = free(phi); the
    union-extension machinery quantifies over subsets S of the free
    variables.
    """
    h = cq.hypergraph()
    if not is_alpha_acyclic(h):
        return False
    return is_alpha_acyclic(h.with_edge(frozenset(s_vars)))


def free_connex_join_tree(cq) -> Tuple[JoinTree, int]:
    """Join tree of H + {x} rooted at the added free edge.

    Returns ``(tree, virtual_index)`` where ``virtual_index`` is the node
    index of the added edge (== number of atoms); all other node indexes
    coincide with atom positions in ``cq.atoms``.

    Raises :class:`NotFreeConnexError` if the query is not free-connex.
    """
    h = cq.hypergraph()
    if not is_alpha_acyclic(h):
        raise NotAcyclicError(f"query {cq!r} is not acyclic")
    extended = h.with_edge(cq.free_variables())
    virtual = len(cq.atoms)
    try:
        tree = build_join_tree(extended)
    except NotAcyclicError:
        raise NotFreeConnexError(f"query {cq!r} is acyclic but not free-connex") from None
    return tree.rerooted(virtual), virtual
