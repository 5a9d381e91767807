"""The paper's three figures, reconstructed as executable objects.

* Figure 1 — the join tree of phi(x) = exists y R(x1,x2) /\\ S(x2,x3,y3)
  /\\ R(x1,y1) /\\ T(y3,y4,y5) /\\ S(x2,y2), with the added hyperedge
  {x2, x3} whose node roots a free-variables-only subtree.  (The paper
  reuses the symbol S at arities 3 and 2; a database schema cannot, so
  the second occurrence is named S2 here.)
* Figures 2 and 3 — a hypergraph with free variables S = {y1..y7} and
  quantified variables x1..x9, decomposing into three S-components whose
  maximum independent set of free variables has size 3 (e.g.
  {y3, y5, y6} in the central component).  The figure is reconstructed
  up to the exact edge layout (the PDF's geometry is not in the text);
  the *documented invariants* — 3 components, star size 3, the witness
  set — are asserted by tests and printed by the figure benchmarks.
"""

from __future__ import annotations

from typing import Dict

from repro.logic.cq import ConjunctiveQuery
from repro.logic.parser import parse_cq


def figure1_query() -> ConjunctiveQuery:
    """The Figure 1 query (free variables x1, x2, x3)."""
    return parse_cq(
        "Q(x1, x2, x3) :- R(x1, x2), S(x2, x3, y3), R(x1, y1), "
        "T(y3, y4, y5), S2(x2, y2)"
    )


def figure1_added_edge() -> frozenset:
    """The hyperedge {x2, x3} the paper adds to form the free-connex join
    tree (drawn dashed in Figure 1)."""
    from repro.logic.terms import Variable

    return frozenset({Variable("x2"), Variable("x3")})


def figure2_query() -> ConjunctiveQuery:
    """An acyclic query realising the Figures 2-3 hypergraph:
    S = free(phi) = {y1..y7}, quantified x1..x9, three S-components."""
    return parse_cq(
        "Q(y1, y2, y3, y4, y5, y6, y7) :- "
        "A1(x1, y1), A2(x1, x2), A3(x2, y2), "            # left component
        "B1(x3, y3), B2(x3, x4), B3(x4, y4, y5), "        # central component
        "B4(x4, x5), B5(x5, y6), B6(x5, x6), B7(x6, x7), "
        "C1(x8, y6), C2(x8, x9), C3(x9, y7)"              # right component
    )


def figure3_expected() -> Dict[str, object]:
    """The documented invariants of Figure 3."""
    return {
        "n_components": 3,
        "star_size": 3,
        "witness_independent_set": {"y3", "y5", "y6"},
    }
