"""Quantifier-prefix classification: the Sigma_k / Pi_k fragments (Section 5).

For a formula in prenex normal form, the fragment is determined by the
number of quantifier alternations and the leading quantifier:

* ``Sigma_0 = Pi_0``: quantifier-free,
* ``Sigma_k``: k alternating blocks starting with exists,
* ``Pi_k``: k alternating blocks starting with forall.

The paper's Sigma^rel_k / Pi^rel_k are these fragments when free
second-order variables (all relational in this library) are allowed.
The counting hierarchy (Theorem 5.3) and enumeration hierarchy
(Theorem 5.5) are indexed by exactly this classification.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.logic.fo import Formula, is_quantifier_free, quantifier_prefix, to_prenex


@dataclass(frozen=True)
class PrefixClass:
    """A prefix fragment: Sigma_k or Pi_k (Sigma_0 == Pi_0).

    Attributes
    ----------
    k:
        Number of alternating quantifier blocks (0 for quantifier-free).
    leading:
        "E" or "A" for k >= 1; "" for k == 0.
    relational:
        True when the formula has free second-order variables (the
        ^rel-superscripted classes of the paper).
    """

    k: int
    leading: str
    relational: bool = False

    def name(self) -> str:
        if self.k == 0:
            base = "Sigma_0"
        else:
            base = ("Sigma_" if self.leading == "E" else "Pi_") + str(self.k)
        return base + ("^rel" if self.relational else "")

    def contains(self, other: "PrefixClass") -> bool:
        """Syntactic containment: Sigma_0 < Sigma_1, Pi_1 < Sigma_2, ...

        Sigma_k and Pi_k are each contained in both Sigma_{k+1} and
        Pi_{k+1}; neither contains the other at the same level (k >= 1).
        """
        if other.k < self.k:
            return True
        if other.k == self.k:
            return self.k == 0 or other.leading == self.leading
        return False

    def __str__(self) -> str:
        return self.name()


def classify_prefix(formula: Formula) -> PrefixClass:
    """Classify ``formula`` after conversion to prenex normal form."""
    relational = bool(formula.so_variables())
    prenex = to_prenex(formula)
    blocks, matrix = quantifier_prefix(prenex)
    if not is_quantifier_free(matrix):
        # to_prenex ought to have flattened everything; treat any residual
        # quantifier as an extra alternation to stay sound
        inner = classify_prefix(matrix)
        extra = inner.k if inner.k else 0
        return PrefixClass(len(blocks) + extra, blocks[0][0] if blocks else inner.leading,
                           relational)
    if not blocks:
        return PrefixClass(0, "", relational)
    return PrefixClass(len(blocks), blocks[0][0], relational)
