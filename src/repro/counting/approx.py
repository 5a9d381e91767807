"""Randomised approximate counting (Section 5.1, Definition 5.4).

The Karp-Luby-Madras estimator for #DNF — the celebrated FPRAS the paper
cites as the inspiration for approximating the #Sigma^rel_1 classes:

* sample a term T_i with probability proportional to |sat(T_i)| = 2^{n-k_i};
* sample an assignment uniformly among those satisfying T_i;
* the assignment is *accepted* when T_i is its first satisfying term;
  the acceptance probability is exactly #DNF / sum_i |sat(T_i)|.

With m terms the acceptance ratio is >= 1/m, so
O(m / eps^2) samples give relative error eps with constant probability;
a median of independent estimates drives the failure probability below
1/4 as Definition 5.4 requires.

Also here: the Example 5.1 encoding of a 3-DNF formula as a sigma_3DNF
structure with the Sigma^rel_1 formula Phi_0(T), and a brute-force
#Sigma^rel_1 counter used to validate it: satisfying assignments of phi
(viewed as the sets T of variables made true) correspond 1-1 to the
relations T with A_phi |= Phi_0(T).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product as iproduct
from typing import List, Optional, Sequence

from repro.data.database import Database
from repro.data.relation import Relation
from repro.logic.fo import And, Exists, Formula, Not, Or, RelAtom, SOAtom, SecondOrderVariable
from repro.logic.terms import Variable

Term = List[int]  # positive literal v > 0, negative literal -v


def term_satisfied(term: Sequence[int], assignment: Sequence[bool]) -> bool:
    """assignment is 0-indexed: variable v reads assignment[v-1]."""
    return all(
        assignment[abs(lit) - 1] == (lit > 0)
        for lit in term
    )


def dnf_satisfied(terms: Sequence[Sequence[int]], assignment: Sequence[bool]) -> bool:
    """Does the assignment satisfy some term of the DNF?"""
    return any(term_satisfied(t, assignment) for t in terms)


def exact_dnf_count(terms: Sequence[Sequence[int]], n_vars: int) -> int:
    """Brute force over 2^n assignments — ground truth for small n."""
    count = 0
    for bits in iproduct((False, True), repeat=n_vars):
        if dnf_satisfied(terms, bits):
            count += 1
    return count


def exact_dnf_count_inclusion_exclusion(terms: Sequence[Sequence[int]],
                                        n_vars: int) -> int:
    """Exact #DNF by inclusion-exclusion over the consistent term subsets.

    A subset S of terms contributes (-1)^(|S|+1) * 2^(n - |var(S)|) when
    its literals are consistent and 0 otherwise.  Every superset of an
    inconsistent subset is inconsistent too, so a depth-first walk that
    only extends consistent subsets visits exactly the non-zero summands:
    exact for any n, and fast unless most term subsets are consistent
    (2^m of them when the terms share no variable)."""
    # each term as (positive, negative) variable bitmasks
    masks = []
    for term in terms:
        pos = neg = 0
        for lit in term:
            if lit > 0:
                pos |= 1 << lit
            else:
                neg |= 1 << -lit
        masks.append((pos, neg))
    total = 0
    # (next term to try, merged literals of the subset so far, sign of
    # a subset one term larger)
    stack = [(0, 0, 0, 1)]
    while stack:
        start, pos, neg, sign = stack.pop()
        for i in range(start, len(masks)):
            p = pos | masks[i][0]
            q = neg | masks[i][1]
            if p & q:
                continue
            total += sign * (1 << (n_vars - (p | q).bit_count()))
            stack.append((i + 1, p, q, -sign))
    return total


def _sample_estimate(terms: Sequence[Sequence[int]], n_vars: int,
                     n_samples: int, rng: random.Random) -> float:
    """One Karp-Luby estimate of #DNF."""
    weights = [1 << (n_vars - len(set(abs(l) for l in t))) for t in terms]
    total_weight = sum(weights)
    if total_weight == 0:
        return 0.0
    cumulative: List[int] = []
    acc = 0
    for w in weights:
        acc += w
        cumulative.append(acc)
    hits = 0
    for _ in range(n_samples):
        # pick a term proportionally to its satisfying-set size
        r = rng.randrange(total_weight)
        lo, hi = 0, len(cumulative) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cumulative[mid] > r:
                hi = mid
            else:
                lo = mid + 1
        i = lo
        # uniform satisfying assignment of term i
        assignment = [rng.random() < 0.5 for _ in range(n_vars)]
        for lit in terms[i]:
            assignment[abs(lit) - 1] = lit > 0
        # accept iff i is the first satisfied term (canonical representative)
        first = next(j for j, t in enumerate(terms) if term_satisfied(t, assignment))
        if first == i:
            hits += 1
    return total_weight * hits / n_samples


def karp_luby_dnf(terms: Sequence[Sequence[int]], n_vars: int, epsilon: float,
                  seed: Optional[int] = None, medians: int = 9) -> float:
    """FPRAS for #DNF (Definition 5.4).

    Returns an estimate within relative error ``epsilon`` with probability
    > 3/4: a median of ``medians`` independent estimates, each with
    O(m / epsilon^2) samples; runtime polynomial in m, n and 1/epsilon.
    """
    if not terms:
        return 0.0
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    rng = random.Random(seed)
    m = len(terms)
    n_samples = max(1, int(8 * m / (epsilon * epsilon)))
    estimates = sorted(
        _sample_estimate(terms, n_vars, n_samples, rng) for _ in range(medians)
    )
    return estimates[len(estimates) // 2]


# --------------------------------------------------- Example 5.1: #3DNF in
# #Sigma^rel_1


@dataclass
class DNFEncoding:
    """The sigma_3DNF structure A_phi and the formula Phi_0(T) of
    Example 5.1, for a 3-DNF formula."""

    db: Database
    formula: Formula
    so_var: SecondOrderVariable
    n_vars: int


def encode_3dnf(terms: Sequence[Sequence[int]], n_vars: int) -> DNFEncoding:
    """Build A_phi over universe {1..n_vars} with D_i(x1,x2,x3) holding iff
    the disjunct 'first i literals negative, rest positive' on (x1,x2,x3)
    appears in phi; and the Sigma^rel_1 sentence Phi_0(T).

    Satisfying assignments of phi (as sets T of true variables) are
    exactly the T with A_phi |= Phi_0(T).
    """
    rels = {f"D{i}": Relation(f"D{i}", 3) for i in range(4)}
    for term in terms:
        if len(term) != 3:
            raise ValueError("encode_3dnf needs exactly-3-literal terms")
        # normalise: negatives first (the D_i convention of Example 5.1)
        negs = sorted(-l for l in term if l < 0)
        poss = sorted(l for l in term if l > 0)
        i = len(negs)
        rels[f"D{i}"].add(tuple(negs + poss))
    db = Database(rels.values(), domain=range(1, n_vars + 1))

    T = SecondOrderVariable("T", 1)
    x, y, z = Variable("x"), Variable("y"), Variable("z")

    def t(v: Variable) -> Formula:
        return SOAtom(T, [v])

    disjuncts = [
        And(RelAtom("D0", [x, y, z]), t(x), t(y), t(z)),
        And(RelAtom("D1", [x, y, z]), Not(t(x)), t(y), t(z)),
        And(RelAtom("D2", [x, y, z]), Not(t(x)), Not(t(y)), t(z)),
        And(RelAtom("D3", [x, y, z]), Not(t(x)), Not(t(y)), Not(t(z))),
    ]
    formula = Exists([x, y, z], Or(*disjuncts))
    return DNFEncoding(db=db, formula=formula, so_var=T, n_vars=n_vars)


def count_so_models_bruteforce(encoding: DNFEncoding) -> int:
    """|{T <= [n] : A_phi |= Phi_0(T)}| by brute force (2^n checks) — the
    #Sigma^rel_1 counting problem of Example 5.1, used to validate the
    bijection with DNF satisfying assignments."""
    from itertools import combinations

    from repro.eval.naive import model_check_fo

    universe = list(range(1, encoding.n_vars + 1))
    count = 0
    for r in range(len(universe) + 1):
        for subset in combinations(universe, r):
            interp = {encoding.so_var: {(v,) for v in subset}}
            if model_check_fo(encoding.formula, encoding.db, interp):
                count += 1
    return count
