"""Sparse data: first-order queries on bounded-degree, low-degree and
bounded-treewidth structures (Section 3 of the paper, live).

* a road-network-like bounded-degree graph: local patterns (paths with
  negations and disequalities) are decided, counted and enumerated in
  linear time / constant delay (Theorems 3.1-3.2), with the measured
  delay flat across a 16x size sweep;
* the clique-plus-2^k-independent family of Section 3.2: *low degree*,
  not closed under substructures, still pseudo-linear (Theorems 3.9-3.10);
* a tree-shaped overlay network: MSO-style optimisation (minimum
  dominating set = service placement), counting and enumeration via the
  Courcelle DP (Theorems 3.11-3.12), plus the two-cluster example showing
  why set answers cannot come with constant delay.

Run:  python examples/sparse_graphs.py
"""

from repro.data import generators
from repro.enumeration.bounded_degree import (
    BoundedDegreeEnumerator,
    Pattern,
    count_pattern,
)
from repro.enumeration.low_degree import DegreeProfile, LowDegreeEnumerator
from repro.logic.atoms import Atom, Comparison
from repro.logic.terms import Variable
from repro.mso.courcelle import count_solutions, optimise
from repro.mso.enumeration import enumerate_solutions, two_cluster_example
from repro.mso.properties import DominatingSetProperty, IndependentSetProperty
from repro.mso.treedecomp import adjacency_from_database, tree_decomposition
from repro.perf.delay import measure_enumerator


def banner(text: str) -> None:
    print()
    print("=" * 72)
    print(text)
    print("=" * 72)


def main() -> None:
    x, y, z = Variable("x"), Variable("y"), Variable("z")

    banner("1. Bounded degree: linear time + constant delay (Thms 3.1-3.2)")
    # open triangles: paths x-y-z that do NOT close, with x != z
    pattern = Pattern(
        head=(x, z),
        atoms=(Atom("E", [x, y]), Atom("E", [y, z])),
        negated=(Atom("E", [x, z]),),
        disequalities=(Comparison(x, "!=", z),),
    )
    print(f"{'vertices':>9} {'count':>8} {'median delay (us)':>19} {'p95 (us)':>9}")
    for n in (1000, 4000, 16000):
        db = generators.random_bounded_degree_graph(n, 4, seed=1)
        total = count_pattern(pattern, db)
        profile = measure_enumerator(BoundedDegreeEnumerator(pattern, db),
                                     max_outputs=2000)
        print(f"{n:>9} {total:>8} {profile.median_delay*1e6:>19.2f} "
              f"{profile.percentile(0.95)*1e6:>9.2f}")
    print("-> counting is one linear pass; the delay columns stay flat")

    banner("2. Low degree: clique + 2^k independent (Section 3.2, Thm 3.10)")
    for k in (6, 9, 12):
        db = generators.clique_plus_independent(k)
        profile = DegreeProfile.of(db)
        pat = Pattern(head=(x, z), atoms=(Atom("E", [x, y]), Atom("E", [y, z])))
        answers = sum(1 for _ in LowDegreeEnumerator(pat, db))
        print(f"k={k:<3} |V|={profile.size:<6} degree={profile.degree:<3} "
              f"epsilon-witness={profile.epsilon_witness:.3f}  "
              f"two-hop answers={answers}")
    print("-> degree grows like log |V|: low degree, pseudo-linear engine")

    banner("3. Bounded treewidth: MSO optimisation on an overlay tree")
    db = generators.random_bounded_degree_graph(60, 2, seed=5)
    graph = adjacency_from_database(db)
    td = tree_decomposition(graph)
    print(f"treewidth (heuristic) = {td.width}")
    ds = optimise(graph, DominatingSetProperty())
    n_is = count_solutions(graph, IndependentSetProperty())
    print(f"minimum service-placement (dominating set) size: {ds}")
    print(f"number of independent sets (counting, Courcelle ext.): {n_is}")
    first_three = []
    for s in enumerate_solutions(graph, IndependentSetProperty()):
        first_three.append(s)
        if len(first_three) == 3:
            break
    print(f"first enumerated independent sets: "
          f"{[sorted(s) for s in first_three]}")

    banner("4. Why set answers cannot have constant delay (Section 3.3.1)")
    _db, answers = two_cluster_example(8)
    a, b = answers
    print(f"phi(X) has exactly two answers; they differ in "
          f"{len(a ^ b)} elements -> Omega(n) work between outputs;")
    print("the right guarantee is delay linear in the OUTPUT size (Thm 3.12)")


if __name__ == "__main__":
    main()
