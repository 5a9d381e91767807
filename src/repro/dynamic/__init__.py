"""Query evaluation under updates (the survey's conclusion flags this
direction — [Berkholz-Keppeler-Schweikardt 2017], [Idris-Ugarte-
Vansummeren 2017] "Dynamic Yannakakis" — as deserving its own survey).

This subpackage is the library's beyond-the-paper extension: query
evaluation under updates.

* :class:`~repro.dynamic.view.DynamicFreeConnexView` — insert/delete
  base tuples; per-tuple *support counters* along the free-connex join
  tree keep track of which tuples still extend downward ("alive"), and
  the projections of the root's subtrees onto their free variables are
  kept with multiplicities, so satisfiability, answer counts and answer
  enumeration never reread the base data.
* :class:`~repro.dynamic.delta.DeltaCounter` — the delta-propagation
  backend of the plan cache's refresh path: a Theorem 4.21 counting
  plan on code-indexed arrays, seeded from the cold columnar kernel by
  the first count after a write and caught up with per-relation
  :class:`~repro.data.relation.DeltaLog` ops instead of rebuilt.  It
  is the only maintained plan; every other plan rebuilds cold after a
  write.

The view runs on :class:`~repro.dynamic.delta.SupportCounters`: the base
rows and the bottom-up wave that marks the rows with a match under
every child.
"""

from repro.dynamic.delta import DeltaCounter
from repro.dynamic.view import DynamicFreeConnexView

__all__ = ["DeltaCounter", "DynamicFreeConnexView"]
