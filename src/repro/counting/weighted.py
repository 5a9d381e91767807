"""F-weight functions (paper Section 4.4).

A weight function maps domain elements into a field F (any Python
numeric type with + and *); the weight of an answer tuple is the product
of its coordinates' weights.  The *weighted counting problem* #F-CQ asks
for the sum of the weights of all answers — ordinary counting is the
special case w = 1.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Optional, Union


class WeightFunction:
    """w : Dom(D) -> F, with product lifting to tuples.

    Built from a mapping (missing elements default to ``default``) or a
    callable.
    """

    def __init__(self, source: Union[Mapping[Any, Any], Callable[[Any], Any], None] = None,
                 default: Any = 1):
        self._default = default
        self._trivial = source is None and default == 1
        if source is None:
            self._fn: Callable[[Any], Any] = lambda _x: default
        elif callable(source):
            self._fn = source
        else:
            mapping = dict(source)
            self._fn = lambda x: mapping.get(x, default)

    def __call__(self, element: Any) -> Any:
        return self._fn(element)

    def is_ones(self) -> bool:
        """True when this is the plain counting weight (w = 1 everywhere),
        letting backends take exact integer fast paths."""
        return self._trivial

    def tuple_weight(self, tup: Iterable[Any]) -> Any:
        """w(a) = prod_i w(a_i)."""
        weight: Any = 1
        for value in tup:
            weight = weight * self._fn(value)
        return weight

    @classmethod
    def ones(cls) -> "WeightFunction":
        """The counting weight (every element weighs 1)."""
        return cls(None, default=1)

    def code_table(self, dictionary, codes) -> Optional[Any]:
        """Float64 weights of ``codes`` for the columnar counting kernel.

        ``table[i]`` is the weight of the value behind ``codes[i]``, a
        code the count reads from ``dictionary``
        (:class:`repro.engine.columnar.ValueDictionary`).  The table and
        the work follow ``codes`` alone: the dictionary is shared across
        databases, so the weight function sees only the counted
        database's values and need only be defined on them.  Returns
        None — "use the exact per-tuple path" — as soon as one of these
        weights is not a machine numeric exactly representable in
        float64 (bools, floats, and ints with |w| <= 2^53 qualify;
        Fractions, Decimals and other field elements do not).

        Float64 caveat: each *weight* is exact, but the kernel's sums
        and products are float64 arithmetic, so results of magnitude
        beyond 2^53 may round where the per-tuple path (arbitrary
        precision ints) would not.  When every weight is integer-valued,
        the caller converts a total below 2^53 back to int and recounts
        exactly past it (negative weights run the kernel only while no
        sum can pass 2^53).
        """
        import numpy as np

        from repro import obs

        fn, decode = self._fn, dictionary.decode
        table = [fn(decode(code)) for code in codes.tolist()]
        for w in table:
            if isinstance(w, bool) or isinstance(w, int):
                if abs(w) > 2 ** 53:
                    return None
            elif not isinstance(w, float):
                return None
        obs.gauge("weights.code_table_size", len(table))
        return np.array(table, dtype=np.float64)


def sum_of_weights(answers: Iterable[Iterable[Any]],
                   weights: Optional[WeightFunction] = None) -> Any:
    """Reference implementation: sum of tuple weights over an answer set."""
    w = weights or WeightFunction.ones()
    total: Any = 0
    for tup in answers:
        total = total + w.tuple_weight(tup)
    return total
