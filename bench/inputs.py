"""Seeded inputs and independent oracles for the end-to-end benchmark.

Everything here is plain Python over the benchmark's own
``random.Random(seed)``.  No program code generates or checks a
workload, so no change to the program can alter what a workload asks or
what counts as a right answer.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from typing import Dict, List, Tuple

Pair = Tuple[int, int]

#: checksums are sums of tuple hashes kept to 64 bits; int and
#: int-tuple hashes do not depend on PYTHONHASHSEED
MASK = (1 << 64) - 1


def random_pairs(rng: random.Random, n: int, domain: int) -> List[Pair]:
    """``n`` distinct pairs over ``range(domain)``, in generation order."""
    seen: Dict[Pair, None] = {}
    while len(seen) < n:
        seen[(rng.randrange(domain), rng.randrange(domain))] = None
    return list(seen)


def make_inputs(seed: int, n: int, ne: int) -> Dict[str, List[Pair]]:
    """Rows of R, S and T (``n`` pairs each over a domain of ``n // 4``,
    so every value has about four successors) and, when ``ne`` is
    non-zero, of E (``ne`` pairs over ``ne // 4``)."""
    rng = random.Random(seed)
    rows = {name: random_pairs(rng, n, n // 4) for name in ("R", "S", "T")}
    if ne:
        rows["E"] = random_pairs(rng, ne, ne // 4)
    return rows


def path_count(r: List[Pair], s: List[Pair], t: List[Pair]) -> int:
    """``|Q(x,y,z,w) :- R(x,y),S(y,z),T(z,w)|`` as a degree-product sum:
    each S edge ``(y, z)`` extends to ``in_R(y) * out_T(z)`` paths."""
    into = Counter(y for _x, y in r)
    out = Counter(z for z, _w in t)
    return sum(into[y] * out[z] for y, z in s)


def _prefix_answers(r: List[Pair], s: List[Pair], t: List[Pair]):
    """Answers ``(x, y, z)`` of ``Q(x,y,z) :- R(x,y),S(y,z),T(z,w)``."""
    by_y = defaultdict(list)
    for x, y in r:
        by_y[y].append(x)
    t_heads = {z for z, _w in t}
    for y, z in s:
        if z in t_heads:
            for x in by_y.get(y, ()):
                yield x, y, z


def checksum(answers) -> int:
    """Order-independent checksum of a collection of answer tuples."""
    return sum(map(hash, answers)) & MASK


def prefix_oracle(r: List[Pair], s: List[Pair], t: List[Pair]
                  ) -> Tuple[int, int]:
    """(answer count, checksum) of ``Q(x,y,z) :- R(x,y),S(y,z),T(z,w)``."""
    n = 0
    acc = 0
    for a in _prefix_answers(r, s, t):
        n += 1
        acc += hash(a)
    return n, acc & MASK


def projection_count(r: List[Pair], s: List[Pair], t: List[Pair]) -> int:
    """``|Q(x,z) :- R(x,y),S(y,z),T(z,w)|``: distinct ``(x, z)``."""
    return len({(x, z) for x, _y, z in _prefix_answers(r, s, t)})


class PathCountState:
    """Live R, S and T tuples with the path count maintained per write.

    Each write changes the count by the number of paths through the
    written tuple, found from degree counters and the S adjacency, so a
    write costs the tuple's degree, not a recount.  :meth:`recount`
    recomputes from scratch to check the maintained value.
    """

    def __init__(self, rows: Dict[str, List[Pair]], domain: int):
        self.domain = domain
        self.items = {n: list(rows[n]) for n in ("R", "S", "T")}
        self.pos = {n: {t: i for i, t in enumerate(items)}
                    for n, items in self.items.items()}
        self.in_r = Counter(y for _x, y in self.items["R"])
        self.out_t = Counter(z for z, _w in self.items["T"])
        self.s_out = defaultdict(set)
        self.s_in = defaultdict(set)
        for y, z in self.items["S"]:
            self.s_out[y].add(z)
            self.s_in[z].add(y)
        self.total = path_count(*(self.items[n] for n in ("R", "S", "T")))

    def _apply(self, name: str, sign: int, t: Pair) -> None:
        a, b = t
        if name == "R":
            self.total += sign * sum(self.out_t[z] for z in self.s_out[b])
            self.in_r[b] += sign
        elif name == "T":
            self.total += sign * sum(self.in_r[y] for y in self.s_in[a])
            self.out_t[a] += sign
        else:
            self.total += sign * self.in_r[a] * self.out_t[b]
            if sign > 0:
                self.s_out[a].add(b)
                self.s_in[b].add(a)
            else:
                self.s_out[a].discard(b)
                self.s_in[b].discard(a)

    def _remove(self, name: str, t: Pair) -> None:
        items, pos = self.items[name], self.pos[name]
        i = pos.pop(t)
        last = items.pop()
        if last != t:
            items[i] = last
            pos[last] = i
        self._apply(name, -1, t)

    def _insert(self, name: str, t: Pair) -> None:
        self.pos[name][t] = len(self.items[name])
        self.items[name].append(t)
        self._apply(name, +1, t)

    def plan_writes(self, rng: random.Random, name: str, k: int
                    ) -> List[Tuple[str, Pair]]:
        """Delete ``k`` random live tuples of ``name``, then insert ``k``
        tuples not live at the time; returns the ops in order."""
        ops = []
        for _ in range(k):
            items = self.items[name]
            t = items[rng.randrange(len(items))]
            self._remove(name, t)
            ops.append(("-", t))
        for _ in range(k):
            while True:
                t = (rng.randrange(self.domain), rng.randrange(self.domain))
                if t not in self.pos[name]:
                    break
            self._insert(name, t)
            ops.append(("+", t))
        return ops

    def recount(self) -> int:
        """The path count recomputed from the live tuples."""
        return path_count(*(self.items[n] for n in ("R", "S", "T")))
