"""The four workloads: what one request does, untraced and traced.

Untraced, a request calls the program's public entry points (``count``,
``decide``, ``enumerate_answers``) on query text, exactly as a user
would.  Traced, it calls the layer functions behind them in pipeline
order instead, feeding each step's output to the next, each inside a
span, and must return the same answer.  Every answer is checked against
the oracles in :mod:`inputs`.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from typing import Any, Dict, List, Optional

import numpy as np

from repro import Database, Relation, classify, count, decide, enumerate_answers, parse_query
from repro.counting.acq_count import count_cq_naive, count_full_acyclic_join, derive_counting_join
from repro.enumeration.free_connex import FreeConnexEnumerator
from repro.eval.modelcheck import model_check
from repro.eval.yannakakis import full_reducer, materialise_atoms

import inputs
from spans import Recorder

QUERIES = {
    "path3": "Q(x, y, z, w) :- R(x, y), S(y, z), T(z, w)",
    "selfjoin": "Q(x, y, z, w) :- R(x, y), R(y, z), R(z, w)",
    "prefix": "Q(x, y, z) :- R(x, y), S(y, z), T(z, w)",
    "proj": "Q(x, z) :- R(x, y), S(y, z), T(z, w)",
    "decide": "Q() :- R(x, y), S(y, z), T(z, w)",
    # cyclic, but its core is the single atom E(x, y)
    "core": "Q(x, y) :- E(x, y), E(x, z), E(w, y), E(w, z)",
}

#: enumeration gaps kept per request; the pooled p99.99 is exact while
#: 0.01% of all gaps is at most this many
TOP_GAPS = 1000


def build_db(rows: Dict[str, list]) -> Database:
    return Database([Relation(name, 2, r) for name, r in rows.items()])


class Workload:
    """One workload.  The runner calls :meth:`setup` (timed, repeated),
    then per request :meth:`prepare` (untimed), :meth:`serve` or
    :meth:`serve_traced` (timed) and :meth:`check` (untimed)."""

    name = ""
    #: (pairs in each of R, S, T; pairs in E)
    sizes = (0, 0)
    queries: tuple = ()

    def __init__(self, rows: Dict[str, list], seed: int):
        self.rows = rows
        self.db: Optional[Database] = None
        self.parsed = {k: parse_query(QUERIES[k]) for k in self.queries}
        self.gap_tops: List[np.ndarray] = []
        self.gap_count = 0

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, i: int) -> Any:
        return None

    def serve(self, arg: Any) -> Any:
        raise NotImplementedError

    def serve_traced(self, arg: Any, rec: Recorder) -> Any:
        raise NotImplementedError

    def check(self, i: int, out: Any) -> bool:
        raise NotImplementedError

    # -------------------------------------------------------------- traced

    def classify_probe(self, rec: Recorder, i: int) -> None:
        """Time ``classify`` on the request's queries, outside the
        request span: no request calls it today."""
        for q in self.parsed.values():
            with rec.span("core.classify", request=i):
                classify(q)

    @staticmethod
    def _parse(key: str, rec: Recorder):
        with rec.span("logic.parse"):
            return parse_query(QUERIES[key])

    @staticmethod
    def _fingerprint(db: Database, rec: Recorder) -> None:
        with rec.span("data.fingerprint"):
            db.fingerprint()

    def _enumerate(self, q, rec: Recorder, limit: Optional[int] = None
                   ) -> list:
        """Preprocess and iterate a free-connex enumerator, stamping
        every answer so the gaps between answers can be pooled."""
        self._fingerprint(self.db, rec)
        e = FreeConnexEnumerator(q, self.db)
        with rec.span("enumeration.preprocess"):
            e.preprocess()
        clock = time.perf_counter_ns
        out = []
        with rec.span("enumeration.iterate") as attrs:
            stamps = [clock()]
            for a in itertools.islice(e, limit):
                out.append(a)
                stamps.append(clock())
            attrs["answers"] = len(out)
        # the benchmark's own work, in a span so it is not unattributed
        with rec.span("bench.delay_gaps"):
            gaps = np.diff(np.asarray(stamps, dtype=np.int64))
            self.gap_count += len(gaps)
            if len(gaps) > TOP_GAPS:
                gaps = np.partition(gaps, -TOP_GAPS)[-TOP_GAPS:]
            self.gap_tops.append(gaps)
        return out

    def delay_p9999_ns(self) -> float:
        """p99.99 of all gaps between answers pooled over the run."""
        if not self.gap_count:
            return 0.0
        k = max(1, math.ceil(self.gap_count * 1e-4))
        tops = np.sort(np.concatenate(self.gap_tops))[::-1]
        return float(tops[min(k, len(tops)) - 1])


class ColdLoadCount(Workload):
    """Each request ingests a fresh database and counts two queries, so
    it misses every cache: ingest, encoding, full reduction and the
    counting DP are the whole cost."""

    name = "cold-load-count"
    # small enough that the plan cache's LRU (4 entries per request)
    # fills within a run, so peak RSS reaches its plateau
    sizes = (25_000, 0)
    queries = ("path3", "selfjoin")

    def __init__(self, rows, seed):
        super().__init__(rows, seed)
        r = rows["R"]
        self.expect = [inputs.path_count(r, rows["S"], rows["T"]),
                       inputs.path_count(r, r, r)]

    def setup(self) -> None:
        self.serve(None)

    def serve(self, arg):
        db = build_db(self.rows)
        return [count(parse_query(QUERIES[k]), db) for k in self.queries]

    def serve_traced(self, arg, rec):
        with rec.span("data.ingest") as attrs:
            db = build_db(self.rows)
            attrs["tuples"] = sum(map(len, self.rows.values()))
        out = []
        for k in self.queries:
            q = self._parse(k, rec)
            self._fingerprint(db, rec)
            with rec.span("engine.materialise") as attrs:
                rels = materialise_atoms(q, db)
                attrs["rows"] = sum(map(len, rels))
            with rec.span("eval.full_reduce") as attrs:
                _tree, reduced = full_reducer(q, db, relations=rels)
                attrs["rows_in"] = sum(map(len, rels))
                attrs["rows_out"] = sum(map(len, reduced))
            with rec.span("counting.dp." + k):
                out.append(count_full_acyclic_join(reduced))
        return out

    def check(self, i, out):
        return out == self.expect


class UpdateCount(Workload):
    """Each request deletes and inserts tuples of one relation (R, S, T
    in turn), then recounts the path query through the delta log."""

    name = "update-count"
    sizes = (100_000, 0)
    queries = ("path3",)
    BATCH = 100
    RECOUNT_EVERY = 500

    def __init__(self, rows, seed):
        super().__init__(rows, seed)
        self.state = inputs.PathCountState(rows, len(rows["R"]) // 4)
        # the writes come from their own stream, derived from the seed
        self.rng = random.Random(seed + 1)

    def setup(self) -> None:
        self.db = build_db(self.rows)
        count(self.parsed["path3"], self.db)

    def prepare(self, i):
        name = "RST"[i % 3]
        return name, self.state.plan_writes(self.rng, name, self.BATCH)

    @staticmethod
    def _write(rel: Relation, ops) -> None:
        for op, t in ops:
            if op == "+":
                rel.add(t)
            else:
                rel.discard(t)

    def serve(self, arg):
        name, ops = arg
        self._write(self.db.relation(name), ops)
        return count(parse_query(QUERIES["path3"]), self.db)

    def serve_traced(self, arg, rec):
        name, ops = arg
        q = self._parse("path3", rec)
        with rec.span("data.write", ops=len(ops)):
            self._write(self.db.relation(name), ops)
        self._fingerprint(self.db, rec)
        with rec.span("dynamic.refresh_count"):
            return count(q, self.db)

    def check(self, i, out):
        ok = out == self.state.total
        if (i + 1) % self.RECOUNT_EVERY == 0:
            recount = self.state.recount()
            ok = ok and recount == self.state.total
            self.state.total = recount
        return ok


class EnumScan(Workload):
    """Each request fully enumerates a free-connex query on an unchanged
    database: the plan is cached, so the enumeration layer dominates."""

    name = "enum-scan"
    sizes = (100_000, 0)
    queries = ("prefix",)

    def __init__(self, rows, seed):
        super().__init__(rows, seed)
        self.expect = inputs.prefix_oracle(rows["R"], rows["S"], rows["T"])

    def setup(self) -> None:
        self.db = build_db(self.rows)
        self.serve(None)

    def serve(self, arg):
        return list(enumerate_answers(parse_query(QUERIES["prefix"]),
                                      self.db))

    def serve_traced(self, arg, rec):
        return self._enumerate(self._parse("prefix", rec), rec)

    def check(self, i, out):
        if i == 0 and len(set(out)) != len(out):
            return False
        return (len(out), inputs.checksum(out)) == self.expect


#: one warm-mix round; each op parses its query text
ROUND = ("enum100", "count", "enum100", "decide", "enum100", "projcount",
         "enum100", "count", "enum100", "decide", "enum100", "corecount",
         "enum100", "count", "enum100", "decide", "enum100", "projcount",
         "enum100", "count", "decide")
OP_QUERY = {"enum100": "prefix", "count": "path3", "projcount": "proj",
            "decide": "decide", "corecount": "core"}


class WarmMix(Workload):
    """Rounds of mixed requests on a warm database: what remains is
    parsing, dispatch and plan lookup, plus the work the planner never
    caches (the counting DP, and naive evaluation of a cyclic query)."""

    name = "warm-mix"
    # three cold set-ups (each pays the star-size decomposition of the
    # projection count) must fit in a run
    sizes = (50_000, 2_000)
    queries = ("prefix", "path3", "proj", "decide", "core")

    def __init__(self, rows, seed):
        super().__init__(rows, seed)
        r, s, t = rows["R"], rows["S"], rows["T"]
        self.r_set, self.s_set = set(r), set(s)
        self.t_heads = {z for z, _w in t}
        paths = inputs.path_count(r, s, t)
        self.expect = {"enum100": min(100, inputs.prefix_oracle(r, s, t)[0]),
                       "count": paths,
                       "projcount": inputs.projection_count(r, s, t),
                       "decide": paths > 0,
                       "corecount": len(rows["E"])}

    def setup(self) -> None:
        self.db = build_db(self.rows)
        for op in OP_QUERY:
            self._op(op)

    def _op(self, op: str):
        q = parse_query(QUERIES[OP_QUERY[op]])
        if op == "enum100":
            return list(itertools.islice(enumerate_answers(q, self.db), 100))
        if op == "decide":
            return decide(q, self.db)
        return count(q, self.db)

    def _op_traced(self, op: str, rec: Recorder):
        q = self._parse(OP_QUERY[op], rec)
        if op == "enum100":
            return self._enumerate(q, rec, 100)
        if op == "decide":
            with rec.span("eval.model_check"):
                return model_check(q, self.db)
        if op == "corecount":
            with rec.span("eval.naive_count"):
                return count_cq_naive(q, self.db)
        self._fingerprint(self.db, rec)
        with rec.span("counting.derive"):
            derived = derive_counting_join(q, self.db)
        with rec.span("counting.dp." + OP_QUERY[op]):
            return count_full_acyclic_join(derived)

    def serve(self, arg):
        return [self._op(op) for op in ROUND]

    def serve_traced(self, arg, rec):
        return [self._op_traced(op, rec) for op in ROUND]

    def _ok(self, op: str, out) -> bool:
        if op != "enum100":
            return out == self.expect[op]
        return (len(out) == self.expect[op] and len(set(out)) == len(out)
                and all((x, y) in self.r_set and (y, z) in self.s_set
                        and z in self.t_heads for x, y, z in out))

    def check(self, i, out):
        return all(self._ok(op, o) for op, o in zip(ROUND, out))


WORKLOADS = {cls.name: cls for cls in (ColdLoadCount, UpdateCount, EnumScan,
                                       WarmMix)}
