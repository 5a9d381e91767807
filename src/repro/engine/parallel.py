"""Shared-memory parallel block enumeration over a spawn-based worker pool.

The one layer of the paper's pipeline that pays for pool dispatch on a
2-CPU host is the enumeration phase of Theorem 4.6: the batched block
walk of :class:`~repro.engine.enumerate.BlockIterator` is sharded by
contiguous ranges of the join-tree root's rows
(:class:`ParallelBlockIterator`).  The relation columns live in one
:mod:`multiprocessing.shared_memory` block, so the only per-task traffic
is a small descriptor (column offsets, row range) and the answer blocks
streamed back; the O(|D|) data is mapped zero-copy into every worker.

The emitted answer stream of the block walk is invariant to how the root
batch is chunked (each root row's subtree expansion is independent and
emitted depth-first), so streaming the per-chunk blocks back in
``(chunk, seq)`` order yields the *identical* answer sequence to the
serial iterator — order-preserving shard-merge, which keeps measured
delays meaningful (DESIGN.md's amortised-delay caveat).  Everything else
(materialisation, the full reducer, the counting DP) runs the serial
columnar kernels: at 2 workers their sharded versions lost to columnar.

Enumeration falls back to the serial columnar path below a tunable total
tuple-count threshold (``REPRO_PARALLEL_THRESHOLD``, default
``DEFAULT_PARALLEL_THRESHOLD``): small inputs must not pay pool latency.
Worker count resolves, in decreasing precedence: the ``workers=``
constructor argument, :func:`set_default_workers` (the ``--workers``
CLI flag), the ``REPRO_WORKERS`` environment variable, then
``os.cpu_count()``.

With tracing live, every chunk task runs under a worker-local tracer
whose spans are shipped back and adopted into the driver's trace with
the worker's real pid (:meth:`repro.obs.trace.Tracer.adopt`), so ``repro
explain --trace`` lays the fan-out on per-process tracks.
"""

from __future__ import annotations

import atexit
import os
import queue as queue_mod
import time
import traceback
import weakref
from collections import OrderedDict
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import multiprocessing as mp
from multiprocessing import shared_memory

import numpy as np

from repro import obs
from repro.engine.base import ColumnarEngine
from repro.errors import ReproError

Tup = Tuple[Any, ...]

WORKERS_ENV_VAR = "REPRO_WORKERS"
THRESHOLD_ENV_VAR = "REPRO_PARALLEL_THRESHOLD"

#: below this many total input tuples the parallel engine runs the plain
#: serial columnar path — pool dispatch costs more than it saves
DEFAULT_PARALLEL_THRESHOLD = 50_000

_DEFAULT_WORKERS: Optional[int] = None


class ParallelExecutionError(ReproError):
    """A pool worker failed (the worker's traceback is in the message)."""


def set_default_workers(n: Optional[int]) -> None:
    """Process-wide worker-count override (the ``--workers`` CLI flag);
    None resets to the environment/cpu_count resolution."""
    global _DEFAULT_WORKERS
    if n is not None and n < 1:
        raise ValueError(f"workers must be >= 1, got {n}")
    _DEFAULT_WORKERS = n


def default_workers() -> int:
    """Resolve the worker count: override > ``REPRO_WORKERS`` > cpu count."""
    if _DEFAULT_WORKERS is not None:
        return _DEFAULT_WORKERS
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV_VAR} must be an integer, got {env!r}"
            ) from None
        if n < 1:
            raise ValueError(f"{WORKERS_ENV_VAR} must be >= 1, got {n}")
        return n
    return os.cpu_count() or 1


def default_threshold() -> int:
    """The serial-fallback tuple-count threshold (env-tunable)."""
    env = os.environ.get(THRESHOLD_ENV_VAR)
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(
                f"{THRESHOLD_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    return DEFAULT_PARALLEL_THRESHOLD


# ------------------------------------------------------------------- arena


_ARENA_REGISTRY: "weakref.WeakSet[ShmArena]" = weakref.WeakSet()


class ShmArena:
    """A batch of numpy arrays in one shared-memory block.

    The driver :meth:`publish`-es the code columns once per column set; workers
    :meth:`attach` by name and get zero-copy views.  The descriptor —
    ``(segment name, [(dtype, length, offset), ...])`` — is tiny and
    picklable, so per-task payloads stay O(schema), not O(data).
    """

    __slots__ = ("shm", "specs", "arrays", "owner", "__weakref__")

    def __init__(self, shm: shared_memory.SharedMemory,
                 specs: List[Tuple[str, int, int]],
                 arrays: List[np.ndarray], owner: bool):
        self.shm = shm
        self.specs = specs
        self.arrays = arrays
        self.owner = owner

    @classmethod
    def publish(cls, arrays: Sequence[np.ndarray]) -> "ShmArena":
        """Copy ``arrays`` into a fresh shared segment (driver side)."""
        specs: List[Tuple[str, int, int]] = []
        offset = 0
        flat = []
        for a in arrays:
            a = np.ascontiguousarray(a)
            flat.append(a.reshape(-1))
            offset = (offset + 7) & ~7  # 8-byte alignment per array
            specs.append((str(a.dtype), int(a.size), offset))
            offset += a.nbytes
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 8))
        views = cls._views(shm, specs)
        for view, a in zip(views, flat):
            view[:] = a
        arena = cls(shm, specs, views, owner=True)
        _ARENA_REGISTRY.add(arena)
        obs.count("parallel.arena_bytes", shm.size)
        return arena

    @classmethod
    def attach(cls, descriptor: Tuple[str, List[Tuple[str, int, int]]]
               ) -> "ShmArena":
        """Map an existing segment (worker side)."""
        name, specs = descriptor
        # NB: on 3.11 attaching re-registers the segment with the
        # resource tracker; pool workers are spawn children sharing the
        # driver's tracker process and registrations are a set, so this
        # is a no-op there (the 3.13 ``track=False`` flag would make it
        # explicit).  Independent attachers would need an unregister.
        shm = shared_memory.SharedMemory(name=name)
        return cls(shm, specs, cls._views(shm, specs), owner=False)

    @staticmethod
    def _views(shm: shared_memory.SharedMemory,
               specs: List[Tuple[str, int, int]]) -> List[np.ndarray]:
        return [np.frombuffer(shm.buf, dtype=dtype, count=size, offset=off)
                for dtype, size, off in specs]

    @property
    def descriptor(self) -> Tuple[str, List[Tuple[str, int, int]]]:
        return (self.shm.name, self.specs)

    def dispose(self) -> None:
        """Drop views, close the mapping, unlink if owner (idempotent)."""
        self.arrays = []
        try:
            self.shm.close()
        except BufferError:
            # a live external view (e.g. still bound in the caller's
            # frame) pins the mapping; drop our handles so the mmap
            # unmaps when the last view dies, instead of letting
            # SharedMemory.__del__ retry the close and warn at GC time
            try:
                self.shm._buf = None
                self.shm._mmap = None
            except AttributeError:  # pragma: no cover - stdlib internals
                pass
        if self.owner:
            self.owner = False
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.dispose()
        except Exception:
            pass


@atexit.register
def _dispose_arenas() -> None:  # pragma: no cover - exit path
    for arena in list(_ARENA_REGISTRY):
        try:
            arena.dispose()
        except Exception:
            pass


# -------------------------------------------------------------- arena cache
#
# Publishing an arena copies O(|D|) bytes into shared memory — the
# dominant fixed cost of a parallel enumeration after pool start.  Code
# columns are immutable (mutation builds new relations), so an arena over
# a given set of column arrays stays valid for as long as those arrays
# live: the cache below keys on the column arrays' identities — the same
# identity+length fingerprint scheme PlanCache uses for stored relations
# — and pins the arrays against id reuse.  A second enumeration over the
# same columns (any warm-plan re-run on the same db version) attaches to
# the already-published segment instead of copying again.

#: distinct column sets kept published at once (LRU beyond this)
ARENA_CACHE_LIMIT = 4


class _ArenaCacheEntry:
    __slots__ = ("key", "arena", "pins", "refs", "dead")

    def __init__(self, key: Tuple, arena: ShmArena,
                 pins: List[np.ndarray]):
        self.key = key
        self.arena = arena
        self.pins = pins  # strong refs: cached ids cannot be reused
        self.refs = 0
        self.dead = False


_ARENA_CACHE: "OrderedDict[Tuple, _ArenaCacheEntry]" = OrderedDict()


def _acquire_column_arena(relations: Sequence[Any]
                          ) -> Tuple[_ArenaCacheEntry, List[List[int]]]:
    """The shared-memory arena holding every relation's code columns.

    Returns ``(entry, col_index)`` with ``col_index[r][p]`` the flat
    arena slot of relation ``r``'s column ``p``.  The entry's refcount
    is incremented; callers must pair with :func:`_release_arena`
    (unlink of an evicted segment is deferred to the last release).
    """
    cols_per_rel = [rel.code_columns() for rel in relations]
    flat: List[np.ndarray] = []
    col_index: List[List[int]] = []
    # dedupe by array identity: shared per-symbol materialisations (see
    # repro.engine.symbols) make a k-atom self-join's relations alias the
    # same ndarray objects, so the arena publishes one segment slot per
    # symbol column rather than one per atom occurrence
    slot_of: Dict[int, int] = {}
    for cols in cols_per_rel:
        idx = []
        for c in cols:
            slot = slot_of.get(id(c))
            if slot is None:
                slot = len(flat)
                slot_of[id(c)] = slot
                flat.append(c)
            else:
                obs.count("parallel.arena_shared_columns")
            idx.append(slot)
        col_index.append(idx)
    key = tuple((id(c), len(c)) for c in flat)
    entry = _ARENA_CACHE.get(key)
    if entry is not None:
        _ARENA_CACHE.move_to_end(key)
        entry.refs += 1
        obs.count("parallel.arena_cache_hits")
        return entry, col_index
    obs.count("parallel.arena_cache_misses")
    with obs.span("parallel.arena_publish", arrays=len(flat)):
        arena = ShmArena.publish(flat)
    entry = _ArenaCacheEntry(key, arena, flat)
    entry.refs = 1
    _ARENA_CACHE[key] = entry
    while len(_ARENA_CACHE) > ARENA_CACHE_LIMIT:
        _old_key, old = _ARENA_CACHE.popitem(last=False)
        obs.count("parallel.arena_cache_evictions")
        old.dead = True
        if old.refs <= 0:
            old.arena.dispose()
    return entry, col_index


def _release_arena(entry: Optional[_ArenaCacheEntry]) -> None:
    """Drop one reference; disposes evicted/invalidated segments once
    the last in-flight operation lets go."""
    if entry is None:
        return
    entry.refs -= 1
    if entry.dead and entry.refs <= 0:
        entry.arena.dispose()


def invalidate_arena_cache() -> None:
    """Explicitly drop every cached arena (segments with in-flight
    operations are unlinked at their release).  Called on pool respawn
    and shutdown so a crashed worker generation never pins stale
    shared-memory registrations through the atexit cleanup."""
    while _ARENA_CACHE:
        _key, entry = _ARENA_CACHE.popitem(last=False)
        entry.dead = True
        if entry.refs <= 0:
            entry.arena.dispose()


def arena_cache_stats() -> Dict[str, Any]:
    """Live cache inventory (doctor/metrics surfaces and tests)."""
    return {
        "entries": len(_ARENA_CACHE),
        "bytes": sum(e.arena.shm.size for e in _ARENA_CACHE.values()),
        "refs": {i: e.refs for i, e in enumerate(_ARENA_CACHE.values())},
        "limit": ARENA_CACHE_LIMIT,
    }


# ------------------------------------------------------------------ workers


def _serialise_span(span) -> Dict[str, Any]:
    return {
        "name": span.name,
        "start_ns": span.start_ns,
        "end_ns": span.end_ns,
        "tid": span.tid,
        "attrs": dict(span.attrs),
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "children": [_serialise_span(c) for c in span.children],
    }


def _revive_span(data: Dict[str, Any], pid: int):
    from repro.obs.trace import Span

    span = Span(data["name"], data["start_ns"], data["tid"], pid=pid)
    span.end_ns = data["end_ns"] if data["end_ns"] is not None \
        else data["start_ns"]
    span.attrs.update(data["attrs"])
    span.trace_id = data.get("trace_id")
    span.span_id = data.get("span_id")
    span.parent_id = data.get("parent_id")
    span.children = [_revive_span(c, pid) for c in data["children"]]
    return span


def _propagation_ctx() -> Optional[Dict[str, Any]]:
    """The driver's current trace context in wire form, for payloads.

    Called *inside* the dispatch span (``parallel.enumerate``), so the
    context's
    ``span_id`` names that span and adopted worker subtrees graft under
    it.  ``None`` when tracing is off or unsampled — workers then run
    exactly the pre-propagation path."""
    ctx = obs.propagation_context()
    return ctx.to_dict() if ctx is not None else None


def _worker_tracer(ctx_data: Optional[Dict[str, Any]]):
    """A worker-side tracer adopting the driver's propagated trace
    context.  Worker span ids are pid-prefixed, so they cannot collide
    with driver ids, and the worker root span's parent_id points at the
    driver span that dispatched the chunk — :meth:`Tracer.adopt` uses it
    to graft the worker subtree into the request tree."""
    from repro.obs.trace import TraceContext, Tracer

    ctx = TraceContext.from_dict(ctx_data) if ctx_data else None
    return Tracer(context=ctx)


def _task_meta(tracer=None) -> Optional[Dict[str, Any]]:
    """Build one result message's metadata, worker side.

    The worker's always-on registry delta (counters/gauges/sketches
    accumulated since the last ship) rides on *every* result — this is
    the piggyback on the existing chunk round-trips that lets one driver
    registry cover all engine tiers.  Spans and tracer counters are
    attached only when the task was traced."""
    meta: Dict[str, Any] = {}
    state = obs.registry().drain()
    if state:
        meta["registry"] = state
    if tracer is not None:
        meta["pid"] = os.getpid()
        meta["spans"] = [_serialise_span(s) for s in tracer.roots]
        meta["counters"] = dict(tracer.counters)
    return meta or None


def _absorb_meta(meta: Optional[Dict[str, Any]]) -> None:
    """Fold one task's worker-side telemetry into the driver: registry
    deltas always (merge is order-independent), the trace graft
    (spans + counters, real worker pid) when the driver is tracing."""
    if not meta:
        return
    state = meta.get("registry")
    if state:
        obs.registry().merge_state(state)
    if "spans" not in meta or not obs.enabled():
        return
    tracer = obs.tracer()
    pid = meta["pid"]
    for data in meta["spans"]:
        tracer.adopt(_revive_span(data, pid))
    for name, value in meta["counters"].items():
        tracer.count(name, value)


# worker-process state: attached arenas (LRU) and built enum probes
_WORKER_ARENAS: "OrderedDict[str, ShmArena]" = OrderedDict()
_WORKER_PROBES: "OrderedDict[Tuple[str, int], Any]" = OrderedDict()
_WORKER_ARENA_LIMIT = 8


def _worker_arena(descriptor) -> ShmArena:
    name = descriptor[0]
    arena = _WORKER_ARENAS.get(name)
    if arena is not None:
        _WORKER_ARENAS.move_to_end(name)
        return arena
    arena = ShmArena.attach(descriptor)
    _WORKER_ARENAS[name] = arena
    while len(_WORKER_ARENAS) > _WORKER_ARENA_LIMIT:
        old_name, old = _WORKER_ARENAS.popitem(last=False)
        for key in [k for k in _WORKER_PROBES if k[0] == old_name]:
            del _WORKER_PROBES[key]
        old.dispose()
    return arena


def _task_enum_chunk(payload: Dict[str, Any], results, tid) -> Dict[str, Any]:
    """Walk one contiguous root-row range, streaming answer blocks back.

    Blocks go onto the result queue as ``("block", tid, chunk, seq,
    columns)`` messages the moment they exist; the final ``ok`` result
    carries the block count so the driver knows when a chunk is drained.
    """
    arena = _worker_arena(payload["arena"])
    arr = arena.arrays
    plan = payload["plan"]
    chunk, start, stop = payload["chunk"], payload["start"], payload["stop"]
    block = plan["block_size"]
    levels = plan["levels"]
    head_slots = plan["head_slots"]
    arena_name = payload["arena"][0]

    probes = []
    for li, level in enumerate(levels):
        # keyed on (segment, column slots, rows): cached column arenas
        # are immutable, so any plan over the same columns — a different
        # iterator, a warm re-run — reuses the built probe
        key = (arena_name, tuple(level["probe_cols"]), level["nrows"])
        probe = _WORKER_PROBES.get(key)
        if probe is None:
            from repro.engine.enumerate import _BatchProbe

            probe = _BatchProbe([arr[i] for i in level["probe_cols"]],
                                level["nrows"])
            _WORKER_PROBES[key] = probe
            while len(_WORKER_PROBES) > 64:
                _WORKER_PROBES.popitem(last=False)
        probes.append(probe)

    seq = 0

    def emit(batch: List[Optional[np.ndarray]], nrows: int) -> None:
        nonlocal seq
        for s0 in range(0, nrows, block):
            s1 = min(s0 + block, nrows)
            if head_slots:
                out = [np.ascontiguousarray(batch[si][s0:s1])
                       for si in head_slots]
            else:
                out = s1 - s0  # zero-ary head: just the multiplicity
            results.put(("block", tid, chunk, seq, out))
            seq += 1

    def walk(level: int, batch: List[Optional[np.ndarray]],
             nrows: int) -> None:
        if nrows == 0:
            return
        if level == len(levels):
            emit(batch, nrows)
            return
        lv = levels[level]
        probe = probes[level]
        for s0 in range(0, nrows, block):
            s1 = min(s0 + block, nrows)
            piece = [a[s0:s1] if a is not None else None for a in batch]
            lo, counts = probe.lookup(
                [piece[si] for si in lv["probe_slots"]], s1 - s0)
            total = int(counts.sum())
            if total == 0:
                continue
            batch_idx = np.repeat(np.arange(s1 - s0, dtype=np.int64), counts)
            run_starts = np.cumsum(counts) - counts
            within = np.arange(total, dtype=np.int64) - np.repeat(run_starts,
                                                                  counts)
            rel_rows = probe.order[np.repeat(lo, counts) + within]
            out = [a[batch_idx] if a is not None else None for a in piece]
            for ci, si in zip(lv["fresh_cols"], lv["fresh_slots"]):
                out[si] = arr[ci][rel_rows]
            walk(level + 1, out, total)

    with obs.span("parallel.enum_chunk", chunk=chunk, rows=stop - start):
        root_batch: List[Optional[np.ndarray]] = [None] * plan["nslots"]
        for ci, si in zip(plan["root_cols"], plan["root_slots"]):
            root_batch[si] = arr[ci][start:stop]
        walk(0, root_batch, stop - start)
    return {"blocks": seq, "chunk": chunk}


def _task_ping(payload: Dict[str, Any], _results, _tid) -> Dict[str, Any]:
    return {"pid": os.getpid(), "worker": payload.get("worker")}


_HANDLERS = {
    "enum_chunk": _task_enum_chunk,
    "ping": _task_ping,
}


def _worker_main(worker_index: int, tasks, results) -> None:
    """Pool worker loop (spawn entry point; must be importable)."""
    obs.disable()  # the driver owns the trace; per-task capture below
    while True:
        msg = tasks.get()
        if msg[0] == "shutdown":
            _WORKER_PROBES.clear()
            while _WORKER_ARENAS:
                _name, arena = _WORKER_ARENAS.popitem()
                arena.dispose()
            break
        kind, tid, payload = msg
        try:
            handler = _HANDLERS[kind]
            if payload.get("trace"):
                with obs.capture(
                        _worker_tracer(payload.get("trace_ctx"))) as tracer:
                    with obs.span("parallel.worker", worker=worker_index,
                                  task=kind):
                        out = handler(payload, results, tid)
                meta = _task_meta(tracer)
            else:
                out = handler(payload, results, tid)
                meta = _task_meta()
            results.put(("ok", tid, out, meta))
        except Exception:
            results.put(("err", tid, traceback.format_exc(), None))


class WorkerPool:
    """A fixed pool of ``spawn``-ed processes fed by one task queue.

    ``spawn`` (not ``fork``) so workers never inherit the driver's numpy
    thread state, open tracers or shared-memory handles — the only
    coupling is the explicit queues and the arenas workers attach by
    name.  Task ids are monotonically unique across the pool's lifetime;
    receive loops discard messages for unknown ids, so an abandoned
    streaming enumeration cannot poison the next operation.
    """

    def __init__(self, workers: int):
        ctx = mp.get_context("spawn")
        self.workers = workers
        self.tasks = ctx.Queue()
        self.results = ctx.Queue()
        self._next_id = 0
        # never let workers inherit REPRO_TRACE: each would install its
        # own atexit Chrome dump clobbering the driver's trace file
        saved = os.environ.pop(obs.ENV_VAR, None)
        try:
            self.procs = [
                ctx.Process(target=_worker_main, args=(i, self.tasks,
                                                       self.results),
                            daemon=True, name=f"repro-worker-{i}")
                for i in range(workers)
            ]
            for p in self.procs:
                p.start()
        finally:
            if saved is not None:
                os.environ[obs.ENV_VAR] = saved

    def post(self, kind: str, payload: Dict[str, Any]) -> int:
        tid = self._next_id
        self._next_id += 1
        self.tasks.put((kind, tid, payload))
        obs.count("parallel.tasks")
        return tid

    def recv(self) -> Tuple:
        """Next result message; raises if a worker process died."""
        while True:
            try:
                return self.results.get(timeout=1.0)
            except queue_mod.Empty:
                dead = [p for p in self.procs if not p.is_alive()]
                if dead:
                    raise ParallelExecutionError(
                        f"worker process(es) died: "
                        f"{[p.name for p in dead]}") from None

    def gather(self, tasks: Sequence[Tuple[str, Dict[str, Any]]]) -> List[Any]:
        """Run a fixed task set, returning payloads in task order."""
        expected: Dict[int, int] = {}
        for i, (kind, payload) in enumerate(tasks):
            expected[self.post(kind, payload)] = i
        out: List[Any] = [None] * len(tasks)
        remaining = len(expected)
        while remaining:
            msg = self.recv()
            if msg[0] == "block":  # stale stream from an abandoned iterator
                continue
            status, tid = msg[0], msg[1]
            if tid not in expected:
                continue
            if status == "err":
                raise ParallelExecutionError(
                    f"parallel task failed in a pool worker:\n{msg[2]}")
            out[expected.pop(tid)] = msg[2]
            _absorb_meta(msg[3])
            remaining -= 1
        return out

    def alive(self) -> bool:
        return all(p.is_alive() for p in self.procs)

    def shutdown(self) -> None:
        for _ in self.procs:
            try:
                self.tasks.put(("shutdown",))
            except Exception:  # pragma: no cover - queue already closed
                pass
        for p in self.procs:
            p.join(timeout=2.0)
            if p.is_alive():  # pragma: no cover - stuck worker
                p.terminate()
                p.join(timeout=1.0)
        for q in (self.tasks, self.results):
            q.close()
            q.join_thread()


_POOLS: Dict[int, WorkerPool] = {}


def get_pool(workers: int) -> WorkerPool:
    """The shared pool with ``workers`` processes (created on first use,
    respawned if its processes died)."""
    pool = _POOLS.get(workers)
    if pool is not None and pool.alive():
        obs.count("parallel.pool_reuse")
        return pool
    if pool is not None:  # pragma: no cover - crashed pool
        # a dead worker generation may still hold attachments to cached
        # segments; drop the cache so its shared-memory registrations
        # cannot leak into the next generation's lifetime
        obs.count("parallel.pool_respawn")
        obs.event("pool.respawn", workers=workers,
                  dead=[p.name for p in pool.procs if not p.is_alive()])
        invalidate_arena_cache()
        pool.shutdown()
    else:
        obs.count("parallel.pool_spawn")
        obs.event("pool.spawn", workers=workers)
    with obs.span("parallel.pool_start", workers=workers):
        pool = WorkerPool(workers)
        # synchronise on worker imports finishing, so the first real
        # operation's timing is not charged the interpreter start-up
        pool.gather([("ping", {"worker": i, "trace": False})
                     for i in range(workers)])
    _POOLS[workers] = pool
    obs.gauge("parallel.pool_workers", workers)
    return pool


def pool_stats() -> Dict[str, Any]:
    """Live pool inventory (for doctor/metrics surfaces)."""
    return {
        "pools": sorted(_POOLS),
        "alive": {w: p.alive() for w, p in _POOLS.items()},
        "default_workers": default_workers(),
        "threshold": default_threshold(),
        "arena_cache": arena_cache_stats(),
    }


@atexit.register
def shutdown_pools() -> None:
    """Stop every pool and drop cached arenas (atexit; also callable
    from tests)."""
    invalidate_arena_cache()
    for pool in list(_POOLS.values()):
        try:
            pool.shutdown()
        except Exception:  # pragma: no cover - exit path
            pass
    _POOLS.clear()


# -------------------------------------------------------------- enumeration


class ParallelBlockIterator:
    """Order-preserving parallel counterpart of :class:`BlockIterator`.

    The join-tree root's rows are split into ``workers`` contiguous
    chunks; each worker runs the same depth-first block walk over its
    chunk against shared-memory columns and streams answer blocks back;
    the driver replays them in ``(chunk, seq)`` order.  Because the
    serial walk's answer stream is the concatenation of the per-root-row
    streams (chunking only moves *block boundaries*, never answers), the
    flat answer sequence is identical to the serial iterator's — the
    deterministic shard-merge the delay measurements rely on.

    Restartable like the serial iterator: ``blocks()`` re-dispatches the
    chunk tasks; the arena and worker-side probes are built once and
    reused across runs.
    """

    def __init__(self, relations: Sequence[Any], head: Sequence,
                 block_size: Optional[int] = None, tree=None,
                 reduce: bool = True,
                 engine: Optional["ParallelEngine"] = None):
        from repro.engine.enumerate import batchable, resolve_block_size
        from repro.hypergraph.hypergraph import Hypergraph
        from repro.hypergraph.jointree import cached_join_tree

        if engine is None:
            engine = ParallelEngine()
        self._engine = engine
        if not batchable(relations):
            raise TypeError(
                "ParallelBlockIterator needs ColumnarRelation operands "
                "sharing one ValueDictionary; convert via an engine first")
        self._head = tuple(head)
        self.block_size = max(1, resolve_block_size(block_size))
        relations = list(relations)
        if tree is None:
            h = Hypergraph(
                {v for r in relations for v in r.variables},
                [frozenset(r.variables) for r in relations],
            )
            tree = cached_join_tree(h)
        if reduce:
            from repro.enumeration.full_acyclic import reduce_relations

            relations = reduce_relations(tree, relations)
        self._relations = relations
        self._empty = any(len(r) == 0 for r in relations)
        self._dict = relations[0].dictionary
        self._order = tree.top_down()

        # slot assignment: one column slot per variable, bound at the
        # root or at the level introducing it — workers carry batches as
        # slot-indexed array lists, no Variable objects cross processes
        self._slots: Dict[Any, int] = {}
        root_rel = relations[self._order[0]]
        for v in root_rel.variables:
            self._slots[v] = len(self._slots)
        self._levels: List[Dict[str, Any]] = []
        bound = set(root_rel.variables)
        for node in self._order[1:]:
            rel = relations[node]
            pv = tuple(v for v in rel.variables if v in bound)
            fresh = tuple(v for v in rel.variables if v not in bound)
            bound.update(rel.variables)
            for v in fresh:
                self._slots[v] = len(self._slots)
            self._levels.append({"node": node, "probe_vars": pv,
                                 "fresh_vars": fresh})
        missing = [v for v in self._head if v not in bound]
        if missing:
            raise ValueError(
                f"head variables {[v.name for v in missing]} do not occur "
                "in any relation")
        self._entry: Optional[_ArenaCacheEntry] = None
        self._plan: Optional[Dict[str, Any]] = None

    def _ensure_plan(self) -> Tuple[ShmArena, Dict[str, Any]]:
        if self._entry is not None:
            return self._entry.arena, self._plan
        entry, col_index = _acquire_column_arena(self._relations)
        root = self._order[0]
        root_rel = self._relations[root]
        plan = {
            "block_size": self.block_size,
            "nslots": len(self._slots),
            "root_cols": [col_index[root][root_rel.position(v)]
                          for v in root_rel.variables],
            "root_slots": [self._slots[v] for v in root_rel.variables],
            "head_slots": [self._slots[v] for v in self._head],
            "levels": [],
        }
        for level in self._levels:
            rel = self._relations[level["node"]]
            plan["levels"].append({
                "nrows": len(rel),
                "probe_cols": [col_index[level["node"]][rel.position(v)]
                               for v in level["probe_vars"]],
                "probe_slots": [self._slots[v]
                                for v in level["probe_vars"]],
                "fresh_cols": [col_index[level["node"]][rel.position(v)]
                               for v in level["fresh_vars"]],
                "fresh_slots": [self._slots[v]
                                for v in level["fresh_vars"]],
            })
        self._entry, self._plan = entry, plan
        return entry.arena, plan

    def blocks(self) -> Iterator[List[Tup]]:
        """Yield answer blocks in the serial iterator's exact order."""
        if self._empty:
            return
        nroot = len(self._relations[self._order[0]])
        if nroot == 0:
            return
        arena, plan = self._ensure_plan()
        pool = get_pool(self._engine.workers)
        trace = obs.enabled()
        nchunks = min(self._engine.workers, nroot)
        bounds = [nroot * i // nchunks for i in range(nchunks + 1)]
        with obs.span("parallel.enumerate", chunks=nchunks,
                      workers=self._engine.workers,
                      block_size=self.block_size):
            trace_ctx = _propagation_ctx()
            expected: Dict[int, int] = {}
            for chunk in range(nchunks):
                tid = pool.post("enum_chunk", {
                    "arena": arena.descriptor,
                    "plan": plan,
                    "chunk": chunk,
                    "start": bounds[chunk],
                    "stop": bounds[chunk + 1],
                    "trace": trace,
                    "trace_ctx": trace_ctx,
                })
                expected[tid] = chunk
            yield from self._merge_stream(pool, expected, nchunks)

    def _merge_stream(self, pool: WorkerPool, expected: Dict[int, int],
                      nchunks: int) -> Iterator[List[Tup]]:
        table = self._dict.decode_table()
        pending: Dict[Tuple[int, int], Any] = {}
        totals: Dict[int, int] = {}
        next_chunk, next_seq = 0, 0
        # block-gap clock for the always-on delay sketch: one reading per
        # merged block, consumer time excluded (restart after the yield)
        clock = time.perf_counter_ns
        last = clock()
        while next_chunk < nchunks:
            if next_chunk in totals and next_seq >= totals[next_chunk]:
                next_chunk += 1
                next_seq = 0
                continue
            key = (next_chunk, next_seq)
            if key in pending:
                payload = pending.pop(key)
                next_seq += 1
                obs.count("enum.blocks")
                if isinstance(payload, int):  # zero-ary head
                    obs.count("enum.answers", payload)
                    obs.delay(clock() - last, payload)
                    yield [()] * payload
                else:
                    obs.count("enum.answers", len(payload[0]))
                    decoded = [table[c].tolist() for c in payload]
                    obs.delay(clock() - last, len(payload[0]))
                    yield list(zip(*decoded))
                last = clock()
                continue
            msg = pool.recv()
            if msg[0] == "block":
                _tag, tid, chunk, seq, payload = msg
                if tid in expected:
                    pending[(chunk, seq)] = payload
                continue
            status, tid = msg[0], msg[1]
            if tid not in expected:
                continue
            if status == "err":
                raise ParallelExecutionError(
                    f"parallel enumeration failed in a pool worker:\n{msg[2]}")
            totals[expected[tid]] = msg[2]["blocks"]
            _absorb_meta(msg[3])

    def __iter__(self) -> Iterator[Tup]:
        for block in self.blocks():
            yield from block

    def __del__(self) -> None:  # pragma: no cover - GC timing
        entry = getattr(self, "_entry", None)
        if entry is not None:
            try:
                _release_arena(entry)
            except Exception:
                pass


# ------------------------------------------------------------------- engine


class ParallelEngine(ColumnarEngine):
    """The third backend: columnar kernels plus pooled block enumeration.

    Everything is inherited unchanged from :class:`ColumnarEngine`, so
    the parallel backend *is* ``columnar`` except for free-connex block
    enumeration, which consults :meth:`should_parallelise` and dispatches
    to the pool above the tuple-count threshold.
    """

    name = "parallel"

    def __init__(self, dictionary=None, workers: Optional[int] = None,
                 threshold: Optional[int] = None):
        super().__init__(dictionary)
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._workers = workers
        self._threshold = threshold

    @property
    def workers(self) -> int:
        return self._workers if self._workers is not None \
            else default_workers()

    @property
    def threshold(self) -> int:
        return self._threshold if self._threshold is not None \
            else default_threshold()

    def plan_key(self) -> Tuple:
        """Folds the fan-out into PlanCache keys: a cached plan built for
        one worker count must not serve a run with another (chunk bounds
        and worker probes depend on it)."""
        return super().plan_key() + (
            "workers", self.workers, "threshold", self.threshold)

    def should_parallelise(self, relations: Sequence[Any]) -> bool:
        """Pool dispatch is worth it: >1 worker, columnar operands on one
        dictionary, and enough total tuples to beat task latency."""
        from repro.engine.enumerate import batchable

        if self.workers <= 1 or not batchable(relations):
            return False
        total = sum(len(r) for r in relations)
        if total < self.threshold:
            obs.count("parallel.fallback_serial")
            return False
        return True

    # hook the enumeration layer calls (duck-typed: absent on serial engines)

    def parallel_enumerator(self, relations: Sequence[Any], head,
                            block_size=None, tree=None,
                            reduce: bool = True) -> ParallelBlockIterator:
        return ParallelBlockIterator(relations, head, block_size=block_size,
                                     tree=tree, reduce=reduce, engine=self)
