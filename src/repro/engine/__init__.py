"""Pluggable relational engine backends.

The join-tree algorithms (Yannakakis, the full reducer, acyclic counting,
free-connex preprocessing) are written against a small relation duck
interface; this package selects which concrete representation they run
on:

* ``tuple``    — Python tuples in hash-indexed dicts (the default, exact
  seed behaviour);
* ``columnar`` — dictionary-encoded numpy int64 columns with vectorized
  sort-grouped kernels (typically >= 3x faster on 100k-tuple acyclic
  joins; see ``benchmarks/test_bench_engines.py``).

Both backends share per-symbol work (encodes, probe structures, masked
atom variants) on each stored relation's memo (:mod:`repro.engine.symbols`).

Selection, in decreasing precedence:

1. an explicit ``engine=`` argument to the algorithm entry points
   (an :class:`Engine`, or a backend name);
2. :func:`set_engine` / the :func:`use_engine` context manager;
3. the ``REPRO_ENGINE`` environment variable;
4. the default, ``tuple``.

An unknown name raises :class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Union

from repro.engine.base import ColumnarEngine, Engine, TupleEngine
from repro.engine.enumerate import BlockIterator, batchable
from repro.errors import ConfigurationError

DEFAULT_ENGINE = "tuple"
ENV_VAR = "REPRO_ENGINE"

_REGISTRY: Dict[str, Engine] = {"tuple": TupleEngine(),
                                "columnar": ColumnarEngine()}
_SELECTED: Optional[str] = None


def available_engines() -> List[str]:
    """Names of the backends."""
    return sorted(_REGISTRY)


def _unknown_engine(name: str) -> ConfigurationError:
    return ConfigurationError(
        f"unknown engine {name!r}; available: {available_engines()}")


def get_engine(name: Optional[str] = None) -> Engine:
    """The engine named ``name``, or the currently selected one.

    With no explicit selection the ``REPRO_ENGINE`` environment variable
    is consulted on every call, so tests and subprocesses can flip the
    backend without touching code.
    """
    if name is None:
        name = _SELECTED or os.environ.get(ENV_VAR) or DEFAULT_ENGINE
    try:
        return _REGISTRY[name]
    except KeyError:
        raise _unknown_engine(name) from None


def set_engine(name: Optional[str]) -> None:
    """Select the process-wide default backend (None resets to env/default)."""
    if name is not None and name not in _REGISTRY:
        raise _unknown_engine(name)
    global _SELECTED
    _SELECTED = name


@contextmanager
def use_engine(name: str) -> Iterator[Engine]:
    """Temporarily select a backend."""
    global _SELECTED
    previous = _SELECTED
    set_engine(name)
    try:
        yield _REGISTRY[name]
    finally:
        _SELECTED = previous


def resolve_engine(engine: Union[Engine, str, None]) -> Engine:
    """Normalise an ``engine=`` argument: Engine instance, name, or None
    (= current selection)."""
    if isinstance(engine, Engine):
        return engine
    return get_engine(engine)


__all__ = [
    "Engine",
    "TupleEngine",
    "ColumnarEngine",
    "available_engines",
    "get_engine",
    "set_engine",
    "use_engine",
    "resolve_engine",
    "DEFAULT_ENGINE",
    "ENV_VAR",
    "BlockIterator",
    "batchable",
]
