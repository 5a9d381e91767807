"""The two-phase enumeration protocol (paper Section 2.3.3).

An :class:`Enumerator` separates *preprocessing* (allowed to read the whole
database, builds indexes, may find the first solutions) from *enumeration*
(emits answers one by one, no repetition).  The split is part of the
complexity claims — Constant-Delay_lin means linear preprocessing and a
delay depending on the query only — so it is explicit in the API and is
what :mod:`repro.perf.delay` measures.  On the columnar engine the first
answers are decoded by the first enumeration, and the plan-cached
pipeline keeps them, its ramp blocks
(:class:`repro.engine.enumerate.BlockIterator`), so a warm repeat on an
unwritten database copies them without walking again.

Answers leave an enumerator in *blocks*: :meth:`Enumerator.blocks` is
the one answer stream, and iterating an enumerator walks its blocks at
one C-level step per answer.  "Enumeration Complexity: Incremental
Time, Delay and Space" (arXiv 2309.17042) treats delay as an amortised
budget, which is what licenses a block of B answers for B constant
delays.  The per-answer stream ``_enumerate`` stays for the consumers
that interleave or time single answers.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator, List, Optional, Tuple

from repro import obs
from repro.engine.enumerate import block_schedule, resolve_block_size

Answer = Tuple[Any, ...]


class Enumerator:
    """Base class: :meth:`blocks` is the answer stream, and iterating
    walks it.  Subclasses implement ``_preprocess`` and ``_enumerate``,
    and override ``_blocks`` when they produce answers in blocks natively.

    Usage::

        e = SomeEnumerator(query, db)
        e.preprocess()
        for answer in e:
            ...

    Iterating without calling :meth:`preprocess` first triggers it
    implicitly (convenient in tests; benchmarks call it explicitly so the
    phases can be timed separately).

    Both phases are traced (:mod:`repro.obs`): preprocessing runs under
    a ``<Class>.preprocess`` span and iteration under a
    ``<Class>.enumerate`` span annotated with the answer count — the
    span pair is the executable rendering of the paper's two-phase
    protocol, so a trace shows the linear-preprocessing/constant-delay
    split directly.  With tracing disabled both phases run unwrapped.
    """

    #: the largest block :meth:`_blocks` chunks the per-answer stream
    #: into; ``None`` means ``DEFAULT_BLOCK_SIZE`` (1024)
    block_size: Optional[int] = None

    def __init__(self) -> None:
        self._preprocessed = False

    def preprocess(self) -> None:
        """Run the preprocessing phase (idempotent)."""
        if not self._preprocessed:
            if obs.enabled():
                with obs.span(type(self).__name__ + ".preprocess"):
                    self._preprocess()
            else:
                self._preprocess()
            self._preprocessed = True

    def __iter__(self) -> Iterator[Answer]:
        return itertools.chain.from_iterable(self.blocks())

    def blocks(self) -> Iterator[List[Answer]]:
        """The answers as a stream of non-empty lists (preprocesses
        first if needed).

        With tracing live the stream runs under the ``<Class>.enumerate``
        span, whose ``answers`` attribute is brought up to date once per
        block."""
        self.preprocess()
        if obs.enabled():
            return self._traced_blocks()
        return self._blocks()

    def _traced_blocks(self) -> Iterator[List[Answer]]:
        """The block stream wrapped in a span; the span closes when the
        stream is exhausted or the consumer abandons the generator."""
        with obs.span(type(self).__name__ + ".enumerate") as sp:
            n = 0
            sp.set("answers", n)
            for block in self._blocks():
                n += len(block)
                sp.set("answers", n)
                yield block

    # -- to implement ---------------------------------------------------------

    def _preprocess(self) -> None:
        raise NotImplementedError

    def _enumerate(self) -> Iterator[Answer]:
        raise NotImplementedError

    def _blocks(self) -> Iterator[List[Answer]]:
        """Chunk :meth:`_enumerate` into blocks.

        The first block holds one answer and each next one twice as many,
        up to :attr:`block_size` B: the first answer costs one step of
        the per-answer stream, taking k answers runs it fewer than 2k
        steps (k + B once blocks are full), and a long scan pays one
        block step per B answers.  The batched pipeline ramps on the
        same schedule (:func:`repro.engine.enumerate.block_schedule`)
        from 64 answers."""
        answers = self._enumerate()
        limit = resolve_block_size(self.block_size)
        for size in block_schedule(1, limit):
            block = list(itertools.islice(answers, size))
            if block:
                yield block
            if len(block) < size:
                return

    # -- helpers ---------------------------------------------------------------

    def answers(self) -> list:
        """Materialise all answers (preprocessing included)."""
        return list(self)
