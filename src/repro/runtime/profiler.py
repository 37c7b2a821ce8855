"""Per-phase work and communication accounting for the simulated runtime.

The paper's Figs. 7-9 and Table IV report wall-clock behavior of the C /
Pthreads implementation on P7-IH and BG/Q.  Our substrate is a simulator, so
instead of timing Python (which would measure the interpreter, not the
algorithm) every phase records *machine-independent* counters -- work units
(edge scans, hash probes), records / bytes / messages sent, supersteps -- and
:mod:`repro.runtime.machine` folds them through a machine model into modeled
seconds.

Phase names follow the paper's breakdown (Fig. 8): ``STATE_PROPAGATION``,
``REFINE/FIND_BEST``, ``REFINE/UPDATE``, ``GRAPH_RECONSTRUCTION``, ...
Hierarchical prefixes let the harness aggregate (everything under ``REFINE/``
is REFINE time).  Every counter is also scoped by the outer level and the
REFINE iteration it was charged in, so one level (Fig. 8a, the TEPS
denominator) or one inner iteration (Fig. 8b) can be read back without
copying counters as the run goes.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..observability.tracer import Tracer

__all__ = ["PhaseCounters", "PhaseProfiler"]


@dataclass
class PhaseCounters:
    """Counters for one phase, each per simulated rank."""

    num_ranks: int
    comp_ops: np.ndarray | None = None
    records_sent: np.ndarray | None = None
    bytes_sent: np.ndarray | None = None
    messages_sent: np.ndarray | None = None
    supersteps: int = 0
    collectives: int = 0

    def __post_init__(self) -> None:
        z = lambda: np.zeros(self.num_ranks, dtype=np.float64)  # noqa: E731
        if self.comp_ops is None:
            self.comp_ops = z()
        if self.records_sent is None:
            self.records_sent = z()
        if self.bytes_sent is None:
            self.bytes_sent = z()
        if self.messages_sent is None:
            self.messages_sent = z()

    def merge(self, other: "PhaseCounters") -> None:
        self.comp_ops += other.comp_ops
        self.records_sent += other.records_sent
        self.bytes_sent += other.bytes_sent
        self.messages_sent += other.messages_sent
        self.supersteps += other.supersteps
        self.collectives += other.collectives


class PhaseProfiler:
    """Accumulates :class:`PhaseCounters` keyed by ``(level, iteration, phase)``.

    The *current phase* is set with the :meth:`phase` context manager; the
    communication bus and algorithm code charge counters to it.  Nested
    phases are joined with ``/`` so Fig. 8 can be produced at either
    granularity.  The Louvain control plane sets :attr:`level` when it
    starts an outer level and :attr:`iteration` when it starts a REFINE
    iteration; the iteration is 0 outside iterations and the level is -1
    before the first level (INIT).  :attr:`phases` folds the scopes into
    run totals and :meth:`select` reads one level or one iteration.

    When a :class:`~repro.observability.tracer.Tracer` is attached, every
    phase entry/exit is mirrored as a tracer span (same ``/``-joined names),
    and the span_end event carries the per-rank ``comp_ops`` delta charged to
    exactly that phase -- the raw material for per-rank lanes in the Chrome
    trace export.  With no tracer (or a disabled one) the phase path is
    unchanged except for one attribute check.
    """

    def __init__(self, num_ranks: int, tracer: "Tracer | None" = None) -> None:
        self.num_ranks = int(num_ranks)
        #: Counters per ``(level, iteration, phase)``, in first-charge order.
        self.scopes: dict[tuple[int, int, str], PhaseCounters] = {}
        self.level = -1
        self.iteration = 0
        self._stack: list[str] = []
        self.tracer = tracer

    # -------------------------------------------------------------- #

    @property
    def current_phase(self) -> str:
        return self._stack[-1] if self._stack else "UNATTRIBUTED"

    @contextmanager
    def phase(self, name: str):
        """Attribute all counters recorded inside to ``name`` (nested via /)."""
        full = f"{self._stack[-1]}/{name}" if self._stack else name
        self._stack.append(full)
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        if tracing:
            tracer.begin_span(full)
            # The delta is read from the scope the span started in: the
            # REFINE span outlives every iteration inside it.
            entry = self._get(full)
            ops_before = entry.comp_ops.copy()
        try:
            yield self
        finally:
            self._stack.pop()
            if tracing:
                delta = entry.comp_ops - ops_before
                tracer.end_span(
                    comp_ops=delta.tolist() if delta.any() else None
                )

    def _get(self, name: str | None = None) -> PhaseCounters:
        phase = self.current_phase if name is None else name
        key = (self.level, self.iteration, phase)
        entry = self.scopes.get(key)
        if entry is None:
            entry = self.scopes[key] = PhaseCounters(num_ranks=self.num_ranks)
        return entry

    # -------------------------------------------------------------- #
    # Charging
    # -------------------------------------------------------------- #

    def add_ops(self, rank: int, ops: float) -> None:
        """Charge ``ops`` work units (edge scans / probes) to ``rank``."""
        self._get().comp_ops[rank] += ops

    def add_ops_all(self, ops: np.ndarray) -> None:
        """Charge a per-rank vector of work units at once."""
        self._get().comp_ops += ops

    def add_send(self, rank: int, records: int, nbytes: int, messages: int) -> None:
        c = self._get()
        c.records_sent[rank] += records
        c.bytes_sent[rank] += nbytes
        c.messages_sent[rank] += messages

    def add_superstep(self) -> None:
        self._get().supersteps += 1

    def add_collective(self) -> None:
        self._get().collectives += 1

    # -------------------------------------------------------------- #
    # Reporting
    # -------------------------------------------------------------- #

    @property
    def phases(self) -> dict[str, PhaseCounters]:
        """Run totals per phase: every scope folded together."""
        return self._fold(self.scopes.items())

    def select(
        self, level: int, iteration: int | None = None
    ) -> dict[str, PhaseCounters]:
        """Per-phase counters of one level, or of one REFINE iteration in it.

        Phases with nothing charged in the selected scopes are left out.
        """
        folded = self._fold(
            (key, counters)
            for key, counters in self.scopes.items()
            if key[0] == level and (iteration is None or key[1] == iteration)
        )
        return {
            name: c
            for name, c in folded.items()
            if c.comp_ops.any() or c.records_sent.any() or c.supersteps
            or c.collectives
        }

    def _fold(self, items) -> dict[str, PhaseCounters]:
        out: dict[str, PhaseCounters] = {}
        for (_, _, name), counters in items:
            if name not in out:
                out[name] = PhaseCounters(num_ranks=self.num_ranks)
            out[name].merge(counters)
        return out

    def aggregate(self, prefix: str) -> PhaseCounters:
        """Sum all phases whose name equals or starts with ``prefix/``."""
        out = PhaseCounters(num_ranks=self.num_ranks)
        for (_, _, name), counters in self.scopes.items():
            if name == prefix or name.startswith(prefix + "/"):
                out.merge(counters)
        return out

    def top_level_phases(self) -> list[str]:
        return sorted({name.split("/", 1)[0] for _, _, name in self.scopes})

    def total(self) -> PhaseCounters:
        out = PhaseCounters(num_ranks=self.num_ranks)
        for counters in self.scopes.values():
            out.merge(counters)
        return out
