"""Span recorder for the traced benchmark run.

The recorder times calls into each layer's public callables from the
outside: :meth:`Tracer.install` swaps each layer's public callables for
timing wrappers and :meth:`Tracer.uninstall` puts the originals back.  Nothing under
``src/`` changes, and an untraced run never calls :meth:`install`.

Two kinds of record are kept in memory:

spans
    one record per call of a layer entry point (a machine run, an ODE
    or SSA ``simulate``, a sweep map, a serve submit, ...): name, start,
    end, parent span, job id (one per stream or serve job), thread,
    process and phase.
leaves
    per-event hot calls (``rhs``, ``jacobian``, event functions,
    ``fire``, ``select_reaction``) run hundreds of thousands of times,
    so they are aggregated into their enclosing span as a call count
    and a total time instead of one record each.

A span's self time is its duration minus the time its child spans
cover (the union of their intervals, clipped to the span) minus the
time of its leaves.

Sweep pool workers are forked from the traced process, so they inherit
the wrappers.  Each worker clears its inherited records after the fork,
and after every chunk it sends the spans recorded in that chunk back
through a pipe; the parent merges them under the ``sweep.map`` span
that started the pool.  Worker spans are therefore counted, not lost.
"""

from __future__ import annotations

import functools
import itertools
import json
import multiprocessing
import os
import threading
from time import perf_counter

#: The tracer whose wrappers are installed, if any (read by the fork
#: hook, which cannot take arguments).
_ACTIVE: "Tracer | None" = None
_FORK_HOOK_REGISTERED = False


def _after_fork_in_child() -> None:
    if _ACTIVE is not None:
        _ACTIVE._become_worker()


class Span:
    """One recorded call of a layer entry point."""

    __slots__ = ("id", "name", "start", "end", "parent", "job", "thread",
                 "pid", "phase", "attrs", "leaves")

    def __init__(self, id, name, start, parent, job, thread, pid, phase):
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job
        self.thread = thread
        self.pid = pid
        self.phase = phase
        self.attrs: dict = {}
        #: leaf name -> [calls, seconds] for hot calls made directly
        #: inside this span.
        self.leaves: dict = {}

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        span = cls(data["id"], data["name"], data["start"], data["parent"],
                   data["job"], data["thread"], data["pid"], data["phase"])
        span.end = data["end"]
        span.attrs = data["attrs"]
        span.leaves = data["leaves"]
        return span


class Tracer:
    """In-memory span recorder with install/uninstall of wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[tuple[str, str], int] = {}
        self.phase = "setup"
        #: id of the stream or job the client is driving right now.
        self.job: int | None = None
        self.pid = os.getpid()
        self.main_thread = threading.get_ident()
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: per-phase pseudo spans collecting leaves called outside any span
        self._roots: dict[str, Span] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._worker = False
        self._pipe = None

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), name, perf_counter(),
                    stack[-1].id if stack else None, self.job,
                    threading.get_ident(), os.getpid(), self.phase)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def count(self, name: str, amount: int = 1) -> None:
        key = (self.phase, name)
        self.counters[key] = self.counters.get(key, 0) + amount

    def _leaf_owner(self) -> Span:
        stack = self._stack()
        if stack:
            return stack[-1]
        root = self._roots.get(self.phase)
        if root is None:
            root = self._roots[self.phase] = Span(
                0, "(root)", 0.0, None, None, 0, self.pid, self.phase)
        return root

    # -- wrappers -------------------------------------------------------------

    def span_wrapper(self, name: str, fn, on_exit=None):
        """Wrap ``fn`` so each call records one span named ``name``.

        ``on_exit(span, args, kwargs, result)`` may attach attributes.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if on_exit is not None:
                on_exit(span, args, kwargs, result)
            return result
        return wrapper

    def async_span_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.end(span)
        return wrapper

    def leaf_wrapper(self, name: str, fn):
        """Wrap a hot callable: calls and time aggregate into the
        enclosing span instead of recording a span each."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                leaves = tracer._leaf_owner().leaves
                entry = leaves.get(name)
                if entry is None:
                    leaves[name] = [1, elapsed]
                else:
                    entry[0] += 1
                    entry[1] += elapsed
        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- install / uninstall ----------------------------------------------------

    @property
    def installed(self) -> int:
        """Number of wrappers currently installed."""
        return len(self._patches)

    def install(self) -> None:
        """Swap every traced callable for its timing wrapper."""
        global _ACTIVE, _FORK_HOOK_REGISTERED
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already installed")
        from repro.core import machine, stochastic_machine
        from repro.core.machine import SynchronousMachine
        from repro.core.stochastic_machine import StochasticMachine
        from repro.crn.kinetics import MassActionKinetics
        from repro.crn.simulation import ssa, sweep
        from repro.crn.simulation.batch import BatchStochasticSimulator
        from repro.crn.simulation.ode import OdeSimulator
        from repro.crn.simulation.ssa import (IncrementalPropensities,
                                              StochasticSimulator)
        from repro.crn.simulation.sweep import ParallelSweepRunner
        from repro.serve.cache import MemoryResultStore
        from repro.serve.jobs import JobSpec
        from repro.serve.service import SimulationService

        # -- set-up layer
        self._patch(MassActionKinetics, "__init__", self.span_wrapper(
            "kinetics.compile", MassActionKinetics.__init__))
        for module in (machine, stochastic_machine):
            self._patch(module, "synthesize", self.span_wrapper(
                "synthesis.synthesize", module.synthesize))
        # -- crn.kinetics
        self._patch(MassActionKinetics, "rhs", self.leaf_wrapper(
            "kinetics.rhs", MassActionKinetics.rhs))
        self._patch(MassActionKinetics, "jacobian", self.leaf_wrapper(
            "kinetics.jacobian", MassActionKinetics.jacobian))
        # -- crn.simulation.ode (event callables are wrapped per call)
        simulate = OdeSimulator.simulate
        ode_span = self.span_wrapper("ode.simulate", simulate)

        @functools.wraps(simulate)
        def ode_simulate(simulator, t_final, **kwargs):
            events = kwargs.get("events")
            if events:
                kwargs["events"] = [self._wrap_event(e) for e in events]
            return ode_span(simulator, t_final, **kwargs)
        self._patch(OdeSimulator, "simulate", ode_simulate)
        # -- core.machine
        self._patch(SynchronousMachine, "run", self.span_wrapper(
            "machine.run", SynchronousMachine.run, _machine_attrs))
        # -- crn.simulation.ssa + sampling
        self._patch(StochasticSimulator, "simulate", self.span_wrapper(
            "ssa.simulate", StochasticSimulator.simulate, _ssa_attrs))
        self._patch(IncrementalPropensities, "fire", self.leaf_wrapper(
            "ssa.fire", IncrementalPropensities.fire))
        self._patch(ssa, "select_reaction", self.leaf_wrapper(
            "ssa.select", ssa.select_reaction))
        # -- core.stochastic_machine
        self._patch(StochasticMachine, "run", self.span_wrapper(
            "stochastic_machine.run", StochasticMachine.run,
            _stochastic_attrs))
        # -- crn.simulation.batch
        self._patch(BatchStochasticSimulator, "simulate_ensemble",
                    self.span_wrapper(
                        "batch.simulate_ensemble",
                        BatchStochasticSimulator.simulate_ensemble,
                        _batch_attrs))
        # -- crn.simulation.sweep
        self._patch(sweep, "simulate_mean_chunk",
                    self._chunk_wrapper(sweep.simulate_mean_chunk))
        self._patch(ParallelSweepRunner, "map",
                    self._map_wrapper(ParallelSweepRunner.map))
        tracer = self

        class CountingPool(sweep.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                tracer.count("sweep.pool_starts")
                super().__init__(*args, **kwargs)
        self._patch(sweep, "ProcessPoolExecutor", CountingPool)
        # -- serve
        self._patch(SimulationService, "submit", self.async_span_wrapper(
            "serve.submit", SimulationService.submit))
        self._patch(JobSpec, "cache_key", self.span_wrapper(
            "serve.cache_key", JobSpec.cache_key))
        self._patch(JobSpec, "resolve_network", self.span_wrapper(
            "serve.resolve_network", JobSpec.resolve_network))
        self._patch(MemoryResultStore, "get", self.span_wrapper(
            "serve.store.get", MemoryResultStore.get))
        self._patch(MemoryResultStore, "put", self.span_wrapper(
            "serve.store.put", MemoryResultStore.put))

        self._pipe = multiprocessing.SimpleQueue()
        if not _FORK_HOOK_REGISTERED:
            os.register_at_fork(after_in_child=_after_fork_in_child)
            _FORK_HOOK_REGISTERED = True
        _ACTIVE = self

    def uninstall(self) -> None:
        """Restore every original callable."""
        global _ACTIVE
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._pipe is not None:
            self._pipe.close()
            self._pipe = None
        _ACTIVE = None

    # -- layer-specific wrappers ----------------------------------------------

    def _wrap_event(self, event):
        wrapped = self.leaf_wrapper("ode.event_fn", event)
        # The LSODA fast path reads these to choose its event search.
        wrapped.terminal = getattr(event, "terminal", False)
        wrapped.direction = getattr(event, "direction", 0.0)
        return wrapped

    def _chunk_wrapper(self, fn):
        # functools.wraps keeps __module__/__qualname__, so the pool
        # pickles the wrapper by reference to the patched module name.
        tracer = self
        inner = self.span_wrapper("sweep.chunk", fn)

        @functools.wraps(fn)
        def simulate_mean_chunk(payload):
            if not tracer._worker:
                tracer.count("sweep.serial_chunks")
                return inner(payload)
            try:
                return inner(payload)
            finally:
                records = [span.to_dict() for span in tracer.spans]
                tracer.spans.clear()
                tracer._pipe.put(records)
        return simulate_mean_chunk

    def _map_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def map_(runner, worker, payloads):
            span = tracer.begin("sweep.map")
            try:
                return fn(runner, worker, payloads)
            finally:
                tracer.end(span)
                tracer._merge_worker_spans(span)
        return map_

    def _merge_worker_spans(self, parent: Span) -> None:
        """Adopt the spans pool workers sent back for one map call."""
        pipe = self._pipe
        while not pipe.empty():
            records = pipe.get()
            ids: dict[int, int] = {}
            for record in records:
                ids[record["id"]] = next(self._ids)
            for record in records:
                span = Span.from_dict(record)
                span.id = ids[record["id"]]
                span.parent = ids.get(record["parent"], parent.id)
                span.job = parent.job
                span.phase = parent.phase
                self.spans.append(span)

    def _become_worker(self) -> None:
        """Fork hook: a pool worker starts with no inherited records."""
        self._worker = True
        self.spans = []
        self.counters = {}
        self._roots = {}
        self._local = threading.local()

    # -- output ---------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        """Write every recorded span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict(), default=str))
                handle.write("\n")
            for root in self._roots.values():
                handle.write(json.dumps(root.to_dict(), default=str))
                handle.write("\n")

    def phase_spans(self, phase: str) -> list[Span]:
        spans = [s for s in self.spans if s.phase == phase]
        root = self._roots.get(phase)
        return spans + ([root] if root is not None else [])

    def counter(self, phase: str, name: str) -> int:
        return self.counters.get((phase, name), 0)


# -- attribute hooks ----------------------------------------------------------


def _machine_attrs(span, args, kwargs, result) -> None:
    span.attrs["cycles"] = result.n_cycles


def _ssa_attrs(span, args, kwargs, result) -> None:
    span.attrs["events"] = int(result.meta.get("events", 0))


def _stochastic_attrs(span, args, kwargs, result) -> None:
    span.attrs["cycles"] = result.n_cycles
    span.attrs["cycle_time"] = float(sum(c.duration for c in result.cycles))
    span.attrs["poll_interval"] = float(args[0].poll_interval)


def _batch_attrs(span, args, kwargs, result) -> None:
    span.attrs["trials"] = len(result)
    span.attrs["events"] = int(result.events.sum())


# -- derivation -----------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: duration minus covered child time."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        intervals = sorted((max(c.start, span.start), min(c.end, span.end))
                           for c in children.get(span.id, ()))
        cursor = span.start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        leaf_time = sum(entry[1] for entry in span.leaves.values())
        result[span.id] = span.end - span.start - covered - leaf_time
    return result


def derive(tracer: Tracer, record) -> dict:
    """Per-layer metrics of the traced rounds (and of their set-up).

    Returns ``{name: (value, unit)}``.  Counts are exact and repeat per
    seed; ``*_s`` values are host seconds summed over the traced rounds.
    """
    from repro.crn.simulation import batch

    run = tracer.phase_spans("run")
    selfs = self_times(run)
    by_id = {span.id: span for span in run}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    wall_s: dict[str, float] = {}
    for span in run:
        if span.name == "(root)":
            continue
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + selfs[span.id]
        wall_s[span.name] = wall_s.get(span.name, 0.0) + span.end - span.start
    for span in run:
        for name, (count, seconds) in span.leaves.items():
            calls[name] = calls.get(name, 0) + count
            self_s[name] = self_s.get(name, 0.0) + seconds

    def named(name):
        return [span for span in run if span.name == name]

    def children_of(parent_name, name):
        return sum(1 for span in run if span.name == name
                   and span.parent in by_id
                   and by_id[span.parent].name == parent_name)

    def attr_sum(name, key):
        return sum(span.attrs.get(key, 0) for span in named(name))

    metrics: dict[str, tuple] = {}

    def timed(name):
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")

    timed("kinetics.compile")
    timed("kinetics.rhs")
    timed("kinetics.jacobian")
    timed("ode.simulate")
    timed("ode.event_fn")
    machine_cycles = attr_sum("machine.run", "cycles")
    metrics["machine.cycles"] = (machine_cycles, "count")
    metrics["machine.run.self_s"] = (self_s.get("machine.run", 0.0), "s")
    metrics["machine.segments_per_cycle"] = (
        children_of("machine.run", "ode.simulate") / machine_cycles
        if machine_cycles else 0.0, "ratio")
    timed("ssa.simulate")
    metrics["ssa.events"] = (attr_sum("ssa.simulate", "events"), "count")
    timed("ssa.fire")
    timed("ssa.select")
    ssa_cycles = attr_sum("stochastic_machine.run", "cycles")
    polls = children_of("stochastic_machine.run", "ssa.simulate")
    interval = max((span.attrs.get("poll_interval", 0.0)
                    for span in named("stochastic_machine.run")),
                   default=0.0)
    metrics["stochastic_machine.cycles"] = (ssa_cycles, "count")
    metrics["stochastic_machine.run.self_s"] = (
        self_s.get("stochastic_machine.run", 0.0), "s")
    metrics["stochastic_machine.polls_per_cycle"] = (
        polls / ssa_cycles if ssa_cycles else 0.0, "ratio")
    metrics["stochastic_machine.useful_time_frac"] = (
        attr_sum("stochastic_machine.run", "cycle_time")
        / (polls * interval) if polls and interval else 0.0, "frac")
    metrics["stochastic_machine.flushes"] = (
        sum(item.get("flushes", 0) for item in record.items), "count")
    timed("batch.simulate_ensemble")
    metrics["batch.trials"] = (attr_sum("batch.simulate_ensemble", "trials"),
                               "count")
    metrics["batch.events"] = (attr_sum("batch.simulate_ensemble", "events"),
                               "count")
    metrics["batch.raw_uniforms"] = (int(batch._RAW_UNIFORMS_OK), "flag")
    metrics["sweep.map.calls"] = (calls.get("sweep.map", 0), "count")
    metrics["sweep.map.wall_s"] = (wall_s.get("sweep.map", 0.0), "s")
    metrics["sweep.pool_starts"] = (
        tracer.counter("run", "sweep.pool_starts"), "count")
    metrics["sweep.serial_chunks"] = (
        tracer.counter("run", "sweep.serial_chunks"), "count")
    metrics["sweep.worker_chunks"] = (
        sum(1 for span in named("sweep.chunk") if span.pid != tracer.pid),
        "count")
    metrics["serve.submit.self_s"] = (self_s.get("serve.submit", 0.0), "s")
    metrics["serve.cache_key.self_s"] = (
        self_s.get("serve.cache_key", 0.0), "s")
    metrics["serve.resolve_network.self_s"] = (
        self_s.get("serve.resolve_network", 0.0), "s")
    metrics["serve.store.get_s"] = (wall_s.get("serve.store.get", 0.0), "s")
    metrics["serve.store.put_s"] = (wall_s.get("serve.store.put", 0.0), "s")
    metrics["serve.queue_wait_s"] = (_queue_wait(run, tracer), "s")
    jobs = [item for item in record.items if "cached" in item]
    metrics["serve.hit_ratio"] = (
        sum(1 for item in jobs if item["cached"]) / len(jobs)
        if jobs else 0.0, "ratio")
    setup = tracer.phase_spans("setup")
    metrics["setup.synthesize_s"] = (
        sum(s.end - s.start for s in setup
            if s.name == "synthesis.synthesize"), "s")
    metrics["setup.build_kinetics_s"] = (
        sum(s.end - s.start for s in setup
            if s.name == "kinetics.compile"), "s")
    return metrics


def _queue_wait(run: list[Span], tracer: Tracer) -> float:
    """Sum over cold jobs of the time from ``submit`` returning until
    the job's first span on a service worker thread."""
    submitted: dict[int, float] = {}
    started: dict[int, float] = {}
    for span in run:
        if span.job is None or span.pid != tracer.pid:
            continue
        if span.name == "serve.submit":
            submitted[span.job] = span.end
        elif span.thread != tracer.main_thread:
            first = started.get(span.job)
            if first is None or span.start < first:
                started[span.job] = span.start
    return sum(started[job] - submitted[job]
               for job in started if job in submitted)
