"""Gillespie stochastic simulation (direct method).

Molecular computation ultimately runs on integer molecule counts; the
iterative (nonlinear) constructs in :mod:`repro.core.iterative` are *exact*
only in that discrete semantics, so the test suite exercises them here.

The inner loop is incremental: a precomputed reaction dependency graph
(reaction j -> reactions with a reactant among the species j's net change
touches) means each firing re-evaluates only the affected propensities,
instead of the full O(R * reactants) Python-loop recompute per event.
Affected entries are recomputed exactly from the current counts, so the
propensity vector never drifts; the cumulative-sum selection draw is
shared with tau-leaping via :mod:`repro.crn.simulation.sampling`.

The whole event loop runs in the ``Ssa`` type of the compiled kernel
(:mod:`repro.crn.ckinetics`) whenever that builds.  It performs the
numpy loop's floating-point operations in the same order and takes its
draws from the simulator's own generator, so realisations, event counts
and the generator state afterwards are bitwise equal on either path;
:meth:`IncrementalPropensities.use_reference` selects the numpy loop.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from time import perf_counter

import numpy as np

from repro.crn import ckinetics
from repro.crn.kinetics import MassActionKinetics, build_kinetics
from repro.crn.network import Network
from repro.crn.rates import RateScheme
from repro.crn.simulation.result import Trajectory
from repro.crn.simulation.sampling import (NO_POSITIVE_PROPENSITY,
                                           select_reaction)
from repro.errors import SimulationError
from repro.obs.metrics import ensure_metrics
from repro.obs.tracer import ensure_tracer

#: Runs per ensemble chunk.  The chunk structure (not the worker count)
#: fixes the floating-point summation order, so serial and parallel
#: ensemble means are bitwise identical for the same seed.
ENSEMBLE_CHUNK_RUNS = 8

#: Events between exact full-propensity rebuilds in
#: :class:`IncrementalPropensities`.  The order<=2 incremental updates
#: are exact in floating point (the gather-buffer values are exact
#: half-integers), so the periodic rebuild is belt-and-braces hardening
#: against drift, not a behaviour change -- it recomputes the same bits.
PROPENSITY_REBUILD_INTERVAL = 4096

# Outcomes of the compiled ``Ssa.run`` (see _ckinetics.c).
_RUN_EXCEEDED, _RUN_NO_POSITIVE = 1, 2


class IncrementalPropensities:
    """Dependency-graph propensity state for one kinetics + constants.

    Owns the integer counts and the propensity vector ``a``.
    :meth:`fire` applies one reaction's net stoichiometry and
    re-evaluates only the dependent propensities (exactly, from the
    updated counts -- untouched entries stay valid, so the vector never
    accumulates drift).  No running total is maintained: the simulators
    read it off the cumulative sum they compute for the selection draw
    anyway, so incremental total bookkeeping would be pure overhead.

    Two layers of hardening keep the vector sound even if a future
    kinetics change makes the incremental update inexact: updates are
    clamped at zero (a tiny negative propensity would poison the
    cumulative-sum selection draw), and every ``rebuild_interval``
    events :meth:`rebuild` recomputes the full vector exactly from the
    current counts, in place -- the simulators alias ``self.a``, so the
    rebuild must never rebind it.

    :meth:`run` advances the Gillespie direct method over a sample grid.
    ``backend`` reads ``"compiled"`` when it runs in the compiled kernel
    and ``"numpy"`` on the reference loop (:meth:`fire` plus
    :func:`~repro.crn.simulation.sampling.select_reaction`); the path is
    chosen on first use and is ``"numpy"`` only when the kernel cannot
    be built or after :meth:`use_reference`.
    """

    def __init__(self, kinetics: MassActionKinetics, constants: np.ndarray,
                 rebuild_interval: int = PROPENSITY_REBUILD_INTERVAL):
        self.kinetics = kinetics
        # A private read-only copy: the dependent constants below and
        # the compiled kernel snapshot it, so a caller editing its own
        # array afterwards must not reach reset/rebuild alone.
        constants = np.array(constants, dtype=float)
        constants.flags.writeable = False
        self.constants = constants
        n_s = kinetics.n_species
        self._n_s = n_s
        stoich = kinetics.stoich                    # (S, R)
        deps = kinetics.reaction_dependencies()
        self._deps = deps
        factor_a = kinetics._factor_a
        factor_b = kinetics._stoch_factor_b
        self._dep_a = [factor_a[d] for d in deps]
        self._dep_b = [factor_b[d] for d in deps]
        self._dep_c = [self.constants[d] for d in deps]
        generic = set(int(j) for j in kinetics._generic_rows)
        self._dep_generic = [
            [(pos, int(i)) for pos, i in enumerate(d) if int(i) in generic]
            for d in deps
        ]
        # Per-reaction sparse net-change columns: integer deltas for the
        # counts, float deltas for both halves of the gather buffer
        # (raw count slot and the (n-1)/2 half-pair slot).
        # One tuple per reaction so `fire` pays a single list lookup:
        # (species touched, integer deltas, gather-buffer slots and their
        #  float deltas, dependent reactions, their gather indices and
        #  constants, generic-order entries among them).
        plan = []
        for j in range(kinetics.n_reactions):
            species = np.nonzero(stoich[:, j])[0].astype(np.intp)
            delta = stoich[species, j].astype(np.int64)
            slots = np.concatenate([species, species + n_s + 1]) \
                .astype(np.intp)
            slot_delta = np.concatenate([delta, delta * 0.5])
            plan.append((species, delta, slots, slot_delta,
                         self._deps[j], self._dep_a[j], self._dep_b[j],
                         self._dep_c[j], self._dep_generic[j]))
        self._fire_plan = plan
        self.counts = np.zeros(n_s, dtype=np.int64)
        self._cb = np.ones(2 * (n_s + 1))
        self.a = np.zeros(kinetics.n_reactions)
        self.rebuild_interval = int(rebuild_interval)
        if self.rebuild_interval < 1:
            raise SimulationError("rebuild_interval must be >= 1")
        self._events_since_rebuild = 0
        # Evaluation path of run(), bound on first use.
        self._backend: str | None = None
        self._kernel = None

    # -- evaluation path -----------------------------------------------------

    @property
    def backend(self) -> str:
        """``"compiled"`` or ``"numpy"`` (selects the path on first use)."""
        if self._backend is None:
            self._select_backend()
        return self._backend

    def _select_backend(self) -> None:
        module = ckinetics.load()
        if module is None:
            self.use_reference()
            return
        kinetics = self.kinetics
        plan = self._fire_plan

        # The fire plan as CSR arrays: row pointers, then values.
        def ptr(field: int) -> np.ndarray:
            return np.cumsum([0] + [len(entry[field]) for entry in plan],
                             dtype=np.intp)

        def flat(field: int, dtype=np.intp) -> np.ndarray:
            return np.concatenate([entry[field] for entry in plan]) \
                .astype(dtype, copy=False)

        exponents = kinetics._generic_exp.astype(np.intp)
        self._kernel = module.Ssa(
            self._n_s, kinetics._factor_a, kinetics._stoch_factor_b,
            self.constants, kinetics._generic_rows, kinetics._generic_ptr,
            kinetics._generic_species, exponents,
            [float(math.factorial(e)) for e in exponents.tolist()],
            ptr(0), flat(0), flat(1, np.int64),
            ptr(2), flat(2), flat(3, float),
            ptr(4), flat(4), flat(5), flat(6), flat(7, float))
        self._backend = "compiled"

    def use_reference(self) -> None:
        """Run :meth:`run` on the numpy reference loop.

        This is the fallback when the compiled kernel cannot be built;
        the differential oracle that checks the two paths against each
        other also calls it directly.
        """
        self._backend = "numpy"
        self._kernel = None

    def reset(self, counts: np.ndarray) -> float:
        """Adopt a full state vector and recompute every propensity."""
        self.counts = np.array(counts, dtype=np.int64)
        self.a = self.kinetics.propensities(self.counts, self.constants)
        self._cb[:] = self.kinetics._cbuf
        self._events_since_rebuild = 0
        return float(self.a.sum())

    def rebuild(self) -> None:
        """Recompute every propensity exactly from the current counts.

        In place: the simulators hold an alias of ``self.a`` across the
        whole event loop, so the array object must survive the rebuild.
        """
        self.a[:] = self.kinetics.propensities(self.counts, self.constants)
        self._cb[:] = self.kinetics._cbuf
        self._events_since_rebuild = 0

    def fire(self, j: int) -> None:
        """Apply reaction ``j`` and update the dependent propensities."""
        species, delta, slots, slot_delta, dep, dep_a, dep_b, dep_c, \
            generic = self._fire_plan[j]
        self.counts[species] += delta
        cb = self._cb
        cb[slots] += slot_delta
        self._events_since_rebuild += 1
        if self._events_since_rebuild >= self.rebuild_interval:
            self.rebuild()
            return
        if dep.size == 0:
            return
        fresh = dep_c * cb[dep_a]
        fresh *= cb[dep_b]
        # Clamp at zero: a rounding-induced tiny negative entry would
        # bias the cumulative-sum draw.  (Exact updates only ever
        # produce -0.0 here, which the clamp normalises to +0.0.)
        np.maximum(fresh, 0.0, out=fresh)
        if generic:
            for pos, i in generic:
                fresh[pos] = self.kinetics.propensity_of(
                    i, self.counts, self.constants)
        self.a[dep] = fresh

    def run(self, rng: np.random.Generator, times: np.ndarray,
            samples: np.ndarray, t_start: float, t_final: float,
            max_events: int, firings: np.ndarray | None
            ) -> tuple[float, int, int, bool]:
        """Gillespie direct method from the current state up to ``t_final``.

        Fills ``samples[1:next_sample]`` with the pre-event counts at
        each grid time in ``times`` the run passes (``samples[0]`` is
        the caller's) and counts firings per channel into ``firings``
        when given.  Returns ``(t, events, next_sample, exceeded)``:
        ``exceeded`` means the run stopped at time ``t`` because
        ``max_events`` reactions had already fired.
        """
        if self._backend is None:
            self._select_backend()
        if self._kernel is None:
            return self._reference_run(rng, times, samples, t_start,
                                       t_final, max_events, firings)
        bit_generator = rng.bit_generator
        with bit_generator.lock:
            status, t, events, next_sample, self._events_since_rebuild = \
                self._kernel.run(bit_generator.capsule, self.counts,
                                 self._cb, self.a, times, samples, t_start,
                                 t_final, max_events, self.rebuild_interval,
                                 self._events_since_rebuild, firings)
        if status == _RUN_NO_POSITIVE:
            raise SimulationError(NO_POSITIVE_PROPENSITY)
        return t, events, next_sample, status == _RUN_EXCEEDED

    def _reference_run(self, rng, times, samples, t_start, t_final,
                       max_events, firings):
        """:meth:`run` on the numpy path."""
        a = self.a  # reset() rebound it; fire() mutates it in place
        fire = self.fire
        grid = times.tolist()
        n_times = len(grid)
        next_sample = 1
        t = t_start
        events = 0
        while t < t_final:
            cumulative = a.cumsum()
            total = cumulative[-1]
            if total <= 0.0:
                break  # No reaction can fire; state is absorbing.
            t += rng.exponential(1.0 / total)
            if t > t_final:
                break
            while next_sample < n_times and grid[next_sample] <= t:
                samples[next_sample] = self.counts
                next_sample += 1
            if events >= max_events:
                return t, events, next_sample, True
            j = select_reaction(a, rng.random(),
                                cumulative=cumulative, total=total)
            fire(j)
            events += 1
            if firings is not None:
                firings[j] += 1
        return t, events, next_sample, False


class StochasticSimulator:
    """Exact SSA (Gillespie direct method) for one network.

    An optional ``tracer``/``metrics`` pair records each ``simulate``
    call as an ``ssa.batch`` solver span and counts reaction firings,
    overall and per channel (``ssa.firings[<reaction label>]``).
    """

    _batch_kind = "ssa"

    #: Whether the structure-of-arrays ensemble engine can run this
    #: simulator's ensembles (exact SSA only; tau-leaping's adaptive
    #: control flow cannot be vectorised while preserving draw order).
    _supports_batch_ensembles = True

    def __init__(self, network: Network, scheme: RateScheme | None = None,
                 rates: np.ndarray | None = None, volume: float = 1.0,
                 seed: int | np.random.Generator | None = None,
                 tracer=None, metrics=None):
        network.validate()
        self.network = network
        self.scheme = scheme or RateScheme()
        self.kinetics = build_kinetics(network, self.scheme, rates)
        self.volume = float(volume)
        self.constants = self.kinetics.stochastic_constants(self.volume)
        self.stoich = network.stoichiometry_matrix().T.astype(np.int64)
        if isinstance(seed, np.random.Generator):
            self.rng = seed
            self._seed_seq: np.random.SeedSequence | None = None
        else:
            self._seed_seq = np.random.SeedSequence(seed)
            self.rng = np.random.default_rng(self._seed_seq)
        self.propensity_state = IncrementalPropensities(self.kinetics,
                                                        self.constants)
        self.tracer = ensure_tracer(tracer)
        self.metrics = ensure_metrics(metrics)

    def _channel_label(self, j: int) -> str:
        reaction = self.network.reactions[j]
        return getattr(reaction, "label", "") or str(reaction)

    def _record_batch(self, kind: str, t_final: float, events: int,
                      wall: float, firings: np.ndarray | None = None,
                      extra: dict | None = None,
                      kernel: str | None = None) -> None:
        """Per-``simulate`` telemetry shared by SSA and tau-leaping.

        ``kernel`` is the event-loop path of a single SSA ``simulate``
        (:attr:`IncrementalPropensities.backend`).
        """
        metrics = self.metrics
        if metrics.enabled:
            metrics.inc(f"{kind}.batches")
            if kernel is not None:
                metrics.set_gauge("ssa.kernel_compiled",
                                  float(kernel == "compiled"))
            metrics.inc(f"{kind}.events", events)
            metrics.observe(f"{kind}.wall_seconds", wall)
            for name, value in (extra or {}).items():
                metrics.inc(f"{kind}.{name}", value)
            if firings is not None:
                for j in np.nonzero(firings)[0]:
                    metrics.inc(
                        f"ssa.firings[{self._channel_label(int(j))}]",
                        float(firings[j]))
        if self.tracer.enabled:
            args = {"events": events, "wall": round(wall, 6)}
            if kernel is not None:
                args["kernel"] = kernel
            args.update(extra or {})
            self.tracer.emit_span(f"{kind}.batch", "solver", 0.0,
                                  t_final, args)

    def _initial_counts(self, initial) -> np.ndarray:
        if initial is None:
            x0 = self.network.initial_vector()
        elif isinstance(initial, Mapping):
            x0 = self.network.initial_vector(initial)
        else:
            x0 = np.asarray(initial, dtype=float)
        counts = np.rint(x0).astype(np.int64)
        if np.any(counts < 0):
            raise SimulationError("negative initial counts")
        return counts

    def simulate(self, t_final: float, *, t_start: float = 0.0,
                 initial: Mapping[str, float] | np.ndarray | None = None,
                 n_samples: int = 200,
                 max_events: int = 50_000_000) -> Trajectory:
        """Run one SSA realisation, recorded on a uniform time grid.

        ``t_start`` matches the ODE engine's semantics: the sample grid
        spans ``[t_start, t_final]``.  The dynamics are time-homogeneous,
        so a shifted origin only relabels the grid.
        """
        if t_final <= t_start:
            raise SimulationError("t_final must exceed t_start")
        state = self.propensity_state
        state.reset(self._initial_counts(initial))
        sample_times = np.linspace(t_start, t_final,
                                   max(int(n_samples), 2))
        samples = np.empty((sample_times.size, state.counts.size),
                           dtype=float)
        samples[0] = state.counts
        telemetry = self.tracer.enabled or self.metrics.enabled
        wall_start = perf_counter() if telemetry else 0.0
        firings = np.zeros(self.network.n_reactions, dtype=np.int64) \
            if self.metrics.enabled else None
        t, events, next_sample, exceeded = state.run(
            self.rng, sample_times, samples, t_start, t_final, max_events,
            firings)
        if telemetry:
            self._record_batch("ssa", t_final, events,
                               perf_counter() - wall_start, firings,
                               kernel=state.backend)
        if exceeded:
            raise SimulationError(
                f"SSA exceeded {max_events} events at t={t:g}")
        samples[next_sample:] = state.counts
        return Trajectory(sample_times, samples, self.network.species_names,
                          {"events": events})

    def final_counts(self, t_final: float, **kwargs) -> dict[str, int]:
        """Convenience: final integer counts of one realisation."""
        trajectory = self.simulate(t_final, n_samples=2, **kwargs)
        return {name: int(round(value))
                for name, value in trajectory.final_state().items()}

    # -- ensembles -------------------------------------------------------------

    def _clone_spec(self) -> dict:
        """Constructor spec for per-run ensemble clones (picklable)."""
        return {"cls": type(self), "network": self.network,
                "rates": np.asarray(self.kinetics.rates),
                "volume": self.volume, "extra": {}}

    def _spawn_run_seeds(self, n_runs: int) -> list[np.random.SeedSequence]:
        """Independent, reproducible per-run seed sequences.

        Spawned from the simulator's root :class:`~numpy.random.SeedSequence`
        when one exists (int or ``None`` seed); a simulator built around a
        caller-supplied ``Generator`` derives a root sequence from the
        generator stream once, keeping ensembles reproducible per call
        order.
        """
        if self._seed_seq is None:
            entropy = int(self.rng.integers(np.iinfo(np.int64).max))
            self._seed_seq = np.random.SeedSequence(entropy)
        return self._seed_seq.spawn(n_runs)

    def mean_trajectory(self, t_final: float, n_runs: int,
                        n_samples: int = 100, *,
                        n_workers: int | None = None,
                        backend: str = "reference",
                        **kwargs) -> Trajectory:
        """Sample mean over ``n_runs`` independent realisations.

        Each run gets its own spawned seed, and runs are summed in fixed
        chunks of :data:`ENSEMBLE_CHUNK_RUNS`, so the result is bitwise
        identical whether the ensemble executes serially (``n_workers``
        ``None``/1) or through a
        :class:`~repro.crn.simulation.sweep.ParallelSweepRunner` pool.

        ``backend="batch"`` computes each chunk through the
        structure-of-arrays ensemble engine (one batched call for all
        seeds when running serially); per-trial realisations and the
        chunk-ordered reduction are bitwise identical to the reference
        path, so this changes wall time only.  Simulators the batch
        engine cannot vectorise (tau-leaping) fall back to reference.
        """
        from repro.crn.simulation.sweep import (ENSEMBLE_BACKENDS,
                                                ParallelSweepRunner,
                                                simulate_mean_chunk)

        if n_runs < 1:
            raise SimulationError("n_runs must be >= 1")
        if backend not in ENSEMBLE_BACKENDS:
            raise SimulationError(
                f"unknown ensemble backend {backend!r}; expected one of "
                f"{ENSEMBLE_BACKENDS}")
        telemetry = self.tracer.enabled or self.metrics.enabled
        wall_start = perf_counter() if telemetry else 0.0
        seeds = self._spawn_run_seeds(n_runs)
        runner = ParallelSweepRunner(n_workers)
        use_batch = backend == "batch" and self._supports_batch_ensembles
        if use_batch and (runner.n_workers <= 1 or n_runs
                          <= ENSEMBLE_CHUNK_RUNS):
            # Serial: one structure-of-arrays call over every seed
            # (EnsembleResult.mean applies the same chunked reduction).
            from repro.crn.simulation.batch import BatchStochasticSimulator

            batch = BatchStochasticSimulator(
                self.network, rates=np.asarray(self.kinetics.rates),
                volume=self.volume)
            mean = batch.simulate_ensemble(
                t_final, seeds=seeds, n_samples=n_samples,
                **kwargs).mean()
            if telemetry:
                self._record_batch(
                    self._batch_kind, t_final, int(mean.meta["events"]),
                    perf_counter() - wall_start,
                    extra={"ensemble_runs": n_runs})
            return mean
        spec = self._clone_spec()
        spec["backend"] = backend
        payloads = [
            (spec, seeds[i:i + ENSEMBLE_CHUNK_RUNS], t_final, n_samples,
             kwargs)
            for i in range(0, n_runs, ENSEMBLE_CHUNK_RUNS)
        ]
        partials = runner.map(simulate_mean_chunk, payloads)
        times, accumulator, events = partials[0]
        accumulator = accumulator.copy()
        for index, (chunk_times, states, chunk_events) in \
                enumerate(partials[1:], start=1):
            if not np.array_equal(chunk_times, times):
                raise SimulationError(
                    f"ensemble chunk {index} returned a misaligned "
                    f"sample grid (size {chunk_times.size} vs "
                    f"{times.size}); refusing to sum mismatched states")
            accumulator += states
            events += chunk_events
        if telemetry:
            self._record_batch(self._batch_kind, t_final, events,
                               perf_counter() - wall_start,
                               extra={"ensemble_runs": n_runs})
        return Trajectory(times, accumulator / n_runs,
                          self.network.species_names,
                          {"n_runs": n_runs, "events": events})
