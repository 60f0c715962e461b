"""The benchmark's three workloads.

Each workload is built from the ``--seed`` argument alone and runs in
one process with at most two worker processes.  A workload does its
work in *rounds*: round ``r`` draws its inputs from
``numpy.random.default_rng([seed, r])``, so a round is the same work
whenever it runs.  The untraced run repeats rounds until its time is
up; the traced run does a fixed number of rounds, so its counts repeat
exactly.

Why these three (see README.md for the layer table):

``ode_machine``
    the paper's validation path: ``SynchronousMachine.run`` over seeded
    integer streams, one ``ma`` (2-tap) and one ``iir`` stream per round.
    Stresses kinetics RHS/Jacobian, ``odeint`` and event bracketing;
    runs no SSA code.
``ssa_machine``
    the E14 ``ma2`` design under ``StochasticMachine.run`` on seeded
    even streams of a few tens of molecules.  Stresses SSA chunk
    polling, ``fire`` and reaction selection; runs no ODE code.
``ensemble_serve``
    one closed-loop client against ``SimulationService``: batch-engine
    SSA sweeps on the ``counter`` network through the sweep process
    pool, plus ODE ``simulate`` jobs on ``random`` networks, each job
    submitted three times round-robin (one cold pass, two hit passes).
    The only workload that reaches the serve cache and the sweep pool.
"""

from __future__ import annotations

import asyncio
import math
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

#: ODE bound E3 asserts on every machine stream.
ODE_MAX_ERROR = 0.3
#: Molecule bound E14 asserts on every stochastic stream.
SSA_MAX_ERROR = 4.0
#: Share of SSA streams that may miss (stall or exceed SSA_MAX_ERROR)
#: before the run counts as failed; about 2% miss at clock mass 20.
SSA_MAX_MISS_FRAC = 0.1
#: Misses always allowed, so a short (traced) run of 20 streams does not
#: fail by chance: at a 2% miss rate six or more occur with p ~ 3e-6.
SSA_MIN_MISSES = 5
#: Seed of the serve warm-up jobs.
WARMUP_SEED = 2**32 - 1


def stratified(rng, low: int, high: int, n: int) -> list[int]:
    """``n`` integers from ``[low, high]``, one from each of ``n`` equal
    sub-ranges, in random order.

    Every stream then carries the same spread of values, so the work
    per stream (which grows with the values) varies little between
    seeds while the values themselves stay random.
    """
    edges = np.linspace(low, high + 1, n + 1)
    values = [int(rng.integers(math.ceil(lo), math.ceil(hi)))
              for lo, hi in zip(edges[:-1], edges[1:])]
    return [values[k] for k in rng.permutation(n)]


def _host_s(item: dict) -> float:
    """An item's timed seconds rescaled to the reference host (the
    ``scale`` the run loop stored; 1 when no probe ran)."""
    seconds = item["wall_s"] if "wall_s" in item else item["latency_ms"] / 1e3
    return seconds * item.get("scale", 1.0)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``inf`` samples stay ``inf``)."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


class Record:
    """What one run observed: per-item samples, failures and misses.

    A *failure* is an operation that raised an unexpected error or broke
    an exact contract (the ODE bound, serve byte identity, the reference
    re-run); it is counted in ``failed`` and makes the run incorrect.
    A *miss* is an SSA stream that stalled past the stochastic machine's
    cycle deadline or ended beyond the E14 molecule bound -- outcomes
    ``core/stochastic_machine.py`` documents for low copy numbers.
    Misses count against ``ok_frac`` (so ``failed_frac`` keeps the
    issue's meaning: every stream that raised or missed a bound), and a
    run whose miss share exceeds :data:`SSA_MAX_MISS_FRAC` fails.
    """

    def __init__(self):
        self.items: list[dict] = []
        self.failures: list[str] = []
        self.misses: list[str] = []
        #: checks run after the timed phase, each counted as attempted
        self.extra_checks = 0

    def fail(self, reason: str) -> None:
        self.failures.append(reason)

    def miss(self, reason: str) -> None:
        self.misses.append(reason)

    @property
    def correct(self) -> bool:
        return not self.failures

    @property
    def attempted(self) -> int:
        return len(self.items) + self.extra_checks

    @property
    def ok_frac(self) -> float:
        """Share of attempted operations that met every check."""
        bad = len(self.failures) + len(self.misses)
        return 1.0 - bad / self.attempted


# -- machines -------------------------------------------------------------------


class _MachineWorkload:
    """Shared stream loop of the two machine workloads."""

    bound = 0.0

    def __init__(self, seed: int):
        self.seed = int(seed)

    def streams(self, index: int) -> list[tuple[str, list[float]]]:
        raise NotImplementedError

    def run_round(self, state, index: int, record: Record,
                  tracer=None) -> None:
        for number, (design, samples) in enumerate(self.streams(index)):
            machine = state[design]
            if tracer is not None:
                tracer.job = index * 16 + number
            flushes = getattr(machine, "flush_events", 0)
            item = {"design": design, "round": index, "cycles": 0,
                    "error": None, "ok": False}
            record.items.append(item)
            start = perf_counter()
            try:
                run = machine.run({"x": samples})
            except Exception as exc:
                run = None
                reason = (f"{design} stream {samples}: "
                          f"{type(exc).__name__}: {exc}")
                if self.stalled(exc):
                    item["stalled"] = True
                    record.miss(reason)
                else:
                    record.fail(reason)
            item["wall_s"] = perf_counter() - start
            item["flushes"] = getattr(machine, "flush_events", 0) - flushes
            if run is None:
                continue
            item["cycles"] = run.n_cycles
            try:
                item["error"] = run.max_error()
            except Exception as exc:
                record.fail(f"{design} stream {samples}: "
                            f"{type(exc).__name__}: {exc}")
                continue
            item["ok"] = self.within_bound(item["error"])
            if not item["ok"]:
                self.out_of_bound(record, f"{design} stream {samples}: max "
                                  f"error {item['error']:g} beyond "
                                  f"{self.bound:g}")

    def stalled(self, exc: Exception) -> bool:
        return False

    def out_of_bound(self, record: Record, reason: str) -> None:
        record.fail(reason)

    def within_bound(self, error: float) -> bool:
        raise NotImplementedError

    def finish(self, state, record: Record) -> None:
        """No post-run checks beyond the per-stream bound."""

    def close(self, state) -> None:
        """Machines hold no threads or processes."""

    def metrics(self, record: Record) -> dict:
        done = [item for item in record.items if item["cycles"]]
        cycles = sum(item["cycles"] for item in done)
        wall = sum(item["wall_s"] for item in done)
        host = sum(_host_s(item) for item in done)
        # One latency sample per round: a round mixes the designs in
        # fixed shares, so the samples stay unimodal (per-stream samples
        # split into one mode per design, and the median would sit in
        # the gap between them).
        rounds: dict[int, list] = {}
        for item in record.items:
            rounds.setdefault(item["round"], []).append(item)
        per_cycle = [
            sum(_host_s(i) for i in items) * 1e3
            / sum(i["cycles"] for i in items)
            if all(i["cycles"] for i in items) else math.inf
            for items in rounds.values()]
        errors = [item["error"] for item in record.items
                  if item["error"] is not None]
        return {
            "cycles_per_s": (cycles / host if host else 0.0, "1/s"),
            "cycles_per_wall_s": (cycles / wall if wall else 0.0, "1/s"),
            "host_scale_p50": (statistics.median(
                item.get("scale", 1.0) for item in record.items), "ratio"),
            "cycle_ms_p50": (percentile(per_cycle, 50), "ms"),
            "cycle_ms_p90": (percentile(per_cycle, 90), "ms"),
            "max_abs_error": (max(errors) if errors else math.nan,
                              self.error_unit),
            "rounds": (len(rounds), "count"),
            "streams": (len(record.items), "count"),
            "cycles": (cycles, "count"),
        }

    def gated(self, metrics: dict) -> dict:
        return {"work_per_s": metrics["cycles_per_s"],
                "unit_ms_p50": metrics["cycle_ms_p50"],
                "unit_ms_p90": metrics["cycle_ms_p90"]}


class OdeMachine(_MachineWorkload):
    name = "ode_machine"
    bound = ODE_MAX_ERROR
    error_unit = "quantity"
    #: samples per stream (plus one flush cycle the machine appends)
    stream_length = 3
    trace_rounds = 30
    warmup = [8.0, 4.0, 6.0, 2.0]

    def setup(self) -> dict:
        from repro.scenarios import get_scenario

        state = {"ma": get_scenario("ma").driver(taps=2),
                 "iir": get_scenario("iir").driver()}
        for machine in state.values():
            machine.run({"x": self.warmup})
        return state

    def streams(self, index: int) -> list[tuple[str, list[float]]]:
        rng = np.random.default_rng([self.seed, index])
        return [(design, [float(v) for v in
                          stratified(rng, 0, 20, self.stream_length)])
                for design in ("ma", "iir")]

    def within_bound(self, error: float) -> bool:
        return error < self.bound


def ma2_design():
    """The E14 two-tap moving average, ``y[n] = (x[n] + x[n-1]) / 2``."""
    from repro.core.dfg import SignalFlowGraph

    sfg = SignalFlowGraph("ma2")
    x = sfg.input("x")
    d = sfg.delay("d1", source=x)
    sfg.output("y", sfg.add(sfg.gain(Fraction(1, 2), x),
                            sfg.gain(Fraction(1, 2), d)))
    return sfg


class SsaMachine(_MachineWorkload):
    name = "ssa_machine"
    bound = SSA_MAX_ERROR
    error_unit = "molecules"
    stream_length = 2
    trace_rounds = 20
    warmup = [40, 80]

    def setup(self) -> dict:
        from repro.core.stochastic_machine import StochasticMachine

        # The warm-up runs on its own fixed-seed machine, so set-up
        # time does not depend on the workload seed.
        StochasticMachine(ma2_design(), seed=0).run({"x": self.warmup})
        return {"ma2": StochasticMachine(ma2_design(), seed=self.seed)}

    def streams(self, index: int) -> list[tuple[str, list[int]]]:
        rng = np.random.default_rng([self.seed, index])
        return [("ma2", [2 * v for v in
                         stratified(rng, 10, 40, self.stream_length)])]

    def within_bound(self, error: float) -> bool:
        return error <= self.bound

    # At a few tens of molecules about 2% of streams stall past the
    # machine's cycle deadline (the clock wedges with molecules in all
    # three colours, which the straggler flush never clears) or lose
    # more than ``bound`` molecules to straggler flushes.  Both are
    # counted as misses; too many of them fail the run.
    def stalled(self, exc: Exception) -> bool:
        from repro.errors import SimulationError

        return (isinstance(exc, SimulationError)
                and "no stochastic cycle boundary" in str(exc))

    def out_of_bound(self, record: Record, reason: str) -> None:
        record.miss(reason)

    def finish(self, state, record: Record) -> None:
        streams = len(record.items)
        allowed = max(SSA_MAX_MISS_FRAC * streams, SSA_MIN_MISSES)
        if len(record.misses) > allowed:
            record.fail(f"{len(record.misses)} of {streams} streams "
                        f"stalled or missed the {self.bound:g}-molecule "
                        f"bound (more than {allowed:g})")


# -- serving ----------------------------------------------------------------------


class EnsembleServe:
    """Closed-loop client against one ``SimulationService``."""

    name = "ensemble_serve"
    #: ``random`` scenario networks simulated by ODE jobs.  The pool is
    #: fixed so cold-simulate latency measures the engine, not which
    #: networks a seed happened to draw (their costs span 100x); the
    #: seed sets job seeds, sweep trial seeds and submission order.
    simulate_networks = tuple(range(16))
    sweeps_per_round = 4
    passes = 3
    sweep_runs = 32            # four 8-run chunks, so the pool path runs
    sweep_pulse = 120.0
    sweep_t_final = 2.0
    trace_rounds = 10

    def __init__(self, seed: int):
        self.seed = int(seed)

    def specs(self, index: int) -> list:
        """The round's distinct jobs, in submission order."""
        return self._specs(np.random.default_rng([self.seed, index]))

    def _specs(self, rng) -> list:
        from repro.crn.simulation.options import SimulationOptions
        from repro.serve import JobSpec

        n_sim = len(self.simulate_networks)
        job_seeds = rng.integers(0, 2**31, size=n_sim + self.sweeps_per_round)
        specs = [JobSpec(kind="simulate", scenario="random",
                         scenario_params={"seed": network},
                         t_final=4.0, method="ode",
                         options=SimulationOptions(n_samples=200),
                         seed=int(job_seeds[k]))
                 for k, network in enumerate(self.simulate_networks)]
        specs += [JobSpec(kind="sweep", scenario="counter",
                          scenario_params={"bits": 2,
                                           "pulse": self.sweep_pulse},
                          t_final=self.sweep_t_final, method="ssa",
                          options=SimulationOptions(n_samples=100,
                                                    backend="batch"),
                          seed=int(job_seeds[n_sim + k]),
                          n_runs=self.sweep_runs)
                  for k in range(self.sweeps_per_round)]
        order = rng.permutation(len(specs))
        return [specs[k] for k in order]

    def setup(self):
        from repro.serve import SimulationService

        service = SimulationService(n_workers=2, max_threads=2)
        # Fixed warm-up jobs (one sweep, one simulate), drawn from a
        # stream independent of the workload seed.
        warm = self._specs(np.random.default_rng(WARMUP_SEED))
        warm = [next(s for s in warm if s.kind == "sweep"),
                next(s for s in warm if s.kind == "simulate")]

        async def warm_up():
            for spec in warm:
                await service.run(spec)
        asyncio.run(warm_up())
        return {"service": service, "cold": {}, "sweep_check": None}

    def close(self, state) -> None:
        asyncio.run(state["service"].close())

    def run_round(self, state, index: int, record: Record,
                  tracer=None) -> None:
        asyncio.run(self._round(state, index, record, tracer))

    async def _round(self, state, index, record, tracer) -> None:
        from repro.serve import canonical_result_bytes

        service = state["service"]
        cold = state["cold"]
        for passno in range(self.passes):
            # Fresh request objects every pass, as a client re-sending
            # the same content would: hits pay the cache-key
            # computation, not just the store lookup.
            for number, spec in enumerate(self.specs(index)):
                if tracer is not None:
                    tracer.job = (index * self.passes + passno) * 64 + number
                item = {"kind": spec.kind, "cached": False, "ok": False}
                start = perf_counter()
                try:
                    handle = await service.submit(spec)
                    result = await handle.result()
                except Exception as exc:  # a failed job is counted
                    item["latency_ms"] = math.inf
                    record.fail(f"{spec.kind} job seed {spec.seed}: "
                                f"{type(exc).__name__}: {exc}")
                    record.items.append(item)
                    continue
                item["latency_ms"] = (perf_counter() - start) * 1e3
                item["cached"] = handle.cached
                data = canonical_result_bytes(result)
                key = handle.cache_key
                if handle.cached:
                    item["ok"] = cold.get(key) == data
                    if not item["ok"]:
                        record.fail(f"hit for {key[:12]} is not "
                                    f"byte-identical to its cold result")
                else:
                    cold[key] = data
                    item["ok"] = True
                    if (spec.kind == "sweep"
                            and state["sweep_check"] is None):
                        state["sweep_check"] = (spec, key)
                record.items.append(item)
        # Cold bytes are only needed within a round (the next round's
        # jobs have other seeds); keep the sweep the reference re-run
        # will check.
        check = state["sweep_check"]
        keep = {check[1]: cold[check[1]]} if check else {}
        cold.clear()
        cold.update(keep)

    def finish(self, state, record: Record) -> None:
        """Re-run one served sweep on the reference engine, untimed."""
        from repro.crn.simulation.ssa import StochasticSimulator
        from repro.serve import canonical_result_bytes

        check = state["sweep_check"]
        record.extra_checks = 1
        if check is None:
            record.fail("no sweep job completed, so none was re-run")
            return
        spec, key = check
        opts = spec.options
        simulator = StochasticSimulator(
            spec.resolve_network(), scheme=spec.scheme,
            volume=opts.volume, seed=spec.seed)
        mean = simulator.mean_trajectory(
            spec.t_final, spec.n_runs, n_samples=opts.n_samples,
            n_workers=1, backend="reference", t_start=opts.t_start)
        expected = {"kind": "sweep", "names": list(mean.names),
                    "times": np.asarray(mean.times, dtype=float),
                    "states": np.asarray(mean.states, dtype=float),
                    "n_runs": int(spec.n_runs)}
        if canonical_result_bytes(expected) != state["cold"][key]:
            record.fail(f"served batch sweep {key[:12]} differs from the "
                        f"reference-engine re-run")

    def metrics(self, record: Record) -> dict:
        items = record.items
        finished = [item for item in items
                    if math.isfinite(item["latency_ms"])]
        busy_s = sum(_host_s(item) for item in finished)
        wall_s = sum(item["latency_ms"] for item in finished) / 1e3
        done = len(finished)

        def latencies(kind=None, cached=False):
            return [_host_s(item) * 1e3 for item in items
                    if item["cached"] == cached
                    and (kind is None or item["kind"] == kind)]
        sweep = latencies("sweep")
        simulate = latencies("simulate")
        hit = latencies(cached=True)
        return {
            "jobs_per_s": (done / busy_s if busy_s else 0.0, "1/s"),
            "jobs_per_wall_s": (done / wall_s if wall_s else 0.0, "1/s"),
            "host_scale_p50": (statistics.median(
                item.get("scale", 1.0) for item in items), "ratio"),
            "sweep_ms_p50": (percentile(sweep, 50), "ms"),
            "sweep_ms_p90": (percentile(sweep, 90), "ms"),
            "simulate_ms_p50": (percentile(simulate, 50), "ms"),
            "simulate_ms_p90": (percentile(simulate, 90), "ms"),
            "hit_ms_p50": (percentile(hit, 50), "ms"),
            "hit_ms_p90": (percentile(hit, 90), "ms"),
            "jobs": (len(items), "count"),
            "sweep_samples": (len(sweep), "count"),
            "simulate_samples": (len(simulate), "count"),
            "hit_samples": (len(hit), "count"),
        }

    def gated(self, metrics: dict) -> dict:
        return {"work_per_s": metrics["jobs_per_s"],
                "unit_ms_p50": metrics["sweep_ms_p50"],
                "unit_ms_p90": metrics["sweep_ms_p90"]}


WORKLOADS = {cls.name: cls for cls in (OdeMachine, SsaMachine,
                                       EnsembleServe)}
