"""Differential oracles: engines checking each other.

Unlike the metamorphic invariants (one engine against algebra), these
run *different* engines on the same network and require statistical or
numerical agreement:

``diff.ode-solvers``
    scipy LSODA vs BDF vs the in-house Dormand-Prince RK45, all at
    tight tolerances, must agree on the full sampled trajectory.  The
    explicit RK45 is skipped for stiff targets where it would crawl.
``diff.ssa-vs-ode``
    In the large-copy-number limit the SSA ensemble mean converges to
    the deterministic solution.  Initial counts are scaled by
    :data:`VOLUME` (and the simulation volume with them), an ensemble
    of seeded realisations is fanned over
    :class:`~repro.crn.simulation.sweep.ParallelSweepRunner`, and the
    rescaled mean final state must sit inside a CLT acceptance band
    around the ODE final state (plus an O(1/V) discreteness allowance).
``diff.tau-vs-ssa``
    Tau-leaping is an approximation of exact SSA: ensemble mean final
    states on matched seed lists must agree within the combined CLT
    bands plus a leaping-bias allowance.
``diff.batch-vs-reference``
    The structure-of-arrays SSA backend is not an approximation at all:
    on matched per-trial seeds every sampled trajectory (and event
    count) must equal the reference engine's **bitwise** -- the
    strongest oracle in the battery, and the contract that keeps seeded
    corpora and cached baselines valid across backends.
``diff.ode-compiled-vs-numpy``
    The compiled mass-action kernel and the numpy reference path of
    :class:`~repro.crn.kinetics.MassActionKinetics` perform the same
    floating-point operations in the same order, so LSODA and BDF
    trajectories integrated with either must be **bitwise** equal.
    Skipped when the compiled kernel is unavailable.
``diff.ssa-compiled-vs-numpy``
    The compiled Gillespie loop and the numpy reference loop of
    :class:`~repro.crn.simulation.ssa.IncrementalPropensities` take the
    same draws from the same generator and perform the same
    floating-point operations in the same order, so seeded realisations
    must have **bitwise** equal sampled states, equal event counts and
    an equal next draw from the generator afterwards.  Skipped when the
    compiled kernel is unavailable.

Every ensemble member's seed is spawned from one root
:class:`numpy.random.SeedSequence` and reductions are payload-ordered,
so results are identical serial or parallel, whatever the worker count.
"""

from __future__ import annotations

import numpy as np

from repro.conformance.metamorphic import CheckResult, _guarded, _Skip
from repro.crn.simulation import (OdeSimulator, SimulationOptions,
                                  StochasticSimulator, simulate)
from repro.crn.simulation.sweep import ParallelSweepRunner
from repro.errors import SimulationError

#: Copy-number scaling for the SSA-vs-ODE limit oracle.
VOLUME = 20.0

#: z-score of the CLT acceptance band (per-species, two-sided).  5
#: standard errors keeps the per-run false-positive rate negligible
#: across the whole corpus while still catching any systematic bias.
Z_BAND = 5.0

#: Event budget per ensemble member; a member exceeding it marks the
#: whole oracle cell as skipped (too expensive), never as passed.
MAX_EVENTS = 1_000_000

#: Tight tolerances for the cross-solver oracle.
TIGHT_RTOL = 1e-9
TIGHT_ATOL = 1e-11

#: Cross-solver acceptance: relative to the trajectory's magnitude.
SOLVER_RTOL = 1e-5
SOLVER_ATOL = 1e-8


def _final_state_worker(payload: tuple) -> np.ndarray:
    """One ensemble member's final state vector (process-pool worker)."""
    network, method, rates, volume, seed, t_final, initial = payload
    options = SimulationOptions(
        seed=np.random.default_rng(seed), rates=rates, volume=volume,
        initial=initial, n_samples=2, max_events=MAX_EVENTS)
    trajectory = simulate(network, t_final, method, scheme=None,
                          options=options)
    return trajectory.states[-1]


def _ensemble_finals(network, method: str, rates: np.ndarray,
                     volume: float, seeds, t_final: float, initial,
                     n_workers: int | None) -> np.ndarray:
    """Stacked final states over one seeded ensemble (payload order)."""
    payloads = [(network, method, rates, volume, seed, t_final, initial)
                for seed in seeds]
    runner = ParallelSweepRunner(n_workers)
    return np.vstack(runner.map(_final_state_worker, payloads))


def check_batch_vs_reference(target, seed: int,
                             n_workers: int | None = None,
                             n_runs: int = 8) -> CheckResult:
    """Batch-backend realisations must match the reference bitwise."""
    def body():
        if not target.stochastic:
            raise _Skip("stochastic engines disabled for this target")
        from repro.crn.simulation import BatchStochasticSimulator

        network = target.network
        t_final = min(target.t_final, 1.0)
        rates = network.rate_vector(target.scheme)
        seeds = np.random.SeedSequence(seed).spawn(n_runs)
        try:
            reference = []
            for member in seeds:
                options = SimulationOptions(
                    seed=np.random.default_rng(member), rates=rates,
                    n_samples=17, max_events=MAX_EVENTS)
                reference.append(simulate(network, t_final, "ssa",
                                          scheme=None, options=options))
            ensemble = BatchStochasticSimulator(
                network, rates=rates).simulate_ensemble(
                    t_final, seeds=list(seeds), n_samples=17,
                    max_events=MAX_EVENTS)
        except SimulationError as exc:
            raise _Skip(f"ensemble over event budget: {exc}") from exc
        for i, run in enumerate(reference):
            batch_run = ensemble.trial(i)
            if not np.array_equal(run.states, batch_run.states):
                row = int(np.argmax(np.any(
                    run.states != batch_run.states, axis=1)))
                return (f"trial {i}: batch states diverge from the "
                        f"reference engine at sample {row} "
                        f"(t={run.times[row]:g}); seeded realisations "
                        f"must match bitwise")
            if run.meta["events"] != batch_run.meta["events"]:
                return (f"trial {i}: batch fired "
                        f"{batch_run.meta['events']} events vs "
                        f"reference {run.meta['events']}")
        return None
    return _guarded("diff.batch-vs-reference", target.name, "ssa-batch",
                    body)


def check_ode_compiled_vs_numpy(target, seed: int,
                                n_workers: int | None = None
                                ) -> CheckResult:
    """Compiled-kernel ODE trajectories must match the numpy path bitwise."""
    def body():
        for solver in ("LSODA", "BDF"):
            runs = []
            for reference in (False, True):
                simulator = OdeSimulator(target.network, target.scheme,
                                         method=solver)
                kinetics = simulator.kinetics
                if reference:
                    kinetics.use_reference()
                elif kinetics.backend != "compiled":
                    raise _Skip("compiled kinetics kernel unavailable")
                runs.append(simulator.simulate(target.t_final,
                                               n_samples=33))
            compiled, numpy_run = runs
            if compiled.times.tobytes() != numpy_run.times.tobytes():
                return (f"{solver}: sample times differ between the "
                        f"compiled and numpy kinetics")
            if compiled.states.tobytes() != numpy_run.states.tobytes():
                row = int(np.argmax(np.any(
                    compiled.states != numpy_run.states, axis=1)))
                return (f"{solver}: compiled-kernel states diverge from "
                        f"the numpy kinetics at sample {row} "
                        f"(t={compiled.times[row]:g}); the two paths "
                        f"must match bitwise")
        return None
    return _guarded("diff.ode-compiled-vs-numpy", target.name, "ode",
                    body)


def check_ssa_compiled_vs_numpy(target, seed: int,
                                n_workers: int | None = None,
                                n_runs: int = 4) -> CheckResult:
    """Compiled-loop SSA realisations must match the numpy loop bitwise."""
    def body():
        if not target.stochastic:
            raise _Skip("stochastic engines disabled for this target")
        t_final = min(target.t_final, 1.0)
        for i, member in enumerate(np.random.SeedSequence(seed)
                                   .spawn(n_runs)):
            runs = []
            for reference in (False, True):
                simulator = StochasticSimulator(
                    target.network, target.scheme,
                    seed=np.random.default_rng(member))
                state = simulator.propensity_state
                if reference:
                    state.use_reference()
                elif state.backend != "compiled":
                    raise _Skip("compiled SSA kernel unavailable")
                try:
                    run = simulator.simulate(t_final, n_samples=17,
                                             max_events=MAX_EVENTS)
                except SimulationError as exc:
                    raise _Skip(f"run over event budget: {exc}") from exc
                runs.append((run, simulator.rng.random()))
            (compiled, compiled_next), (numpy_run, numpy_next) = runs
            if compiled.states.tobytes() != numpy_run.states.tobytes():
                row = int(np.argmax(np.any(
                    compiled.states != numpy_run.states, axis=1)))
                return (f"run {i}: compiled-loop states diverge from the "
                        f"numpy loop at sample {row} "
                        f"(t={compiled.times[row]:g}); the two paths "
                        f"must match bitwise")
            if compiled.meta["events"] != numpy_run.meta["events"]:
                return (f"run {i}: compiled loop fired "
                        f"{compiled.meta['events']} events vs numpy "
                        f"{numpy_run.meta['events']}")
            if compiled_next != numpy_next:
                return (f"run {i}: the generator stream left the "
                        f"compiled loop out of step with the numpy loop")
        return None
    return _guarded("diff.ssa-compiled-vs-numpy", target.name, "ssa",
                    body)


def check_ode_solvers(target, seed: int,
                      n_workers: int | None = None) -> CheckResult:
    def body():
        network = target.network
        t_final = target.t_final

        def run(solver):
            options = SimulationOptions(solver=solver, n_samples=33,
                                        rtol=TIGHT_RTOL, atol=TIGHT_ATOL)
            return simulate(network, t_final, "ode",
                            scheme=target.scheme, options=options)

        solvers = ["LSODA", "BDF"]
        if not target.stiff:
            solvers.append("internal-rk45")
        trajectories = {name: run(name) for name in solvers}
        reference = trajectories["LSODA"]
        scale = max(1.0, float(np.max(np.abs(reference.states))))
        tolerance = SOLVER_ATOL + SOLVER_RTOL * scale
        worst = None
        for name in solvers[1:]:
            deviation = float(np.max(np.abs(
                reference.states - trajectories[name].states)))
            if deviation > tolerance:
                worst = (f"LSODA vs {name}: max deviation "
                         f"{deviation:.3e} exceeds {tolerance:.3e}")
        return worst
    return _guarded("diff.ode-solvers", target.name, "ode", body)


def check_ssa_vs_ode(target, seed: int,
                     n_workers: int | None = None,
                     n_runs: int = 16) -> CheckResult:
    def body():
        if not target.stochastic:
            raise _Skip("stochastic engines disabled for this target")
        network = target.network
        t_final = min(target.t_final, 0.5)
        rates = network.rate_vector(target.scheme)
        scaled_initial = {name: value * VOLUME
                          for name, value in network.initial.items()}
        seeds = np.random.SeedSequence(seed).spawn(n_runs)
        try:
            finals = _ensemble_finals(network, "ssa", rates, VOLUME,
                                      seeds, t_final, scaled_initial,
                                      n_workers)
        except SimulationError as exc:
            raise _Skip(f"ensemble over event budget: {exc}") from exc
        mean = finals.mean(axis=0) / VOLUME
        sem = finals.std(axis=0, ddof=1) / np.sqrt(n_runs) / VOLUME
        options = SimulationOptions(n_samples=2, rates=rates)
        ode = simulate(network, t_final, "ode", scheme=None,
                       options=options).states[-1]
        scale = np.maximum(1.0, np.abs(ode))
        band = Z_BAND * sem + 0.02 * scale + 2.0 / VOLUME
        deviation = np.abs(mean - ode)
        worst = int(np.argmax(deviation - band))
        if deviation[worst] > band[worst]:
            name = network.species_names[worst]
            return (f"species {name!r}: SSA ensemble mean "
                    f"{mean[worst]:.4f} vs ODE {ode[worst]:.4f} "
                    f"outside CLT band {band[worst]:.4f} "
                    f"({n_runs} runs, volume {VOLUME:g})")
        return None
    return _guarded("diff.ssa-vs-ode", target.name, "ssa", body)


def check_tau_vs_ssa(target, seed: int,
                     n_workers: int | None = None,
                     n_runs: int = 16) -> CheckResult:
    def body():
        if not target.stochastic:
            raise _Skip("stochastic engines disabled for this target")
        network = target.network
        t_final = min(target.t_final, 1.0)
        rates = network.rate_vector(target.scheme)
        seeds = np.random.SeedSequence(seed).spawn(n_runs)
        try:
            ssa = _ensemble_finals(network, "ssa", rates, 1.0, seeds,
                                   t_final, None, n_workers)
            tau = _ensemble_finals(network, "tau", rates, 1.0, seeds,
                                   t_final, None, n_workers)
        except SimulationError as exc:
            raise _Skip(f"ensemble over event budget: {exc}") from exc
        mean_ssa = ssa.mean(axis=0)
        mean_tau = tau.mean(axis=0)
        sem = (ssa.std(axis=0, ddof=1)
               + tau.std(axis=0, ddof=1)) / np.sqrt(n_runs)
        scale = np.maximum(1.0, np.abs(mean_ssa))
        band = Z_BAND * sem + 0.05 * scale + 2.0
        deviation = np.abs(mean_tau - mean_ssa)
        worst = int(np.argmax(deviation - band))
        if deviation[worst] > band[worst]:
            name = network.species_names[worst]
            return (f"species {name!r}: tau-leaping mean "
                    f"{mean_tau[worst]:.3f} vs SSA mean "
                    f"{mean_ssa[worst]:.3f} outside band "
                    f"{band[worst]:.3f} ({n_runs} matched seeds)")
        return None
    return _guarded("diff.tau-vs-ssa", target.name, "tau", body)


#: The differential battery, in report order.
DIFFERENTIAL_CHECKS = (
    check_ode_solvers,
    check_batch_vs_reference,
    check_ode_compiled_vs_numpy,
    check_ssa_compiled_vs_numpy,
    check_ssa_vs_ode,
    check_tau_vs_ssa,
)
