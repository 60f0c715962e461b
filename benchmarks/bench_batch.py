"""E17 -- structure-of-arrays ensemble throughput vs the reference SSA.

One seeded ensemble (same network, many independent trials) run three
ways: the per-trial reference path (``simulate_mean_chunk``, one scalar
Gillespie loop per seed) on the numpy loop it was written against, the
same path on the compiled loop it runs by default, and the batched
:class:`BatchStochasticSimulator`, which advances every active trial
through one vectorised propensity evaluation per event step and freezes
finished trials behind an active mask.  The speedup floor is asserted
against the numpy loop; the compiled loop is reported alongside (it
outruns the batch engine).

The workload is a token-rotation ring (constant total propensity, no
absorption), so every trial runs the full horizon and the comparison
measures steady-state event throughput rather than ragged-horizon
bookkeeping.  The headline numbers are events/second for each path and
their ratio -- but the *gate* is exactness: the batch engine must
reproduce the reference realisations bitwise, trial for trial, on the
matched per-trial seeds.
"""

import time

import numpy as np

from repro.crn.network import Network
from repro.crn.simulation.batch import BatchStochasticSimulator
from repro.crn.simulation.ssa import StochasticSimulator
from repro.crn.simulation.sweep import simulate_mean_chunk
from repro.reporting import markdown_table

from common import run_once, save_json, save_report

N_TRIALS = 1024
N_SPECIES = 6
TOKENS_PER_SPECIES = 20
T_FINAL = 8.0
N_SAMPLES = 50
N_SPOT_CHECKS = 3

#: Conservative floor asserted by the benchmark, batch engine against
#: the numpy reference loop.  Measured speedups on this workload are
#: ~5x (see results/E17_batch.json); the floor leaves headroom for
#: slower CI machines while the committed record plus
#: check_regression.py's 30% gate track the actual throughput.
SPEEDUP_FLOOR = 3.0


def _rotation_network():
    network = Network("rotation")
    names = [f"S{i}" for i in range(N_SPECIES)]
    for i, name in enumerate(names):
        network.add(name, names[(i + 1) % N_SPECIES], 1.0)
        network.set_initial(name, TOKENS_PER_SPECIES)
    return network


def _numpy_reference(network, seeds):
    """``simulate_mean_chunk``'s per-trial loop, pinned to the numpy loop."""
    total = None
    events = 0
    for seed in seeds:
        simulator = StochasticSimulator(network,
                                        seed=np.random.default_rng(seed))
        simulator.propensity_state.use_reference()
        run = simulator.simulate(T_FINAL, n_samples=N_SAMPLES)
        if total is None:
            total = run.states.copy()
        else:
            total += run.states
        events += run.meta["events"]
    return run.times, total, events


def _run(base_seed):
    network = _rotation_network()
    seeds = np.random.SeedSequence(base_seed).spawn(N_TRIALS)
    spec = StochasticSimulator(network)._clone_spec()

    start = time.perf_counter()
    ref_times, ref_sum, ref_events = _numpy_reference(network, seeds)
    reference_wall = time.perf_counter() - start

    start = time.perf_counter()
    compiled_times, compiled_sum, compiled_events = simulate_mean_chunk(
        (spec, seeds, T_FINAL, N_SAMPLES, {}))
    compiled_wall = time.perf_counter() - start

    start = time.perf_counter()
    ensemble = BatchStochasticSimulator(network).simulate_ensemble(
        T_FINAL, seeds=seeds, n_samples=N_SAMPLES)
    batch_wall = time.perf_counter() - start

    batch_events = int(ensemble.events.sum())
    sums_bitwise = (np.array_equal(ensemble.times, ref_times)
                    and np.array_equal(ensemble.summed_states(), ref_sum)
                    and batch_events == ref_events
                    and np.array_equal(compiled_times, ref_times)
                    and np.array_equal(compiled_sum, ref_sum)
                    and compiled_events == ref_events)
    trials_bitwise = True
    for i in range(0, N_TRIALS, N_TRIALS // N_SPOT_CHECKS):
        run = StochasticSimulator(
            network, seed=np.random.default_rng(seeds[i])).simulate(
                T_FINAL, n_samples=N_SAMPLES)
        trial = ensemble.trial(i)
        trials_bitwise &= (np.array_equal(trial.states, run.states)
                           and trial.meta["events"]
                           == run.meta["events"])

    return {
        "trials": N_TRIALS,
        "events": batch_events,
        "reference_wall_seconds": reference_wall,
        "batch_wall_seconds": batch_wall,
        "compiled_reference_wall_seconds": compiled_wall,
        "reference_events_per_second": ref_events / reference_wall,
        "compiled_reference_events_per_second":
            compiled_events / compiled_wall,
        "events_per_second": batch_events / batch_wall,
        "speedup": reference_wall / batch_wall,
        "compiled_reference_speedup": reference_wall / compiled_wall,
        "sums_bitwise": sums_bitwise,
        "trials_bitwise": trials_bitwise,
    }


def test_bench_batch_ensemble(benchmark, bench_seed, bench_json):
    result = run_once(benchmark, lambda: _run(bench_seed))

    body = markdown_table(
        ["path", "wall seconds", "events/second"],
        [["reference (per-trial numpy loop)",
          f"{result['reference_wall_seconds']:.3f}",
          f"{result['reference_events_per_second']:,.0f}"],
         ["reference (per-trial compiled loop)",
          f"{result['compiled_reference_wall_seconds']:.3f}",
          f"{result['compiled_reference_events_per_second']:,.0f}"],
         ["batch (structure-of-arrays)",
          f"{result['batch_wall_seconds']:.3f}",
          f"{result['events_per_second']:,.0f}"]])
    body += (f"\n\n{result['trials']} trials x rotation ring "
             f"({N_SPECIES} species, {TOKENS_PER_SPECIES} tokens each), "
             f"t_final={T_FINAL:g}, {result['events']:,} events total; "
             f"batch speedup over the numpy loop "
             f"{result['speedup']:.2f}x (compiled loop "
             f"{result['compiled_reference_speedup']:.2f}x).\n\n"
             f"Bitwise equivalence on matched seeds: ensemble sums "
             f"{'OK' if result['sums_bitwise'] else 'FAILED'}, "
             f"spot-checked trials "
             f"{'OK' if result['trials_bitwise'] else 'FAILED'}.\n")
    save_report("E17_batch",
                "E17 -- batched ensemble throughput (SoA vs reference)",
                body)
    save_json("E17_batch", result, seed=bench_seed, enabled=bench_json)

    assert result["sums_bitwise"]
    assert result["trials_bitwise"]
    assert result["speedup"] >= SPEEDUP_FLOOR
