"""E17 -- seeded ensemble throughput: the one ensemble path vs the numpy loop.

One seeded ensemble (same network, many independent trials) run three
ways, all through the same Gillespie event loop:

- the per-trial numpy reference loop, one fresh simulator per seed
  (``use_reference()``), the baseline of the speedup floor;
- the compiled loop, one fresh simulator per seed (what an ensemble
  chunk did before it reused its simulator);
- the ensemble path, ``simulate_mean_chunk``: one simulator whose
  generator ``simulate_ensemble`` swaps per seed, on the compiled loop.
  ``events_per_second`` measures this path.

The workload is a token-rotation ring (constant total propensity, no
absorption), so every trial runs the full horizon and the comparison
measures steady-state event throughput.  The gate is exactness: all
three sums must be bitwise equal, and spot-checked ensemble trials must
reproduce fresh per-seed realisations bitwise.
"""

import time

import numpy as np

from repro.crn.network import Network
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

#: Conservative floor asserted by the benchmark: the ensemble path
#: against the numpy reference loop.  The measured speedup is far above
#: it (see results/E17_batch.json); the committed record plus
#: check_regression.py's 30% gate track the actual throughput.
SPEEDUP_FLOOR = 3.0


def _rotation_network():
    network = Network("rotation")
    names = [f"S{i}" for i in range(N_SPECIES)]
    for i, name in enumerate(names):
        network.add(name, names[(i + 1) % N_SPECIES], 1.0)
        network.set_initial(name, TOKENS_PER_SPECIES)
    return network


def _per_seed(network, seeds, numpy_loop):
    """One fresh simulator per seed, summed in seed order."""
    total = None
    events = 0
    for seed in seeds:
        simulator = StochasticSimulator(network,
                                        seed=np.random.default_rng(seed))
        if numpy_loop:
            simulator.propensity_state.use_reference()
        run = simulator.simulate(T_FINAL, n_samples=N_SAMPLES)
        if total is None:
            total = run.states.copy()
        else:
            total += run.states
        events += run.meta["events"]
    return run.times, total, events


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _run(base_seed):
    network = _rotation_network()
    seeds = np.random.SeedSequence(base_seed).spawn(N_TRIALS)
    spec = StochasticSimulator(network)._clone_spec()

    (ref_times, ref_sum, ref_events), reference_wall = _timed(
        _per_seed, network, seeds, True)
    (fresh_times, fresh_sum, fresh_events), fresh_wall = _timed(
        _per_seed, network, seeds, False)
    (times, total, events), ensemble_wall = _timed(
        simulate_mean_chunk, (spec, seeds, T_FINAL, N_SAMPLES, {}))

    sums_bitwise = all(
        np.array_equal(t, ref_times) and np.array_equal(s, ref_sum)
        and e == ref_events
        for t, s, e in ((fresh_times, fresh_sum, fresh_events),
                        (times, total, events)))
    spot = list(range(0, N_TRIALS, N_TRIALS // N_SPOT_CHECKS))
    ensemble = StochasticSimulator(network).simulate_ensemble(
        T_FINAL, seeds=[seeds[i] for i in spot], n_samples=N_SAMPLES)
    trials_bitwise = True
    for k, i in enumerate(spot):
        run = StochasticSimulator(
            network, seed=np.random.default_rng(seeds[i])).simulate(
                T_FINAL, n_samples=N_SAMPLES)
        trial = ensemble.trial(k)
        trials_bitwise &= (np.array_equal(trial.states, run.states)
                           and trial.meta["events"]
                           == run.meta["events"])

    return {
        "trials": N_TRIALS,
        "events": events,
        "reference_wall_seconds": reference_wall,
        "fresh_compiled_wall_seconds": fresh_wall,
        "ensemble_wall_seconds": ensemble_wall,
        "reference_events_per_second": ref_events / reference_wall,
        "fresh_compiled_events_per_second": fresh_events / fresh_wall,
        "events_per_second": events / ensemble_wall,
        "speedup": reference_wall / ensemble_wall,
        "fresh_compiled_speedup": reference_wall / fresh_wall,
        "sums_bitwise": sums_bitwise,
        "trials_bitwise": trials_bitwise,
    }


def test_bench_batch_ensemble(benchmark, bench_seed, bench_json):
    result = run_once(benchmark, lambda: _run(bench_seed))

    body = markdown_table(
        ["path", "wall seconds", "events/second"],
        [["numpy loop, fresh simulator per seed",
          f"{result['reference_wall_seconds']:.3f}",
          f"{result['reference_events_per_second']:,.0f}"],
         ["compiled loop, fresh simulator per seed",
          f"{result['fresh_compiled_wall_seconds']:.3f}",
          f"{result['fresh_compiled_events_per_second']:,.0f}"],
         ["ensemble path (simulate_mean_chunk, one simulator)",
          f"{result['ensemble_wall_seconds']:.3f}",
          f"{result['events_per_second']:,.0f}"]])
    body += (f"\n\n{result['trials']} trials x rotation ring "
             f"({N_SPECIES} species, {TOKENS_PER_SPECIES} tokens each), "
             f"t_final={T_FINAL:g}, {result['events']:,} events total; "
             f"ensemble path speedup over the numpy loop "
             f"{result['speedup']:.2f}x (compiled loop with a fresh "
             f"simulator per seed {result['fresh_compiled_speedup']:.2f}x)."
             f"\n\nBitwise equivalence on matched seeds: ensemble sums "
             f"{'OK' if result['sums_bitwise'] else 'FAILED'}, "
             f"spot-checked trials "
             f"{'OK' if result['trials_bitwise'] else 'FAILED'}.\n")
    save_report("E17_batch",
                "E17 -- seeded ensemble throughput (one ensemble path "
                "vs the numpy loop)", body)
    save_json("E17_batch", result, seed=bench_seed, enabled=bench_json)

    assert result["sums_bitwise"]
    assert result["trials_bitwise"]
    assert result["speedup"] >= SPEEDUP_FLOOR
