"""``simulate_ensemble``: one simulator reused across seeds.

Reuse must leak nothing: not from one trial into the next (each trial
equals a fresh simulator on its seed, bitwise), and not out to the
caller (``self.rng`` comes back untouched, also when a trial raises).
The retired ``backend="batch"`` value keeps running the same engine.
"""

import asyncio

import numpy as np
import pytest

from repro.crn.network import Network
from repro.crn.simulation import SimulationOptions, simulate
from repro.crn.simulation.ssa import StochasticSimulator
from repro.crn.simulation.sweep import simulate_mean_chunk
from repro.crn.simulation.tau_leaping import TauLeapingSimulator
from repro.errors import SimulationError
from repro.obs.metrics import MetricsRegistry
from repro.serve import JobSpec, SimulationService, canonical_result_bytes


def _chain(x0=40):
    network = Network()
    network.add("A", "B", 2.0)
    network.add({"B": 2}, "C", 0.7)
    network.add({}, "A", 1.5)
    network.set_initial("A", x0)
    return network


def _next_draw(simulator):
    return simulator.rng.random()


class TestCallerGenerator:
    def test_rng_restored_after_ensemble(self):
        simulator = StochasticSimulator(_chain(), seed=11)
        simulator.simulate_ensemble(
            1.0, seeds=np.random.SeedSequence(4).spawn(5), n_samples=9)
        assert _next_draw(simulator) == \
            _next_draw(StochasticSimulator(_chain(), seed=11))

    def test_rng_restored_after_max_events_raise(self):
        simulator = StochasticSimulator(_chain(x0=200), seed=11)
        with pytest.raises(SimulationError, match="ensemble trial 0"):
            simulator.simulate_ensemble(
                5.0, seeds=np.random.SeedSequence(1).spawn(3),
                max_events=10)
        assert _next_draw(simulator) == \
            _next_draw(StochasticSimulator(_chain(x0=200), seed=11))

    def test_caller_generator_object_is_kept(self):
        rng = np.random.default_rng(3)
        simulator = StochasticSimulator(_chain(), seed=rng)
        simulator.simulate_ensemble(1.0, seeds=[1, 2], n_samples=5)
        assert simulator.rng is rng


class TestTauEnsemble:
    def test_chunk_matches_fresh_per_seed_runs(self):
        """Thousands of molecules, so the runs take real leaps (not
        only exact-SSA fallback bursts)."""
        network = Network()
        network.add("A", "B", 1.0)
        network.add("B", "A", 0.5)
        network.set_initial("A", 3000)
        network.set_initial("B", 1000)
        seeds = np.random.SeedSequence(21).spawn(5)
        spec = TauLeapingSimulator(network)._clone_spec()
        times, total, steps = simulate_mean_chunk(
            (spec, seeds, 1.0, 17, {}))
        metrics = MetricsRegistry()
        expected = None
        for seed in seeds:
            run = TauLeapingSimulator(
                network, seed=np.random.default_rng(seed),
                metrics=metrics).simulate(1.0, n_samples=17)
            if expected is None:
                expected = run.states.copy()
            else:
                expected += run.states
        assert metrics.to_dict()["counters"]["tau.leaps"] > 0
        assert np.array_equal(times, run.times)
        assert np.array_equal(total, expected)
        assert steps == metrics.to_dict()["counters"]["tau.events"]


class TestSharedInitialAndVolume:
    def test_trials_match_fresh_runs(self):
        network = _chain()
        seeds = np.random.SeedSequence(9).spawn(4)
        ensemble = StochasticSimulator(
            network, volume=2.5).simulate_ensemble(
                2.0, seeds=seeds, initial={"A": 25}, n_samples=21)
        for i, seed in enumerate(seeds):
            run = StochasticSimulator(
                network, volume=2.5,
                seed=np.random.default_rng(seed)).simulate(
                    2.0, initial={"A": 25}, n_samples=21)
            assert np.array_equal(ensemble.trial(i).states, run.states)


class TestBackendIsANoOp:
    def test_serve_sweep_bytes_identical_for_both_backends(self):
        network = _chain(x0=15)

        async def run(backend):
            spec = JobSpec(kind="sweep", network=network, method="ssa",
                           t_final=0.5, n_runs=12, seed=8,
                           options=SimulationOptions(n_samples=20,
                                                     backend=backend))
            async with SimulationService(n_workers=2) as service:
                return canonical_result_bytes(await service.run(spec))
        assert asyncio.run(run("batch")) == asyncio.run(run("reference"))

    @pytest.mark.parametrize("method", ["ode", "ssa", "tau"])
    def test_unknown_backend_raises(self, method):
        with pytest.raises(SimulationError, match="backend 'gpu'"):
            simulate(_chain(), 1.0, method, seed=1,
                     options=SimulationOptions(backend="gpu"))
