"""Seeded SSA ensembles through ``StochasticSimulator.simulate_ensemble``.

The contract under test is *bitwise* equivalence: trial ``i`` of an
ensemble (one simulator reused across the seeds) must reproduce the
realisation of a fresh :class:`StochasticSimulator` on seed ``i``
exactly -- states, sample grid and event count -- so cached baselines
and seeded corpora stay valid.  ``SimulationOptions(backend="batch")``
is a validated no-op and must keep giving the reference result.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.conformance.generator import BUDGETS, generate_targets
from repro.crn.network import Network
from repro.crn.simulation import SimulationOptions, simulate
from repro.crn.simulation.result import EnsembleResult
from repro.crn.simulation.ssa import StochasticSimulator
from repro.crn.simulation.sweep import simulate_mean_chunk
from repro.crn.simulation.result import Trajectory
from repro.errors import SimulationError


def _chain(x0=40):
    network = Network()
    network.add("A", "B", 2.0)
    network.add({"B": 2}, "C", 0.7)
    network.add({}, "A", 1.5)
    network.set_initial("A", x0)
    return network


def _decay(x0=30):
    network = Network()
    network.add("A", "B", 1.0)
    network.set_initial("A", x0)
    return network


def _reference_runs(network, seeds, t_final, n_samples=40, rates=None,
                    volume=1.0, initial=None):
    runs = []
    for seed in seeds:
        simulator = StochasticSimulator(
            network, rates=rates, volume=volume,
            seed=np.random.default_rng(seed))
        runs.append(simulator.simulate(t_final, n_samples=n_samples,
                                       initial=initial))
    return runs


def _assert_trials_match(ensemble, runs):
    assert len(ensemble) == len(runs)
    for i, run in enumerate(runs):
        trial = ensemble.trial(i)
        assert np.array_equal(trial.times, run.times)
        assert np.array_equal(trial.states, run.states)
        assert trial.meta["events"] == run.meta["events"]


class TestBitwiseEquivalence:
    def test_chain_network_matches_reference(self):
        network = _chain()
        seeds = np.random.SeedSequence(42).spawn(24)
        ensemble = StochasticSimulator(network).simulate_ensemble(
            3.0, seeds=seeds, n_samples=40)
        _assert_trials_match(
            ensemble, _reference_runs(network, seeds, 3.0))

    def test_absorbing_network_matches_reference(self):
        seeds = np.random.SeedSequence(7).spawn(16)
        network = _decay(x0=5)
        ensemble = StochasticSimulator(network).simulate_ensemble(
            50.0, seeds=seeds, n_samples=25)
        runs = _reference_runs(network, seeds, 50.0, n_samples=25)
        _assert_trials_match(ensemble, runs)
        a = network.species_names.index("A")
        assert np.all(ensemble.states[:, -1, a] == 0)

    @pytest.mark.parametrize("budget_name", ["tiny", "small"])
    def test_generator_corpus_matches_reference(self, budget_name):
        """Every stochastic conformance-generator target is bitwise
        identical between ensemble trials and fresh per-seed runs."""
        budget = BUDGETS[budget_name]
        checked = 0
        for index, target in enumerate(generate_targets(budget, seed=3)):
            if not target.stochastic:
                continue
            rates = target.network.rate_vector(target.scheme)
            seeds = np.random.SeedSequence([3, index]).spawn(4)
            t_final = min(target.t_final, 1.0)
            try:
                runs = _reference_runs(target.network, seeds, t_final,
                                       n_samples=17, rates=rates)
                ensemble = StochasticSimulator(
                    target.network, rates=rates).simulate_ensemble(
                        t_final, seeds=seeds, n_samples=17)
            except SimulationError:
                continue  # over the event budget for a test-sized run
            _assert_trials_match(ensemble, runs)
            checked += 1
        assert checked >= 1

    def test_t_start_shift_matches_reference(self):
        network = _chain()
        seeds = np.random.SeedSequence(5).spawn(6)
        ensemble = StochasticSimulator(network).simulate_ensemble(
            4.0, seeds=seeds, t_start=1.0, n_samples=33)
        runs = []
        for seed in seeds:
            simulator = StochasticSimulator(
                network, seed=np.random.default_rng(seed))
            runs.append(simulator.simulate(4.0, t_start=1.0,
                                           n_samples=33))
        _assert_trials_match(ensemble, runs)

    def test_mean_matches_mean_trajectory_serial_and_pooled(self):
        network = _chain()
        reference = StochasticSimulator(network, seed=17).mean_trajectory(
            2.0, n_runs=24, n_samples=31, n_workers=1)
        batch_serial = StochasticSimulator(
            network, seed=17).mean_trajectory(
                2.0, n_runs=24, n_samples=31, n_workers=1,
                backend="batch")
        batch_pooled = StochasticSimulator(
            network, seed=17).mean_trajectory(
                2.0, n_runs=24, n_samples=31, n_workers=2,
                backend="batch")
        ensemble_mean = StochasticSimulator(
            network, seed=17).simulate_ensemble(
                2.0, n_trials=24, n_samples=31).mean()
        for candidate in (batch_serial, batch_pooled, ensemble_mean):
            assert np.array_equal(candidate.states, reference.states)
            assert candidate.meta == reference.meta


class TestFacadeRouting:
    def test_backend_batch_matches_reference(self):
        network = _chain()
        options = SimulationOptions(seed=np.random.default_rng(7))
        reference = simulate(network, 2.0, "ssa", options=options)
        options = SimulationOptions(seed=np.random.default_rng(7),
                                    backend="batch")
        batch = simulate(network, 2.0, "ssa", options=options)
        assert np.array_equal(batch.states, reference.states)
        assert batch.meta["events"] == reference.meta["events"]

    def test_backend_batch_ode_delegates_to_reference(self):
        network = _chain()
        reference = simulate(network, 2.0, "ode")
        batch = simulate(network, 2.0, "ode",
                         options=SimulationOptions(backend="batch"))
        assert np.array_equal(batch.states, reference.states)

    def test_unknown_backend_raises(self):
        with pytest.raises(SimulationError, match="backend"):
            simulate(_chain(), 1.0, "ssa",
                     options=SimulationOptions(backend="gpu"))


class TestEnsembleSemantics:
    def test_max_events_raises_with_trial_index(self):
        network = _chain(x0=200)
        seeds = np.random.SeedSequence(1).spawn(4)
        with pytest.raises(SimulationError, match="ensemble trial"):
            StochasticSimulator(network).simulate_ensemble(
                5.0, seeds=seeds, max_events=10)

    def test_n_trials_spawning_matches_explicit_root(self):
        network = _chain()
        first = StochasticSimulator(
            network, seed=3).simulate_ensemble(1.0, n_trials=5,
                                               n_samples=11)
        seeds = np.random.SeedSequence(3).spawn(5)
        second = StochasticSimulator(network).simulate_ensemble(
            1.0, seeds=seeds, n_samples=11)
        assert np.array_equal(first.states, second.states)

    def test_invalid_ensemble_arguments(self):
        simulator = StochasticSimulator(_chain())
        with pytest.raises(SimulationError, match="n_trials"):
            simulator.simulate_ensemble(1.0)
        with pytest.raises(SimulationError, match="disagrees"):
            simulator.simulate_ensemble(
                1.0, 3, seeds=np.random.SeedSequence(0).spawn(2))
        with pytest.raises(SimulationError, match="non-empty"):
            simulator.simulate_ensemble(1.0, seeds=[])
        with pytest.raises(SimulationError, match="t_final"):
            simulator.simulate_ensemble(0.0, 2)


# -- per-trial properties (hypothesis) ------------------------------------

_FREEZE_SETTINGS = settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])


class TestFreezeProperties:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           n_trials=st.integers(min_value=1, max_value=10),
           x0=st.integers(min_value=0, max_value=25))
    @_FREEZE_SETTINGS
    def test_absorbed_trials_stay_absorbed(self, seed, n_trials, x0):
        """Once a trial's total propensity hits zero its samples stay
        constant: the recorded tail repeats the absorbing state and no
        further events fire, whatever the other trials still do."""
        network = _decay(x0=x0)
        ensemble = StochasticSimulator(
            network, seed=seed).simulate_ensemble(
                200.0, n_trials=n_trials, n_samples=15)
        a = ensemble.states[:, :, network.species_names.index("A")]
        assert np.all(np.diff(a, axis=1) <= 0)
        for i in range(n_trials):
            assert ensemble.events[i] == x0 - a[i, -1]
            frozen = np.nonzero(a[i] == 0)[0]
            if frozen.size:
                assert np.all(ensemble.states[i, frozen[0]:]
                              == ensemble.states[i, -1])

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           n_trials=st.integers(min_value=1, max_value=8))
    @_FREEZE_SETTINGS
    def test_no_post_horizon_events(self, seed, n_trials):
        """A trial stops at the first event past ``t_final``:
        extending the horizon with the same seeds replays the short
        ensemble's samples exactly (prefix property), so no short-run
        trial can have recorded post-horizon events."""
        network = _chain(x0=15)
        seeds = np.random.SeedSequence(seed).spawn(n_trials)
        simulator = StochasticSimulator(network)
        short = simulator.simulate_ensemble(1.0, seeds=seeds,
                                            n_samples=11)
        long = simulator.simulate_ensemble(2.0, seeds=seeds,
                                           n_samples=21)
        # The grids share their first ten points bitwise (the short
        # grid's final point is forced to exactly 1.0 by linspace, so
        # it is excluded from the prefix comparison).
        assert np.array_equal(long.times[:10], short.times[:10])
        assert np.array_equal(long.states[:, :10], short.states[:, :10])
        assert np.all(long.events >= short.events)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @_FREEZE_SETTINGS
    def test_trial_views_match_bulk_arrays(self, seed):
        network = _chain(x0=10)
        ensemble = StochasticSimulator(
            network, seed=seed).simulate_ensemble(1.0, n_trials=4,
                                                  n_samples=9)
        for i in range(len(ensemble)):
            trial = ensemble.trial(i)
            assert np.array_equal(trial.times, ensemble.times)
            assert np.array_equal(trial.states, ensemble.states[i])
            assert trial.meta["events"] == ensemble.events[i]


# -- ensemble chunk grid validation ----------------------------------------

class _VaryingGridSimulator(StochasticSimulator):
    """Stub whose sample grid drifts between runs."""

    calls = 0

    def __init__(self, network, rates=None, volume=1.0, seed=None):
        self.network = network
        self.rng = None

    def simulate(self, t_final, n_samples=10, **kwargs):
        cls = type(self)
        size = n_samples + cls.calls
        cls.calls += 1
        times = np.linspace(0.0, t_final, size)
        states = np.zeros((size, len(self.network.species_names)))
        return Trajectory(times, states, self.network.species_names,
                          {"events": 0})


class TestChunkGridValidation:
    def test_mismatched_run_grid_raises_with_index(self):
        network = _decay()
        _VaryingGridSimulator.calls = 0
        spec = {"cls": _VaryingGridSimulator, "network": network,
                "rates": None, "volume": 1.0, "extra": {}}
        seeds = np.random.SeedSequence(0).spawn(3)
        with pytest.raises(SimulationError,
                           match="trial 1 .*misaligned"):
            simulate_mean_chunk((spec, seeds, 1.0, 10, {}))

    def test_cross_chunk_mismatch_raises_with_chunk_index(self,
                                                          monkeypatch):
        import repro.crn.simulation.sweep as sweep_module

        grids = iter([np.linspace(0.0, 1.0, 5),
                      np.linspace(0.0, 1.0, 7)])

        def fake_chunk(payload):
            times = next(grids)
            return times, np.zeros((times.size, 2)), 0

        monkeypatch.setattr(sweep_module, "simulate_mean_chunk",
                            fake_chunk)
        simulator = StochasticSimulator(_decay(), seed=0)
        with pytest.raises(SimulationError,
                           match="chunk 1 .*misaligned"):
            simulator.mean_trajectory(1.0, n_runs=16, n_samples=5,
                                      n_workers=1)

    def test_mean_trajectory_unknown_backend_raises(self):
        simulator = StochasticSimulator(_decay(), seed=0)
        with pytest.raises(SimulationError, match="gpu"):
            simulator.mean_trajectory(1.0, n_runs=2, backend="gpu")


class TestEnsembleResult:
    def test_summed_states_matches_left_associated_sum(self):
        network = _chain()
        ensemble = StochasticSimulator(
            network, seed=2).simulate_ensemble(1.0, n_trials=9,
                                               n_samples=7)
        expected = ensemble.states[0].copy()
        for i in range(1, 9):
            expected += ensemble.states[i]
        assert np.array_equal(ensemble.summed_states(), expected)

    def test_len_and_meta(self):
        ensemble = StochasticSimulator(
            _decay(), seed=1).simulate_ensemble(1.0, n_trials=3,
                                                n_samples=5)
        assert len(ensemble) == 3
        assert isinstance(ensemble, EnsembleResult)
        assert ensemble.states.shape == (3, 5, 2)
