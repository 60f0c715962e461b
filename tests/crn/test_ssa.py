"""Integration tests for the stochastic simulators."""

import numpy as np
import pytest

from repro.crn.network import Network
from repro.crn.simulation.ode import simulate
from repro.crn.simulation.ssa import StochasticSimulator
from repro.crn.simulation.tau_leaping import TauLeapingSimulator
from repro.errors import SimulationError


def _decay(x0=200):
    network = Network()
    network.add("A", "B", 0.5)
    network.set_initial("A", x0)
    return network


class TestSSA:
    def test_counts_conserved(self):
        network = _decay()
        trajectory = StochasticSimulator(network, seed=0).simulate(5.0)
        totals = trajectory["A"] + trajectory["B"]
        assert np.all(totals == 200)

    def test_absorbing_state_halts(self):
        network = _decay(x0=3)
        trajectory = StochasticSimulator(network, seed=1).simulate(100.0)
        assert trajectory.final("A") == 0
        assert trajectory.final("B") == 3

    def test_mean_converges_to_ode(self):
        network = _decay(x0=300)
        ssa = StochasticSimulator(network, seed=2)
        mean = ssa.mean_trajectory(2.0, n_runs=30, n_samples=20)
        ode = simulate(network, 2.0).resampled(mean.times)
        error = np.abs(mean["A"] - ode["A"]) / 300.0
        assert error.max() < 0.05

    def test_final_counts_are_ints(self):
        counts = StochasticSimulator(_decay(5), seed=3).final_counts(50.0)
        assert counts["B"] == 5
        assert isinstance(counts["B"], int)

    def test_reproducible_with_seed(self):
        a = StochasticSimulator(_decay(), seed=42).simulate(1.0)
        b = StochasticSimulator(_decay(), seed=42).simulate(1.0)
        assert np.array_equal(a.states, b.states)

    def test_negative_initial_rejected(self):
        network = _decay()
        simulator = StochasticSimulator(network, seed=0)
        with pytest.raises(SimulationError):
            simulator.simulate(1.0, initial=np.array([-1.0, 0.0]))

    def test_bimolecular_needs_two(self):
        network = Network()
        network.add({"X": 2}, "Y", 10.0)
        network.set_initial("X", 1)
        trajectory = StochasticSimulator(network, seed=0).simulate(10.0)
        assert trajectory.final("X") == 1  # lone molecule cannot pair

    def test_zero_runs_rejected(self):
        with pytest.raises(SimulationError):
            StochasticSimulator(_decay(), seed=0).mean_trajectory(
                1.0, n_runs=0)

    def test_max_events_boundary_is_exact(self):
        """A decay chain with x0 molecules fires exactly x0 events, so
        max_events == x0 must succeed and max_events == x0 - 1 must
        raise (guards the classic off-by-one in the budget check)."""
        trajectory = StochasticSimulator(_decay(x0=50), seed=4).simulate(
            1000.0, max_events=50)
        assert trajectory.meta["events"] == 50
        assert trajectory.final("B") == 50
        with pytest.raises(SimulationError):
            StochasticSimulator(_decay(x0=50), seed=4).simulate(
                1000.0, max_events=49)

    def test_mean_converges_to_ode_parallel(self):
        """The ensemble mean through the process pool converges to the
        deterministic limit, same as the serial path."""
        network = _decay(x0=300)
        mean = StochasticSimulator(network, seed=6).mean_trajectory(
            2.0, n_runs=32, n_samples=20, n_workers=2)
        ode = simulate(network, 2.0).resampled(mean.times)
        error = np.abs(mean["A"] - ode["A"]) / 300.0
        assert error.max() < 0.05


class TestTauLeaping:
    def test_tracks_ode_for_large_counts(self):
        network = _decay(x0=5000)
        tau = TauLeapingSimulator(network, seed=0)
        trajectory = tau.simulate(2.0, n_samples=20)
        ode = simulate(network, 2.0).resampled(trajectory.times)
        error = np.abs(trajectory["A"] - ode["A"]) / 5000.0
        assert error.max() < 0.03

    def test_counts_stay_non_negative(self):
        network = Network()
        network.add({"A": 1, "B": 1}, "C", 5.0)
        network.set_initial("A", 50)
        network.set_initial("B", 30)
        trajectory = TauLeapingSimulator(network, seed=1).simulate(5.0)
        assert trajectory.states.min() >= 0
        assert trajectory.final("C") == 30

    def test_invalid_epsilon(self):
        with pytest.raises(SimulationError):
            TauLeapingSimulator(_decay(), epsilon=1.5)

    def test_fallback_fills_grid_inside_burst(self):
        """Small-count runs fall back to exact SSA for every step; the
        sample points crossed inside one fallback burst must record the
        state that held at each sample time, not be back-filled with the
        end-of-burst counts (the decay would then appear instantaneous).
        """
        trajectory = TauLeapingSimulator(_decay(x0=40), seed=3).simulate(
            10.0, n_samples=51)
        a = trajectory["A"]
        assert a[0] == 40
        # Early samples still hold most of the population (the old
        # back-fill jumped straight to the burst's final state) ...
        assert a[1] > 20
        # ... and the column resolves the decay through intermediate
        # values, monotonically.
        assert len(np.unique(a)) > 10
        assert np.all(np.diff(a) <= 0)


class TestIncrementalPropensityHardening:
    """PR 8 hardening: clamped updates + periodic exact rebuilds."""

    def _two_channel_state(self):
        network = Network()
        network.add({"A": 2}, "B", 1.0)
        network.add("C", "D", 2.0)
        network.set_initial("A", 10)
        network.set_initial("C", 10)
        simulator = StochasticSimulator(network, seed=0)
        state = simulator.propensity_state
        state.reset(simulator._initial_counts(None))
        return network, simulator, state

    def test_update_clamped_at_zero(self):
        """A corrupted gather buffer yielding a negative product must
        be clamped: a negative propensity would poison the
        cumulative-sum selection draw."""
        network, simulator, state = self._two_channel_state()
        a_idx = network.species_names.index("A")
        n_s = len(network.species_names)
        # Pre-set the two gather slots of A so that after fire(0)'s
        # in-place update (raw -= 2, half-pair -= 1) the product of the
        # dependent recompute is negative.
        state._cb[a_idx] = 1.0              # raw slot -> -1.0 after fire
        state._cb[a_idx + n_s + 1] = 2.0    # half slot -> 1.0 after fire
        state.fire(0)
        assert state.a[0] == 0.0

    def test_clamp_normalises_negative_zero(self):
        """fresh = c * (-1.0) * 0.0 is -0.0; the clamp must store +0.0
        so downstream sign tests and Poisson draws see a clean zero."""
        network, simulator, state = self._two_channel_state()
        a_idx = network.species_names.index("A")
        n_s = len(network.species_names)
        state._cb[a_idx] = 1.0              # raw slot -> -1.0 after fire
        state._cb[a_idx + n_s + 1] = 1.0    # half slot -> 0.0 after fire
        state.fire(0)
        assert state.a[0] == 0.0
        assert not np.signbit(state.a[0])

    def test_drift_heals_at_rebuild_interval(self):
        """Injected drift in the propensity vector survives incremental
        updates of *other* channels but is healed exactly by the
        periodic full rebuild."""
        network, simulator, state = self._two_channel_state()
        state.rebuild_interval = 3
        exact = state.kinetics.propensities(state.counts.copy(),
                                            state.constants)
        # Corrupt the A-channel entry; firing C -> D (reaction 1) only
        # re-evaluates channels that depend on C/D, so the drift sticks.
        state.a[0] = 123.456
        state.fire(1)
        assert state.a[0] == 123.456
        state.fire(1)
        assert state.a[0] == 123.456
        # Third fire reaches the interval: full in-place exact rebuild.
        state.fire(1)
        fresh = state.kinetics.propensities(state.counts.copy(),
                                            state.constants)
        assert state.a[0] == exact[0]
        assert np.array_equal(state.a, fresh)

    def test_rebuild_is_in_place(self):
        """Simulators alias ``state.a`` across the event loop, so the
        rebuild must mutate, never rebind."""
        _, _, state = self._two_channel_state()
        alias = state.a
        state.fire(0)
        state.rebuild()
        assert state.a is alias

    def test_rebuild_interval_is_bitwise_neutral(self):
        """The rebuild recomputes the same bits the incremental updates
        maintain, so any interval yields the identical realisation."""
        network = Network()
        network.add({"A": 2}, "B", 1.0)
        network.add("B", {"A": 2}, 0.5)
        network.set_initial("A", 60)
        baseline = StochasticSimulator(network, seed=11).simulate(4.0)
        frequent = StochasticSimulator(network, seed=11)
        frequent.propensity_state.rebuild_interval = 3
        rebuilt = frequent.simulate(4.0)
        assert np.array_equal(baseline.states, rebuilt.states)
        assert baseline.meta == rebuilt.meta

    @pytest.mark.parametrize("reference", [False, True])
    def test_constants_are_a_private_read_only_copy(self, reference):
        """Editing the simulator's constants afterwards must reach
        neither reset/rebuild nor the dependent updates: the vector
        stays equal to a fresh recompute from the state's own copy."""
        from pathlib import Path

        from repro.crn.parser import parse_network

        path = Path(__file__).resolve().parents[2] / "examples" / \
            "delay_chain.crn"
        network = parse_network(path.read_text(), "delay_chain")
        simulator = StochasticSimulator(network, seed=3)
        state = simulator.propensity_state
        if reference:
            state.use_reference()
        original = simulator.constants.copy()
        simulator.constants *= 3.0
        initial = np.full(network.n_species, 40)
        run = simulator.simulate(2.0, initial=initial, n_samples=5)
        assert run.meta["events"] > 0
        assert np.array_equal(state.constants, original)
        fresh = state.kinetics.propensities(state.counts.copy(),
                                            state.constants)
        assert np.array_equal(state.a, fresh)
        with pytest.raises(ValueError):
            state.constants[0] = 1.0

    def test_rebuild_interval_validated(self):
        _, simulator, _ = self._two_channel_state()
        from repro.crn.simulation.ssa import IncrementalPropensities
        with pytest.raises(SimulationError, match="rebuild_interval"):
            IncrementalPropensities(simulator.kinetics,
                                    simulator.constants,
                                    rebuild_interval=0)
