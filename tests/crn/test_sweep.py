"""Tests for the parallel sweep runner and ensemble determinism."""

import warnings

import numpy as np
import pytest

import repro.crn.simulation.sweep as sweep
from repro.crn.network import Network
from repro.crn.simulation import ParallelSweepRunner, run_seeded
from repro.crn.simulation.ssa import StochasticSimulator
from repro.crn.simulation.tau_leaping import TauLeapingSimulator


def _square(value):
    return value * value


def _decay(x0=200):
    network = Network()
    network.add("A", "B", 0.5)
    network.set_initial("A", x0)
    return network


class TestRunner:
    def test_preserves_payload_order(self):
        runner = ParallelSweepRunner(n_workers=2)
        assert runner.map(_square, [3, 1, 4, 1, 5]) == [9, 1, 16, 1, 25]

    def test_serial_forced(self):
        runner = ParallelSweepRunner(n_workers=1)
        assert runner.map(_square, range(4)) == [0, 1, 4, 9]

    def test_run_seeded_wrapper(self):
        assert run_seeded(_square, [2, 3], n_workers=2) == [4, 9]

    def test_pool_fallback_warns_once_per_process(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise OSError("fork refused")

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(sweep, "_serial_fallback_warned", False)
        runner = ParallelSweepRunner(n_workers=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = runner.map(_square, [3, 1, 4])
            second = runner.map(_square, [2, 7])
        assert (first, second) == ([9, 1, 16], [4, 49])
        fallback = [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        assert len(fallback) == 1
        assert "OSError: fork refused" in str(fallback[0].message)


class TestEnsembleDeterminism:
    def test_mean_trajectory_identical_serial_vs_parallel(self):
        """The ensemble mean is a pure function of the seed: fixed-size
        chunking makes the serial and pooled reductions bitwise equal."""
        serial = StochasticSimulator(_decay(), seed=5).mean_trajectory(
            2.0, n_runs=12, n_samples=25, n_workers=1)
        pooled = StochasticSimulator(_decay(), seed=5).mean_trajectory(
            2.0, n_runs=12, n_samples=25, n_workers=2)
        assert np.array_equal(serial.states, pooled.states)
        assert serial.meta["events"] == pooled.meta["events"]

    def test_mean_trajectory_tau_parallel(self):
        serial = TauLeapingSimulator(_decay(500), seed=9).mean_trajectory(
            1.0, n_runs=10, n_samples=20, n_workers=1)
        pooled = TauLeapingSimulator(_decay(500), seed=9).mean_trajectory(
            1.0, n_runs=10, n_samples=20, n_workers=2)
        assert np.array_equal(serial.states, pooled.states)

    def test_mean_trajectory_reproducible_across_instances(self):
        a = StochasticSimulator(_decay(), seed=13).mean_trajectory(
            1.0, n_runs=6, n_samples=10)
        b = StochasticSimulator(_decay(), seed=13).mean_trajectory(
            1.0, n_runs=6, n_samples=10)
        assert np.array_equal(a.states, b.states)
