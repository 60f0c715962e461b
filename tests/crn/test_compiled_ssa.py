"""Compiled Gillespie loop vs the numpy reference loop: bitwise.

:class:`IncrementalPropensities` runs the direct-method event loop in
the ``Ssa`` type of the kernel built by :mod:`repro.crn.ckinetics` and
falls back to its numpy loop when the kernel cannot be built.  The two
take the same draws from the simulator's own generator and perform the
same floating-point operations in the same order, so these tests demand
equal bytes, equal event and firing counts and an equal generator state
afterwards -- on single runs, on every bit generator numpy ships and on
whole stochastic machine runs.  They also pin the fallback when gcc is
absent.
"""

from __future__ import annotations

import pickle
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from repro.core.dfg import SignalFlowGraph
from repro.core.stochastic_machine import StochasticMachine
from repro.crn import ckinetics
from repro.crn.network import Network
from repro.crn.parser import parse_network
from repro.crn.simulation.ssa import StochasticSimulator
from repro.errors import SimulationError
from repro.obs import MetricsRegistry
from repro.scenarios import get_scenario

EXAMPLES = sorted((Path(__file__).resolve().parents[2] / "examples")
                  .glob("*.crn"))


def _generic_network() -> Network:
    """Order-3, ``2X`` and ``0 ->`` reactions next to plain ones."""
    network = Network("generic")
    network.add({"A": 3}, {"B": 1}, 0.02)                   # 3A -> B
    network.add({"A": 1, "B": 1, "C": 1}, {"A": 2}, 0.01)   # A+B+C -> 2A
    network.add({"A": 2, "B": 1}, {"C": 1}, 0.005)          # 2A+B -> C
    network.add({"B": 2}, {"C": 2}, 0.03)                   # 2B -> 2C
    network.add({"A": 2}, None, 0.01)                       # 2A -> 0
    network.add({"C": 1}, {"A": 1}, 1.0)
    network.add(None, {"B": 1}, 2.5)                        # 0 -> B
    network.set_initial("A", 30)
    network.set_initial("B", 5)
    network.set_initial("C", 3)
    return network


def _networks() -> list[tuple[str, Network]]:
    networks = [(path.stem, parse_network(path.read_text(), path.stem))
                for path in EXAMPLES]
    networks += [(name, get_scenario(name).network())
                 for name in ("ma", "counter")]
    networks += [(f"random-{seed}", get_scenario("random").network(
        seed=seed)) for seed in (1, 5, 9)]
    networks.append(("generic", _generic_network()))
    return networks


NETWORKS = _networks()


@pytest.fixture(scope="module")
def compiled() -> None:
    if ckinetics.load() is None:
        pytest.skip("compiled kinetics kernel unavailable")


def _run_both(network: Network, make_rng, *, initial=None,
              rebuild_interval: int | None = None, t_final: float = 3.0,
              **kwargs) -> list[dict]:
    """One seeded run per path; everything the contract covers."""
    outcomes = []
    for reference in (False, True):
        metrics = MetricsRegistry()
        simulator = StochasticSimulator(network, seed=make_rng(),
                                        metrics=metrics)
        state = simulator.propensity_state
        if rebuild_interval is not None:
            state.rebuild_interval = rebuild_interval
        if reference:
            state.use_reference()
        assert state.backend == ("numpy" if reference else "compiled")
        try:
            run = simulator.simulate(t_final, initial=initial, **kwargs)
            result = (run.times.tobytes(), run.states.tobytes(),
                      run.meta["events"])
        except SimulationError as exc:
            result = str(exc)
        counters = metrics.to_dict()["counters"]
        outcomes.append({
            "result": result,
            "firings": {name: value for name, value in counters.items()
                        if name.startswith("ssa.firings[")},
            "events": counters.get("ssa.events"),
            "rng": pickle.dumps(simulator.rng.bit_generator.state),
            "next": simulator.rng.random(),
            "state": (state.counts.tobytes(), state.a.tobytes(),
                      state._cb.tobytes(), state._events_since_rebuild),
        })
    return outcomes


def _assert_same(outcomes: list[dict]) -> None:
    compiled_run, numpy_run = outcomes
    for key in ("result", "firings", "events", "rng", "next", "state"):
        assert compiled_run[key] == numpy_run[key], key


def _loop_both(network: Network, seed: int, t_final: float,
               max_events: int, initial=None) -> tuple:
    """``IncrementalPropensities.run`` on both paths, with the final time
    and the samples it recorded; asserts they agree."""
    outcomes = []
    for reference in (False, True):
        simulator = StochasticSimulator(network, seed=seed)
        state = simulator.propensity_state
        if reference:
            state.use_reference()
        state.reset(simulator._initial_counts(initial))
        times = np.linspace(0.0, t_final, 50)
        samples = np.full((50, network.n_species), -1.0)
        samples[0] = state.counts
        t, events, next_sample, exceeded = state.run(
            simulator.rng, times, samples, 0.0, t_final, max_events, None)
        outcomes.append((t, events, next_sample, exceeded,
                         samples.tobytes()))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


@pytest.mark.parametrize(("name", "network"), NETWORKS,
                         ids=[name for name, _ in NETWORKS])
@pytest.mark.parametrize("seed", [0, 3])
def test_runs_bitwise_on_networks(compiled, name, network, seed):
    # Scaled-up random initial counts so every network fires many events.
    initial = np.random.default_rng(seed + 100).integers(
        0, 60, size=network.n_species)
    outcomes = _run_both(network, lambda: seed, initial=initial,
                         n_samples=40, max_events=20_000)
    _assert_same(outcomes)
    assert not isinstance(outcomes[0]["result"], str)
    assert outcomes[0]["result"][2] > 0
    _loop_both(network, seed, 3.0, 20_000, initial)


@pytest.mark.parametrize("bit_generator", [
    np.random.MT19937, np.random.Philox, np.random.SFC64,
    np.random.PCG64DXSM], ids=lambda cls: cls.__name__)
def test_caller_supplied_generators(compiled, bit_generator):
    network = get_scenario("random").network(seed=5)
    initial = np.full(network.n_species, 20)
    outcomes = _run_both(
        network, lambda: np.random.Generator(bit_generator(42)),
        initial=initial, n_samples=25)
    _assert_same(outcomes)
    assert outcomes[0]["result"][2] > 100


@pytest.mark.parametrize("interval", [1, 3])
def test_rebuild_interval(compiled, interval):
    outcomes = _run_both(_generic_network(), lambda: 11,
                         rebuild_interval=interval, n_samples=30)
    _assert_same(outcomes)
    assert outcomes[0]["result"][2] > 3 * interval


def test_absorbing_state(compiled):
    network = Network("decay")
    network.add("A", "B", 1.0)
    network.set_initial("A", 25)
    outcomes = _run_both(network, lambda: 4, t_final=1000.0, n_samples=9)
    _assert_same(outcomes)
    assert outcomes[0]["result"][2] == 25


def test_max_events_error_and_samples_up_to_it(compiled):
    network = _generic_network()
    outcomes = _run_both(network, lambda: 8, t_final=30.0, n_samples=50,
                         max_events=100)
    _assert_same(outcomes)
    assert outcomes[0]["result"].startswith("SSA exceeded 100 events at t=")
    # The samples recorded up to the raise, through the loop directly.
    _, events, next_sample, exceeded, _ = _loop_both(network, 8, 30.0, 100)
    assert (events, exceeded) == (100, True)
    assert 1 < next_sample < 50


def test_stochastic_machine_run_bitwise(compiled):
    sfg = SignalFlowGraph("ma2")
    x = sfg.input("x")
    d = sfg.delay("d1", source=x)
    sfg.output("y", sfg.add(sfg.gain(Fraction(1, 2), x),
                            sfg.gain(Fraction(1, 2), d)))
    results = []
    for reference in (False, True):
        machine = StochasticMachine(sfg, seed=1)
        if reference:
            machine.simulator.propensity_state.use_reference()
        run = machine.run({"x": [40, 80, 20, 60]})
        results.append((run.cycles,
                        {k: v.tobytes() for k, v in run.outputs.items()},
                        run.state_history, machine.flush_events,
                        machine.simulator.rng.random()))
    assert results[0] == results[1]
    assert results[0][3] > 0  # seed 1 exercises the straggler flush


def test_kernel_rejects_bad_buffers(compiled):
    simulator = StochasticSimulator(_generic_network(), seed=0)
    state = simulator.propensity_state
    state.reset(simulator._initial_counts(None))
    assert state.backend == "compiled"
    times = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="samples must be"):
        state.run(simulator.rng, times, np.zeros((5, 2)), 0.0, 1.0, 10,
                  None)
    with pytest.raises(ValueError, match="firings must be"):
        state.run(simulator.rng, times, np.zeros((5, 3)), 0.0, 1.0, 10,
                  np.zeros(7))


def test_missing_gcc_uses_numpy_loop_with_one_warning(monkeypatch,
                                                      tmp_path):
    monkeypatch.setattr(ckinetics, "_module", None)
    monkeypatch.setattr(ckinetics, "_failure", None)
    monkeypatch.setenv("PATH", str(tmp_path))
    network = _generic_network()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        runs = []
        for _ in range(2):
            simulator = StochasticSimulator(network, seed=5)
            runs.append(simulator.simulate(2.0, n_samples=10))
            assert simulator.propensity_state.backend == "numpy"
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(runtime) == 1
    assert "no gcc on PATH" in str(runtime[0].message)
    assert runs[0].states.tobytes() == runs[1].states.tobytes()


def test_missing_npyrandom_uses_numpy_loop(monkeypatch, tmp_path):
    if ckinetics.shutil.which("gcc") is None:
        pytest.skip("no gcc on PATH")
    monkeypatch.setattr(ckinetics, "_module", None)
    monkeypatch.setattr(ckinetics, "_failure", None)
    monkeypatch.setattr(ckinetics, "NPYRANDOM", tmp_path / "absent.a")
    with pytest.warns(RuntimeWarning, match="absent.a is missing"):
        state = StochasticSimulator(_generic_network()).propensity_state
        assert state.backend == "numpy"


def test_batch_span_and_gauge_name_the_kernel(compiled):
    from repro.obs import Tracer

    tracer = Tracer()
    metrics = MetricsRegistry()
    simulator = StochasticSimulator(_generic_network(), seed=2,
                                    tracer=tracer, metrics=metrics)
    simulator.simulate(1.0, n_samples=5)
    assert metrics.to_dict()["gauges"]["ssa.kernel_compiled"] == 1.0
    simulator.propensity_state.use_reference()
    simulator.simulate(1.0, n_samples=5)
    assert metrics.to_dict()["gauges"]["ssa.kernel_compiled"] == 0.0
    kernels = [record.args["kernel"] for record in tracer.sink.records
               if getattr(record, "name", "") == "ssa.batch"]
    assert kernels == ["compiled", "numpy"]
