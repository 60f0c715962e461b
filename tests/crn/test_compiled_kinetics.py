"""Compiled mass-action kernel vs the numpy reference path: bitwise.

:class:`MassActionKinetics` evaluates ``rhs``/``jacobian`` with the C
kernel built by :mod:`repro.crn.ckinetics` and falls back to its numpy
path when the kernel cannot be built.  The two perform the same
floating-point operations in the same order, so these tests demand equal
bytes, not closeness -- on single evaluations and on whole machine
trajectories.  They also pin the build cache, the once-per-process
fallback warning and the private rate snapshot.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.filters import moving_average
from repro.core.machine import SynchronousMachine
from repro.crn import ckinetics
from repro.crn.kinetics import (DenseKineticsReference, MassActionKinetics,
                                build_kinetics)
from repro.crn.network import Network
from repro.crn.parser import parse_network
from repro.crn.rates import RateScheme
from repro.scenarios import get_scenario

SRC = Path(__file__).resolve().parents[2] / "src"
EXAMPLES = sorted((SRC.parent / "examples").glob("*.crn"))


def _generic_network() -> Network:
    """Order-3 and ``3X`` reactions: the kernel's generic-order path."""
    network = Network("generic")
    network.add({"A": 3}, {"B": 1}, 2.0)                    # 3A -> B
    network.add({"A": 1, "B": 1, "C": 1}, {"A": 2}, 1.5)    # A+B+C -> 2A
    network.add({"A": 2, "B": 1}, {"C": 1}, 0.7)            # 2A+B -> C
    network.add({"B": 2}, {"C": 2}, 0.3)                    # 2B -> 2C
    network.add({"C": 1}, {"A": 1}, 1.0)
    network.add(None, {"B": 1}, 0.25)
    return network


def _networks() -> list[tuple[str, Network]]:
    networks = [(path.stem, parse_network(path.read_text(), path.stem))
                for path in EXAMPLES]
    networks += [(name, get_scenario(name).network())
                 for name in ("ma", "iir", "counter")]
    networks.append(("generic", _generic_network()))
    return networks


NETWORKS = _networks()


def _bits(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array, dtype=np.float64).tobytes()


def _assert_bitwise(kinetics: MassActionKinetics, x: np.ndarray) -> None:
    assert _bits(kinetics.rhs(0.0, x)) == _bits(kinetics.reference_rhs(x))
    assert _bits(kinetics.jacobian(0.0, x)) == \
        _bits(kinetics.reference_jacobian(x))


@pytest.fixture(scope="module")
def compiled() -> None:
    if ckinetics.load() is None:
        pytest.skip("compiled kinetics kernel unavailable")


@pytest.fixture
def fresh_loader(monkeypatch):
    """Forget this process's load result for the duration of a test."""
    monkeypatch.setattr(ckinetics, "_module", None)
    monkeypatch.setattr(ckinetics, "_failure", None)


@pytest.mark.parametrize(("name", "network"), NETWORKS,
                         ids=[name for name, _ in NETWORKS])
def test_rhs_and_jacobian_bitwise_on_states(compiled, name, network):
    kinetics = build_kinetics(network, RateScheme())
    assert kinetics.backend == "compiled"
    rng = np.random.default_rng(7)
    n = network.n_species
    for _ in range(25):
        x = rng.uniform(-5.0, 40.0, size=n)
        x[rng.integers(0, n, size=max(n // 3, 1))] = 0.0
        _assert_bitwise(kinetics, x)
    for x in (np.zeros(n), -np.ones(n), np.full(n, 1e-300),
              np.full(n, 1e100)):
        _assert_bitwise(kinetics, x)


_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-12, 3.0]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False,
              allow_infinity=False))


@pytest.mark.parametrize(("name", "network"),
                         [case for case in NETWORKS
                          if case[0] in ("ma", "generic")],
                         ids=["ma", "generic"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rhs_and_jacobian_bitwise_property(compiled, name, network, data):
    kinetics = build_kinetics(network, RateScheme())
    x = np.array(data.draw(st.lists(_VALUES, min_size=network.n_species,
                                    max_size=network.n_species)))
    _assert_bitwise(kinetics, x)


def test_machine_trajectory_bitwise_on_both_backends(compiled):
    runs = []
    for reference in (False, True):
        machine = SynchronousMachine(moving_average(2))
        kinetics = machine.simulator.kinetics
        if reference:
            kinetics.use_reference()
        assert kinetics.backend == ("numpy" if reference else "compiled")
        runs.append(machine.run({"x": [8.0, 4.0, 6.0, 2.0]}, record=True))
    compiled_run, numpy_run = runs
    assert _bits(compiled_run.trajectory.times) == \
        _bits(numpy_run.trajectory.times)
    assert _bits(compiled_run.trajectory.states) == \
        _bits(numpy_run.trajectory.states)
    assert _bits(compiled_run.boundary_times) == \
        _bits(numpy_run.boundary_times)
    assert _bits(compiled_run.outputs["y"]) == _bits(numpy_run.outputs["y"])


def test_kernel_rejects_bad_state(compiled):
    kinetics = build_kinetics(_generic_network())
    with pytest.raises(ValueError, match="length 3"):
        kinetics.rhs(0.0, np.zeros(4))
    with pytest.raises(ValueError, match="length 3"):
        kinetics.jacobian(0.0, np.zeros((3, 3)))


def test_kernel_rejects_out_of_range_indices(compiled):
    kinetics = build_kinetics(_generic_network())
    bad_stoich_rows = kinetics._stoich_rows.copy()
    bad_stoich_rows[0] = kinetics.n_species
    with pytest.raises(ValueError, match="stoich_rows"):
        ckinetics.load().Kernel(
            kinetics.n_species, kinetics._factor_a, kinetics._factor_b,
            kinetics.rates, kinetics._generic_rows, kinetics._generic_ptr,
            kinetics._generic_species, kinetics._generic_exp,
            bad_stoich_rows, kinetics._stoich_cols, kinetics._stoich_vals,
            kinetics._jac_gather, kinetics._jac_scale,
            kinetics._jprod_target, kinetics._jprod_coeff,
            kinetics._jprod_entry)


def test_rates_are_a_private_read_only_copy():
    network = get_scenario("random").network(seed=5)
    rates = network.rate_vector(RateScheme())
    original = rates.copy()
    kinetics = MassActionKinetics(network, rates)
    rates *= 3.0
    reference = DenseKineticsReference(network, original)
    x = np.random.default_rng(5).uniform(0.1, 3.0, network.n_species)
    np.testing.assert_allclose(kinetics.rhs(0.0, x), reference.rhs(0.0, x),
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(kinetics.jacobian(0.0, x),
                               reference.jacobian(0.0, x),
                               rtol=1e-12, atol=1e-12)
    assert not kinetics.rates.flags.writeable
    with pytest.raises(ValueError):
        kinetics.rates[0] = 1.0


def test_failed_build_warns_once_and_falls_back(fresh_loader, monkeypatch,
                                                tmp_path):
    if ckinetics.shutil.which("gcc") is None:
        pytest.skip("no gcc on PATH")
    broken = tmp_path / "_ckinetics.c"
    broken.write_text("this is not C\n")
    monkeypatch.setattr(ckinetics, "SOURCE", broken)
    monkeypatch.setattr(ckinetics, "CACHE_DIR", tmp_path / "cache")
    network = _generic_network()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first = build_kinetics(network)
        second = build_kinetics(network)
        x = np.array([1.0, 2.0, 0.0])
        first.rhs(0.0, x)
        second.jacobian(0.0, x)
        assert (first.backend, second.backend) == ("numpy", "numpy")
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(runtime) == 1
    message = str(runtime[0].message)
    assert "numpy reference path" in message
    assert "-ffp-contract=off" in message and str(broken) in message
    assert "error" in message  # the tail of gcc's stderr
    assert _bits(first.rhs(0.0, x)) == _bits(first.reference_rhs(x))
    assert list((tmp_path / "cache").iterdir()) == []


def test_missing_compiler_falls_back(fresh_loader, monkeypatch):
    monkeypatch.setattr(ckinetics.shutil, "which", lambda name: None)
    with pytest.warns(RuntimeWarning, match="no gcc on PATH"):
        assert build_kinetics(_generic_network()).backend == "numpy"


def test_concurrent_builds_share_one_cache_entry(compiled, tmp_path):
    cache = tmp_path / "cache"
    script = ("import sys\n"
              "from pathlib import Path\n"
              "from repro.crn import ckinetics\n"
              "path = ckinetics.build(Path(sys.argv[1]))\n"
              "ckinetics._import(path)\n"
              "print(path)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    workers = [subprocess.Popen([sys.executable, "-c", script, str(cache)],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, env=env)
               for _ in range(2)]
    outputs = [worker.communicate(timeout=120) for worker in workers]
    for worker, (out, err) in zip(workers, outputs):
        assert worker.returncode == 0, err
    paths = {out.strip() for out, _ in outputs}
    assert len(paths) == 1
    assert [p.name for p in cache.iterdir()] == [Path(paths.pop()).name]


def test_threads_share_one_load(compiled, fresh_loader, monkeypatch):
    builds = []
    real_build = ckinetics.build

    def counting_build(cache_dir):
        builds.append(cache_dir)
        return real_build(cache_dir)

    monkeypatch.setattr(ckinetics, "build", counting_build)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: results.append(
            ckinetics.load())) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(builds) == 1
    assert len(results) == 6 and len({id(m) for m in results}) == 1
    assert results[0] is not None
