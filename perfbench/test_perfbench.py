"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def _run(workload: str, trace: int, rounds: int, seed: int = 3,
         cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--rounds", str(rounds)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _summary(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_per_seed(workload):
    first = _summary(_run(workload, trace=1, rounds=2))
    second = _summary(_run(workload, trace=1, rounds=2))
    assert set(first["metrics"]) == {m["name"] for m in CONTRACT["per_layer"]}
    counts = {name for name, metric in first["metrics"].items()
              if metric["unit"] == "count"}
    assert {"machine.cycles", "ssa.events", "sweep.pool_starts",
            "kinetics.rhs.calls", "ssa.fire.calls"} <= counts
    assert any(first["metrics"][name]["value"] for name in counts)
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_summary_has_every_end_to_end_metric(workload):
    summary = _summary(_run(workload, trace=0, rounds=1))
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert set(summary["metrics"]) == {m["name"]
                                       for m in CONTRACT["end_to_end"]}
    assert summary["attempted"] >= 1
    for name, metric in summary["metrics"].items():
        assert metric["value"] > 0, name


def test_untraced_run_installs_no_wrappers(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import run
    import spans
    import workloads

    tracer = spans.Tracer()
    tracer.install()
    targets = list(tracer._patches)
    tracer.uninstall()

    def current(owner, attr):
        return owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)

    seen = []

    class Checked(workloads.OdeMachine):
        def run_round(self, state, index, record, tracer=None):
            seen.append([current(owner, attr) is original
                         for owner, attr, original in targets])
            super().run_round(state, index, record, tracer)

    def refuse(self):
        raise AssertionError("the untraced run installed wrappers")
    monkeypatch.setattr(spans.Tracer, "install", refuse)
    args = Namespace(workload="ode_machine", seed=0, seconds=1.0,
                     trace=0, rounds=1)
    result = run.untraced(Checked(0), args)
    assert seen and all(all(flags) for flags in seen)
    assert result["record"].correct


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in CONTRACT["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(WORKLOADS[0], trace=0, rounds=1, cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_ssa_stalls_and_bound_misses_count_as_misses(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import workloads
    from repro.errors import SimulationError

    class Run:
        n_cycles = 3

        def __init__(self, error):
            self.error = error

        def max_error(self):
            return self.error

    outcomes = iter([SimulationError("no stochastic cycle boundary within "
                                     "200 time units after t=0"),
                     Run(5.0), Run(0.0), ValueError("broken")])

    class Machine:
        flush_events = 0

        def run(self, inputs):
            outcome = next(outcomes)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

    workload = workloads.SsaMachine(0)
    record = workloads.Record()
    state = {"ma2": Machine()}
    for index in range(4):
        workload.run_round(state, index, record)
    assert len(record.misses) == 2          # the stall and the 5-molecule miss
    assert len(record.failures) == 1        # the unexpected ValueError
    assert record.ok_frac == 0.25


@pytest.mark.parametrize("streams, misses, fails", [
    (20, 5, False), (20, 6, True), (100, 10, False), (100, 11, True)])
def test_too_many_ssa_misses_fail_the_run(monkeypatch, streams, misses,
                                          fails):
    monkeypatch.syspath_prepend(str(HERE))
    import workloads

    record = workloads.Record()
    record.items = [{} for _ in range(streams)]
    record.misses = ["stalled"] * misses
    workloads.SsaMachine(0).finish({}, record)
    assert record.correct is not fails
