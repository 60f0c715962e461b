"""Process-parallel execution of embarrassingly parallel simulation work.

:class:`ParallelSweepRunner` maps a picklable worker function over a list
of payloads, either serially or through a ``ProcessPoolExecutor``.  The
seeding contract is the caller's: every payload must carry its own
:class:`numpy.random.SeedSequence` (spawned from one root), so results
are a pure function of the payload list and do not depend on how the
payloads were distributed over workers.  Combined with fixed-size
chunking on the caller side, serial and parallel execution produce
bitwise-identical reductions.

``simulate_mean_chunk`` is the worker for stochastic ensembles: it
builds one simulator from a constructor spec (see
``StochasticSimulator._clone_spec``) and sums the sampled states of one
:meth:`~repro.crn.simulation.ssa.StochasticSimulator.simulate_ensemble`
over the chunk's seeds.
"""

from __future__ import annotations

import os
import warnings
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

#: Set once this process has warned that it runs payloads serially
#: because no process pool could run them.
_serial_fallback_warned = False


class ParallelSweepRunner:
    """Map a worker over payloads, serially or on a process pool.

    Parameters
    ----------
    n_workers:
        ``None`` uses the machine's CPU count; ``<= 1`` forces serial
        execution in-process.  A pool that cannot be created or breaks
        mid-flight (sandboxed environments, fork limits) degrades to the
        serial path, which computes the identical result; the first such
        fallback in a process emits one :class:`RuntimeWarning` naming
        the exception.
    """

    def __init__(self, n_workers: int | None = None):
        if n_workers is None:
            n_workers = os.cpu_count() or 1
        self.n_workers = max(int(n_workers), 1)

    def map(self, fn: Callable, payloads: Iterable) -> list:
        """Apply ``fn`` to every payload, preserving payload order."""
        payloads = list(payloads)
        if self.n_workers <= 1 or len(payloads) <= 1:
            return [fn(p) for p in payloads]
        workers = min(self.n_workers, len(payloads))
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(fn, payloads))
        except (OSError, BrokenProcessPool) as exc:
            _warn_serial_fallback(exc)
            return [fn(p) for p in payloads]


def _warn_serial_fallback(exc: BaseException) -> None:
    """One :class:`RuntimeWarning` per process for a pool fallback."""
    global _serial_fallback_warned
    if _serial_fallback_warned:
        return
    _serial_fallback_warned = True
    warnings.warn(
        f"process pool unavailable ({type(exc).__name__}: {exc}); "
        f"running the payloads serially in this process (warned once "
        f"per process)", RuntimeWarning, stacklevel=3)


def simulate_mean_chunk(payload: tuple) -> tuple[np.ndarray, np.ndarray,
                                                 int]:
    """Ensemble worker: sum sampled states over one chunk of seeded runs.

    ``payload`` is ``(spec, seeds, t_final, n_samples, kwargs)`` where
    ``spec`` is a simulator constructor spec and ``seeds`` a sequence of
    per-run :class:`~numpy.random.SeedSequence`.  One simulator runs
    every seed (``simulate_ensemble``); returns the shared sample times,
    the chunk's state sum in seed order, and the total event count.
    """
    spec, seeds, t_final, n_samples, kwargs = payload
    simulator = spec["cls"](spec["network"], rates=spec["rates"],
                            volume=spec["volume"], **spec["extra"])
    result = simulator.simulate_ensemble(t_final, seeds=seeds,
                                         n_samples=n_samples, **kwargs)
    return result.times, result.summed_states(), int(result.events.sum())


def run_seeded(fn: Callable, payloads: Sequence,
               n_workers: int | None = None) -> list:
    """One-shot convenience wrapper around :class:`ParallelSweepRunner`."""
    return ParallelSweepRunner(n_workers).map(fn, payloads)
