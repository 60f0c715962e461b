"""Result containers: one :class:`Trajectory` per run, and the
:class:`EnsembleResult` of many seeded runs of one simulator."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Protocol, runtime_checkable

import numpy as np

from repro.errors import SimulationError

#: Runs per ensemble chunk.  The chunk structure (not the worker count)
#: fixes the floating-point summation order, so serial and parallel
#: ensemble means are bitwise identical for the same seed.
ENSEMBLE_CHUNK_RUNS = 8


@runtime_checkable
class SimulationResult(Protocol):
    """What every engine's result guarantees to campaign scoring code.

    ODE, SSA and tau-leaping all return :class:`Trajectory`, but
    engine-agnostic consumers (the fault-injection campaigns, the
    reporting helpers) should depend only on this protocol: sample
    ``times``, a ``(len(times), n_species)`` ``states`` array, species
    ``names``, name-to-column resolution via :meth:`species_index`, and
    the :meth:`final_state` readout.
    """

    @property
    def times(self) -> np.ndarray: ...  # noqa: E704 (protocol stub)

    @property
    def states(self) -> np.ndarray: ...  # noqa: E704

    @property
    def names(self) -> list[str]: ...  # noqa: E704

    def species_index(self, name: str) -> int: ...  # noqa: E704

    def final_state(self) -> dict[str, float]: ...  # noqa: E704


class Trajectory:
    """Time series of species quantities.

    Attributes
    ----------
    times:
        1-D array of sample times, strictly non-decreasing.
    states:
        2-D array ``(len(times), n_species)``.
    names:
        species names aligned with the state columns.
    """

    def __init__(self, times: np.ndarray, states: np.ndarray,
                 names: Sequence[str], meta: dict | None = None):
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states, dtype=float)
        self.names = list(names)
        self.meta = dict(meta or {})
        if self.states.ndim != 2:
            raise SimulationError("states must be 2-D")
        if self.states.shape != (self.times.size, len(self.names)):
            raise SimulationError(
                f"shape mismatch: times {self.times.shape}, states "
                f"{self.states.shape}, {len(self.names)} names")
        self._index = {name: i for i, name in enumerate(self.names)}

    # -- access ---------------------------------------------------------------

    def __len__(self) -> int:
        return self.times.size

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def species_index(self, name: str) -> int:
        """Column index of one species (shared result protocol)."""
        try:
            return self._index[name]
        except KeyError:
            raise SimulationError(f"trajectory has no species {name!r}") from None

    def column(self, name: str) -> np.ndarray:
        """Full time series for one species."""
        try:
            return self.states[:, self._index[name]]
        except KeyError:
            raise SimulationError(f"trajectory has no species {name!r}") from None

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name)

    def final(self, name: str | None = None):
        """Final quantity of one species, or the full final state vector."""
        if self.times.size == 0:
            raise SimulationError("empty trajectory has no final state")
        if name is None:
            return self.states[-1].copy()
        return float(self.column(name)[-1])

    def final_state(self) -> dict[str, float]:
        if self.times.size == 0:
            raise SimulationError("empty trajectory has no final state")
        return {name: float(v) for name, v in zip(self.names, self.states[-1])}

    def _check_horizon(self, t_min: float, t_max: float, what: str,
                       clamp: bool) -> None:
        """Reject reads outside the simulated span ``[times[0], t_final]``.

        ``np.interp`` silently clamps to the endpoint values, which used
        to turn a readout schedule outrunning the horizon into plausible
        -- and wrong -- numbers.  A small relative tolerance absorbs
        float fuzz from stitched cycle boundaries; ``clamp=True`` is the
        explicit opt-in for endpoint extension.
        """
        if self.times.size == 0:
            raise SimulationError(f"cannot read {what} of an empty "
                                  f"trajectory")
        if clamp:
            return
        lo, hi = float(self.times[0]), float(self.times[-1])
        slack = 1e-9 * max(1.0, abs(lo), abs(hi))
        if t_min < lo - slack or t_max > hi + slack:
            raise SimulationError(
                f"{what} at t in [{t_min:g}, {t_max:g}] is outside the "
                f"simulated horizon [{lo:g}, {hi:g}]; simulate further "
                f"or pass clamp=True to extend the endpoint values")

    def at(self, t: float, name: str, *, clamp: bool = False) -> float:
        """Linearly interpolated quantity of ``name`` at time ``t``.

        ``t`` must lie within the simulated horizon; reads outside it
        raise :class:`SimulationError` unless ``clamp=True`` explicitly
        requests endpoint extension.
        """
        series = self.column(name)
        self._check_horizon(t, t, f"at({t:g})", clamp)
        return float(np.interp(t, self.times, series))

    def total(self, names: Iterable[str]) -> np.ndarray:
        """Summed time series over a group of species."""
        result = np.zeros_like(self.times)
        for name in names:
            result = result + self.column(name)
        return result

    @property
    def t_final(self) -> float:
        if self.times.size == 0:
            raise SimulationError("empty trajectory has no t_final")
        return float(self.times[-1])

    # -- composition ----------------------------------------------------------

    def concat(self, other: "Trajectory") -> "Trajectory":
        """Append a continuation trajectory (same species set).

        Used by the cycle driver, which integrates phase by phase and
        stitches the pieces together.  A duplicated boundary sample is
        dropped; the tolerance is relative to the boundary time, since
        float spacing at t >> 1 exceeds any fixed absolute cutoff.
        """
        if self.names != other.names:
            raise SimulationError("cannot concat trajectories with "
                                  "different species")
        times = other.times
        states = other.states
        if times.size and self.times.size:
            boundary = self.times[-1]
            if times[0] <= boundary + 1e-12 * max(1.0, abs(boundary)):
                times = times[1:]
                states = states[1:]
        return Trajectory(np.concatenate([self.times, times]),
                          np.vstack([self.states, states]),
                          self.names, {**self.meta, **other.meta})

    def _interp_row(self, t: float) -> np.ndarray:
        """Linearly interpolated full state row at time ``t``."""
        row = np.empty(len(self.names))
        for i in range(len(self.names)):
            row[i] = np.interp(t, self.times, self.states[:, i])
        return row

    def window(self, t0: float, t1: float) -> "Trajectory":
        """Sub-trajectory over ``[t0, t1]`` with interpolated boundaries.

        The boundary samples are linearly interpolated (exact when they
        coincide with existing samples), so the result is never empty: a
        window falling entirely between two samples yields its two
        interpolated endpoints instead of an empty trajectory whose
        ``t_final`` used to crash with a raw ``IndexError``.  The window
        must overlap the simulated span; a disjoint window raises
        :class:`SimulationError`.
        """
        if t1 < t0:
            raise SimulationError(f"window bounds are reversed: "
                                  f"[{t0:g}, {t1:g}]")
        if self.times.size == 0:
            raise SimulationError("cannot window an empty trajectory")
        lo = max(t0, float(self.times[0]))
        hi = min(t1, float(self.times[-1]))
        if lo > hi:
            raise SimulationError(
                f"window [{t0:g}, {t1:g}] does not overlap the "
                f"simulated horizon [{self.times[0]:g}, "
                f"{self.times[-1]:g}]")
        inner = (self.times > lo) & (self.times < hi)
        rows = [self._interp_row(lo)]
        times = [lo]
        if np.any(inner):
            times.extend(self.times[inner].tolist())
            rows.extend(self.states[inner])
        if hi > lo:
            times.append(hi)
            rows.append(self._interp_row(hi))
        return Trajectory(np.asarray(times), np.vstack(rows), self.names,
                          self.meta)

    def resampled(self, times: np.ndarray, *,
                  clamp: bool = False) -> "Trajectory":
        """Linear-interpolation resample onto new time points.

        Every requested time must lie within the simulated horizon
        (raise instead of silently clamping past it); ``clamp=True``
        explicitly opts into endpoint extension.
        """
        times = np.asarray(times, dtype=float)
        if times.size:
            self._check_horizon(float(times.min()), float(times.max()),
                                "resampled()", clamp)
        states = np.empty((times.size, len(self.names)))
        for i in range(len(self.names)):
            states[:, i] = np.interp(times, self.times, self.states[:, i])
        return Trajectory(times, states, self.names, self.meta)

    # -- export ---------------------------------------------------------------

    def to_csv(self, path, species: Sequence[str] | None = None) -> None:
        names = list(species) if species else self.names
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("time," + ",".join(names) + "\n")
            columns = [self.column(n) for n in names]
            for i, t in enumerate(self.times):
                row = ",".join(f"{col[i]:.8g}" for col in columns)
                handle.write(f"{t:.8g},{row}\n")

    def __repr__(self) -> str:
        return (f"<Trajectory {len(self)} samples, {len(self.names)} species, "
                f"t in [{self.times[0] if len(self) else 0:g}, "
                f"{self.t_final if len(self) else 0:g}]>")


class EnsembleResult:
    """Sampled trajectories of one seeded ensemble on a shared grid.

    Attributes
    ----------
    times:
        shared sample grid, shape ``(n_times,)``.
    states:
        sampled counts, shape ``(trials, n_times, species)``.
    names:
        species names aligned with the last axis.
    events:
        per-trial event counts (solver steps for tau-leaping), shape
        ``(trials,)``.
    """

    def __init__(self, times: np.ndarray, states: np.ndarray,
                 names: Sequence[str], events: np.ndarray,
                 meta: dict | None = None):
        self.times = times
        self.states = states
        self.names = list(names)
        self.events = events
        self.meta = dict(meta or {})

    def __len__(self) -> int:
        return self.states.shape[0]

    def trial(self, i: int) -> Trajectory:
        """Trial ``i`` as a :class:`Trajectory`."""
        return Trajectory(self.times, self.states[i], self.names,
                          {"events": int(self.events[i])})

    def summed_states(self, start: int = 0,
                      stop: int | None = None) -> np.ndarray:
        """Sum of ``states[start:stop]``, left-associated in trial order.

        This is the per-chunk accumulation of the ensemble worker, so
        chunk partials built from it are bitwise identical to summing
        the individual runs one by one.
        """
        stop = len(self) if stop is None else stop
        acc = self.states[start].copy()
        for i in range(start + 1, stop):
            acc += self.states[i]
        return acc

    def mean(self, chunk_runs: int = ENSEMBLE_CHUNK_RUNS) -> Trajectory:
        """Ensemble-mean trajectory with the chunked reduction order.

        Trials are summed in chunks of ``chunk_runs`` and the chunk
        partials combined left to right, the summation tree of
        ``StochasticSimulator.mean_trajectory``, so on the same seeds
        the two means are bitwise equal.
        """
        n = len(self)
        acc = self.summed_states(0, min(chunk_runs, n))
        for i in range(chunk_runs, n, chunk_runs):
            acc += self.summed_states(i, min(i + chunk_runs, n))
        return Trajectory(self.times, acc / n, self.names,
                          {"n_runs": n, "events": int(self.events.sum())})
