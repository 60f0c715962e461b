"""Approximate stochastic simulation by tau-leaping.

Explicit tau-leaping with the Cao-Gillespie-Petzold step selection and
rejection of leaps that would drive any count negative (fall back to exact
SSA steps when propensities are tiny or a leap is rejected repeatedly).
Used by the scaling benchmark to simulate large-count designs much faster
than exact SSA while keeping discrete semantics.

The exact-SSA fallback shares the incremental propensity state and the
cumulative-sum selection draw with :class:`StochasticSimulator`, and it
fills the sample grid *inside* each burst, so recorded samples reflect
the state that actually held at each sample time (previously the caller
back-filled the whole burst with the end-of-burst counts).
"""

from __future__ import annotations

from collections.abc import Mapping
from time import perf_counter

import numpy as np

from repro.crn.network import Network
from repro.crn.rates import RateScheme
from repro.crn.simulation.result import Trajectory
from repro.crn.simulation.sampling import select_reaction
from repro.crn.simulation.ssa import IncrementalPropensities, \
    StochasticSimulator
from repro.errors import SimulationError


class TauLeapingSimulator(StochasticSimulator):
    """Tau-leaping variant of :class:`StochasticSimulator`.

    Ensembles run through the inherited
    :meth:`~StochasticSimulator.simulate_ensemble`, one simulator with
    its generator swapped per seed.  The exact-SSA fallback bursts share
    :class:`IncrementalPropensities` with the SSA engine, so they
    inherit its clamped, periodically-rebuilt propensity updates.
    """

    _batch_kind = "tau"

    def __init__(self, network: Network, scheme: RateScheme | None = None,
                 epsilon: float = 0.03, n_critical: int = 10, **kwargs):
        super().__init__(network, scheme, **kwargs)
        if not 0 < epsilon < 1:
            raise SimulationError("epsilon must be in (0, 1)")
        self.epsilon = epsilon
        self.n_critical = n_critical

    def _clone_spec(self) -> dict:
        spec = super()._clone_spec()
        spec["extra"] = {"epsilon": self.epsilon,
                         "n_critical": self.n_critical}
        return spec

    def simulate(self, t_final: float, *, t_start: float = 0.0,
                 initial: Mapping[str, float] | np.ndarray | None = None,
                 n_samples: int = 200,
                 max_events: int = 5_000_000) -> Trajectory:
        """Run one tau-leaping realisation on a uniform grid.

        ``max_events`` bounds the number of solver steps (leaps plus
        exact-SSA fallback bursts), mirroring the SSA engine's event
        budget.
        """
        if t_final <= t_start:
            raise SimulationError("t_final must exceed t_start")
        state: IncrementalPropensities = self.propensity_state
        state.reset(self._initial_counts(initial))
        sample_times = np.linspace(t_start, t_final,
                                   max(int(n_samples), 2))
        samples = np.empty((sample_times.size, state.counts.size),
                           dtype=float)
        samples[0] = state.counts
        next_sample = 1
        telemetry = self.tracer.enabled or self.metrics.enabled
        wall_start = perf_counter() if telemetry else 0.0

        t = t_start
        steps = 0
        leaps = 0
        rejected = 0
        fallbacks = 0
        while t < t_final:
            steps += 1
            if steps > max_events:
                raise SimulationError(
                    f"tau-leaping exceeded {max_events} steps at t={t:g}")
            total = float(state.a.sum())
            if total <= 0.0:
                break
            tau = self._select_tau(state.counts, state.a)
            if tau < 10.0 / total:
                # Leap would be smaller than a few exact steps: do SSA.
                fallbacks += 1
                t, next_sample = self._ssa_steps(
                    state, t, n_steps=100, t_final=t_final,
                    sample_times=sample_times, samples=samples,
                    next_sample=next_sample)
            else:
                tau = min(tau, t_final - t)
                firings = self.rng.poisson(state.a * tau)
                delta = self.stoich.T @ firings
                if np.any(state.counts + delta < 0):
                    # Halve tau until non-negative (bounded retries).
                    ok = False
                    for _ in range(8):
                        tau /= 2.0
                        rejected += 1
                        firings = self.rng.poisson(state.a * tau)
                        delta = self.stoich.T @ firings
                        if np.all(state.counts + delta >= 0):
                            ok = True
                            break
                    if not ok:
                        fallbacks += 1
                        t, next_sample = self._ssa_steps(
                            state, t, n_steps=100, t_final=t_final,
                            sample_times=sample_times, samples=samples,
                            next_sample=next_sample)
                        continue
                state.reset(state.counts + delta)
                t += tau
                leaps += 1
            while (next_sample < sample_times.size
                   and sample_times[next_sample] <= t):
                samples[next_sample] = state.counts
                next_sample += 1
        samples[next_sample:] = state.counts
        if telemetry:
            self._record_batch(
                "tau", t_final, steps, perf_counter() - wall_start,
                extra={"leaps": leaps, "rejected_leaps": rejected,
                       "ssa_fallbacks": fallbacks})
        return Trajectory(sample_times, samples, self.network.species_names,
                          {"steps": steps})

    # -- internals -------------------------------------------------------------

    def _select_tau(self, counts: np.ndarray,
                    propensities: np.ndarray) -> float:
        """Cao et al. (2006) tau selection bounding relative change."""
        mu = self.stoich.T @ propensities                    # drift per species
        sigma2 = (self.stoich ** 2).T @ propensities         # variance rate
        g = 2.0  # conservative highest-order factor
        bound = np.maximum(self.epsilon * counts / g, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            tau_mu = np.where(mu != 0, bound / np.abs(mu), np.inf)
            tau_sigma = np.where(sigma2 > 0, bound ** 2 / sigma2, np.inf)
        return float(min(tau_mu.min(initial=np.inf),
                         tau_sigma.min(initial=np.inf)))

    def _ssa_steps(self, state: IncrementalPropensities, t: float,
                   n_steps: int, t_final: float,
                   sample_times: np.ndarray, samples: np.ndarray,
                   next_sample: int) -> tuple[float, int]:
        """Advance by up to ``n_steps`` exact SSA events.

        Sample-grid points crossed during the burst are recorded with the
        pre-event counts that held at each sample time.
        """
        rng = self.rng
        a = state.a
        n_times = sample_times.size
        for _ in range(n_steps):
            if t >= t_final:
                break
            cumulative = a.cumsum()
            total = cumulative[-1]
            if total <= 0.0:
                break
            t += rng.exponential(1.0 / total)
            if t >= t_final:
                break
            while (next_sample < n_times
                   and sample_times[next_sample] <= t):
                samples[next_sample] = state.counts
                next_sample += 1
            j = select_reaction(a, rng.random(),
                                cumulative=cumulative, total=total)
            state.fire(j)
        return t, next_sample
