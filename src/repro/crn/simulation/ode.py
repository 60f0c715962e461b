"""Deterministic mass-action ODE simulation.

This is the paper's own validation method: "We validate our designs through
ODE simulations of the mass-action chemical kinetics."  The default solver
is scipy's LSODA (the networks are stiff by construction: every design mixes
fast and slow rates separated by three orders of magnitude); an internal
Dormand-Prince integrator is available as an independent cross-check.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from time import perf_counter

import numpy as np
from scipy.integrate import odeint, solve_ivp

from repro.crn.kinetics import MassActionKinetics, build_kinetics
from repro.crn.network import Network
from repro.crn.rates import RateScheme
from repro.crn.simulation.result import Trajectory
from repro.crn.simulation.rk import integrate_rk45
from repro.errors import SimulationError
from repro.obs.metrics import ensure_metrics
from repro.obs.tracer import ensure_tracer

#: Solver methods accepted by :class:`OdeSimulator`.
METHODS = ("LSODA", "BDF", "Radau", "RK45", "internal-rk45")

#: Jacobian handling modes accepted by :class:`OdeSimulator`.
JACOBIAN_MODES = ("auto", "dense", "sparse", "sparsity", "none")

#: ``auto`` switches BDF/Radau to sparse Jacobian handling at this
#: species count (below it dense LU is cheaper than sparse bookkeeping).
_SPARSE_AUTO_THRESHOLD = 64


class OdeSimulator:
    """Deterministic simulator for one network under one rate resolution.

    Parameters
    ----------
    network:
        the reaction network.
    scheme:
        rate scheme resolving symbolic categories; defaults to the paper's
        ``fast=1000, slow=1``.
    rates:
        explicit per-reaction rate vector overriding ``scheme`` (used by the
        jittered-rate robustness experiments).
    method:
        one of :data:`METHODS`.
    jacobian:
        one of :data:`JACOBIAN_MODES`.  ``dense`` passes the analytic
        dense Jacobian; ``sparse`` passes a sparse-matrix-returning
        Jacobian (BDF/Radau then use sparse LU); ``sparsity`` passes only
        the nonzero pattern via ``jac_sparsity`` (finite-difference
        entries, sparse solves); ``none`` lets the solver finite-
        difference a dense Jacobian.  ``auto`` (default) picks
        ``sparsity`` for BDF/Radau on networks with at least 64 species
        and ``dense`` otherwise.  RK45 methods ignore the setting.
        ``auto`` deliberately avoids the analytic sparse callable: with
        identical Jacobian values, BDF's step control is sensitive to
        the sparse-LU backend on stiff compiled networks at loose
        tolerances (see ``tests/crn/test_ode.py``), while the
        pattern-only path keeps both the sparse solves and the dense
        path's step sequence robustness.
    tracer / metrics:
        optional :class:`~repro.obs.tracer.Tracer` /
        :class:`~repro.obs.metrics.MetricsRegistry`; each ``simulate``
        call then records a ``solver`` span and solver-effort counters
        (``ode.nfev``, ``ode.njev``, event firings, wall time) plus the
        ``ode.kinetics_compiled`` gauge (1 when the compiled kinetics
        kernel ran, 0 on the numpy fallback).  Both
        default to process-wide null singletons: the disabled path is a
        single attribute check.
    """

    def __init__(self, network: Network, scheme: RateScheme | None = None,
                 rates: np.ndarray | None = None, method: str = "LSODA",
                 rtol: float = 1e-7, atol: float = 1e-9,
                 jacobian: str = "auto", tracer=None, metrics=None):
        if method not in METHODS:
            raise SimulationError(f"unknown method {method!r}; "
                                  f"expected one of {METHODS}")
        if jacobian not in JACOBIAN_MODES:
            raise SimulationError(f"unknown jacobian mode {jacobian!r}; "
                                  f"expected one of {JACOBIAN_MODES}")
        network.validate()
        self.network = network
        self.scheme = scheme or RateScheme()
        self.kinetics: MassActionKinetics = build_kinetics(
            network, self.scheme, rates)
        self.method = method
        self.rtol = rtol
        self.atol = atol
        self.jacobian_mode = jacobian
        self.tracer = ensure_tracer(tracer)
        self.metrics = ensure_metrics(metrics)

    def _jacobian_options(self) -> dict:
        """`solve_ivp` keyword arguments implementing ``jacobian_mode``.

        Note scipy silently ignores ``jac_sparsity`` whenever a callable
        ``jac`` is supplied, so the modes are mutually exclusive here.
        """
        mode = self.jacobian_mode
        if mode == "none":
            return {}
        sparse_capable = self.method in ("BDF", "Radau")
        if mode == "auto":
            mode = ("sparsity" if sparse_capable
                    and self.network.n_species >= _SPARSE_AUTO_THRESHOLD
                    else "dense")
        if mode == "sparsity":
            if sparse_capable:
                return {"jac_sparsity": self.kinetics.jacobian_sparsity()}
            mode = "dense"  # LSODA has no jac_sparsity support
        if mode == "sparse" and sparse_capable:
            return {"jac": self.kinetics.jacobian_sparse}
        return {"jac": self.kinetics.jacobian}

    # -- single integration ----------------------------------------------------

    def simulate(self, t_final: float, *, t_start: float = 0.0,
                 initial: Mapping[str, float] | np.ndarray | None = None,
                 n_samples: int = 400,
                 events: Sequence | None = None,
                 event_hint: float | None = None) -> Trajectory:
        """Integrate from ``t_start`` to ``t_final``.

        ``initial`` may be a full state vector or a mapping of overrides on
        top of the network's declared initial quantities.  If a terminal
        event fires, the trajectory ends at the event time and
        ``trajectory.meta["event"]`` records which event index fired.

        ``event_hint`` is an optional estimate of the time-to-event.  The
        LSODA fast path (see :meth:`_simulate_lsoda`) integrates in chunks
        sized from the hint, so a good estimate (e.g. the previous cycle's
        segment duration) avoids integrating far past the event.
        """
        if t_final <= t_start:
            raise SimulationError("t_final must exceed t_start")
        x0 = self._initial_state(initial)
        t_eval = np.linspace(t_start, t_final, max(int(n_samples), 2))
        telemetry = self.tracer.enabled or self.metrics.enabled
        wall_start = perf_counter() if telemetry else 0.0

        if self.method == "LSODA" and (
                not events
                or (len(events) == 1
                    and getattr(events[0], "terminal", False)
                    and getattr(events[0], "direction", 0.0) != 0.0)):
            return self._simulate_lsoda(
                t_start, t_final, x0, t_eval,
                events[0] if events else None, event_hint,
                telemetry, wall_start)

        if self.method == "internal-rk45":
            if events:
                raise SimulationError(
                    "internal-rk45 does not support events")
            stats: dict | None = {} if telemetry else None
            times, states = integrate_rk45(
                self.kinetics.rhs, (t_start, t_final), x0,
                rtol=self.rtol, atol=self.atol, dense_times=t_eval,
                stats=stats)
            trajectory = Trajectory(times, states,
                                    self.network.species_names)
            if telemetry:
                self._record_call(trajectory, perf_counter() - wall_start,
                                  t_start, stats or {})
            return trajectory

        kwargs = {}
        if self.method in ("BDF", "Radau", "LSODA"):
            kwargs.update(self._jacobian_options())
        solution = solve_ivp(
            self.kinetics.rhs, (t_start, t_final), x0,
            method=self.method, t_eval=t_eval, events=events,
            rtol=self.rtol, atol=self.atol, **kwargs)
        if not solution.success and solution.status != 1:
            raise SimulationError(f"ODE solver failed: {solution.message}")

        times = solution.t
        states = np.maximum(solution.y.T, 0.0)
        meta: dict = {}
        if solution.status == 1 and events:
            # A terminal event fired: record which, append the event state
            # unless the solver already sampled that time (the last t_eval
            # point can coincide with the event to within float spacing).
            for index, (t_events, x_events) in enumerate(
                    zip(solution.t_events, solution.y_events)):
                if len(t_events):
                    t_event = float(t_events[-1])
                    meta["event"] = index
                    meta["event_time"] = t_event
                    if (times.size == 0
                            or abs(times[-1] - t_event)
                            > 1e-12 * max(1.0, abs(t_event))):
                        times = np.append(times, t_event)
                        states = np.vstack(
                            [states, np.maximum(x_events[-1], 0.0)])
                    break
        trajectory = Trajectory(times, states, self.network.species_names,
                                meta)
        if telemetry:
            self._record_call(
                trajectory, perf_counter() - wall_start, t_start,
                {"nfev": int(solution.nfev),
                 "njev": int(solution.njev or 0),
                 "nlu": int(solution.nlu or 0)})
        return trajectory

    # -- LSODA fast path ---------------------------------------------------------

    def _simulate_lsoda(self, t_start: float, t_final: float,
                        x0: np.ndarray, t_eval: np.ndarray, event,
                        event_hint: float | None, telemetry: bool,
                        wall_start: float) -> Trajectory:
        """Integrate with ``scipy.integrate.odeint`` (LSODA in Fortran).

        ``solve_ivp``'s LSODA wrapper steps through Python once per solver
        step -- for the machine's stiff cycle segments that per-step
        overhead, plus the event machinery evaluated on every step,
        dominates the wall time.  ``odeint`` hands the whole sample grid to
        the Fortran core in one call, so this path costs one Python call
        per *span* instead of per step.

        A single terminal directional event (the only kind the machine
        drivers use) is located by bracketing: integrate chunks sized from
        ``event_hint`` (doubling while nothing fires), watch the event
        function's sign on each chunk's sample grid, then shrink the
        bracketing interval with short re-integrations and interpolate the
        crossing.  The located time agrees with solve_ivp's root-finding
        to well below the solver tolerances.
        """
        stats = {"nfev": 0, "njev": 0}
        if event is None:
            states = self._odeint_span(x0, t_eval, stats)
            times, states, meta = t_eval, states, {}
        else:
            times, states, meta = self._locate_event(
                t_start, t_final, x0, t_eval, event, event_hint, stats)
        trajectory = Trajectory(times, np.maximum(states, 0.0),
                                self.network.species_names, meta)
        if telemetry:
            self._record_call(trajectory, perf_counter() - wall_start,
                              t_start, stats)
        return trajectory

    def _odeint_span(self, x0: np.ndarray, t_points: np.ndarray,
                     stats: dict) -> np.ndarray:
        """States at ``t_points`` (strictly increasing, ``t_points[0]`` is
        the initial time) integrating from ``x0``; accumulates solver
        effort into ``stats``."""
        jac = (self.kinetics.jacobian
               if self.jacobian_mode != "none" else None)
        states, info = odeint(
            self.kinetics.rhs, x0, t_points, Dfun=jac, tfirst=True,
            rtol=self.rtol, atol=self.atol, full_output=True,
            mxstep=5_000_000)
        if info["message"] != "Integration successful.":
            raise SimulationError(
                f"ODE solver failed: {info['message']}")
        stats["nfev"] += int(info["nfe"][-1])
        stats["njev"] += int(info["nje"][-1])
        return states

    @staticmethod
    def _first_crossing(g: np.ndarray, direction: float) -> int | None:
        """Index ``k`` of the first sample pair bracketing a crossing.

        Matches solve_ivp's semantics for directional events except that
        the *from* side must be strictly on the wrong side of zero, so an
        initial state sitting exactly on the event surface does not
        re-fire (the machine's boundary condition holds exactly at each
        fresh boundary).
        """
        if direction > 0:
            hits = np.nonzero((g[:-1] < 0.0) & (g[1:] >= 0.0))[0]
        else:
            hits = np.nonzero((g[:-1] > 0.0) & (g[1:] <= 0.0))[0]
        return int(hits[0]) if hits.size else None

    @staticmethod
    def _rows_for(pts: np.ndarray, states: np.ndarray,
                  targets: np.ndarray) -> np.ndarray:
        """Rows of ``states`` at the sample points nearest ``targets``."""
        idx = np.clip(pts.searchsorted(targets), 1, pts.size - 1)
        idx = np.where(np.abs(pts[idx - 1] - targets)
                       <= np.abs(pts[idx] - targets), idx - 1, idx)
        return states[idx]

    def _locate_event(self, t_start: float, t_final: float,
                      x0: np.ndarray, t_eval: np.ndarray, event,
                      event_hint: float | None, stats: dict
                      ) -> tuple[np.ndarray, np.ndarray, dict]:
        """Chunked integrate-and-bracket search for one terminal event."""
        direction = float(event.direction)
        span = t_final - t_start
        # The event function can hold the triggering sign only briefly
        # (the machine's boundary condition is satisfied for a fraction
        # of a phase), so the sign watch needs sampling much finer than
        # the window: 65 points per chunk, chunks starting well below the
        # span (the span is a stall timeout, not a dynamics scale) and
        # growing no further than 8x so the sample spacing stays bounded.
        chunk = min(span, 1.5 * event_hint) if event_hint else span / 256.0
        chunk_cap = min(span, 8.0 * chunk)
        tiny = 1e-12 * max(1.0, abs(t_final))
        kept_t: list[float] = [t_start]
        kept_x: list[np.ndarray] = [x0]
        a, xa = t_start, x0
        bracket = None
        while a < t_final - tiny:
            b = min(a + chunk, t_final)
            inside = t_eval[(t_eval > a + tiny) & (t_eval <= b + tiny)]
            pts = np.unique(np.concatenate(
                [inside, np.linspace(a, b, 65)]))
            pts = pts[np.concatenate([[True], np.diff(pts) > tiny])]
            states = self._odeint_span(xa, pts, stats)
            g = np.array([event(float(t), x)
                          for t, x in zip(pts, states)])
            k = self._first_crossing(g, direction)
            grid_rows = self._rows_for(pts, states, inside)
            if k is None:
                kept_t.extend(inside.tolist())
                kept_x.extend(grid_rows)
                a, xa = float(pts[-1]), states[-1]
                chunk = min(2.0 * chunk, chunk_cap)
                continue
            bracket = (float(pts[k]), float(pts[k + 1]),
                       states[k], float(g[k]), float(g[k + 1]))
            keep = inside <= bracket[0] + tiny
            kept_t.extend(inside[keep].tolist())
            kept_x.extend(grid_rows[keep])
            break
        if bracket is None:
            return (np.array(kept_t), np.vstack(kept_x), {})

        ta, tb, ya, ga, gb = bracket
        for _ in range(3):
            if tb - ta <= 64.0 * tiny:
                break
            sub = np.linspace(ta, tb, 13)
            states = self._odeint_span(ya, sub, stats)
            g = np.array([event(float(t), x)
                          for t, x in zip(sub, states)])
            g[0] = ga  # re-evaluation at ta can differ by rounding
            k = self._first_crossing(g, direction)
            if k is None:
                break
            ta, tb = float(sub[k]), float(sub[k + 1])
            ya, ga, gb = states[k], float(g[k]), float(g[k + 1])
        fraction = 1.0 if gb == ga else ga / (ga - gb)
        t_event = ta + (tb - ta) * min(max(fraction, 0.0), 1.0)
        if t_event - ta <= tiny:
            x_event = ya
        else:
            x_event = self._odeint_span(
                ya, np.array([ta, t_event]), stats)[-1]
        meta = {"event": 0, "event_time": t_event}
        if abs(kept_t[-1] - t_event) > 1e-12 * max(1.0, abs(t_event)):
            kept_t.append(t_event)
            kept_x.append(x_event)
        return np.array(kept_t), np.vstack(kept_x), meta

    def _record_call(self, trajectory: Trajectory, wall: float,
                     t_start: float, stats: dict) -> None:
        """Solver-effort bookkeeping for one completed ``simulate``."""
        nfev = int(stats.get("nfev", 0))
        njev = int(stats.get("njev", 0))
        event_fired = "event" in trajectory.meta
        backend = self.kinetics.backend
        metrics = self.metrics
        if metrics.enabled:
            metrics.inc("ode.calls")
            metrics.set_gauge("ode.kinetics_compiled",
                              float(backend == "compiled"))
            metrics.inc("ode.nfev", nfev)
            metrics.inc("ode.njev", njev)
            metrics.inc("ode.nlu", stats.get("nlu", 0))
            if "accepted" in stats:
                metrics.inc("ode.steps_accepted", stats["accepted"])
                metrics.inc("ode.steps_rejected",
                            stats.get("rejected", 0))
            if event_fired:
                metrics.inc("ode.events")
            # LSODA switches to its stiff (BDF) mode before it ever asks
            # for a Jacobian, so njev > 0 is the observable proxy for a
            # stiff-fallback activation.
            if self.method == "LSODA" and njev:
                metrics.inc("ode.stiff_activations")
            metrics.observe("ode.wall_seconds", wall)
        if self.tracer.enabled:
            args = {"nfev": nfev, "wall": round(wall, 6),
                    "kinetics": backend}
            if njev:
                args["njev"] = njev
            if stats.get("nlu"):
                args["nlu"] = int(stats["nlu"])
            if "accepted" in stats:
                args["accepted"] = int(stats["accepted"])
                args["rejected"] = int(stats.get("rejected", 0))
            if event_fired:
                args["event"] = trajectory.meta["event"]
            self.tracer.emit_span(f"solve:{self.method}", "solver",
                                  t_start, trajectory.t_final, args)

    def steady_state(self, t_final: float = 1e4,
                     initial: Mapping[str, float] | None = None,
                     settle_tol: float = 1e-8) -> dict[str, float]:
        """Integrate long and return the (approximately) settled state.

        Raises :class:`SimulationError` if the state is still moving faster
        than ``settle_tol`` (relative) at ``t_final``.
        """
        trajectory = self.simulate(t_final, initial=initial, n_samples=50)
        x = trajectory.states[-1]
        rhs = self.kinetics.rhs(trajectory.t_final, x)
        scale = np.maximum(np.abs(x), 1.0)
        if np.max(np.abs(rhs) / scale) > settle_tol:
            raise SimulationError(
                f"state not settled at t={t_final:g}: max relative rate "
                f"{np.max(np.abs(rhs) / scale):.2e}")
        return trajectory.final_state()

    # -- helpers ----------------------------------------------------------------

    def _initial_state(self, initial) -> np.ndarray:
        if initial is None:
            return self.network.initial_vector()
        if isinstance(initial, Mapping):
            return self.network.initial_vector(initial)
        x0 = np.asarray(initial, dtype=float)
        if x0.shape != (self.network.n_species,):
            raise SimulationError(
                f"initial state has shape {x0.shape}, expected "
                f"({self.network.n_species},)")
        return x0.copy()


#: Keyword arguments accepted by the legacy :func:`simulate` helper:
#: constructor options plus per-call :meth:`OdeSimulator.simulate` ones.
_SIMULATE_KWARGS = frozenset({
    "method", "rtol", "atol", "rates", "jacobian", "tracer", "metrics",
    "t_start", "initial", "n_samples", "events", "event_hint",
})


def simulate(network: Network, t_final: float,
             scheme: RateScheme | None = None, **kwargs) -> Trajectory:
    """One-shot convenience wrapper around :class:`OdeSimulator`.

    Prefer the engine-agnostic :func:`repro.simulate` facade.  Unknown
    keyword arguments raise :class:`TypeError` -- this helper used to
    silently accept misspelled options via ``kwargs.pop`` defaults.
    """
    unknown = set(kwargs) - _SIMULATE_KWARGS
    if unknown:
        raise TypeError(
            f"simulate() got unknown option(s): {sorted(unknown)}; "
            f"valid options are {sorted(_SIMULATE_KWARGS)}")
    simulator = OdeSimulator(
        network, scheme, rates=kwargs.pop("rates", None),
        method=kwargs.pop("method", "LSODA"),
        rtol=kwargs.pop("rtol", 1e-7), atol=kwargs.pop("atol", 1e-9),
        jacobian=kwargs.pop("jacobian", "auto"),
        tracer=kwargs.pop("tracer", None),
        metrics=kwargs.pop("metrics", None))
    return simulator.simulate(t_final, **kwargs)
