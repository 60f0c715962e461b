"""Simulation engines for chemical reaction networks.

Three engines share one :class:`Trajectory` result type: the
deterministic mass-action ODE solver (:class:`OdeSimulator`), exact
Gillespie SSA (:class:`StochasticSimulator`) and approximate tau-leaping
(:class:`TauLeapingSimulator`).  The supported entry point is the
:func:`simulate` facade below, which dispatches on an engine name
(``"ode"``, ``"ssa"``, ``"tau"``) and a single
:class:`SimulationOptions` bag, so callers never plumb engine-specific
keyword arguments.  The engine classes remain public for callers that
need to reuse a compiled simulator across many calls (the machine
drivers do).

Ensembles
---------
Many seeded runs of one network go through
:meth:`StochasticSimulator.simulate_ensemble` (inherited by
tau-leaping): one simulator, its generator swapped per seed, so each
trial is the realisation a fresh simulator on that seed would give.
:meth:`StochasticSimulator.mean_trajectory` chunks it over a
:class:`ParallelSweepRunner`.  :attr:`SimulationOptions.backend` is
validated but selects nothing: ``"reference"`` and ``"batch"`` run the
same engines.
"""

from __future__ import annotations

from repro.crn.simulation.events import (species_above, species_below,
                                         total_above, total_below)
from repro.crn.simulation.ode import JACOBIAN_MODES, METHODS, OdeSimulator
from repro.crn.simulation.options import (BACKENDS, ENGINES,
                                          SimulationOptions)
from repro.crn.simulation.result import (EnsembleResult, SimulationResult,
                                         Trajectory)
from repro.crn.simulation.rk import integrate_rk45
from repro.crn.simulation.sampling import (cumulative_propensities,
                                           select_reaction)
from repro.crn.simulation.ssa import (IncrementalPropensities,
                                      StochasticSimulator)
from repro.crn.simulation.sweep import ParallelSweepRunner, run_seeded
from repro.crn.simulation.tau_leaping import TauLeapingSimulator
from repro.errors import SimulationError


def _resolve_engine(method: str) -> tuple[str, str | None]:
    """``(engine, ode_solver_override)`` for a facade ``method`` value.

    ``method`` names an *engine* (one of :data:`ENGINES`); the ODE
    solver belongs in :attr:`SimulationOptions.solver`.  Passing a
    solver name here (the pre-facade spelling, removed after two
    releases of deprecation warnings) gets a targeted migration hint.
    """
    if method in ENGINES:
        return method, None
    if method in METHODS:
        raise SimulationError(
            f"simulate(method={method!r}) was removed; use "
            f"method='ode' with SimulationOptions(solver={method!r})")
    raise SimulationError(
        f"unknown simulation method {method!r}; expected one of "
        f"{ENGINES}")


def _dispatch(engine: str, network, t_final: float, scheme,
              opts: SimulationOptions) -> Trajectory:
    """Build the engine's simulator and run it once."""
    if engine == "ode":
        simulator = OdeSimulator(
            network, scheme, rates=opts.rates, method=opts.solver,
            rtol=opts.rtol, atol=opts.atol, jacobian=opts.jacobian,
            tracer=opts.tracer, metrics=opts.metrics)
        return simulator.simulate(
            t_final, t_start=opts.t_start, initial=opts.initial,
            n_samples=opts.n_samples if opts.n_samples is not None else 400,
            events=opts.events, event_hint=opts.event_hint)
    n_samples = opts.n_samples if opts.n_samples is not None else 200
    kwargs = {}
    if opts.max_events is not None:
        kwargs["max_events"] = opts.max_events
    if engine == "ssa":
        simulator = StochasticSimulator(
            network, scheme, rates=opts.rates, volume=opts.volume,
            seed=opts.seed, tracer=opts.tracer, metrics=opts.metrics)
    else:
        simulator = TauLeapingSimulator(
            network, scheme, rates=opts.rates, volume=opts.volume,
            seed=opts.seed, epsilon=opts.epsilon,
            n_critical=opts.n_critical, tracer=opts.tracer,
            metrics=opts.metrics)
    return simulator.simulate(
        t_final, t_start=opts.t_start, initial=opts.initial,
        n_samples=n_samples, **kwargs)


def simulate(network, t_final: float, method: str = "ode", *,
             scheme=None, options: SimulationOptions | None = None,
             **overrides) -> Trajectory:
    """Unified simulation facade (the supported entry point).

    Parameters
    ----------
    network:
        the :class:`~repro.crn.network.Network` to simulate.
    t_final:
        end of the integration span.
    method:
        ``"ode"`` (deterministic mass-action), ``"ssa"`` (exact
        Gillespie) or ``"tau"`` (tau-leaping).
    scheme:
        :class:`~repro.crn.rates.RateScheme` resolving symbolic rate
        categories; defaults to the paper's ``fast=1000, slow=1``.
    options:
        a :class:`SimulationOptions` bag; defaults to
        ``SimulationOptions()``.
    **overrides:
        individual option fields overriding ``options`` (convenience
        for one-off calls); unknown names raise :class:`TypeError`.

    Returns a :class:`Trajectory` whatever the engine, so downstream
    scoring code is engine-agnostic (see :class:`SimulationResult`).
    """
    engine, solver = _resolve_engine(method)
    opts = options if options is not None else SimulationOptions()
    if overrides:
        opts = opts.replace(**overrides)
    if solver is not None:
        opts = opts.replace(solver=solver)
    if opts.events and engine != "ode":
        raise SimulationError(
            "event detection is only supported by the ODE engine; "
            "got events with method=" + repr(engine))
    if opts.backend not in BACKENDS:
        raise SimulationError(
            f"unknown simulation backend {opts.backend!r}; expected one "
            f"of {BACKENDS}")
    return _dispatch(engine, network, t_final, scheme, opts)


__all__ = [
    "BACKENDS",
    "ENGINES",
    "EnsembleResult",
    "IncrementalPropensities",
    "JACOBIAN_MODES",
    "METHODS",
    "OdeSimulator",
    "ParallelSweepRunner",
    "SimulationOptions",
    "SimulationResult",
    "StochasticSimulator",
    "TauLeapingSimulator",
    "Trajectory",
    "cumulative_propensities",
    "integrate_rk45",
    "run_seeded",
    "select_reaction",
    "simulate",
    "species_above",
    "species_below",
    "total_above",
    "total_below",
]
