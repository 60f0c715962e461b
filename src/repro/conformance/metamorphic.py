"""Metamorphic invariants applied to any simulation engine.

Each check simulates a network twice -- once plainly, once through a
transformation with a known algebraic consequence -- and fails loudly
when the consequence does not hold:

``meta.permutation``
    Permuting the species registration order permutes state columns and
    nothing else.  Exact for the stochastic engines on matched seeds
    (the reaction order, and with it the draw sequence, is untouched);
    solver-tolerance for the ODE engine.
``meta.rate-rescale``
    Scaling every rate constant by ``L`` compresses time by ``L``:
    ``x'(t) = x(L t)``.  ``L`` is a power of two, so for the stochastic
    engines the rescaling commutes with float rounding and the check is
    bitwise on matched seeds.
``meta.t-shift``
    Mass-action dynamics are time-homogeneous: integrating over
    ``[D, D+T]`` relabels the grid of ``[0, T]``.  Grid-boundary
    rounding can reassign individual samples in the stochastic engines,
    so those allow a small mismatched-row fraction; a wholesale
    ``t_start`` mishandling still fails by a mile.
``meta.conservation``
    Every left-null-space vector of the stoichiometry matrix (the same
    machinery the lint conservation rule uses) is constant along any
    trajectory, whatever the engine.
``meta.duplicate-merge``
    Splitting one reaction into two copies at half the rate constant is
    kinetically invisible to the deterministic engine.
``traj.roundtrip`` / ``traj.horizon`` / ``traj.window`` /
``sampling.guard``
    Contract checks on the shared :class:`Trajectory` container and the
    shared selection draw: ``resampled`` is idempotent on its own grid,
    ``window``-split ``concat`` reassembles the original, reads outside
    the simulated horizon must raise (never silently clamp), a window
    falling between two samples interpolates its boundaries instead of
    crashing, and the all-zero-propensity selection draw must raise
    instead of silently firing the last reaction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crn.network import Network
from repro.crn.rates import RateScheme
from repro.crn.simulation import SimulationOptions, simulate
from repro.crn.simulation.result import Trajectory
from repro.crn.simulation.sampling import select_reaction
from repro.errors import ReproError, SimulationError

#: Power-of-two rate-rescaling factor: scaling by it is exact in
#: floating point, so the stochastic engines must match bitwise.
RESCALE_FACTOR = 4.0

#: Power-of-two ``t_start`` shift used by ``meta.t-shift``.
SHIFT = 8.0

#: Sample-grid size for metamorphic runs (a 2^k + 1 grid over a dyadic
#: span keeps every sample time exactly representable).
N_SAMPLES = 33

#: Acceptance for solver-tolerance (ODE) comparisons: well above
#: LSODA's accumulated error at the default tolerances, far below any
#: indexing or unit mistake.
ODE_RTOL = 1e-3
ODE_ATOL = 1e-6

#: Mismatched-row allowance for stochastic grid-relabeling checks.
SHIFT_ROW_TOLERANCE = 0.05


@dataclass(frozen=True)
class EngineSpec:
    """One engine configuration under conformance test.

    ``exact`` marks engines whose metamorphic comparisons must be
    bitwise (stochastic engines on matched seeds); the rest are compared
    at solver tolerance.
    """

    name: str
    method: str
    solver: str = "LSODA"
    exact: bool = False

    def run(self, network: Network, t_final: float,
            scheme: RateScheme | None, *, seed: int | None = None,
            rates: np.ndarray | None = None, t_start: float = 0.0,
            n_samples: int = N_SAMPLES, rtol: float = 1e-7,
            atol: float = 1e-9, max_events: int | None = 4_000_000
            ) -> Trajectory:
        options = SimulationOptions(
            solver=self.solver, seed=seed, rates=rates, t_start=t_start,
            n_samples=n_samples, rtol=rtol, atol=atol,
            max_events=max_events)
        return simulate(network, t_final, self.method, scheme=scheme,
                        options=options)


ENGINE_SPECS: dict[str, EngineSpec] = {
    "ode": EngineSpec("ode", "ode", solver="LSODA"),
    "ode-bdf": EngineSpec("ode-bdf", "ode", solver="BDF"),
    "rk45": EngineSpec("rk45", "ode", solver="internal-rk45"),
    "ssa": EngineSpec("ssa", "ssa", exact=True),
    "tau": EngineSpec("tau", "tau", exact=True),
}


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one (check, target, engine) cell."""

    check: str
    target: str
    engine: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "fail"

    def to_dict(self) -> dict:
        return {"check": self.check, "target": self.target,
                "engine": self.engine, "status": self.status,
                "detail": self.detail}


def _result(check: str, target: str, engine: str,
            detail: str | None) -> CheckResult:
    status = "pass" if detail is None else "fail"
    return CheckResult(check, target, engine, status, detail or "")


def _guarded(check: str, target: str, engine: str, fn) -> CheckResult:
    """Run a check body, folding engine blow-ups into failures.

    An unexpected exception *is* a conformance failure (the engines
    must at minimum complete on lint-clean generated networks), but a
    deliberate ``skip`` sentinel passes through.
    """
    try:
        return _result(check, target, engine, fn())
    except _Skip as skip:
        return CheckResult(check, target, engine, "skip", str(skip))
    except ReproError as exc:
        return _result(check, target, engine,
                       f"engine raised {type(exc).__name__}: {exc}")
    except Exception as exc:  # noqa: BLE001 -- any crash is a finding
        return _result(check, target, engine,
                       f"unexpected {type(exc).__name__}: {exc}")


class _Skip(Exception):
    """Raised inside a check body to mark the cell as skipped."""


def compare_states(a: np.ndarray, b: np.ndarray, *, exact: bool,
                   max_mismatch_fraction: float = 0.0) -> str | None:
    """Compare two aligned state arrays; ``None`` when they agree."""
    if a.shape != b.shape:
        return f"shape mismatch: {a.shape} vs {b.shape}"
    if exact:
        rows = int(np.sum(np.any(a != b, axis=1)))
        allowed = int(max_mismatch_fraction * a.shape[0])
        if rows > allowed:
            return (f"{rows}/{a.shape[0]} sample rows differ "
                    f"(allowed {allowed})")
        return None
    scale = max(1.0, float(np.max(np.abs(a))))
    deviation = float(np.max(np.abs(a - b)))
    tolerance = ODE_ATOL + ODE_RTOL * scale
    if deviation > tolerance:
        return (f"max deviation {deviation:.3e} exceeds tolerance "
                f"{tolerance:.3e}")
    return None


# -- network transformations -------------------------------------------------

def permute_species(network: Network,
                    permutation: np.ndarray) -> Network:
    """The same network with species registered in permuted order."""
    permuted = Network(network.name)
    species = network.species
    for index in permutation:
        permuted.add_species(species[int(index)])
    for reaction in network.reactions:
        permuted.add_reaction(reaction)
    for name, value in network.initial.items():
        permuted.set_initial(name, value)
    return permuted


def duplicate_reaction(network: Network, index: int) -> Network:
    """A copy of ``network`` with reaction ``index`` appended again.

    Paired with a rate vector that halves the duplicated reaction's
    constant, the kinetics are identical.
    """
    doubled = network.copy()
    doubled.add_reaction(network.reactions[index])
    return doubled


# -- metamorphic checks ------------------------------------------------------

def check_permutation(target, engine: EngineSpec,
                      seed: int) -> CheckResult:
    def body():
        network = target.network
        rng = np.random.default_rng(seed)
        permutation = rng.permutation(network.n_species)
        permuted = permute_species(network, permutation)
        base = engine.run(network, target.t_final, target.scheme,
                          seed=seed)
        other = engine.run(permuted, target.t_final, target.scheme,
                           seed=seed)
        columns = [other.species_index(name) for name in base.names]
        return compare_states(base.states, other.states[:, columns],
                              exact=engine.exact)
    return _guarded("meta.permutation", target.name, engine.name, body)


def check_rate_rescale(target, engine: EngineSpec,
                       seed: int) -> CheckResult:
    def body():
        network = target.network
        rates = network.rate_vector(target.scheme)
        base = engine.run(network, target.t_final, None, seed=seed,
                          rates=rates)
        fast = engine.run(network, target.t_final / RESCALE_FACTOR,
                          None, seed=seed, rates=rates * RESCALE_FACTOR)
        return compare_states(base.states, fast.states,
                              exact=engine.exact)
    return _guarded("meta.rate-rescale", target.name, engine.name, body)


def check_t_shift(target, engine: EngineSpec, seed: int) -> CheckResult:
    def body():
        network = target.network
        base = engine.run(network, target.t_final, target.scheme,
                          seed=seed)
        shifted = engine.run(network, SHIFT + target.t_final,
                             target.scheme, seed=seed, t_start=SHIFT)
        mismatch = SHIFT_ROW_TOLERANCE if engine.exact else 0.0
        return compare_states(base.states, shifted.states,
                              exact=engine.exact,
                              max_mismatch_fraction=mismatch)
    return _guarded("meta.t-shift", target.name, engine.name, body)


def check_conservation(target, engine: EngineSpec,
                       seed: int) -> CheckResult:
    def body():
        network = target.network
        basis = network.conservation_laws()
        if basis.size == 0:
            raise _Skip("network has no conservation laws")
        trajectory = engine.run(network, target.t_final, target.scheme,
                                seed=seed)
        totals = trajectory.states @ basis.T     # (n_samples, n_laws)
        drift = np.max(np.abs(totals - totals[0]), axis=0)
        scale = np.maximum(1.0, np.abs(totals[0]))
        rtol = 1e-8 if engine.exact else 1e-5
        worst = int(np.argmax(drift / scale))
        if drift[worst] > rtol * scale[worst]:
            return (f"invariant {worst} drifts by {drift[worst]:.3e} "
                    f"(scale {scale[worst]:.3g}, rtol {rtol:g})")
        return None
    return _guarded("meta.conservation", target.name, engine.name, body)


def check_duplicate_merge(target, engine: EngineSpec,
                          seed: int) -> CheckResult:
    def body():
        if engine.exact:
            raise _Skip("pathwise stochastic comparison undefined "
                        "for a split reaction")
        network = target.network
        rng = np.random.default_rng(seed)
        index = int(rng.integers(network.n_reactions))
        rates = network.rate_vector(target.scheme)
        doubled = duplicate_reaction(network, index)
        split = rates.copy()
        split[index] = rates[index] / 2.0
        split = np.append(split, rates[index] / 2.0)
        base = engine.run(network, target.t_final, None, rates=rates)
        merged = engine.run(doubled, target.t_final, None, rates=split)
        return compare_states(base.states, merged.states, exact=False)
    return _guarded("meta.duplicate-merge", target.name, engine.name,
                    body)


# -- trajectory / sampling contract checks -----------------------------------

def check_traj_roundtrip(target, engine: EngineSpec,
                         seed: int) -> CheckResult:
    def body():
        trajectory = engine.run(target.network, target.t_final,
                                target.scheme, seed=seed)
        times = trajectory.times
        resampled = trajectory.resampled(times)
        if not np.array_equal(resampled.states, trajectory.states):
            return "resampled() on the trajectory's own grid is not " \
                   "the identity"
        again = resampled.resampled(times)
        if not np.array_equal(again.states, resampled.states):
            return "resampled() is not idempotent on its own grid"
        middle = float(times[len(times) // 2])
        head = trajectory.window(float(times[0]), middle)
        tail = trajectory.window(middle, float(times[-1]))
        joined = head.concat(tail)
        if not (np.array_equal(joined.times, times)
                and np.array_equal(joined.states, trajectory.states)):
            return "window-split concat does not reassemble the " \
                   "original trajectory"
        return None
    return _guarded("traj.roundtrip", target.name, engine.name, body)


def check_traj_horizon(target, engine: EngineSpec,
                       seed: int) -> CheckResult:
    def body():
        trajectory = engine.run(target.network, target.t_final,
                                target.scheme, seed=seed)
        name = trajectory.names[0]
        span = trajectory.t_final - float(trajectory.times[0])
        beyond = trajectory.t_final + span + 1.0
        before = float(trajectory.times[0]) - span - 1.0
        for t, side in ((beyond, "past"), (before, "before")):
            try:
                value = trajectory.at(t, name)
            except SimulationError:
                continue
            return (f"at({t:g}) {side} the simulated horizon returned "
                    f"{value:g} instead of raising SimulationError")
        try:
            trajectory.resampled(np.linspace(0.0, beyond, 7))
        except SimulationError:
            return None
        return ("resampled() past the simulated horizon returned "
                "clamped endpoint values instead of raising "
                "SimulationError")
    return _guarded("traj.horizon", target.name, engine.name, body)


def check_traj_window(target, engine: EngineSpec,
                      seed: int) -> CheckResult:
    def body():
        trajectory = engine.run(target.network, target.t_final,
                                target.scheme, seed=seed)
        times = trajectory.times
        gaps = np.diff(times)
        k = int(np.argmax(gaps))
        lo = float(times[k] + 0.25 * gaps[k])
        hi = float(times[k] + 0.75 * gaps[k])
        try:
            window = trajectory.window(lo, hi)
            if len(window) == 0:
                return (f"window({lo:g}, {hi:g}) between two samples "
                        f"is empty instead of interpolating its "
                        f"boundaries")
            t_final = window.t_final
            window.final()
        except SimulationError as exc:
            return (f"window({lo:g}, {hi:g}) between two samples "
                    f"raised {exc}")
        except IndexError as exc:
            return (f"empty window({lo:g}, {hi:g}) crashed with a raw "
                    f"IndexError: {exc}")
        if not (lo - 1e-9 <= t_final <= hi + 1e-9):
            return (f"window({lo:g}, {hi:g}) has t_final {t_final:g} "
                    f"outside the window")
        lower = np.minimum(trajectory.states[k],
                           trajectory.states[k + 1]) - 1e-9
        upper = np.maximum(trajectory.states[k],
                           trajectory.states[k + 1]) + 1e-9
        inside = np.all((window.states >= lower)
                        & (window.states <= upper))
        if not inside:
            return "interpolated window samples leave the bracketing " \
                   "sample envelope"
        return None
    return _guarded("traj.window", target.name, engine.name, body)


def check_sampling_guard(target, engine: EngineSpec,
                         seed: int) -> CheckResult:
    def body():
        zeros = np.zeros(target.network.n_reactions)
        try:
            index = select_reaction(zeros, 0.5)
        except SimulationError:
            return None
        return (f"select_reaction() on an all-zero propensity vector "
                f"silently fired reaction {index} instead of raising "
                f"SimulationError")
    return _guarded("sampling.guard", target.name, engine.name, body)


def check_canonical_form(target, engine: EngineSpec,
                         seed: int) -> CheckResult:
    """The canonical serialisation honours its cache-key contract.

    Engine-independent (static) check: permuting species registration
    *and* reaction declaration order must not move
    :meth:`~repro.crn.network.Network.canonical_hash` (same chemistry,
    same key); appending an exact duplicate reaction *must* move it
    (doubled propensity is different chemistry); and the canonical
    dict must round-trip through ``from_canonical_dict`` unchanged --
    the three properties the serving layer's content-addressed cache
    rides on.
    """
    def body():
        network = target.network
        rng = np.random.default_rng(seed)
        shuffled = permute_species(
            network, rng.permutation(network.n_species))
        reordered = Network(network.name)
        for species in shuffled.species:
            reordered.add_species(species)
        for index in rng.permutation(network.n_reactions):
            reordered.add_reaction(network.reactions[int(index)])
        for name, value in network.initial.items():
            reordered.set_initial(name, value)
        base = network.canonical_hash()
        if reordered.canonical_hash() != base:
            return ("species/reaction permutation moved the canonical "
                    "hash: permutation-equivalent networks would miss "
                    "the result cache")
        doubled = duplicate_reaction(
            network, int(rng.integers(network.n_reactions)))
        if doubled.canonical_hash() == base:
            return ("appending an exact duplicate reaction did not "
                    "move the canonical hash: kinetically different "
                    "networks would share a cache entry")
        payload = network.to_canonical_dict()
        rebuilt = Network.from_canonical_dict(payload)
        if rebuilt.to_canonical_dict() != payload:
            return "canonical dict does not round-trip to itself"
        if rebuilt.canonical_hash() != base:
            return "round-trip through the canonical dict moved the hash"
        return None
    return _guarded("meta.canonical-form", target.name, engine.name,
                    body)


#: The metamorphic battery, in report order.  Each entry runs once per
#: (target, engine) pair the runner deems applicable;
#: ``check_duplicate_merge``, ``check_sampling_guard`` and
#: ``check_canonical_form`` are engine-independent and run once per
#: target (see the runner's special-casing).
METAMORPHIC_CHECKS = (
    check_permutation,
    check_rate_rescale,
    check_t_shift,
    check_conservation,
    check_duplicate_merge,
    check_traj_roundtrip,
    check_traj_horizon,
    check_traj_window,
    check_sampling_guard,
    check_canonical_form,
)
