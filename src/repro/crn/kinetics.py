"""Mass-action kinetics: compiled right-hand sides, propensities, Jacobians.

Deterministic semantics (used by the ODE simulators)
    rate_j = k_j * prod_s x_s ** E[j, s]
    dx/dt  = S @ rate

Stochastic semantics (used by SSA / tau-leaping)
    a_j = c_j * prod_s C(x_s, E[j, s])
    c_j = k_j * prod_s E[j, s]! / V ** (order_j - 1)

With volume ``V`` equal to the count scale, the SSA mean converges to the
ODE trajectory for large counts, which one of the integration tests checks.

Compilation strategy
--------------------
Almost every reaction in the paper's constructions is zeroth, first or
second order, so :class:`MassActionKinetics` compiles the exponent matrix
into a *two-factor* form: each reaction of order <= 2 is described by two
gather indices into an extended state buffer whose last slot is the
constant 1.0.  Monomials, propensities and the Jacobian nonzeros then
evaluate as a handful of vectorized gather-multiplies with no Python loop
over reactions.  Reactions of order >= 3 (or with a single exponent >= 3)
fall back to a per-reaction loop over a CSR-style nonzero list; they are
rare and the fallback touches only those rows.

The final products ``S @ rate`` and ``S @ d(rate)/dx`` are sequential
scatters over the stoichiometry nonzeros in one fixed order.  The ODE
right-hand side and Jacobian run in the compiled kernel of
:mod:`repro.crn.ckinetics`, which performs the same operations in the same
order, whenever it builds; the numpy path (:meth:`reference_rhs`,
:meth:`reference_jacobian`) is the reference it is bitwise equal to and
the fallback when it does not build.

:class:`DenseKineticsReference` keeps the straightforward dense
implementation; the golden-equivalence test suite asserts both engines
agree on every example network.
"""

from __future__ import annotations

import math

import numpy as np

from repro.crn import ckinetics
from repro.crn.network import Network


class MassActionKinetics:
    """Compiled sparse mass-action kinetics for one network + rate vector.

    Attributes of interest to the simulators:

    ``exponents`` / ``stoich``
        dense (R, S) exponent and (S, R) net-stoichiometry matrices.
    ``rates``
        a read-only private copy of the rate vector given at construction.
    ``backend``
        ``"compiled"`` or ``"numpy"``: which path :meth:`rhs` and
        :meth:`jacobian` run.  It is chosen on first use and is
        ``"numpy"`` only when the compiled kernel cannot be built, which
        :func:`repro.crn.ckinetics.load` reports as a warning.
    ``jacobian_sparsity()``
        (S, S) 0/1 pattern of the state Jacobian, suitable for scipy's
        ``jac_sparsity`` argument to BDF/Radau.
    ``reaction_dependencies()``
        reaction -> affected-reactions adjacency used by the
        incremental-propensity SSA core.
    """

    def __init__(self, network: Network, rates: np.ndarray):
        # A private copy: the compiled kernel and the folded Jacobian
        # scales snapshot the rates, so a caller editing its own array
        # afterwards must not reach some paths and not others.
        rates = np.array(rates, dtype=float)
        if rates.shape != (network.n_reactions,):
            raise ValueError(
                f"rate vector has shape {rates.shape}, expected "
                f"({network.n_reactions},)")
        rates.flags.writeable = False
        self.network = network
        self.rates = rates
        self.exponents = network.reactant_matrix()          # (R, S)
        self.stoich = network.stoichiometry_matrix()        # (S, R)
        # Sparse representation of the exponent matrix (CSR-style lists).
        self._nz_rows, self._nz_cols = np.nonzero(self.exponents)
        self._nz_exp = self.exponents[self._nz_rows, self._nz_cols]
        self._reactant_lists = [
            [(int(s), int(e)) for s, e in zip(*_row_nonzero(self.exponents, j))]
            for j in range(network.n_reactions)
        ]
        self._compile()
        # Evaluation path of rhs/jacobian, bound on first use.
        self._backend: str | None = None
        self._rhs = self._jacobian = None

    # -- compilation ---------------------------------------------------------

    def _compile(self) -> None:
        n_r, n_s = self.exponents.shape
        self.n_reactions = n_r
        self.n_species = n_s
        sentinel = n_s  # extended-buffer slot holding the constant 1.0
        factor_a = np.full(n_r, sentinel, dtype=np.intp)
        factor_b = np.full(n_r, sentinel, dtype=np.intp)
        pair_same = np.zeros(n_r, dtype=bool)
        generic: list[int] = []
        # Jacobian nonzeros: entry value = coeff * k_j * xe[gather].
        jac_r: list[int] = []
        jac_c: list[int] = []
        jac_coeff: list[float] = []
        jac_g: list[int] = []
        for j, reactants in enumerate(self._reactant_lists):
            order = sum(e for _, e in reactants)
            if order == 0:
                continue
            if order == 1:
                s = reactants[0][0]
                factor_a[j] = s
                jac_r.append(j); jac_c.append(s)
                jac_coeff.append(1.0); jac_g.append(sentinel)
            elif order == 2 and len(reactants) == 1:
                s = reactants[0][0]                        # 2X -> ...
                factor_a[j] = factor_b[j] = s
                pair_same[j] = True
                jac_r.append(j); jac_c.append(s)
                jac_coeff.append(2.0); jac_g.append(s)
            elif order == 2:
                (sa, _), (sb, _) = reactants               # X + Y -> ...
                factor_a[j] = sa
                factor_b[j] = sb
                jac_r.append(j); jac_c.append(sa)
                jac_coeff.append(1.0); jac_g.append(sb)
                jac_r.append(j); jac_c.append(sb)
                jac_coeff.append(1.0); jac_g.append(sa)
            else:
                generic.append(j)
        self._factor_a = factor_a
        self._factor_b = factor_b
        self._pair_same = pair_same
        self._generic_rows = np.array(generic, dtype=np.intp)
        self._generic_lists = [(j, self._reactant_lists[j]) for j in generic]
        # The same generic rows as CSR arrays for the compiled kernel.
        self._generic_ptr = np.cumsum(
            [0] + [len(reactants) for _, reactants in self._generic_lists],
            dtype=np.intp)
        self._generic_species = np.array(
            [s for _, reactants in self._generic_lists for s, _ in reactants],
            dtype=np.intp)
        self._generic_exp = np.array(
            [e for _, reactants in self._generic_lists for _, e in reactants],
            dtype=float)
        self._jac_gather = np.array(jac_g, dtype=np.intp)
        # rates never change after construction, so fold them in.
        self._jac_scale = np.array(jac_coeff) * self.rates[jac_r]
        # Every nonzero of d(rate)/dx: the two-factor entries above, then
        # the generic rows' entries in CSR order.  This order is the
        # layout of the drate vector both evaluation paths fill.
        drate_rows = np.array(
            jac_r + [j for j, reactants in self._generic_lists
                     for _ in reactants], dtype=np.intp)
        drate_cols = np.concatenate(
            [np.array(jac_c, dtype=np.intp), self._generic_species])
        pattern = np.zeros((n_r, n_s), dtype=bool)
        pattern[drate_rows, drate_cols] = True
        self._drate_pattern = pattern
        # dx/dt = S @ rate as a scatter over S's nonzeros, row-major.
        self._stoich_rows, self._stoich_cols = np.nonzero(self.stoich)
        self._stoich_vals = self.stoich[self._stoich_rows, self._stoich_cols]
        # J = S @ d(rate)/dx as a scatter of products: S nonzero (s, j)
        # times each drate entry (j, c), added into J[s, c] in this order.
        entries_of = [[] for _ in range(n_r)]
        for k, j in enumerate(drate_rows.tolist()):
            entries_of[j].append(k)
        target: list[int] = []
        coeff: list[float] = []
        entry: list[int] = []
        for s, j, value in zip(self._stoich_rows.tolist(),
                               self._stoich_cols.tolist(),
                               self._stoich_vals.tolist()):
            for k in entries_of[j]:
                target.append(s * n_s + int(drate_cols[k]))
                coeff.append(value)
                entry.append(k)
        self._jprod_target = np.array(target, dtype=np.intp)
        self._jprod_coeff = np.array(coeff, dtype=float)
        self._jprod_entry = np.array(entry, dtype=np.intp)
        # Stochastic second-factor gather: slot fB for distinct factors,
        # slot (n_s + 1 + s) for the (x_s - 1)/2 half-pair factor of 2X.
        stoch_b = factor_b.copy()
        stoch_b[pair_same] = n_s + 1 + factor_a[pair_same]
        self._stoch_factor_b = stoch_b
        # Reusable buffers (simulators are single-threaded per instance).
        self._xbuf = np.ones(n_s + 1)
        self._cbuf = np.ones(2 * (n_s + 1))

    # -- evaluation path -----------------------------------------------------

    @property
    def backend(self) -> str:
        """``"compiled"`` or ``"numpy"`` (selects the path on first use)."""
        if self._backend is None:
            self._select_backend()
        return self._backend

    def _select_backend(self) -> None:
        module = ckinetics.load()
        if module is None:
            self.use_reference()
            return
        kernel = module.Kernel(
            self.n_species, self._factor_a, self._factor_b, self.rates,
            self._generic_rows, self._generic_ptr, self._generic_species,
            self._generic_exp, self._stoich_rows, self._stoich_cols,
            self._stoich_vals, self._jac_gather, self._jac_scale,
            self._jprod_target, self._jprod_coeff, self._jprod_entry)
        self._backend = "compiled"
        self._rhs, self._jacobian = kernel.rhs, kernel.jacobian

    def use_reference(self) -> None:
        """Evaluate :meth:`rhs`/:meth:`jacobian` with the numpy path.

        This is the fallback when the compiled kernel cannot be built;
        the differential oracle that checks the two paths against each
        other also calls it directly.
        """
        self._backend = "numpy"
        self._rhs, self._jacobian = self.reference_rhs, self.reference_jacobian

    # -- deterministic -------------------------------------------------------

    def monomials(self, x: np.ndarray) -> np.ndarray:
        """Vector of mass-action monomials ``prod_s x_s ** E[j, s]``."""
        xe = self._xbuf
        np.maximum(x, 0.0, out=xe[:self.n_species])
        m = xe[self._factor_a]
        m *= xe[self._factor_b]
        for j, reactants in self._generic_lists:
            value = 1.0
            for s, e in reactants:
                value *= xe[s] ** e
            m[j] = value
        return m

    def reaction_rates(self, x: np.ndarray) -> np.ndarray:
        """Vector of mass-action reaction rates at state ``x``."""
        m = self.monomials(x)
        m *= self.rates
        return m

    def rhs(self, t: float, x: np.ndarray) -> np.ndarray:
        """ODE right-hand side ``dx/dt`` (a new array per call)."""
        if self._rhs is None:
            self._select_backend()
        return self._rhs(x)

    def jacobian(self, t: float, x: np.ndarray) -> np.ndarray:
        """Analytic Jacobian ``d(dx/dt)/dx`` (a new dense array per call)."""
        if self._jacobian is None:
            self._select_backend()
        return self._jacobian(x)

    def reference_rhs(self, x: np.ndarray) -> np.ndarray:
        """:meth:`rhs` on the numpy path."""
        weights = self._stoich_vals * self.reaction_rates(x)[self._stoich_cols]
        # bincount adds the weights in order; with no weights at all it
        # returns integers, hence the cast.
        return np.bincount(self._stoich_rows, weights=weights,
                           minlength=self.n_species).astype(float,
                                                            copy=False)

    def reference_jacobian(self, x: np.ndarray) -> np.ndarray:
        """:meth:`jacobian` on the numpy path."""
        n_s = self.n_species
        weights = self._jprod_coeff * self._drate_entries(x)[self._jprod_entry]
        flat = np.bincount(self._jprod_target, weights=weights,
                           minlength=n_s * n_s)
        return flat.astype(float, copy=False).reshape(n_s, n_s)

    def _drate_entries(self, x: np.ndarray) -> np.ndarray:
        """The nonzero d(rate_j)/dx_s entries, in ``_compile``'s order."""
        xe = self._xbuf
        np.maximum(x, 0.0, out=xe[:self.n_species])
        values = self._jac_scale * xe[self._jac_gather]
        generic: list[float] = []
        for j, reactants in self._generic_lists:
            full = self.rates[j]
            for s, e in reactants:
                full *= xe[s] ** e
            for s, e in reactants:
                xs = xe[s]
                if xs > 0.0:
                    generic.append(full * e / xs)
                else:
                    others = self.rates[j]
                    for s2, e2 in reactants:
                        if s2 != s:
                            others *= xe[s2] ** e2
                    # For e >= 2 the derivative at x_s = 0 is 0.
                    generic.append(others if e == 1 else 0.0)
        return np.concatenate([values, generic])

    def jacobian_sparse(self, t: float, x: np.ndarray):
        """Analytic Jacobian as a ``scipy.sparse`` CSC matrix.

        BDF/Radau accept a sparse-returning ``jac`` and switch their
        Newton linear algebra to sparse LU, which is what makes large
        composed networks tractable.
        """
        from scipy import sparse

        return sparse.csc_matrix(self.jacobian(t, x))

    def jacobian_sparsity(self) -> np.ndarray:
        """(S, S) 0/1 nonzero pattern of :meth:`jacobian`.

        Row s may depend on column s' iff some reaction both changes s
        and has s' as a reactant.  Suitable for scipy's ``jac_sparsity``.
        """
        touches = (self.stoich != 0).astype(np.int8)       # (S, R)
        pattern = touches @ self._drate_pattern.astype(np.int8)
        return (pattern > 0).astype(np.int8)

    # -- stochastic ----------------------------------------------------------

    def stochastic_constants(self, volume: float = 1.0) -> np.ndarray:
        """Per-reaction stochastic rate constants ``c_j``."""
        constants = np.empty(len(self.rates))
        for j, reactants in enumerate(self._reactant_lists):
            order = sum(e for _, e in reactants)
            factor = 1.0
            for _, e in reactants:
                factor *= math.factorial(e)
            constants[j] = self.rates[j] * factor / volume ** max(order - 1, 0)
            if order == 0:
                constants[j] = self.rates[j] * volume
        return constants

    def _fill_count_buffer(self, counts: np.ndarray) -> np.ndarray:
        """Extended stochastic gather buffer for integer state ``counts``.

        Layout: ``[counts..., 1.0, (counts - 1) / 2..., 1.0]`` -- the
        second half provides the C(n, 2) = n * (n-1)/2 factor for 2X
        reactions without a branch in the hot path.
        """
        n_s = self.n_species
        cb = self._cbuf
        cb[:n_s] = counts
        cb[n_s + 1:2 * n_s + 1] = (cb[:n_s] - 1.0) * 0.5
        return cb

    def propensities(self, counts: np.ndarray,
                     constants: np.ndarray) -> np.ndarray:
        """SSA propensities at integer state ``counts``."""
        cb = self._fill_count_buffer(counts)
        a = constants * cb[self._factor_a]
        a *= cb[self._stoch_factor_b]
        for j, reactants in self._generic_lists:
            a[j] = self.propensity_of(j, counts, constants)
        return a

    def propensity_of(self, j: int, counts: np.ndarray,
                      constants: np.ndarray) -> float:
        """Propensity of one reaction (generic-order scalar path)."""
        value = float(constants[j])
        for s, e in self._reactant_lists[j]:
            n = counts[s]
            if n < e:
                return 0.0
            combos = 1.0
            for i in range(e):
                combos *= (n - i)
            combos /= math.factorial(e)
            value *= combos
        return value

    # -- structure -----------------------------------------------------------

    def reaction_dependencies(self) -> list[np.ndarray]:
        """Reaction dependency graph for incremental propensity updates.

        ``deps[j]`` holds the indices of every reaction whose propensity
        may change when reaction ``j`` fires: reactions with at least one
        reactant among the species whose *net* count ``j`` changes.  A
        catalytic reaction (e.g. ``A -> A + B``) does not depend on
        itself unless some reactant's net count changes.
        """
        reactant_mask = self.exponents != 0                 # (R, S)
        deps = []
        for j in range(self.n_reactions):
            changed = np.nonzero(self.stoich[:, j])[0]
            if changed.size == 0:
                deps.append(np.empty(0, dtype=np.intp))
            else:
                affected = reactant_mask[:, changed].any(axis=1)
                deps.append(np.nonzero(affected)[0].astype(np.intp))
        return deps


class DenseKineticsReference:
    """Straightforward dense mass-action kinetics (golden reference).

    Implements the textbook formulas with dense ``(R, S)`` matrix
    arithmetic and explicit Python loops.  It is deliberately naive: the
    equivalence test suite runs it against :class:`MassActionKinetics`
    on every example network to pin down the compiled engine.
    """

    def __init__(self, network: Network, rates: np.ndarray):
        rates = np.asarray(rates, dtype=float)
        if rates.shape != (network.n_reactions,):
            raise ValueError(
                f"rate vector has shape {rates.shape}, expected "
                f"({network.n_reactions},)")
        self.network = network
        self.rates = rates
        self.exponents = network.reactant_matrix()
        self.stoich = network.stoichiometry_matrix()
        self._nz_rows, self._nz_cols = np.nonzero(self.exponents)
        self._nz_exp = self.exponents[self._nz_rows, self._nz_cols]
        self._reactant_lists = [
            [(s, int(e)) for s, e in zip(*_row_nonzero(self.exponents, j))]
            for j in range(network.n_reactions)
        ]

    def reaction_rates(self, x: np.ndarray) -> np.ndarray:
        x = np.maximum(x, 0.0)
        # x ** 0 == 1, so the dense power handles absent reactants.
        monomials = np.prod(np.power(x[None, :], self.exponents), axis=1)
        return self.rates * monomials

    def rhs(self, t: float, x: np.ndarray) -> np.ndarray:
        return self.stoich @ self.reaction_rates(x)

    def jacobian(self, t: float, x: np.ndarray) -> np.ndarray:
        x = np.maximum(x, 0.0)
        n_r, n_s = self.exponents.shape
        drate = np.zeros((n_r, n_s))
        full = self.rates * np.prod(np.power(x[None, :], self.exponents),
                                    axis=1)
        for j, s, e in zip(self._nz_rows, self._nz_cols, self._nz_exp):
            xs = x[s]
            if xs > 0:
                drate[j, s] = full[j] * e / xs
            else:
                others = self.rates[j]
                for s2 in np.nonzero(self.exponents[j])[0]:
                    if s2 == s:
                        continue
                    others *= x[s2] ** self.exponents[j, s2]
                drate[j, s] = others * (e if e == 1 else 0.0)
                # For e >= 2 the derivative at x_s = 0 is 0.
        return self.stoich @ drate

    def stochastic_constants(self, volume: float = 1.0) -> np.ndarray:
        constants = np.empty(len(self.rates))
        for j, reactants in enumerate(self._reactant_lists):
            order = sum(e for _, e in reactants)
            factor = 1.0
            for _, e in reactants:
                factor *= math.factorial(e)
            constants[j] = self.rates[j] * factor / volume ** max(order - 1, 0)
            if order == 0:
                constants[j] = self.rates[j] * volume
        return constants

    def propensities(self, counts: np.ndarray,
                     constants: np.ndarray) -> np.ndarray:
        a = constants.copy()
        for j, reactants in enumerate(self._reactant_lists):
            for s, e in reactants:
                n = counts[s]
                if n < e:
                    a[j] = 0.0
                    break
                combos = 1.0
                for i in range(e):
                    combos *= (n - i)
                combos /= math.factorial(e)
                a[j] *= combos
        return a


def _row_nonzero(matrix: np.ndarray, row: int):
    cols = np.nonzero(matrix[row])[0]
    return cols, matrix[row, cols]


def build_kinetics(network: Network, scheme=None,
                   rates: np.ndarray | None = None) -> MassActionKinetics:
    """Resolve rates (via scheme or explicit vector) and compile kinetics."""
    from repro.crn.rates import RateScheme

    if rates is None:
        scheme = scheme or RateScheme()
        rates = network.rate_vector(scheme)
    return MassActionKinetics(network, np.asarray(rates, dtype=float))
