/*
 * Compiled mass-action kinetics: the ODE right-hand side and Jacobian, and
 * the Gillespie direct-method loop.
 *
 * A Kernel is built once per MassActionKinetics and an Ssa once per
 * IncrementalPropensities, from the index arrays those classes already
 * compile (see repro/crn/kinetics.py, repro/crn/simulation/ssa.py and the
 * loader in repro/crn/ckinetics.py).  Every floating-point operation below
 * mirrors the numpy reference path operation for operation and in the same
 * order, so the two are bitwise equal.  For the Kernel:
 *
 *   xe[s]    = max(x[s], 0) (NaN propagates, as np.maximum), xe[n_s] = 1
 *   rate[j]  = xe[fa[j]] * xe[fb[j]]            (orders 0-2)
 *            = 1 * pow(xe[s1], e1) * ...        (generic rows)
 *   rate[j] *= k[j]
 *   dx[s]   += S_val * rate[j]     over the stoichiometry nonzeros in order
 *
 * and the Jacobian scatters S_val * d(rate_j)/dx_c into J[s, c] over a
 * fixed list of products.  The Ssa loop is described above Ssa_run.  The
 * build uses -ffp-contract=off so that no multiply-add is fused.  The
 * interpreter lock is held throughout, so the per-object work buffers are
 * never used by two calls at once.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>
#include <numpy/random/distributions.h>
#include <math.h>

/* A fixed set of named one-dimensional arrays, privately copied. */
#define MAX_ARRAYS 20

typedef struct {
    int count;
    const char *const *names;
    const int *types;
    PyArrayObject *arrays[MAX_ARRAYS];
    npy_intp len[MAX_ARRAYS];
} ArraySet;

#define INTS(self, k) ((const npy_intp *)PyArray_DATA((self)->set.arrays[k]))
#define REALS(self, k) ((const double *)PyArray_DATA((self)->set.arrays[k]))

static void
arrays_clear(ArraySet *set)
{
    for (int k = 0; k < set->count; k++)
        Py_CLEAR(set->arrays[k]);
}

/* Parse (n_species, array, ...) into private C-contiguous copies: later
 * edits by the caller cannot reach the kernel. */
static int
arrays_init(ArraySet *set, const char *type_name, PyObject *args,
            PyObject *kwds, npy_intp *n_species)
{
    Py_ssize_t n_args = PyTuple_GET_SIZE(args);
    if (kwds != NULL && PyDict_GET_SIZE(kwds) != 0) {
        PyErr_Format(PyExc_TypeError, "%s takes no keyword arguments",
                     type_name);
        return -1;
    }
    if (n_args != set->count + 1) {
        PyErr_Format(PyExc_TypeError, "%s takes %d arguments (%zd given)",
                     type_name, set->count + 1, n_args);
        return -1;
    }
    *n_species = PyNumber_AsSsize_t(PyTuple_GET_ITEM(args, 0),
                                    PyExc_OverflowError);
    if (*n_species == -1 && PyErr_Occurred())
        return -1;
    if (*n_species < 0) {
        PyErr_SetString(PyExc_ValueError, "n_species must be >= 0");
        return -1;
    }
    arrays_clear(set);  /* a failed earlier __init__ */
    for (int k = 0; k < set->count; k++) {
        set->arrays[k] = (PyArrayObject *)PyArray_FROM_OTF(
            PyTuple_GET_ITEM(args, k + 1), set->types[k],
            NPY_ARRAY_IN_ARRAY | NPY_ARRAY_ENSURECOPY);
        if (set->arrays[k] == NULL)
            return -1;
        if (PyArray_NDIM(set->arrays[k]) != 1) {
            PyErr_Format(PyExc_ValueError, "%s must be one-dimensional",
                         set->names[k]);
            return -1;
        }
        set->len[k] = PyArray_DIM(set->arrays[k], 0);
    }
    return 0;
}

static int
check_range(const ArraySet *set, int k, npy_intp lo, npy_intp hi)
{
    const npy_intp *v = (const npy_intp *)PyArray_DATA(set->arrays[k]);
    for (npy_intp i = 0; i < set->len[k]; i++) {
        if (v[i] < lo || v[i] >= hi) {
            PyErr_Format(PyExc_ValueError,
                         "%s[%zd] = %zd is outside [%zd, %zd)",
                         set->names[k], i, v[i], lo, hi);
            return -1;
        }
    }
    return 0;
}

static int
check_length(const ArraySet *set, int k, npy_intp expected)
{
    if (set->len[k] != expected) {
        PyErr_Format(PyExc_ValueError, "%s has length %zd, expected %zd",
                     set->names[k], set->len[k], expected);
        return -1;
    }
    return 0;
}

/* CSR row pointers: rows + 1 entries running from 0 to len(values). */
static int
check_ptr(const ArraySet *set, int k, npy_intp rows, int values)
{
    const npy_intp *ptr = (const npy_intp *)PyArray_DATA(set->arrays[k]);
    if (check_length(set, k, rows + 1) < 0)
        return -1;
    if (ptr[0] != 0 || ptr[rows] != set->len[values]) {
        PyErr_Format(PyExc_ValueError, "%s must run from 0 to len(%s)",
                     set->names[k], set->names[values]);
        return -1;
    }
    for (npy_intp r = 0; r < rows; r++) {
        if (ptr[r + 1] < ptr[r]) {
            PyErr_Format(PyExc_ValueError, "%s must not decrease",
                         set->names[k]);
            return -1;
        }
    }
    return 0;
}

/* ---- Mass-action right-hand side and Jacobian ------------------------ */

enum {
    FACTOR_A, FACTOR_B, RATES,
    GEN_ROWS, GEN_PTR, GEN_SPECIES, GEN_EXP,
    STOICH_ROWS, STOICH_COLS, STOICH_VALS,
    JAC_GATHER, JAC_SCALE,
    JPROD_TARGET, JPROD_COEFF, JPROD_ENTRY,
    N_ARRAYS
};

static const char *const array_names[N_ARRAYS] = {
    "factor_a", "factor_b", "rates",
    "gen_rows", "gen_ptr", "gen_species", "gen_exp",
    "stoich_rows", "stoich_cols", "stoich_vals",
    "jac_gather", "jac_scale",
    "jprod_target", "jprod_coeff", "jprod_entry",
};

static const int array_types[N_ARRAYS] = {
    NPY_INTP, NPY_INTP, NPY_DOUBLE,
    NPY_INTP, NPY_INTP, NPY_INTP, NPY_DOUBLE,
    NPY_INTP, NPY_INTP, NPY_DOUBLE,
    NPY_INTP, NPY_DOUBLE,
    NPY_INTP, NPY_DOUBLE, NPY_INTP,
};

typedef struct {
    PyObject_HEAD
    ArraySet set;
    npy_intp n_species, n_reactions, n_generic, n_drate;
    double *xe;     /* n_species + 1: clamped state plus the constant 1 */
    double *rate;   /* n_reactions */
    double *drate;  /* n_drate: two-factor entries, then generic entries */
} Kernel;

static int
validate(Kernel *self)
{
    const ArraySet *set = &self->set;
    npy_intp n_s = self->n_species, n_r = set->len[FACTOR_A];
    self->n_reactions = n_r;
    self->n_generic = set->len[GEN_ROWS];
    self->n_drate = set->len[JAC_GATHER] + set->len[GEN_SPECIES];
    if (check_length(set, FACTOR_B, n_r) || check_length(set, RATES, n_r)
        || check_ptr(set, GEN_PTR, self->n_generic, GEN_SPECIES)
        || check_length(set, GEN_EXP, set->len[GEN_SPECIES])
        || check_length(set, STOICH_COLS, set->len[STOICH_ROWS])
        || check_length(set, STOICH_VALS, set->len[STOICH_ROWS])
        || check_length(set, JAC_SCALE, set->len[JAC_GATHER])
        || check_length(set, JPROD_COEFF, set->len[JPROD_TARGET])
        || check_length(set, JPROD_ENTRY, set->len[JPROD_TARGET]))
        return -1;
    if (check_range(set, FACTOR_A, 0, n_s + 1)
        || check_range(set, FACTOR_B, 0, n_s + 1)
        || check_range(set, GEN_ROWS, 0, n_r)
        || check_range(set, GEN_SPECIES, 0, n_s)
        || check_range(set, STOICH_ROWS, 0, n_s)
        || check_range(set, STOICH_COLS, 0, n_r)
        || check_range(set, JAC_GATHER, 0, n_s + 1)
        || check_range(set, JPROD_TARGET, 0, n_s * n_s)
        || check_range(set, JPROD_ENTRY, 0, self->n_drate))
        return -1;
    return 0;
}

static int
Kernel_init(Kernel *self, PyObject *args, PyObject *kwds)
{
    npy_intp n_species;
    if (self->xe != NULL) {
        PyErr_SetString(PyExc_RuntimeError, "Kernel is already initialised");
        return -1;
    }
    self->set.count = N_ARRAYS;
    self->set.names = array_names;
    self->set.types = array_types;
    if (arrays_init(&self->set, "Kernel", args, kwds, &n_species) < 0)
        return -1;
    self->n_species = n_species;
    if (validate(self) < 0)
        return -1;
    self->xe = PyMem_Malloc(sizeof(double) * (size_t)(n_species + 1));
    self->rate = PyMem_Malloc(sizeof(double) * (size_t)(self->n_reactions + 1));
    self->drate = PyMem_Malloc(sizeof(double) * (size_t)(self->n_drate + 1));
    if (self->xe == NULL || self->rate == NULL || self->drate == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    self->xe[n_species] = 1.0;
    return 0;
}

static void
Kernel_dealloc(Kernel *self)
{
    arrays_clear(&self->set);
    PyMem_Free(self->xe);
    PyMem_Free(self->rate);
    PyMem_Free(self->drate);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* Copy max(x, 0) into the extended state buffer. */
static int
load_state(Kernel *self, PyObject *arg)
{
    PyArrayObject *x;
    const double *data;
    if (self->xe == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "Kernel is not initialised");
        return -1;
    }
    x = (PyArrayObject *)PyArray_FROM_OTF(arg, NPY_DOUBLE, NPY_ARRAY_IN_ARRAY);
    if (x == NULL)
        return -1;
    if (PyArray_NDIM(x) != 1 || PyArray_DIM(x, 0) != self->n_species) {
        PyErr_Format(PyExc_ValueError,
                     "state must be a vector of length %zd", self->n_species);
        Py_DECREF(x);
        return -1;
    }
    data = (const double *)PyArray_DATA(x);
    for (npy_intp s = 0; s < self->n_species; s++) {
        double v = data[s];
        self->xe[s] = (v > 0.0 || isnan(v)) ? v : 0.0;
    }
    Py_DECREF(x);
    return 0;
}

static PyObject *
Kernel_rhs(Kernel *self, PyObject *arg)
{
    const npy_intp *fa = INTS(self, FACTOR_A), *fb = INTS(self, FACTOR_B);
    const npy_intp *grows = INTS(self, GEN_ROWS), *gptr = INTS(self, GEN_PTR);
    const npy_intp *gsp = INTS(self, GEN_SPECIES);
    const npy_intp *srows = INTS(self, STOICH_ROWS);
    const npy_intp *scols = INTS(self, STOICH_COLS);
    const double *k = REALS(self, RATES), *gexp = REALS(self, GEN_EXP);
    const double *svals = REALS(self, STOICH_VALS);
    double *xe, *rate, *out;
    npy_intp n_species = self->n_species;
    PyArrayObject *result;

    if (load_state(self, arg) < 0)
        return NULL;
    xe = self->xe;
    rate = self->rate;
    for (npy_intp j = 0; j < self->n_reactions; j++)
        rate[j] = xe[fa[j]] * xe[fb[j]];
    for (npy_intp g = 0; g < self->n_generic; g++) {
        double value = 1.0;
        for (npy_intp t = gptr[g]; t < gptr[g + 1]; t++)
            value *= pow(xe[gsp[t]], gexp[t]);
        rate[grows[g]] = value;
    }
    for (npy_intp j = 0; j < self->n_reactions; j++)
        rate[j] *= k[j];

    result = (PyArrayObject *)PyArray_ZEROS(1, &n_species, NPY_DOUBLE, 0);
    if (result == NULL)
        return NULL;
    out = (double *)PyArray_DATA(result);
    for (npy_intp i = 0; i < self->set.len[STOICH_ROWS]; i++)
        out[srows[i]] += svals[i] * rate[scols[i]];
    return (PyObject *)result;
}

static PyObject *
Kernel_jacobian(Kernel *self, PyObject *arg)
{
    const npy_intp *grows = INTS(self, GEN_ROWS), *gptr = INTS(self, GEN_PTR);
    const npy_intp *gsp = INTS(self, GEN_SPECIES);
    const npy_intp *gather = INTS(self, JAC_GATHER);
    const npy_intp *target = INTS(self, JPROD_TARGET);
    const npy_intp *entry = INTS(self, JPROD_ENTRY);
    const double *k = REALS(self, RATES), *gexp = REALS(self, GEN_EXP);
    const double *scale = REALS(self, JAC_SCALE);
    const double *coeff = REALS(self, JPROD_COEFF);
    double *xe, *drate, *out;
    npy_intp dims[2] = {self->n_species, self->n_species};
    npy_intp n_two = self->set.len[JAC_GATHER], idx = n_two;
    PyArrayObject *result;

    if (load_state(self, arg) < 0)
        return NULL;
    xe = self->xe;
    drate = self->drate;
    for (npy_intp i = 0; i < n_two; i++)
        drate[i] = scale[i] * xe[gather[i]];
    for (npy_intp g = 0; g < self->n_generic; g++) {
        double full = k[grows[g]];
        for (npy_intp t = gptr[g]; t < gptr[g + 1]; t++)
            full *= pow(xe[gsp[t]], gexp[t]);
        for (npy_intp t = gptr[g]; t < gptr[g + 1]; t++) {
            double xs = xe[gsp[t]];
            if (xs > 0.0) {
                drate[idx++] = full * gexp[t] / xs;
            } else {
                /* d/dx_s at x_s = 0: the other factors for e = 1,
                 * zero for e >= 2. */
                double others = k[grows[g]];
                for (npy_intp u = gptr[g]; u < gptr[g + 1]; u++) {
                    if (gsp[u] != gsp[t])
                        others *= pow(xe[gsp[u]], gexp[u]);
                }
                drate[idx++] = gexp[t] == 1.0 ? others : 0.0;
            }
        }
    }

    result = (PyArrayObject *)PyArray_ZEROS(2, dims, NPY_DOUBLE, 0);
    if (result == NULL)
        return NULL;
    out = (double *)PyArray_DATA(result);
    for (npy_intp p = 0; p < self->set.len[JPROD_TARGET]; p++)
        out[target[p]] += coeff[p] * drate[entry[p]];
    return (PyObject *)result;
}

static PyMethodDef Kernel_methods[] = {
    {"rhs", (PyCFunction)Kernel_rhs, METH_O,
     "rhs(x) -> dx/dt as a new float64 vector."},
    {"jacobian", (PyCFunction)Kernel_jacobian, METH_O,
     "jacobian(x) -> d(dx/dt)/dx as a new (n, n) float64 array."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject KernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.crn._ckinetics.Kernel",
    .tp_doc = "Kernel(n_species, factor_a, factor_b, rates, gen_rows, "
              "gen_ptr, gen_species, gen_exp, stoich_rows, stoich_cols, "
              "stoich_vals, jac_gather, jac_scale, jprod_target, "
              "jprod_coeff, jprod_entry)",
    .tp_basicsize = sizeof(Kernel),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Kernel_init,
    .tp_dealloc = (destructor)Kernel_dealloc,
    .tp_methods = Kernel_methods,
};

/* ---- Gillespie direct method ----------------------------------------- */

enum {
    SSA_FACTOR_A, SSA_FACTOR_B, SSA_CONSTANTS,
    SSA_GEN_ROWS, SSA_GEN_PTR, SSA_GEN_SPECIES, SSA_GEN_EXP, SSA_GEN_FACT,
    SSA_TOUCH_PTR, SSA_TOUCH_SPECIES, SSA_TOUCH_DELTA,
    SSA_SLOT_PTR, SSA_SLOTS, SSA_SLOT_DELTA,
    SSA_DEP_PTR, SSA_DEPS, SSA_DEP_A, SSA_DEP_B, SSA_DEP_C,
    SSA_N_ARRAYS
};

static const char *const ssa_names[SSA_N_ARRAYS] = {
    "factor_a", "factor_b", "constants",
    "gen_rows", "gen_ptr", "gen_species", "gen_exp", "gen_fact",
    "touch_ptr", "touch_species", "touch_delta",
    "slot_ptr", "slots", "slot_delta",
    "dep_ptr", "deps", "dep_a", "dep_b", "dep_c",
};

static const int ssa_types[SSA_N_ARRAYS] = {
    NPY_INTP, NPY_INTP, NPY_DOUBLE,
    NPY_INTP, NPY_INTP, NPY_INTP, NPY_INTP, NPY_DOUBLE,
    NPY_INTP, NPY_INTP, NPY_INT64,
    NPY_INTP, NPY_INTP, NPY_DOUBLE,
    NPY_INTP, NPY_INTP, NPY_INTP, NPY_INTP, NPY_DOUBLE,
};

/* Outcome of Ssa.run, mirrored by repro.crn.simulation.ssa. */
enum { SSA_DONE, SSA_EXCEEDED, SSA_NO_POSITIVE };

typedef struct {
    PyObject_HEAD
    ArraySet set;
    npy_intp n_species, n_reactions;
    npy_intp *generic_of;   /* n_reactions: generic row of j, or -1 */
    double *cumulative;     /* n_reactions */
} Ssa;

static int
Ssa_validate(Ssa *self)
{
    const ArraySet *set = &self->set;
    npy_intp n_r = set->len[SSA_FACTOR_A], n_slots = 2 * (self->n_species + 1);
    npy_intp n_generic = set->len[SSA_GEN_ROWS];
    self->n_reactions = n_r;
    if (n_r < 1) {
        PyErr_SetString(PyExc_ValueError, "Ssa needs at least one reaction");
        return -1;
    }
    if (check_length(set, SSA_FACTOR_B, n_r)
        || check_length(set, SSA_CONSTANTS, n_r)
        || check_ptr(set, SSA_GEN_PTR, n_generic, SSA_GEN_SPECIES)
        || check_length(set, SSA_GEN_EXP, set->len[SSA_GEN_SPECIES])
        || check_length(set, SSA_GEN_FACT, set->len[SSA_GEN_SPECIES])
        || check_ptr(set, SSA_TOUCH_PTR, n_r, SSA_TOUCH_SPECIES)
        || check_length(set, SSA_TOUCH_DELTA, set->len[SSA_TOUCH_SPECIES])
        || check_ptr(set, SSA_SLOT_PTR, n_r, SSA_SLOTS)
        || check_length(set, SSA_SLOT_DELTA, set->len[SSA_SLOTS])
        || check_ptr(set, SSA_DEP_PTR, n_r, SSA_DEPS)
        || check_length(set, SSA_DEP_A, set->len[SSA_DEPS])
        || check_length(set, SSA_DEP_B, set->len[SSA_DEPS])
        || check_length(set, SSA_DEP_C, set->len[SSA_DEPS]))
        return -1;
    if (check_range(set, SSA_FACTOR_A, 0, n_slots)
        || check_range(set, SSA_FACTOR_B, 0, n_slots)
        || check_range(set, SSA_GEN_ROWS, 0, n_r)
        || check_range(set, SSA_GEN_SPECIES, 0, self->n_species)
        || check_range(set, SSA_GEN_EXP, 0, NPY_MAX_INTP)
        || check_range(set, SSA_TOUCH_SPECIES, 0, self->n_species)
        || check_range(set, SSA_SLOTS, 0, n_slots)
        || check_range(set, SSA_DEPS, 0, n_r)
        || check_range(set, SSA_DEP_A, 0, n_slots)
        || check_range(set, SSA_DEP_B, 0, n_slots))
        return -1;
    return 0;
}

static int
Ssa_init(Ssa *self, PyObject *args, PyObject *kwds)
{
    const npy_intp *rows;
    npy_intp n_species;
    if (self->generic_of != NULL) {
        PyErr_SetString(PyExc_RuntimeError, "Ssa is already initialised");
        return -1;
    }
    self->set.count = SSA_N_ARRAYS;
    self->set.names = ssa_names;
    self->set.types = ssa_types;
    if (arrays_init(&self->set, "Ssa", args, kwds, &n_species) < 0)
        return -1;
    self->n_species = n_species;
    if (Ssa_validate(self) < 0)
        return -1;
    self->generic_of = PyMem_Malloc(sizeof(npy_intp)
                                    * (size_t)self->n_reactions);
    self->cumulative = PyMem_Malloc(sizeof(double)
                                    * (size_t)self->n_reactions);
    if (self->generic_of == NULL || self->cumulative == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (npy_intp j = 0; j < self->n_reactions; j++)
        self->generic_of[j] = -1;
    rows = INTS(self, SSA_GEN_ROWS);
    for (npy_intp g = 0; g < self->set.len[SSA_GEN_ROWS]; g++) {
        if (self->generic_of[rows[g]] != -1) {
            PyErr_Format(PyExc_ValueError, "gen_rows repeats reaction %zd",
                         rows[g]);
            return -1;
        }
        self->generic_of[rows[g]] = g;
    }
    return 0;
}

static void
Ssa_dealloc(Ssa *self)
{
    arrays_clear(&self->set);
    PyMem_Free(self->generic_of);
    PyMem_Free(self->cumulative);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* MassActionKinetics.propensity_of for a generic-order reaction. */
static double
generic_propensity(const Ssa *self, npy_intp j, const npy_int64 *counts)
{
    npy_intp g = self->generic_of[j];
    const npy_intp *ptr = INTS(self, SSA_GEN_PTR);
    const npy_intp *species = INTS(self, SSA_GEN_SPECIES);
    const npy_intp *exps = INTS(self, SSA_GEN_EXP);
    const double *fact = REALS(self, SSA_GEN_FACT);
    double value = REALS(self, SSA_CONSTANTS)[j];
    for (npy_intp t = ptr[g]; t < ptr[g + 1]; t++) {
        npy_int64 n = counts[species[t]];
        double combos = 1.0;
        if (n < exps[t])
            return 0.0;
        for (npy_intp i = 0; i < exps[t]; i++)
            combos *= (double)(n - i);
        combos /= fact[t];
        value *= combos;
    }
    return value;
}

/* IncrementalPropensities.rebuild: the count buffer and every propensity
 * recomputed from the counts (MassActionKinetics.propensities). */
static void
rebuild(const Ssa *self, const npy_int64 *counts, double *cb, double *a)
{
    const npy_intp *fa = INTS(self, SSA_FACTOR_A);
    const npy_intp *fb = INTS(self, SSA_FACTOR_B);
    const double *c = REALS(self, SSA_CONSTANTS);
    npy_intp n_s = self->n_species;
    for (npy_intp s = 0; s < n_s; s++) {
        cb[s] = (double)counts[s];
        cb[n_s + 1 + s] = (cb[s] - 1.0) * 0.5;
    }
    cb[n_s] = cb[2 * n_s + 1] = 1.0;
    for (npy_intp j = 0; j < self->n_reactions; j++) {
        a[j] = c[j] * cb[fa[j]];
        a[j] *= cb[fb[j]];
    }
    for (npy_intp j = 0; j < self->n_reactions; j++) {
        if (self->generic_of[j] >= 0)
            a[j] = generic_propensity(self, j, counts);
    }
}

/* IncrementalPropensities.fire; returns the updated events-since-rebuild. */
static npy_intp
fire(const Ssa *self, npy_intp j, npy_int64 *counts, double *cb, double *a,
     npy_intp since, npy_intp interval)
{
    const npy_intp *tptr = INTS(self, SSA_TOUCH_PTR);
    const npy_intp *tsp = INTS(self, SSA_TOUCH_SPECIES);
    const npy_int64 *tdelta =
        (const npy_int64 *)PyArray_DATA(self->set.arrays[SSA_TOUCH_DELTA]);
    const npy_intp *sptr = INTS(self, SSA_SLOT_PTR);
    const npy_intp *slots = INTS(self, SSA_SLOTS);
    const double *sdelta = REALS(self, SSA_SLOT_DELTA);
    const npy_intp *dptr = INTS(self, SSA_DEP_PTR);
    const npy_intp *deps = INTS(self, SSA_DEPS);
    const npy_intp *da = INTS(self, SSA_DEP_A), *db = INTS(self, SSA_DEP_B);
    const double *dc = REALS(self, SSA_DEP_C);

    for (npy_intp k = tptr[j]; k < tptr[j + 1]; k++)
        counts[tsp[k]] += tdelta[k];
    for (npy_intp k = sptr[j]; k < sptr[j + 1]; k++)
        cb[slots[k]] += sdelta[k];
    if (++since >= interval) {
        rebuild(self, counts, cb, a);
        return 0;
    }
    for (npy_intp p = dptr[j]; p < dptr[j + 1]; p++) {
        npy_intp i = deps[p];
        double fresh;
        if (self->generic_of[i] >= 0) {
            fresh = generic_propensity(self, i, counts);
        } else {
            fresh = dc[p] * cb[da[p]];
            fresh *= cb[db[p]];
            /* np.maximum(fresh, 0): NaN propagates, -0.0 becomes +0.0 */
            if (!(fresh > 0.0 || isnan(fresh)))
                fresh = 0.0;
        }
        a[i] = fresh;
    }
    return since;
}

/* numpy's less-than for float64 sorting and searching: NaN sorts last. */
static inline int
npy_less(double a, double b)
{
    return a < b || (b != b && a == a);
}

/* cumulative.searchsorted(key, side="right"), as numpy's binsearch. */
static npy_intp
search_right(const double *cumulative, npy_intp n, double key)
{
    npy_intp lo = 0, hi = n;
    while (lo < hi) {
        npy_intp mid = lo + ((hi - lo) >> 1);
        if (!npy_less(key, cumulative[mid]))
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* The data of a writeable, aligned, C-contiguous array of the given type
 * and shape (dim1 < 0 for a vector), or NULL with ValueError set. */
static void *
buffer_of(PyObject *obj, const char *name, int type, npy_intp dim0,
          npy_intp dim1)
{
    PyArrayObject *array = (PyArrayObject *)obj;
    int ndim = dim1 < 0 ? 1 : 2;
    if (PyArray_Check(obj) && PyArray_TYPE(array) == type
        && PyArray_NDIM(array) == ndim && PyArray_DIM(array, 0) == dim0
        && (ndim == 1 || PyArray_DIM(array, 1) == dim1)
        && PyArray_ISCARRAY(array))
        return PyArray_DATA(array);
    if (ndim == 1)
        PyErr_Format(PyExc_ValueError, "%s must be a writeable C-contiguous "
                     "%s vector of length %zd", name,
                     type == NPY_INT64 ? "int64" : "float64", dim0);
    else
        PyErr_Format(PyExc_ValueError, "%s must be a writeable C-contiguous "
                     "float64 array of shape (%zd, %zd)", name, dim0, dim1);
    return NULL;
}

/*
 * run(bitgen_capsule, counts, cb, a, times, samples, t_start, t_final,
 *     max_events, rebuild_interval, since, firings)
 *     -> (status, t, events, next_sample, since)
 *
 * The direct-method loop of StochasticSimulator.simulate on the numpy path,
 * operation for operation: per event a sequential cumulative sum of a; stop
 * when its total is <= 0 (absorbing); t += (1 / total) * standard
 * exponential; stop when t > t_final; record the pre-fire counts at every
 * grid time <= t; stop with SSA_EXCEEDED when max_events have fired;
 * u = next_double, j = the side="right" search of u * total, falling back
 * to the last positive propensity (SSA_NO_POSITIVE when there is none);
 * then fire(j).  counts, cb, a and firings (None or int64) are updated in
 * place and samples[1:next_sample] filled; samples[0] is the caller's.
 * The draws come from the bit generator behind the capsule, exactly as
 * Generator.exponential and Generator.random take them; the caller holds
 * the generator's lock.
 */
static PyObject *
Ssa_run(Ssa *self, PyObject *args)
{
    PyObject *capsule, *counts_obj, *cb_obj, *a_obj, *times_obj;
    PyObject *samples_obj, *firings_obj;
    double t, t_start, t_final;
    npy_intp max_events, interval, since, n_times, n_s, n_r;
    npy_intp events = 0, next_sample = 1;
    npy_int64 *counts, *firings = NULL;
    double *cb, *a, *samples, *cumulative = self->cumulative;
    const double *times;
    bitgen_t *bitgen;
    int status = SSA_DONE;

    if (self->generic_of == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "Ssa is not initialised");
        return NULL;
    }
    if (!PyArg_ParseTuple(args, "OOOOOOddnnnO", &capsule, &counts_obj,
                          &cb_obj, &a_obj, &times_obj, &samples_obj,
                          &t_start, &t_final, &max_events, &interval,
                          &since, &firings_obj))
        return NULL;
    bitgen = PyCapsule_GetPointer(capsule, "BitGenerator");
    if (bitgen == NULL)
        return NULL;
    n_s = self->n_species;
    n_r = self->n_reactions;
    if (!PyArray_Check(times_obj)) {
        PyErr_SetString(PyExc_ValueError, "times must be an array");
        return NULL;
    }
    n_times = PyArray_SIZE((PyArrayObject *)times_obj);
    if ((counts = buffer_of(counts_obj, "counts", NPY_INT64, n_s, -1)) == NULL
        || (cb = buffer_of(cb_obj, "cb", NPY_DOUBLE, 2 * (n_s + 1), -1))
           == NULL
        || (a = buffer_of(a_obj, "a", NPY_DOUBLE, n_r, -1)) == NULL
        || (times = buffer_of(times_obj, "times", NPY_DOUBLE, n_times, -1))
           == NULL
        || (samples = buffer_of(samples_obj, "samples", NPY_DOUBLE, n_times,
                                n_s)) == NULL
        || (firings_obj != Py_None
            && (firings = buffer_of(firings_obj, "firings", NPY_INT64, n_r,
                                    -1)) == NULL))
        return NULL;

    t = t_start;
    while (t < t_final) {
        double total, u;
        npy_intp j;
        cumulative[0] = a[0];
        for (npy_intp i = 1; i < n_r; i++)
            cumulative[i] = cumulative[i - 1] + a[i];
        total = cumulative[n_r - 1];
        if (total <= 0.0)
            break;  /* No reaction can fire; state is absorbing. */
        t += (1.0 / total) * random_standard_exponential(bitgen);
        if (t > t_final)
            break;
        while (next_sample < n_times && times[next_sample] <= t) {
            double *row = samples + next_sample * n_s;
            for (npy_intp s = 0; s < n_s; s++)
                row[s] = (double)counts[s];
            next_sample++;
        }
        if (events >= max_events) {
            status = SSA_EXCEEDED;
            break;
        }
        u = next_double(bitgen);
        j = search_right(cumulative, n_r, u * total);
        if (j >= n_r) {
            while (--j >= 0 && !(a[j] > 0.0))
                ;
            if (j < 0) {
                status = SSA_NO_POSITIVE;
                break;
            }
        }
        since = fire(self, j, counts, cb, a, since, interval);
        events++;
        if (firings != NULL)
            firings[j]++;
    }
    return Py_BuildValue("(idnnn)", status, t, events, next_sample, since);
}

static PyMethodDef Ssa_methods[] = {
    {"run", (PyCFunction)Ssa_run, METH_VARARGS,
     "run(bitgen_capsule, counts, cb, a, times, samples, t_start, t_final, "
     "max_events, rebuild_interval, since, firings) -> (status, t, events, "
     "next_sample, since)"},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject SsaType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.crn._ckinetics.Ssa",
    .tp_doc = "Ssa(n_species, factor_a, factor_b, constants, gen_rows, "
              "gen_ptr, gen_species, gen_exp, gen_fact, touch_ptr, "
              "touch_species, touch_delta, slot_ptr, slots, slot_delta, "
              "dep_ptr, deps, dep_a, dep_b, dep_c)",
    .tp_basicsize = sizeof(Ssa),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Ssa_init,
    .tp_dealloc = (destructor)Ssa_dealloc,
    .tp_methods = Ssa_methods,
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_ckinetics",
    .m_doc = "Compiled mass-action kinetics and Gillespie kernels.",
    .m_size = -1,
};

static int
add_type(PyObject *module, const char *name, PyTypeObject *type)
{
    Py_INCREF(type);
    if (PyModule_AddObject(module, name, (PyObject *)type) < 0) {
        Py_DECREF(type);
        return -1;
    }
    return 0;
}

PyMODINIT_FUNC
PyInit__ckinetics(void)
{
    PyObject *module;
    import_array();
    if (PyType_Ready(&KernelType) < 0 || PyType_Ready(&SsaType) < 0)
        return NULL;
    module = PyModule_Create(&module_def);
    if (module == NULL)
        return NULL;
    if (add_type(module, "Kernel", &KernelType) < 0
        || add_type(module, "Ssa", &SsaType) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
