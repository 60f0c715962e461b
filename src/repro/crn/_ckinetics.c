/*
 * Compiled mass-action right-hand side and Jacobian.
 *
 * A Kernel is built once per MassActionKinetics from the index arrays that
 * class already compiles (see repro/crn/kinetics.py and the loader in
 * repro/crn/ckinetics.py).  Every floating-point operation below mirrors the
 * numpy reference path operation for operation and in the same order, so
 * the two are bitwise equal:
 *
 *   xe[s]    = max(x[s], 0) (NaN propagates, as np.maximum), xe[n_s] = 1
 *   rate[j]  = xe[fa[j]] * xe[fb[j]]            (orders 0-2)
 *            = 1 * pow(xe[s1], e1) * ...        (generic rows)
 *   rate[j] *= k[j]
 *   dx[s]   += S_val * rate[j]     over the stoichiometry nonzeros in order
 *
 * and the Jacobian scatters S_val * d(rate_j)/dx_c into J[s, c] over a
 * fixed list of products.  The build uses -ffp-contract=off so that no
 * multiply-add is fused.  The interpreter lock is held throughout, so the
 * per-kernel work buffers are never used by two calls at once.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>
#include <math.h>

enum {
    FACTOR_A, FACTOR_B, RATES,
    GEN_ROWS, GEN_PTR, GEN_SPECIES, GEN_EXP,
    STOICH_ROWS, STOICH_COLS, STOICH_VALS,
    JAC_GATHER, JAC_SCALE,
    JPROD_TARGET, JPROD_COEFF, JPROD_ENTRY,
    N_ARRAYS
};

static const char *array_names[N_ARRAYS] = {
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
    PyArrayObject *arrays[N_ARRAYS];
    npy_intp len[N_ARRAYS];
    npy_intp n_species, n_reactions, n_generic, n_drate;
    double *xe;     /* n_species + 1: clamped state plus the constant 1 */
    double *rate;   /* n_reactions */
    double *drate;  /* n_drate: two-factor entries, then generic entries */
} Kernel;

#define INTS(self, k) ((const npy_intp *)PyArray_DATA((self)->arrays[k]))
#define REALS(self, k) ((const double *)PyArray_DATA((self)->arrays[k]))

static int
check_range(Kernel *self, int k, npy_intp lo, npy_intp hi)
{
    const npy_intp *v = INTS(self, k);
    for (npy_intp i = 0; i < self->len[k]; i++) {
        if (v[i] < lo || v[i] >= hi) {
            PyErr_Format(PyExc_ValueError,
                         "%s[%zd] = %zd is outside [%zd, %zd)",
                         array_names[k], i, v[i], lo, hi);
            return -1;
        }
    }
    return 0;
}

static int
check_length(Kernel *self, int k, npy_intp expected)
{
    if (self->len[k] != expected) {
        PyErr_Format(PyExc_ValueError, "%s has length %zd, expected %zd",
                     array_names[k], self->len[k], expected);
        return -1;
    }
    return 0;
}

static int
validate(Kernel *self)
{
    npy_intp n_s = self->n_species, n_r = self->len[FACTOR_A];
    const npy_intp *ptr = INTS(self, GEN_PTR);
    self->n_reactions = n_r;
    self->n_generic = self->len[GEN_ROWS];
    self->n_drate = self->len[JAC_GATHER] + self->len[GEN_SPECIES];
    if (check_length(self, FACTOR_B, n_r) || check_length(self, RATES, n_r)
        || check_length(self, GEN_PTR, self->n_generic + 1)
        || check_length(self, GEN_EXP, self->len[GEN_SPECIES])
        || check_length(self, STOICH_COLS, self->len[STOICH_ROWS])
        || check_length(self, STOICH_VALS, self->len[STOICH_ROWS])
        || check_length(self, JAC_SCALE, self->len[JAC_GATHER])
        || check_length(self, JPROD_COEFF, self->len[JPROD_TARGET])
        || check_length(self, JPROD_ENTRY, self->len[JPROD_TARGET]))
        return -1;
    if (ptr[0] != 0 || ptr[self->n_generic] != self->len[GEN_SPECIES]) {
        PyErr_SetString(PyExc_ValueError,
                        "gen_ptr must run from 0 to len(gen_species)");
        return -1;
    }
    for (npy_intp g = 0; g < self->n_generic; g++) {
        if (ptr[g + 1] < ptr[g]) {
            PyErr_SetString(PyExc_ValueError, "gen_ptr must not decrease");
            return -1;
        }
    }
    if (check_range(self, FACTOR_A, 0, n_s + 1)
        || check_range(self, FACTOR_B, 0, n_s + 1)
        || check_range(self, GEN_ROWS, 0, n_r)
        || check_range(self, GEN_SPECIES, 0, n_s)
        || check_range(self, STOICH_ROWS, 0, n_s)
        || check_range(self, STOICH_COLS, 0, n_r)
        || check_range(self, JAC_GATHER, 0, n_s + 1)
        || check_range(self, JPROD_TARGET, 0, n_s * n_s)
        || check_range(self, JPROD_ENTRY, 0, self->n_drate))
        return -1;
    return 0;
}

static int
Kernel_init(Kernel *self, PyObject *args, PyObject *kwds)
{
    PyObject *objs[N_ARRAYS];
    Py_ssize_t n_species;
    if (kwds != NULL && PyDict_GET_SIZE(kwds) != 0) {
        PyErr_SetString(PyExc_TypeError, "Kernel takes no keyword arguments");
        return -1;
    }
    if (self->xe != NULL) {
        PyErr_SetString(PyExc_RuntimeError, "Kernel is already initialised");
        return -1;
    }
    if (!PyArg_ParseTuple(args, "nOOOOOOOOOOOOOOO", &n_species,
                          &objs[0], &objs[1], &objs[2], &objs[3], &objs[4],
                          &objs[5], &objs[6], &objs[7], &objs[8], &objs[9],
                          &objs[10], &objs[11], &objs[12], &objs[13],
                          &objs[14]))
        return -1;
    if (n_species < 0) {
        PyErr_SetString(PyExc_ValueError, "n_species must be >= 0");
        return -1;
    }
    self->n_species = n_species;
    for (int k = 0; k < N_ARRAYS; k++)
        Py_CLEAR(self->arrays[k]);  /* a failed earlier __init__ */
    for (int k = 0; k < N_ARRAYS; k++) {
        /* Private C-contiguous copies: later edits by the caller cannot
         * reach the kernel. */
        self->arrays[k] = (PyArrayObject *)PyArray_FROM_OTF(
            objs[k], array_types[k],
            NPY_ARRAY_IN_ARRAY | NPY_ARRAY_ENSURECOPY);
        if (self->arrays[k] == NULL)
            return -1;
        if (PyArray_NDIM(self->arrays[k]) != 1) {
            PyErr_Format(PyExc_ValueError, "%s must be one-dimensional",
                         array_names[k]);
            return -1;
        }
        self->len[k] = PyArray_DIM(self->arrays[k], 0);
    }
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
    for (int k = 0; k < N_ARRAYS; k++)
        Py_XDECREF(self->arrays[k]);
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
    for (npy_intp i = 0; i < self->len[STOICH_ROWS]; i++)
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
    npy_intp n_two = self->len[JAC_GATHER], idx = n_two;
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
    for (npy_intp p = 0; p < self->len[JPROD_TARGET]; p++)
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

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_ckinetics",
    .m_doc = "Compiled mass-action kinetics kernel.",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__ckinetics(void)
{
    PyObject *module;
    import_array();
    if (PyType_Ready(&KernelType) < 0)
        return NULL;
    module = PyModule_Create(&module_def);
    if (module == NULL)
        return NULL;
    Py_INCREF(&KernelType);
    if (PyModule_AddObject(module, "Kernel", (PyObject *)&KernelType) < 0) {
        Py_DECREF(&KernelType);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
