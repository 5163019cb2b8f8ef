/* Compiled ensemble step kernel; bondlab._kernels_py is its numpy twin.
 *
 * step_exp_shift maps each path's node values p to (L_dt [p * exp(c)])(x_j),
 * c = dw[0] sig[0] + ... + dw[n-1] sig[n-1] + base summed factor by factor as
 * in _kernels_py.exponent. L_dt translates left by dt = (k0 + frac) dx with
 * linear interpolation; nodes landing strictly beyond x_max take the fill.
 * setup.py builds it with -ffast-math, so gcc calls libmvec's SIMD exp, and
 * -ffp-contract=off, so the exponent rounds after each product and sum as in
 * numpy. It defines BONDLAB_FLAGS and BONDLAB_SOURCE_SHA256, exported as FLAGS
 * and SOURCE_SHA256 so that a stale build can be recognised.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdlib.h>
#include <string.h>

#if !defined(BONDLAB_FLAGS) || !defined(BONDLAB_SOURCE_SHA256)
#error "build with setup.py, which defines BONDLAB_FLAGS and BONDLAB_SOURCE_SHA256"
#endif

/* With FMA hardware the interpolation rounds once, as in earlier builds of
 * this kernel, where gcc contracted it; elsewhere it rounds per operation. */
#ifdef __FMA__
#define LERP(w0, a, frac, b) fma((w0), (a), (frac) * (b))
#else
#define LERP(w0, a, frac, b) ((w0) * (a) + (frac) * (b))
#endif

/* Acquires a float64 buffer with lo..hi axes and a contiguous last axis. */
static int get_buffer(PyObject *obj, Py_buffer *view, int writable, int lo, int hi, const char *name)
{
    int flags = PyBUF_STRIDES | PyBUF_FORMAT | (writable ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    if (view->itemsize == sizeof(double) && strcmp(view->format, "d") == 0 && view->ndim >= lo &&
        view->ndim <= hi && view->strides[view->ndim - 1] == sizeof(double))
        return 0;
    PyErr_Format(PyExc_ValueError, "%s must be float64 with %d to %d axes and a contiguous last axis",
                 name, lo, hi);
    PyBuffer_Release(view);
    return -1;
}

#define ROW(view, p, stride) ((const double *)((const char *)(view).buf + (p) * (stride)))

static PyObject *step_exp_shift(PyObject *self, PyObject *args)
{
    PyObject *objs[6];
    Py_buffer states, dw, sig, base, fill, out;
    Py_buffer *views[6] = {&states, &dw, &sig, &base, &fill, &out};
    static const char *names[6] = {"states", "dw", "sig", "base", "fill", "out"};
    static const int lo[6] = {2, 2, 2, 1, 1, 2}, hi[6] = {2, 2, 3, 2, 1, 2};
    Py_ssize_t k0;
    double frac;
    int got = 0;
    PyObject *result = NULL;

    if (!PyArg_ParseTuple(args, "OOOOOndO:step_exp_shift", &objs[0], &objs[1], &objs[2],
                          &objs[3], &objs[4], &k0, &frac, &objs[5]))
        return NULL;
    for (; got < 6; got++)
        if (get_buffer(objs[got], views[got], got == 5, lo[got], hi[got], names[got]) < 0)
            goto done;

    const Py_ssize_t n_paths = states.shape[0], n = states.shape[1], n_factors = dw.shape[1];
    const int sig_paths = sig.ndim == 3, base_paths = base.ndim == 2;
    if (out.shape[0] != n_paths || out.shape[1] != n || dw.shape[0] != n_paths ||
        fill.shape[0] != n_paths || n_factors < 1 || k0 < 0 ||
        sig.shape[sig.ndim - 2] != n_factors || sig.shape[sig.ndim - 1] != n ||
        (sig_paths && sig.shape[0] != n_paths) || base.shape[base.ndim - 1] != n ||
        (base_paths && base.shape[0] != n_paths)) {
        PyErr_SetString(PyExc_ValueError, "step_exp_shift: inconsistent shapes or k0 < 0");
        goto done;
    }
    /* a path-less sig or base is shared: stride 0 along the path axis */
    const Py_ssize_t sig_stride = sig_paths ? sig.strides[0] : 0;
    const Py_ssize_t factor_stride = sig.strides[sig.ndim - 2];
    const Py_ssize_t base_stride = base_paths ? base.strides[0] : 0;
    const double w0 = 1.0 - frac;
    double *t = malloc((n > 0 ? n : 1) * sizeof(double));
    if (t == NULL) { PyErr_NoMemory(); goto done; }

    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t p = 0; p < n_paths; p++) {
        const double *s = ROW(states, p, states.strides[0]);
        const double *d = ROW(dw, p, dw.strides[0]);
        const double *g = ROW(sig, p, sig_stride);
        const double *b = ROW(base, p, base_stride);
        const double fv = *ROW(fill, p, fill.strides[0]);
        double *o = (double *)ROW(out, p, out.strides[0]);
        Py_ssize_t j, m;

        for (j = 0; j < n; j++)
            t[j] = d[0] * g[j];
        for (Py_ssize_t i = 1; i < n_factors; i++) {
            const double di = d[i], *gi = (const double *)((const char *)g + i * factor_stride);
            for (j = 0; j < n; j++)
                t[j] += di * gi[j];
        }
        for (j = 0; j < n; j++)
            t[j] = s[j] * exp(t[j] + b[j]);

        if (k0 >= n) {
            m = 0;
        } else if (frac == 0.0) {
            m = n - k0;
            memcpy(o, t + k0, m * sizeof(double));
        } else {
            m = n - k0 - 1; /* nodes with j + k0 >= n - 1 land beyond x_max */
            for (j = 0; j < m; j++)
                o[j] = LERP(w0, t[j + k0], frac, t[j + k0 + 1]);
        }
        for (j = m; j < n; j++)
            o[j] = fv;
    }
    Py_END_ALLOW_THREADS

    free(t);
    result = Py_NewRef(Py_None);
done:
    while (got-- > 0)
        PyBuffer_Release(views[got]);
    return result;
}

static PyMethodDef methods[] = {
    {"step_exp_shift", step_exp_shift, METH_VARARGS,
     "step_exp_shift(states, dw, sig, base, fill, k0, frac, out)\n\n"
     "See bondlab._kernels_py.step_exp_shift for the contract."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "bondlab._kernels", "Compiled ensemble step kernel.", -1, methods,
};

PyMODINIT_FUNC PyInit__kernels(void)
{
    PyObject *mod = PyModule_Create(&module);
    if (mod == NULL || PyModule_AddStringConstant(mod, "BACKEND", "compiled") < 0 ||
        PyModule_AddStringConstant(mod, "FLAGS", BONDLAB_FLAGS) < 0 ||
        PyModule_AddStringConstant(mod, "SOURCE_SHA256", BONDLAB_SOURCE_SHA256) < 0) {
        Py_XDECREF(mod);
        return NULL;
    }
    return mod;
}
