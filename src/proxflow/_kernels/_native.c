/* Compiled twin of the numpy fallback: per-row Durand–Kerner in C.
 *
 * Rows hold the ascending non-leading coefficients [q_0, ..., q_{d-1}] of
 * a real monic polynomial; the result is the max root modulus per row.
 * Built with -ffp-contract=off (see setup.py), so no multiply-add is
 * fused: after libm's start values every operation is an IEEE basic
 * operation in the fallback's order, and the two give the same bits. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

#define MAX_DEGREE 16
#define MAX_ITER 120
#define TOL 1e-13

static inline double cabs2(double re, double im) { return re * re + im * im; }

static double row_radius(const double *q, int d)
{
    double zr[MAX_DEGREE], zi[MAX_DEGREE];
    double pr, pi, tr, ti, dr, di, wr, wi, den;
    double qmax, r0, ang, step, zmax, best;
    int i, j, k, it;

    if (d == 1)
        return fabs(q[0]);
    if (d == 2) {
        /* z^2 + q1 z + q0 */
        den = q[1] * q[1] - 4.0 * q[0];
        if (den < 0.0)
            return sqrt(q[0]);
        return 0.5 * (fabs(q[1]) + sqrt(den));
    }

    qmax = 0.0;
    for (i = 0; i < d; i++)
        if (fabs(q[i]) > qmax)
            qmax = fabs(q[i]);
    if (qmax == 0.0)
        return 0.0;
    r0 = 1.0 + qmax;
    for (j = 0; j < d; j++) {
        ang = 6.283185307179586 * j / d + 0.4;
        zr[j] = r0 * cos(ang);
        zi[j] = r0 * sin(ang);
    }

    for (it = 0; it < MAX_ITER; it++) {
        step = 0.0;
        zmax = 0.0;
        for (j = 0; j < d; j++) {
            /* Horner evaluation of p at z_j */
            pr = 1.0;
            pi = 0.0;
            for (i = d - 1; i >= 0; i--) {
                tr = pr * zr[j] - pi * zi[j] + q[i];
                ti = pr * zi[j] + pi * zr[j];
                pr = tr;
                pi = ti;
            }
            /* denominator: prod_{k != j} (z_j - z_k) */
            dr = 1.0;
            di = 0.0;
            for (k = 0; k < d; k++) {
                if (k == j)
                    continue;
                tr = dr * (zr[j] - zr[k]) - di * (zi[j] - zi[k]);
                ti = dr * (zi[j] - zi[k]) + di * (zr[j] - zr[k]);
                dr = tr;
                di = ti;
            }
            den = cabs2(dr, di);
            if (den == 0.0) {
                den = 1e-300;
                dr = 1e-150;
                di = 0.0;
            }
            wr = (pr * dr + pi * di) / den;
            wi = (pi * dr - pr * di) / den;
            zr[j] -= wr;
            zi[j] -= wi;
            if (cabs2(wr, wi) > step)
                step = cabs2(wr, wi);
            if (cabs2(zr[j], zi[j]) > zmax)
                zmax = cabs2(zr[j], zi[j]);
        }
        if (sqrt(step) <= TOL * (1.0 + sqrt(zmax)))
            break;
    }

    best = 0.0;
    for (j = 0; j < d; j++) {
        den = cabs2(zr[j], zi[j]);
        if (den > best)
            best = den;
    }
    return sqrt(best);
}

/* The float64 buffer of ``obj``, C-contiguous and of ``ndim`` dimensions. */
static int get_doubles(PyObject *obj, Py_buffer *view, int ndim, int flags, const char *name)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | flags) < 0)
        return -1;
    if (view->ndim != ndim || view->itemsize != sizeof(double) || strcmp(view->format, "d") != 0) {
        PyErr_Format(PyExc_ValueError, "%s must be a %d-D float64 array", name, ndim);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

static PyObject *max_root_modulus_batch(PyObject *self, PyObject *args)
{
    PyObject *coeffs_obj, *out_obj;
    Py_buffer coeffs, out;
    Py_ssize_t n, d, r;

    if (!PyArg_ParseTuple(args, "OO:max_root_modulus_batch", &coeffs_obj, &out_obj)
        || get_doubles(coeffs_obj, &coeffs, 2, 0, "coeffs") < 0)
        return NULL;
    if (get_doubles(out_obj, &out, 1, PyBUF_WRITABLE, "out") < 0) {
        PyBuffer_Release(&coeffs);
        return NULL;
    }
    n = coeffs.shape[0];
    d = coeffs.shape[1];
    if (d < 1 || d > MAX_DEGREE)
        PyErr_Format(PyExc_ValueError, "degree must be in 1..%d, got %zd", MAX_DEGREE, d);
    else if (out.shape[0] != n)
        PyErr_Format(PyExc_ValueError, "out has %zd entries for %zd rows", out.shape[0], n);
    else {
        Py_BEGIN_ALLOW_THREADS
        for (r = 0; r < n; r++)
            ((double *)out.buf)[r] = row_radius((const double *)coeffs.buf + r * d, (int)d);
        Py_END_ALLOW_THREADS
    }
    PyBuffer_Release(&out);
    PyBuffer_Release(&coeffs);
    if (PyErr_Occurred())
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"max_root_modulus_batch", max_root_modulus_batch, METH_VARARGS,
     "max_root_modulus_batch(coeffs, out): the max root modulus of each row of\n"
     "the C-contiguous float64 (N, d) ``coeffs``, written into the (N,) ``out``."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_native", NULL, -1, methods};

PyMODINIT_FUNC PyInit__native(void) { return PyModule_Create(&module); }
