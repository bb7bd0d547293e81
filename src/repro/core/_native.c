/*
 * Native kernel backend: the scalar reduction cascade, the two-child
 * branch step and the greedy pass, compiled as one CPython extension.
 *
 * Every function mirrors its pure-Python twin in repro.core.kernels /
 * branching / greedy loop for loop -- ascending-sorted per-sweep drains
 * with per-candidate revalidation, a binary-search triangle test over the
 * sorted CSR rows, snapshot-first high-degree sweeps with the budget
 * re-evaluated per sweep -- so fixpoints, counters and sweep counts are
 * bit-identical to the ``scalar`` backend (tests/test_kernel_backends.py).
 *
 * Arrays cross the boundary through the buffer protocol and are checked
 * there: ``indptr`` int64 of length n + 1, ``indices`` int32 covering
 * ``indptr[n]``, ``deg`` int32 of length n (writable where it is
 * mutated), all C-contiguous.  Dirty hints arrive from checkpoint files
 * and worker frames, so every hint entry is range-checked.  A failed
 * check raises TypeError (wrong kind of object or dtype) or ValueError
 * (shape, layout, writability, range) before any array is touched.
 *
 * The graph's contents are trusted: interior ``indptr`` entries must be
 * non-decreasing and every ``indices`` entry must lie in [0, n), as
 * CSRGraph validation guarantees.  Checking that per call would cost
 * O(n + nnz) per search node, so it is done once where a graph enters
 * from outside the process (a serve-worker receiving it over a socket
 * builds it validated); on a malformed CSR these kernels may read or
 * write out of bounds.  Only the dirty hint is treated as untrusted.
 *
 * Every entry point holds the GIL for the whole call, so the
 * module-static scratch space below needs no lock.  The only Python code
 * that can run mid-call is the formulation's budget callback (and, in
 * principle, a garbage collection triggered by an allocation); a thread
 * switch there could re-enter this module, so scratch is taken with a
 * busy flag and a re-entrant call gets a private heap copy instead.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define REMOVED (-1)

/* ------------------------------------------------------------------ */
/* scratch space                                                       */
/* ------------------------------------------------------------------ */

typedef struct {
    Py_ssize_t cap;
    int32_t *p1;     /* degree-one pending list */
    int32_t *p2;     /* degree-two pending list */
    int32_t *cand;   /* per-sweep sorted candidates / the pivot's live set */
    int32_t *tgt;    /* high-degree snapshot / touched set of a child */
    uint32_t *stamp; /* dedup marks, valid where stamp[v] == epoch */
    uint32_t epoch;
    Py_ssize_t n1, n2;
    int busy;
} Scratch;

static Scratch g_scratch;

static void
scratch_free(Scratch *s)
{
    free(s->p1);
    free(s->p2);
    free(s->cand);
    free(s->tgt);
    free(s->stamp);
    s->p1 = s->p2 = s->cand = s->tgt = NULL;
    s->stamp = NULL;
    s->cap = 0;
}

static int
scratch_reserve(Scratch *s, Py_ssize_t n)
{
    size_t cap;
    if (s->cap >= n && s->p1 != NULL) {
        return 0;
    }
    scratch_free(s);
    cap = (size_t)(n > 16 ? n : 16);
    s->p1 = malloc(cap * sizeof(int32_t));
    s->p2 = malloc(cap * sizeof(int32_t));
    s->cand = malloc(cap * sizeof(int32_t));
    s->tgt = malloc(cap * sizeof(int32_t));
    s->stamp = calloc(cap, sizeof(uint32_t));
    if (!s->p1 || !s->p2 || !s->cand || !s->tgt || !s->stamp) {
        scratch_free(s);
        PyErr_NoMemory();
        return -1;
    }
    s->cap = (Py_ssize_t)cap;
    s->epoch = 0;
    return 0;
}

static Scratch *
scratch_acquire(Py_ssize_t n)
{
    Scratch *s = &g_scratch;
    if (s->busy) {
        s = calloc(1, sizeof(Scratch));
        if (s == NULL) {
            PyErr_NoMemory();
            return NULL;
        }
    }
    if (scratch_reserve(s, n) < 0) {
        if (s != &g_scratch) {
            free(s);
        }
        return NULL;
    }
    s->busy = 1;
    s->n1 = s->n2 = 0;
    return s;
}

static void
scratch_release(Scratch *s)
{
    if (s == &g_scratch) {
        s->busy = 0;
    }
    else {
        scratch_free(s);
        free(s);
    }
}

/* A fresh dedup epoch: stamp[v] == epoch marks v as already collected. */
static uint32_t
scratch_epoch(Scratch *s)
{
    if (++s->epoch == 0) {
        memset(s->stamp, 0, (size_t)s->cap * sizeof(uint32_t));
        s->epoch = 1;
    }
    return s->epoch;
}

/* ------------------------------------------------------------------ */
/* boundary checks                                                     */
/* ------------------------------------------------------------------ */

/* Signed integer buffer formats of the given item size ('@'/'='/'<'
 * prefixes are native on the little-endian hosts this builds for). */
static int
int_format_ok(const char *fmt, Py_ssize_t itemsize, Py_ssize_t want)
{
    if (fmt == NULL || itemsize != want) {
        return 0;
    }
    if (*fmt == '@' || *fmt == '=' || *fmt == '<') {
        fmt++;
    }
    if (fmt[0] == '\0' || fmt[1] != '\0') {
        return 0;
    }
    return fmt[0] == 'i' || fmt[0] == 'l' || fmt[0] == 'q' || fmt[0] == 'n';
}

/* Take a 1-d C-contiguous signed-int buffer of `itemsize` bytes per item;
 * `length` < 0 skips the length check.  On failure nothing is held. */
static int
get_int_array(PyObject *obj, Py_buffer *view, const char *name,
              Py_ssize_t itemsize, int writable, Py_ssize_t length)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0) {
        PyErr_Clear();
        PyErr_Format(PyExc_TypeError,
                     "%s must be an int%zd array, not %.80s",
                     name, itemsize * 8, Py_TYPE(obj)->tp_name);
        return -1;
    }
    if (!int_format_ok(view->format, view->itemsize, itemsize)) {
        PyErr_Format(PyExc_TypeError,
                     "%s must be an int%zd array (buffer format '%s')",
                     name, itemsize * 8, view->format ? view->format : "B");
        goto fail;
    }
    if (view->ndim != 1) {
        PyErr_Format(PyExc_ValueError, "%s must be 1-dimensional, not %d-d",
                     name, view->ndim);
        goto fail;
    }
    if (!PyBuffer_IsContiguous(view, 'C')) {
        PyErr_Format(PyExc_ValueError, "%s must be C-contiguous", name);
        goto fail;
    }
    if (writable && view->readonly) {
        PyErr_Format(PyExc_ValueError, "%s must be writable", name);
        goto fail;
    }
    if (length >= 0 && view->len / itemsize != length) {
        PyErr_Format(PyExc_ValueError, "%s has length %zd, expected %zd",
                     name, view->len / itemsize, length);
        goto fail;
    }
    return 0;
fail:
    PyBuffer_Release(view);
    return -1;
}

/* The CSR graph plus one degree array, validated together. */
typedef struct {
    Py_buffer ip, ix, dg;
    const int64_t *indptr;
    const int32_t *indices;
    int32_t *deg;
    Py_ssize_t n;
} Views;

static int
views_get(Views *v, PyObject *indptr, PyObject *indices, PyObject *deg,
          int deg_writable)
{
    Py_ssize_t nnz;
    if (get_int_array(indptr, &v->ip, "indptr", 8, 0, -1) < 0) {
        return -1;
    }
    v->n = v->ip.len / 8 - 1;
    if (v->n < 0 || v->n > INT32_MAX) {
        PyErr_SetString(PyExc_ValueError,
                        "indptr must have length n + 1 with 0 <= n < 2**31");
        PyBuffer_Release(&v->ip);
        return -1;
    }
    v->indptr = (const int64_t *)v->ip.buf;
    if (get_int_array(indices, &v->ix, "indices", 4, 0, -1) < 0) {
        PyBuffer_Release(&v->ip);
        return -1;
    }
    nnz = v->ix.len / 4;
    if (v->indptr[0] != 0 || v->indptr[v->n] < 0 || v->indptr[v->n] > nnz) {
        PyErr_Format(PyExc_ValueError,
                     "indptr spans [%lld, %lld) but indices has length %zd",
                     (long long)v->indptr[0], (long long)v->indptr[v->n], nnz);
        PyBuffer_Release(&v->ix);
        PyBuffer_Release(&v->ip);
        return -1;
    }
    v->indices = (const int32_t *)v->ix.buf;
    if (get_int_array(deg, &v->dg, "deg", 4, deg_writable, v->n) < 0) {
        PyBuffer_Release(&v->ix);
        PyBuffer_Release(&v->ip);
        return -1;
    }
    v->deg = (int32_t *)v->dg.buf;
    return 0;
}

static void
views_release(Views *v)
{
    PyBuffer_Release(&v->dg);
    PyBuffer_Release(&v->ix);
    PyBuffer_Release(&v->ip);
}

static int
arg_ll(PyObject *obj, const char *name, long long *out)
{
    PyObject *idx = PyNumber_Index(obj);
    if (idx == NULL) {
        PyErr_Format(PyExc_TypeError, "%s must be an int, not %.80s",
                     name, Py_TYPE(obj)->tp_name);
        return -1;
    }
    *out = PyLong_AsLongLong(idx);
    Py_DECREF(idx);
    if (*out == -1 && PyErr_Occurred()) {
        return -1;
    }
    return 0;
}

static PyObject *
inconsistent(void)
{
    PyErr_SetString(PyExc_ValueError,
                    "degree array is inconsistent with the graph "
                    "(a candidate has fewer alive neighbours than its degree)");
    return NULL;
}

/* ------------------------------------------------------------------ */
/* the rule exhausts (twins of repro.core.kernels.scalar_*)             */
/* ------------------------------------------------------------------ */

typedef struct {
    const int64_t *indptr;
    const int32_t *indices;
    int32_t *deg;
    Py_ssize_t n;
    Scratch *s;
} K;

/* Remove u into the cover; enqueue neighbours arriving at degree 1 or 2.
 * Each vertex reaches either degree at most once (degrees only fall), so
 * the pending lists never outgrow n. */
static inline long long
k_remove(K *k, int32_t u)
{
    const int32_t *row = k->indices + k->indptr[u];
    const int32_t *end = k->indices + k->indptr[u + 1];
    int32_t *deg = k->deg;
    Scratch *s = k->s;
    long long deleted = 0;
    deg[u] = REMOVED;
    for (; row < end; row++) {
        int32_t x = *row;
        int32_t dx = deg[x];
        if (dx >= 0) {
            deleted++;
            dx--;
            deg[x] = dx;
            if (dx == 1) {
                s->p1[s->n1++] = x;
            }
            else if (dx == 2) {
                s->p2[s->n2++] = x;
            }
        }
    }
    return deleted;
}

static int
cmp_ids(const void *a, const void *b)
{
    int32_t x = *(const int32_t *)a, y = *(const int32_t *)b;
    return (x > y) - (x < y);
}

/* Move a pending list into the candidate buffer in ascending id order
 * (np.flatnonzero order, as the per-sweep rescan of the reference). */
static Py_ssize_t
drain_sorted(Scratch *s, int32_t *pending, Py_ssize_t *count)
{
    Py_ssize_t m = *count;
    memcpy(s->cand, pending, (size_t)m * sizeof(int32_t));
    *count = 0;
    qsort(s->cand, (size_t)m, sizeof(int32_t), cmp_ids);
    return m;
}

static int
degree_one_exhaust(K *k, long long *fires, long long *deleted)
{
    Scratch *s = k->s;
    int32_t *deg = k->deg;
    *fires = *deleted = 0;
    while (s->n1 > 0) {
        Py_ssize_t m = drain_sorted(s, s->p1, &s->n1), j;
        for (j = 0; j < m; j++) {
            int32_t v = s->cand[j], u = -1;
            int64_t i;
            if (deg[v] != 1) {
                continue;  /* an earlier removal in this sweep changed v */
            }
            for (i = k->indptr[v]; i < k->indptr[v + 1]; i++) {
                if (deg[k->indices[i]] >= 0) {
                    u = k->indices[i];
                    break;
                }
            }
            if (u < 0) {
                return -1;
            }
            *deleted += k_remove(k, u);
            (*fires)++;
        }
    }
    return 0;
}

/* Binary search for w in u's sorted CSR row: the static triangle test. */
static int
has_edge(const K *k, int32_t u, int32_t w)
{
    int64_t lo = k->indptr[u], hi = k->indptr[u + 1];
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        int32_t x = k->indices[mid];
        if (x < w) {
            lo = mid + 1;
        }
        else if (x > w) {
            hi = mid;
        }
        else {
            return 1;
        }
    }
    return 0;
}

static int
degree_two_exhaust(K *k, long long *fires, long long *deleted)
{
    Scratch *s = k->s;
    int32_t *deg = k->deg;
    *fires = *deleted = 0;
    while (s->n2 > 0) {
        Py_ssize_t m = drain_sorted(s, s->p2, &s->n2), j;
        for (j = 0; j < m; j++) {
            int32_t v = s->cand[j], u = -1, w = -1;
            int64_t i;
            if (deg[v] != 2) {
                continue;
            }
            for (i = k->indptr[v]; i < k->indptr[v + 1]; i++) {
                int32_t x = k->indices[i];
                if (deg[x] >= 0) {
                    if (u < 0) {
                        u = x;
                    }
                    else {
                        w = x;
                        break;
                    }
                }
            }
            if (w < 0) {
                return -1;
            }
            if (!has_edge(k, u, w)) {
                continue;  /* frozen non-triangle until v's degree changes */
            }
            *deleted += k_remove(k, u);
            *deleted += k_remove(k, w);
            (*fires)++;
        }
    }
    return 0;
}

static int32_t
max_degree(const K *k)
{
    Py_ssize_t v;
    int32_t mx;
    if (k->n == 0) {
        return 0;
    }
    mx = k->deg[0];
    for (v = 1; v < k->n; v++) {
        if (k->deg[v] > mx) {
            mx = k->deg[v];
        }
    }
    return mx;
}

/* budget_of(cover): the formulation's callback, or -- budget_of == NULL --
 * the greedy pass's trivial bound n - cover. */
static int
budget_at(K *k, PyObject *budget_of, long long cover, long long *out)
{
    PyObject *arg, *res;
    int rc;
    if (budget_of == NULL) {
        *out = (long long)k->n - cover;
        return 0;
    }
    arg = PyLong_FromLongLong(cover);
    if (arg == NULL) {
        return -1;
    }
    res = PyObject_CallOneArg(budget_of, arg);
    Py_DECREF(arg);
    if (res == NULL) {
        return -1;
    }
    rc = arg_ll(res, "budget", out);
    Py_DECREF(res);
    return rc;
}

/* Snapshot-first high-degree exhaust: every vertex above the budget is
 * collected before any removal (a removal may drop a later target below
 * the budget; the serial rule still removes it).  `max_deg` is the
 * stale-high bound that skips the O(n) scan while the budget is slack. */
static int
high_degree_exhaust(K *k, PyObject *budget_of, long long cover,
                    long long *max_deg, long long *fires, long long *deleted)
{
    Scratch *s = k->s;
    *fires = *deleted = 0;
    for (;;) {
        long long budget;
        Py_ssize_t v, t = 0, j;
        if (budget_at(k, budget_of, cover + *fires, &budget) < 0) {
            return -2;
        }
        if (budget < 0 || *max_deg <= budget) {
            return 0;
        }
        for (v = 0; v < k->n; v++) {
            if (k->deg[v] > budget) {
                s->tgt[t++] = (int32_t)v;
            }
        }
        if (t == 0) {
            *max_deg = max_degree(k);  /* exact again; REMOVED is negative */
            return 0;
        }
        for (j = 0; j < t; j++) {
            *deleted += k_remove(k, s->tgt[j]);
        }
        *fires += t;
    }
}

/* One round of the three exhausts in the reference order.  Returns -1 on
 * an inconsistent degree array, -2 with a Python error set. */
static int
cascade_round(K *k, PyObject *budget_of, long long *cover, long long *edges,
              long long *max_deg, long long *f1, long long *f2, long long *fh)
{
    long long e1, e2, eh;
    int rc;
    if (degree_one_exhaust(k, f1, &e1) < 0 || degree_two_exhaust(k, f2, &e2) < 0) {
        return -1;
    }
    *cover += *f1 + 2 * *f2;
    rc = high_degree_exhaust(k, budget_of, *cover, max_deg, fh, &eh);
    if (rc < 0) {
        return rc;
    }
    *cover += *fh;
    *edges -= e1 + e2 + eh;
    return 0;
}

/* ------------------------------------------------------------------ */
/* dirty-hint seeding                                                  */
/* ------------------------------------------------------------------ */

static inline int
seed_one(K *k, long long v, uint32_t epoch)
{
    Scratch *s = k->s;
    int32_t dv;
    if (v < 0 || v >= k->n) {
        PyErr_Format(PyExc_ValueError,
                     "dirty hint entry %lld out of range for n=%zd", v, k->n);
        return -1;
    }
    if (s->stamp[v] == epoch) {
        return 0;  /* duplicates are allowed in hints; seed each vertex once */
    }
    s->stamp[v] = epoch;
    dv = k->deg[v];
    if (dv == 2) {
        s->p2[s->n2++] = (int32_t)v;
    }
    else if (dv == 1) {
        s->p1[s->n1++] = (int32_t)v;
    }
    return 0;
}

/* Seed the pending lists from a hint: an int32/int64 buffer, or any
 * sequence of ints.  Every entry is range-checked. */
static int
seed_from_hint(K *k, PyObject *hint)
{
    uint32_t epoch = scratch_epoch(k->s);
    Py_buffer view;
    Py_ssize_t i, m;
    if (PyObject_CheckBuffer(hint)
            && PyObject_GetBuffer(hint, &view, PyBUF_RECORDS_RO) == 0) {
        int wide = int_format_ok(view.format, view.itemsize, 8);
        int narrow = int_format_ok(view.format, view.itemsize, 4);
        if ((!wide && !narrow) || view.ndim != 1
                || !PyBuffer_IsContiguous(&view, 'C')) {
            PyBuffer_Release(&view);
            PyErr_SetString(PyExc_TypeError,
                            "dirty hint must be a 1-d contiguous int32/int64 "
                            "array or a sequence of ints");
            return -1;
        }
        m = view.len / view.itemsize;
        for (i = 0; i < m; i++) {
            long long v = wide ? (long long)((const int64_t *)view.buf)[i]
                               : (long long)((const int32_t *)view.buf)[i];
            if (seed_one(k, v, epoch) < 0) {
                PyBuffer_Release(&view);
                return -1;
            }
        }
        PyBuffer_Release(&view);
        return 0;
    }
    PyErr_Clear();
    {
        PyObject *seq = PySequence_Fast(hint, "dirty hint must be a sequence of ints");
        PyObject **items;
        if (seq == NULL) {
            PyErr_SetString(PyExc_TypeError,
                            "dirty hint must be None, an int array or a "
                            "sequence of ints");
            return -1;
        }
        m = PySequence_Fast_GET_SIZE(seq);
        items = PySequence_Fast_ITEMS(seq);
        for (i = 0; i < m; i++) {
            long long v;
            if (arg_ll(items[i], "dirty hint entry", &v) < 0
                    || seed_one(k, v, epoch) < 0) {
                Py_DECREF(seq);
                return -1;
            }
        }
        Py_DECREF(seq);
    }
    return 0;
}

static void
seed_full_scan(K *k)
{
    Scratch *s = k->s;
    Py_ssize_t v;
    for (v = 0; v < k->n; v++) {
        int32_t dv = k->deg[v];
        if (dv == 1) {
            s->p1[s->n1++] = (int32_t)v;
        }
        else if (dv == 2) {
            s->p2[s->n2++] = (int32_t)v;
        }
    }
}

/* ------------------------------------------------------------------ */
/* reduce                                                              */
/* ------------------------------------------------------------------ */

PyDoc_STRVAR(reduce_doc,
"reduce(indptr, indices, deg, hint, max_deg_hint, cover, edges, budget_of)\n"
"--\n\n"
"Run the reduction cascade on ``deg`` in place (the scalar backend's\n"
"cascade, compiled).  ``hint`` is the consumed dirty set or None for a\n"
"full rescan; ``budget_of(cover)`` is the formulation's budget, called\n"
"once per high-degree sweep.  Returns ``(cover, edges, max_deg_hint,\n"
"degree_one, degree_two_triangle, high_degree, sweeps)``.");

static PyObject *
native_reduce(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Views v;
    K k;
    Scratch *s;
    long long max_deg, cover, edges, budget;
    long long c1 = 0, c2 = 0, ch = 0, sweeps = 0;
    PyObject *hint, *budget_of, *result = NULL;
    int rc = 0;

    if (nargs != 8) {
        PyErr_Format(PyExc_TypeError, "reduce() takes 8 arguments (%zd given)", nargs);
        return NULL;
    }
    hint = args[3];
    budget_of = args[7];
    if (!PyCallable_Check(budget_of)) {
        PyErr_SetString(PyExc_TypeError, "budget_of must be callable");
        return NULL;
    }
    if (arg_ll(args[4], "max_deg_hint", &max_deg) < 0
            || arg_ll(args[5], "cover", &cover) < 0
            || arg_ll(args[6], "edges", &edges) < 0) {
        return NULL;
    }
    if (views_get(&v, args[0], args[1], args[2], 1) < 0) {
        return NULL;
    }
    s = scratch_acquire(v.n);
    if (s == NULL) {
        views_release(&v);
        return NULL;
    }
    k.indptr = v.indptr;
    k.indices = v.indices;
    k.deg = v.deg;
    k.n = v.n;
    k.s = s;

    if (hint == Py_None) {
        seed_full_scan(&k);
        max_deg = max_degree(&k);
    }
    else {
        if (seed_from_hint(&k, hint) < 0) {
            goto done;
        }
        if (max_deg < 0) {  /* no ancestor bound */
            max_deg = max_degree(&k);
        }
    }
    if (s->n1 == 0 && s->n2 == 0) {
        if (budget_at(&k, budget_of, cover, &budget) < 0) {
            goto done;
        }
        if (budget < 0 || max_deg <= budget) {
            /* no rule can fire: one empty round, as the reference does */
            result = Py_BuildValue("(LLLLLLL)", cover, edges, max_deg,
                                   0LL, 0LL, 0LL, 1LL);
            goto done;
        }
    }
    for (;;) {
        long long f1, f2, fh;
        rc = cascade_round(&k, budget_of, &cover, &edges, &max_deg, &f1, &f2, &fh);
        if (rc < 0) {
            break;
        }
        c1 += f1;
        c2 += 2 * f2;
        ch += fh;
        sweeps++;
        if (!(f1 || f2 || fh)) {
            break;
        }
    }
    if (rc == -1) {
        inconsistent();
    }
    else if (rc == 0) {
        result = Py_BuildValue("(LLLLLLL)", cover, edges, max_deg, c1, c2, ch, sweeps);
    }
done:
    scratch_release(s);
    views_release(&v);
    return result;
}

/* ------------------------------------------------------------------ */
/* expand_children                                                     */
/* ------------------------------------------------------------------ */

static PyObject *
ids_to_array(const int32_t *ids, Py_ssize_t m)
{
    npy_intp dims[1];
    PyObject *arr;
    int64_t *out;
    Py_ssize_t i;
    dims[0] = (npy_intp)m;
    arr = PyArray_SimpleNew(1, dims, NPY_INT64);
    if (arr == NULL) {
        return NULL;
    }
    out = (int64_t *)PyArray_DATA((PyArrayObject *)arr);
    for (i = 0; i < m; i++) {
        out[i] = ids[i];
    }
    return arr;
}

PyDoc_STRVAR(expand_doc,
"expand_children(indptr, indices, deg, out, vmax)\n"
"--\n\n"
"The branch step on ``vmax``.  Writes the deferred child (every alive\n"
"neighbour of ``vmax`` removed into the cover) into ``out`` and turns\n"
"``deg`` into the continued child (``vmax`` removed) in place.  Returns\n"
"``(deferred_edges_deleted, n_live, deferred_hint, continued_hint)``;\n"
"the hints are exact-size int64 arrays of the vertices each child's\n"
"removals brought to degree <= 2.");

static PyObject *
native_expand_children(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Views v;
    Py_buffer ob;
    Scratch *s;
    int32_t *deg, *out, *live;
    long long vmax, deleted = 0;
    Py_ssize_t nl = 0, td = 0, tc = 0, j;
    uint32_t epoch;
    int64_t i;
    PyObject *hint_def = NULL, *hint_cont = NULL, *result = NULL;

    if (nargs != 5) {
        PyErr_Format(PyExc_TypeError,
                     "expand_children() takes 5 arguments (%zd given)", nargs);
        return NULL;
    }
    if (arg_ll(args[4], "vmax", &vmax) < 0) {
        return NULL;
    }
    if (views_get(&v, args[0], args[1], args[2], 1) < 0) {
        return NULL;
    }
    if (get_int_array(args[3], &ob, "out", 4, 1, v.n) < 0) {
        views_release(&v);
        return NULL;
    }
    if (vmax < 0 || vmax >= v.n || v.deg[vmax] < 0) {
        PyErr_Format(PyExc_ValueError,
                     "pivot %lld is not an alive vertex of the n=%zd graph",
                     vmax, v.n);
        goto release_views;
    }
    if (ob.buf == v.dg.buf) {
        PyErr_SetString(PyExc_ValueError, "out must not alias deg");
        goto release_views;
    }
    s = scratch_acquire(v.n);
    if (s == NULL) {
        goto release_views;
    }
    deg = v.deg;
    out = (int32_t *)ob.buf;
    live = s->cand;
    /* both children need N_alive(vmax); compute it once from the parent */
    for (i = v.indptr[vmax]; i < v.indptr[vmax + 1]; i++) {
        int32_t u = v.indices[i];
        if (deg[u] >= 0) {
            live[nl++] = u;
        }
    }
    /* deferred child: sequential removal of the fixed set N_alive(vmax)
     * equals the batch removal (a member stays alive -- merely
     * decremented -- until its own turn) */
    memcpy(out, deg, (size_t)v.n * sizeof(int32_t));
    epoch = scratch_epoch(s);
    for (j = 0; j < nl; j++) {
        int32_t u = live[j];
        out[u] = REMOVED;
        for (i = v.indptr[u]; i < v.indptr[u + 1]; i++) {
            int32_t x = v.indices[i];
            int32_t dx = out[x];
            if (dx >= 0) {
                deleted++;
                dx--;
                out[x] = dx;
                if (dx <= 2 && s->stamp[x] != epoch) {
                    s->stamp[x] = epoch;
                    s->tgt[td++] = x;
                }
            }
        }
    }
    hint_def = ids_to_array(s->tgt, td);
    if (hint_def == NULL) {
        goto release_all;
    }
    /* continued child: remove vmax alone, in place */
    for (j = 0; j < nl; j++) {
        int32_t x = live[j];
        int32_t dx = deg[x] - 1;
        deg[x] = dx;
        if (dx <= 2) {
            s->tgt[tc++] = x;
        }
    }
    deg[vmax] = REMOVED;
    hint_cont = ids_to_array(s->tgt, tc);
    if (hint_cont == NULL) {
        goto release_all;
    }
    result = Py_BuildValue("(LnOO)", deleted, nl, hint_def, hint_cont);
release_all:
    Py_XDECREF(hint_def);
    Py_XDECREF(hint_cont);
    scratch_release(s);
release_views:
    PyBuffer_Release(&ob);
    views_release(&v);
    return result;
}

/* ------------------------------------------------------------------ */
/* greedy_cover                                                        */
/* ------------------------------------------------------------------ */

PyDoc_STRVAR(greedy_doc,
"greedy_cover(indptr, indices, deg, edges)\n"
"--\n\n"
"The greedy upper-bound pass on ``deg`` (the static degrees, mutated in\n"
"place into the final cover encoding): one round of the three rule\n"
"exhausts under the trivial budget ``n - |S|``, then the lowest-id\n"
"maximum-degree pick, until no edge is left.  Returns ``(cover, picks,\n"
"degree_one, degree_two_triangle, high_degree)``.");

static PyObject *
native_greedy_cover(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Views v;
    K k;
    Scratch *s;
    long long edges, cover = 0, picks = 0, c1 = 0, c2 = 0, ch = 0, max_deg;
    PyObject *result = NULL;
    int rc = 0;

    if (nargs != 4) {
        PyErr_Format(PyExc_TypeError,
                     "greedy_cover() takes 4 arguments (%zd given)", nargs);
        return NULL;
    }
    if (arg_ll(args[3], "edges", &edges) < 0) {
        return NULL;
    }
    if (views_get(&v, args[0], args[1], args[2], 1) < 0) {
        return NULL;
    }
    s = scratch_acquire(v.n);
    if (s == NULL) {
        views_release(&v);
        return NULL;
    }
    k.indptr = v.indptr;
    k.indices = v.indices;
    k.deg = v.deg;
    k.n = v.n;
    k.s = s;
    seed_full_scan(&k);
    max_deg = max_degree(&k);
    while (edges > 0) {
        long long f1, f2, fh;
        Py_ssize_t u, vmax;
        rc = cascade_round(&k, NULL, &cover, &edges, &max_deg, &f1, &f2, &fh);
        if (rc < 0) {
            break;
        }
        c1 += f1;
        c2 += 2 * f2;
        ch += fh;
        if (edges == 0) {
            break;
        }
        /* pick: lowest-id maximum-degree vertex (argmax semantics) */
        vmax = 0;
        for (u = 1; u < v.n; u++) {
            if (v.deg[u] > v.deg[vmax]) {
                vmax = u;
            }
        }
        if (v.n == 0 || v.deg[vmax] <= 0) {
            rc = -1;  /* edges left but no alive vertex carries one */
            break;
        }
        edges -= k_remove(&k, (int32_t)vmax);
        cover++;
        picks++;
    }
    if (rc < 0) {
        inconsistent();
    }
    else {
        result = Py_BuildValue("(LLLLL)", cover, picks, c1, c2, ch);
    }
    scratch_release(s);
    views_release(&v);
    return result;
}

/* ------------------------------------------------------------------ */
/* module                                                              */
/* ------------------------------------------------------------------ */

static PyMethodDef native_methods[] = {
    {"reduce", (PyCFunction)(void (*)(void))native_reduce,
     METH_FASTCALL, reduce_doc},
    {"expand_children", (PyCFunction)(void (*)(void))native_expand_children,
     METH_FASTCALL, expand_doc},
    {"greedy_cover", (PyCFunction)(void (*)(void))native_greedy_cover,
     METH_FASTCALL, greedy_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    "_native",
    "Compiled kernels of the 'native' KERNELS backend "
    "(see repro.core.native for the build-on-first-use loader).",
    -1,
    native_methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC
PyInit__native(void)
{
    import_array();
    return PyModule_Create(&native_module);
}
