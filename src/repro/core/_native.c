/*
 * Native kernel backend: the scalar reduction cascade, the two-child
 * branch step and the greedy pass, compiled as one CPython extension,
 * plus ``Walker``, the whole depth-first branch-and-reduce loop of
 * repro.core.sequential.branch_and_reduce on a stack it keeps between
 * calls, and ``search``, one Walker run to exhaustion or a node budget.
 *
 * Every function mirrors its pure-Python twin in repro.core.kernels /
 * branching / greedy / sequential loop for loop -- ascending-sorted
 * per-sweep drains with per-candidate revalidation, a static triangle
 * test, snapshot-first high-degree sweeps with the budget re-evaluated
 * per sweep, the interpreted loop's node order -- so fixpoints, counters
 * and sweep counts are bit-identical to the ``scalar`` backend
 * (tests/test_kernel_backends.py, tests/test_native_search.py).
 *
 * Two adjacency representations.  reduce(), expand_children() and
 * greedy_cover() scan the sorted CSR rows, dead entries included, and
 * test a triangle by binary search in a row.  A Walker on a graph with
 * W = ceil(n / 64) <= 2m / n also builds a read-only bitset copy of the
 * graph (n rows of W words, at most 16m bytes) and, per node, a W-word
 * live mask (bit v set iff deg[v] >= 0): vertex removal, the degree-one
 * and degree-two neighbour lookups, the pivot's live neighbours and the
 * deferred child then walk ``row & live`` with count-trailing-zeros, and
 * the triangle test is one bit test.  Set bits come out in ascending id
 * order, the sorted CSR order, so both representations visit the same
 * vertices in the same order and every counter, hint and node is the
 * same; the degree array stays the only search state.  The choice
 * depends on n and m alone (``Walker.bitset``).
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
 * The GIL.  Walker.run (and so search()) releases it for the whole walk:
 * the walk touches only the Walker's own stack, the graph buffers it
 * holds for its life and a scratch block, so threads walking their own
 * Walkers run in parallel.  Nothing inside the walk calls the C API: an
 * allocation failure or an inconsistent degree array comes back as a
 * code, and MemoryError / ValueError is raised only after the GIL is
 * back; the signal check (a Ctrl-C handler, every 4096 nodes) takes the
 * GIL just around PyErr_CheckSignals.  A Walker whose run is in flight
 * rejects every other call with RuntimeError.  Every other entry point
 * holds the GIL for the whole call.
 *
 * Scratch space is module-static and taken with a busy flag, which is
 * read and written only while the GIL is held: a run acquires its
 * scratch before it releases the GIL and returns it after taking the
 * GIL back.  A call that finds the block busy -- a concurrent run on
 * another thread, or a re-entrant call from reduce()'s budget callback
 * or a garbage collection -- gets a private heap copy instead.  A
 * Walker's live masks are allocated per run, so concurrent walks never
 * share them.  The allocation counters behind the test hooks
 * (``_search_blocks``, ``_fail_search_alloc``) are updated with atomic
 * operations.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>
#include <structmember.h>

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

/* The CSR graph alone (search() takes its degree arrays from items). */
static int
graph_get(Views *v, PyObject *indptr, PyObject *indices)
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
    return 0;
}

static void
graph_release(Views *v)
{
    PyBuffer_Release(&v->ix);
    PyBuffer_Release(&v->ip);
}

static int
views_get(Views *v, PyObject *indptr, PyObject *indices, PyObject *deg,
          int deg_writable)
{
    if (graph_get(v, indptr, indices) < 0) {
        return -1;
    }
    if (get_int_array(deg, &v->dg, "deg", 4, deg_writable, v->n) < 0) {
        graph_release(v);
        return -1;
    }
    v->deg = (int32_t *)v->dg.buf;
    return 0;
}

static void
views_release(Views *v)
{
    PyBuffer_Release(&v->dg);
    graph_release(v);
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

/* The graph, one degree array and the scratch the kernels work in.  With
 * ``adj`` set (a Walker's bitset, ``words`` = W words per row), ``live``
 * holds bit v iff deg[v] >= 0 and the kernels below keep it so; with
 * ``adj`` NULL they scan the CSR rows and ``live`` is unused. */
typedef struct {
    const int64_t *indptr;
    const int32_t *indices;
    int32_t *deg;
    Py_ssize_t n;
    Scratch *s;
    const uint64_t *adj;
    uint64_t *live, *spare;  /* spare: expand_deferred's copy of live */
    Py_ssize_t words;
} K;

#define BIT(v) ((uint64_t)1 << ((v) & 63))

/* Visit every x set in ``row & mask`` (W words), ascending: the body sees
 * ``x``.  The mask may change inside the body; a word is read once. */
#define FOR_EACH_SET(row, mask, W, x, body)                                 \
    do {                                                                    \
        Py_ssize_t wi_;                                                     \
        for (wi_ = 0; wi_ < (W); wi_++) {                                   \
            uint64_t bits_ = (row)[wi_] & (mask)[wi_];                      \
            while (bits_) {                                                 \
                int32_t x = (int32_t)(wi_ * 64 + __builtin_ctzll(bits_));   \
                bits_ &= bits_ - 1;                                         \
                body                                                        \
            }                                                               \
        }                                                                   \
    } while (0)

static inline const uint64_t *
adj_row(const K *k, int32_t u)
{
    return k->adj + (size_t)u * (size_t)k->words;
}

/* The live mask of ``k->deg``: bit v set iff deg[v] >= 0. */
static void
live_build(K *k)
{
    const int32_t *deg = k->deg;
    Py_ssize_t wi, v = 0;
    for (wi = 0; wi < k->words; wi++) {
        uint64_t word = 0;
        int b;
        for (b = 0; b < 64 && v < k->n; b++, v++) {
            word |= (uint64_t)(deg[v] >= 0) << b;
        }
        k->live[wi] = word;
    }
}

/* Decrement the alive x; enqueue it on arriving at degree 1 or 2.  An x
 * already at 0 (an inconsistent degree array) leaves the live mask as it
 * falls below 0, since the CSR scans then stop seeing it too. */
static inline void
k_decrement(K *k, int32_t x)
{
    Scratch *s = k->s;
    int32_t dx = --k->deg[x];
    if (dx == 1) {
        s->p1[s->n1++] = x;
    }
    else if (dx == 2) {
        s->p2[s->n2++] = x;
    }
    else if (dx < 0 && k->adj != NULL) {
        k->live[x >> 6] &= ~BIT(x);
    }
}

/* Remove u into the cover; enqueue neighbours arriving at degree 1 or 2.
 * Each vertex reaches either degree at most once (degrees only fall), so
 * the pending lists never outgrow n. */
static inline long long
k_remove(K *k, int32_t u)
{
    const int32_t *row, *end;
    long long deleted = 0;
    k->deg[u] = REMOVED;
    if (k->adj != NULL) {
        k->live[u >> 6] &= ~BIT(u);
        FOR_EACH_SET(adj_row(k, u), k->live, k->words, x, {
            deleted++;
            k_decrement(k, x);
        });
        return deleted;
    }
    row = k->indices + k->indptr[u];
    end = k->indices + k->indptr[u + 1];
    for (; row < end; row++) {
        if (k->deg[*row] >= 0) {
            deleted++;
            k_decrement(k, *row);
        }
    }
    return deleted;
}

/* The first ``want`` (1 or 2) alive neighbours of v, ascending, into
 * ``out``; returns how many there are, at most ``want``. */
static inline int
k_first_alive(const K *k, int32_t v, int want, int32_t *out)
{
    int got = 0;
    int64_t i;
    if (k->adj != NULL) {
        FOR_EACH_SET(adj_row(k, v), k->live, k->words, x, {
            out[got++] = x;
            if (got == want) {
                return got;
            }
        });
        return got;
    }
    for (i = k->indptr[v]; i < k->indptr[v + 1]; i++) {
        int32_t x = k->indices[i];
        if (k->deg[x] >= 0) {
            out[got++] = x;
            if (got == want) {
                return got;
            }
        }
    }
    return got;
}

static int
cmp_ids(const void *a, const void *b)
{
    int32_t x = *(const int32_t *)a, y = *(const int32_t *)b;
    return (x > y) - (x < y);
}

/* Pending lists up to this long are insertion-sorted; a sparse root can
 * seed thousands of entries, which go to qsort. */
#define INSERTION_SORT_MAX 32

/* Move a pending list into the candidate buffer in ascending id order
 * (np.flatnonzero order, as the per-sweep rescan of the reference). */
static Py_ssize_t
drain_sorted(Scratch *s, int32_t *pending, Py_ssize_t *count)
{
    Py_ssize_t m = *count, i;
    int32_t *c = s->cand;
    *count = 0;
    if (m > INSERTION_SORT_MAX) {
        memcpy(c, pending, (size_t)m * sizeof(int32_t));
        qsort(c, (size_t)m, sizeof(int32_t), cmp_ids);
        return m;
    }
    for (i = 0; i < m; i++) {
        int32_t x = pending[i];
        Py_ssize_t j = i;
        while (j > 0 && c[j - 1] > x) {
            c[j] = c[j - 1];
            j--;
        }
        c[j] = x;
    }
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
            int32_t v = s->cand[j], u;
            if (deg[v] != 1) {
                continue;  /* an earlier removal in this sweep changed v */
            }
            if (k_first_alive(k, v, 1, &u) < 1) {
                return -1;
            }
            *deleted += k_remove(k, u);
            (*fires)++;
        }
    }
    return 0;
}

/* The static triangle test: a bit of u's bitset row, or a binary search
 * for w in u's sorted CSR row. */
static int
has_edge(const K *k, int32_t u, int32_t w)
{
    int64_t lo, hi;
    if (k->adj != NULL) {
        return (adj_row(k, u)[w >> 6] & BIT(w)) != 0;
    }
    lo = k->indptr[u];
    hi = k->indptr[u + 1];
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
            int32_t v = s->cand[j], uw[2];
            if (deg[v] != 2) {
                continue;
            }
            if (k_first_alive(k, v, 2, uw) < 2) {
                return -1;
            }
            if (!has_edge(k, uw[0], uw[1])) {
                continue;  /* frozen non-triangle until v's degree changes */
            }
            *deleted += k_remove(k, uw[0]);
            *deleted += k_remove(k, uw[1]);
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

/* The budget ``budget(cover)`` the high-degree rule and the prune test
 * read: the formulation's callback when ``call`` is set (reduce()), else
 * ``base - cover`` -- the greedy pass's trivial bound (base = n) and the
 * compiled search's (base = best - 1 for MVC, k for PVC). */
typedef struct {
    PyObject *call;
    long long base;
} Budget;

static int
budget_at(const Budget *b, long long cover, long long *out)
{
    PyObject *arg, *res;
    int rc;
    if (b->call == NULL) {
        *out = b->base - cover;
        return 0;
    }
    arg = PyLong_FromLongLong(cover);
    if (arg == NULL) {
        return -1;
    }
    res = PyObject_CallOneArg(b->call, arg);
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
high_degree_exhaust(K *k, const Budget *b, long long cover,
                    long long *max_deg, long long *fires, long long *deleted)
{
    Scratch *s = k->s;
    *fires = *deleted = 0;
    for (;;) {
        long long budget;
        Py_ssize_t v, t = 0, j;
        if (budget_at(b, cover + *fires, &budget) < 0) {
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
cascade_round(K *k, const Budget *b, long long *cover, long long *edges,
              long long *max_deg, long long *f1, long long *f2, long long *fh)
{
    long long e1, e2, eh;
    int rc;
    if (degree_one_exhaust(k, f1, &e1) < 0 || degree_two_exhaust(k, f2, &e2) < 0) {
        return -1;
    }
    *cover += *f1 + 2 * *f2;
    rc = high_degree_exhaust(k, b, *cover, max_deg, fh, &eh);
    if (rc < 0) {
        return rc;
    }
    *cover += *fh;
    *edges -= e1 + e2 + eh;
    return 0;
}

/* Reduction counters, in ReductionCounters field order. */
typedef struct {
    long long degree_one, degree_two_triangle, high_degree, sweeps;
} Counters;

/* The cascade from seeded pending lists to its fixpoint; the pending
 * lists are empty again on a normal return.  Returns 0, -1 on an
 * inconsistent degree array, -2 with a Python error set. */
static int
reduce_fixpoint(K *k, const Budget *b, long long *cover, long long *edges,
                long long *max_deg, Counters *c)
{
    if (k->s->n1 == 0 && k->s->n2 == 0) {
        long long budget;
        if (budget_at(b, *cover, &budget) < 0) {
            return -2;
        }
        if (budget < 0 || *max_deg <= budget) {
            c->sweeps++;  /* no rule can fire: one empty round, as the reference does */
            return 0;
        }
    }
    for (;;) {
        long long f1, f2, fh;
        int rc = cascade_round(k, b, cover, edges, max_deg, &f1, &f2, &fh);
        if (rc < 0) {
            return rc;
        }
        c->degree_one += f1;
        c->degree_two_triangle += 2 * f2;
        c->high_degree += fh;
        c->sweeps++;
        if (!(f1 || f2 || fh)) {
            return 0;
        }
    }
}

/* ------------------------------------------------------------------ */
/* dirty hints                                                         */
/* ------------------------------------------------------------------ */

typedef int (*hint_visit)(void *ctx, int32_t v);

/* Visit every entry of a dirty hint -- an int32/int64 buffer or any
 * sequence of ints -- after range-checking it against [0, n). */
static int
hint_for_each(PyObject *hint, Py_ssize_t n, hint_visit visit, void *ctx)
{
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
            if (v < 0 || v >= n) {
                PyErr_Format(PyExc_ValueError,
                             "dirty hint entry %lld out of range for n=%zd", v, n);
                PyBuffer_Release(&view);
                return -1;
            }
            if (visit(ctx, (int32_t)v) < 0) {
                PyBuffer_Release(&view);
                return -1;
            }
        }
        PyBuffer_Release(&view);
        return 0;
    }
    PyErr_Clear();
    {
        /* a tuple copy: an entry's __index__ cannot resize what we walk */
        PyObject *seq = PySequence_Tuple(hint);
        if (seq == NULL) {
            PyErr_SetString(PyExc_TypeError,
                            "dirty hint must be None, an int array or a "
                            "sequence of ints");
            return -1;
        }
        m = PyTuple_GET_SIZE(seq);
        for (i = 0; i < m; i++) {
            long long v;
            if (arg_ll(PyTuple_GET_ITEM(seq, i), "dirty hint entry", &v) < 0) {
                Py_DECREF(seq);
                return -1;
            }
            if (v < 0 || v >= n) {
                PyErr_Format(PyExc_ValueError,
                             "dirty hint entry %lld out of range for n=%zd", v, n);
                Py_DECREF(seq);
                return -1;
            }
            if (visit(ctx, (int32_t)v) < 0) {
                Py_DECREF(seq);
                return -1;
            }
        }
        Py_DECREF(seq);
    }
    return 0;
}

/* Seed v once per epoch (hints may repeat entries) into the pending list
 * of its current degree. */
static inline void
seed_one(K *k, int32_t v, uint32_t epoch)
{
    Scratch *s = k->s;
    int32_t dv;
    if (s->stamp[v] == epoch) {
        return;
    }
    s->stamp[v] = epoch;
    dv = k->deg[v];
    if (dv == 2) {
        s->p2[s->n2++] = v;
    }
    else if (dv == 1) {
        s->p1[s->n1++] = v;
    }
}

static int
seed_visit(void *ctx, int32_t v)
{
    K *k = (K *)ctx;
    seed_one(k, v, k->s->epoch);
    return 0;
}

/* Seed the pending lists from an untrusted hint object. */
static int
seed_from_hint(K *k, PyObject *hint)
{
    scratch_epoch(k->s);
    return hint_for_each(hint, k->n, seed_visit, k);
}

/* Seed the pending lists from a hint already range-checked into C. */
static void
seed_from_ids(K *k, const int32_t *ids, Py_ssize_t m)
{
    uint32_t epoch = scratch_epoch(k->s);
    Py_ssize_t i;
    for (i = 0; i < m; i++) {
        seed_one(k, ids[i], epoch);
    }
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
    K k = {0};
    Scratch *s;
    Budget b;
    Counters c = {0, 0, 0, 0};
    long long max_deg, cover, edges;
    PyObject *hint, *result = NULL;
    int rc;

    if (nargs != 8) {
        PyErr_Format(PyExc_TypeError, "reduce() takes 8 arguments (%zd given)", nargs);
        return NULL;
    }
    hint = args[3];
    b.call = args[7];
    b.base = 0;
    if (!PyCallable_Check(b.call)) {
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
    rc = reduce_fixpoint(&k, &b, &cover, &edges, &max_deg, &c);
    if (rc == -1) {
        inconsistent();
    }
    else if (rc == 0) {
        result = Py_BuildValue("(LLLLLLL)", cover, edges, max_deg, c.degree_one,
                               c.degree_two_triangle, c.high_degree, c.sweeps);
    }
done:
    scratch_release(s);
    views_release(&v);
    return result;
}

/* ------------------------------------------------------------------ */
/* expand_children                                                     */
/* ------------------------------------------------------------------ */

/* N_alive(vmax) into s->cand (both children need it; computed once from
 * the parent).  Returns its size. */
static Py_ssize_t
live_neighbours(const K *k, int32_t vmax)
{
    int32_t *cand = k->s->cand;
    Py_ssize_t nl = 0;
    int64_t i;
    if (k->adj != NULL) {
        FOR_EACH_SET(adj_row(k, vmax), k->live, k->words, u, {
            cand[nl++] = u;
        });
        return nl;
    }
    for (i = k->indptr[vmax]; i < k->indptr[vmax + 1]; i++) {
        int32_t u = k->indices[i];
        if (k->deg[u] >= 0) {
            cand[nl++] = u;
        }
    }
    return nl;
}

/* The deferred child: ``out`` becomes the parent ``k->deg`` with every
 * vertex of N_alive(vmax) (s->cand[0..nl)) removed into the cover; its
 * hint -- the vertices brought to degree <= 2, once each -- goes to
 * s->tgt[0..*nhint).  Sequential removal of the fixed set equals the
 * batch removal (a member stays alive -- merely decremented -- until its
 * own turn).  Returns the edges deleted. */
static long long
expand_deferred(K *k, Py_ssize_t nl, int32_t *out, Py_ssize_t *nhint)
{
    Scratch *s = k->s;
    const int32_t *live = s->cand;
    uint32_t epoch = scratch_epoch(s);
    long long deleted = 0;
    Py_ssize_t j, td = 0;
    int64_t i;
    memcpy(out, k->deg, (size_t)k->n * sizeof(int32_t));
    if (k->adj != NULL) {
        /* ``spare`` tracks the child's live set as ``out`` its degrees */
        uint64_t *mask = k->spare;
        memcpy(mask, k->live, (size_t)k->words * sizeof(uint64_t));
        for (j = 0; j < nl; j++) {
            int32_t u = live[j];
            out[u] = REMOVED;
            mask[u >> 6] &= ~BIT(u);
            FOR_EACH_SET(adj_row(k, u), mask, k->words, x, {
                int32_t dx = --out[x];
                deleted++;
                if (dx <= 2 && s->stamp[x] != epoch) {
                    s->stamp[x] = epoch;
                    s->tgt[td++] = x;
                }
                if (dx < 0) {
                    mask[x >> 6] &= ~BIT(x);  /* inconsistent: see k_decrement */
                }
            });
        }
        *nhint = td;
        return deleted;
    }
    for (j = 0; j < nl; j++) {
        int32_t u = live[j];
        out[u] = REMOVED;
        for (i = k->indptr[u]; i < k->indptr[u + 1]; i++) {
            int32_t x = k->indices[i];
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
    *nhint = td;
    return deleted;
}

/* The continued child: ``vmax`` removed from ``k->deg`` in place; its hint
 * goes to s->tgt.  Returns the hint's length. */
static Py_ssize_t
expand_continued(K *k, Py_ssize_t nl, int32_t vmax)
{
    Scratch *s = k->s;
    Py_ssize_t j, tc = 0;
    for (j = 0; j < nl; j++) {
        int32_t x = s->cand[j];
        int32_t dx = k->deg[x] - 1;
        k->deg[x] = dx;
        if (dx <= 2) {
            s->tgt[tc++] = x;
            if (dx < 0 && k->adj != NULL) {
                k->live[x >> 6] &= ~BIT(x);  /* inconsistent: see k_decrement */
            }
        }
    }
    k->deg[vmax] = REMOVED;
    if (k->adj != NULL) {
        k->live[vmax >> 6] &= ~BIT(vmax);
    }
    return tc;
}

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
    K k = {0};
    Scratch *s;
    long long vmax, deleted;
    Py_ssize_t nl, nhint;
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
    k.indptr = v.indptr;
    k.indices = v.indices;
    k.deg = v.deg;
    k.n = v.n;
    k.s = s;
    nl = live_neighbours(&k, (int32_t)vmax);
    deleted = expand_deferred(&k, nl, (int32_t *)ob.buf, &nhint);
    hint_def = ids_to_array(s->tgt, nhint);
    if (hint_def == NULL) {
        goto release_all;
    }
    nhint = expand_continued(&k, nl, (int32_t)vmax);
    hint_cont = ids_to_array(s->tgt, nhint);
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

/* The pivot: lowest-id maximum-degree vertex (np.argmax semantics). */
static int32_t
argmax_degree(const K *k)
{
    Py_ssize_t u, vmax = 0;
    for (u = 1; u < k->n; u++) {
        if (k->deg[u] > k->deg[vmax]) {
            vmax = u;
        }
    }
    return (int32_t)vmax;
}

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
    K k = {0};
    Scratch *s;
    Budget b;
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
    b.call = NULL;
    b.base = (long long)v.n;
    seed_full_scan(&k);
    max_deg = max_degree(&k);
    while (edges > 0) {
        long long f1, f2, fh;
        int32_t vmax;
        rc = cascade_round(&k, &b, &cover, &edges, &max_deg, &f1, &f2, &fh);
        if (rc < 0) {
            break;
        }
        c1 += f1;
        c2 += 2 * f2;
        ch += fh;
        if (edges == 0) {
            break;
        }
        vmax = argmax_degree(&k);
        if (v.n == 0 || v.deg[vmax] <= 0) {
            rc = -1;  /* edges left but no alive vertex carries one */
            break;
        }
        edges -= k_remove(&k, vmax);
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
/* the search stack                                                    */
/* ------------------------------------------------------------------ */

/* Every buffer a Walker owns goes through these two, which count the
 * blocks outstanding (``_search_blocks()``) and can be told to fail the
 * k-th next allocation (``_fail_search_alloc(k)``) -- the test hooks that
 * prove an allocation failure raises MemoryError and leaks nothing.
 * Walks on several threads allocate without the GIL, so both counters
 * are only touched atomically.  Neither sets a Python error. */
static Py_ssize_t g_search_blocks;
static long long g_fail_alloc = -1;

/* Whether this allocation is the one ``_fail_search_alloc`` asked for. */
static int
fail_this_alloc(void)
{
    long long k = __atomic_load_n(&g_fail_alloc, __ATOMIC_RELAXED);
    while (k >= 0) {
        if (__atomic_compare_exchange_n(&g_fail_alloc, &k, k - 1, 0,
                                        __ATOMIC_RELAXED, __ATOMIC_RELAXED)) {
            return k == 0;
        }
    }
    return 0;
}

static void *
search_realloc(void *p, size_t bytes)
{
    void *q;
    if (fail_this_alloc()) {
        return NULL;
    }
    q = realloc(p, bytes ? bytes : 1);
    if (q != NULL && p == NULL) {
        __atomic_fetch_add(&g_search_blocks, 1, __ATOMIC_RELAXED);
    }
    return q;
}

static void
search_free(void *p)
{
    if (p != NULL) {
        __atomic_fetch_sub(&g_search_blocks, 1, __ATOMIC_RELAXED);
        free(p);
    }
}

/* One tree node: a degree array, its dirty hint (``nhint < 0``: none, a
 * full rescan) and the VCState counters, plus its ancestry depth. */
typedef struct {
    int32_t *deg;
    int32_t *hint;
    Py_ssize_t nhint, hcap;
    long long cover, edges, max_deg, depth;
} Node;

/* The private stack.  Slots above ``top`` keep their buffers for reuse;
 * a pop swaps the slot with the current node instead of copying. */
typedef struct {
    Node *slot;
    Py_ssize_t top, cap, n;
} Stack;

static void
node_free(Node *nd)
{
    search_free(nd->deg);
    search_free(nd->hint);
    nd->deg = nd->hint = NULL;
    nd->hcap = 0;
}

static void
stack_free(Stack *st)
{
    Py_ssize_t i;
    for (i = 0; i < st->cap; i++) {
        node_free(&st->slot[i]);
    }
    search_free(st->slot);
    st->slot = NULL;
    st->top = st->cap = 0;
}

/* The stack helpers below run inside the GIL-free walk too: on an
 * allocation failure they return -1 / NULL with no Python error set, and
 * a caller holding the GIL raises MemoryError itself. */
static int
node_reserve(Node *nd, Py_ssize_t n, Py_ssize_t hint_len)
{
    if (nd->deg == NULL) {
        nd->deg = search_realloc(NULL, (size_t)n * sizeof(int32_t));
        if (nd->deg == NULL) {
            return -1;
        }
    }
    if (hint_len > nd->hcap) {
        Py_ssize_t cap = hint_len > 2 * nd->hcap ? hint_len : 2 * nd->hcap;
        int32_t *h = search_realloc(nd->hint, (size_t)cap * sizeof(int32_t));
        if (h == NULL) {
            return -1;
        }
        nd->hint = h;
        nd->hcap = cap;
    }
    return 0;
}

/* Room for a slot at ``top``. */
static int
stack_grow(Stack *st)
{
    if (st->top == st->cap) {
        Py_ssize_t cap = st->cap ? 2 * st->cap : 16;
        Node *slot = search_realloc(st->slot, (size_t)cap * sizeof(Node));
        if (slot == NULL) {
            return -1;
        }
        memset(slot + st->cap, 0, (size_t)(cap - st->cap) * sizeof(Node));
        st->slot = slot;
        st->cap = cap;
    }
    return 0;
}

/* The slot at ``top`` (not yet counted), with a degree array. */
static Node *
stack_next(Stack *st)
{
    if (stack_grow(st) < 0 || node_reserve(&st->slot[st->top], st->n, 0) < 0) {
        return NULL;
    }
    return &st->slot[st->top];
}

static void
node_swap(Node *a, Node *b)
{
    Node t = *a;
    *a = *b;
    *b = t;
}

static int
hint_append(void *ctx, int32_t v)
{
    Node *nd = (Node *)ctx;  /* its degree array is already allocated */
    if (node_reserve(nd, 0, nd->nhint + 1) < 0) {
        PyErr_NoMemory();
        return -1;
    }
    nd->hint[nd->nhint++] = v;
    return 0;
}

/* Push one ``(deg, cover, edges, dirty, max_deg_hint, depth)`` item.  The
 * degree array is copied, never written; the hint is range-checked. */
static int
stack_push_item(Stack *st, PyObject *item)
{
    Py_buffer view;
    Node *nd;
    PyObject *const *f;
    if (!PyTuple_Check(item) || PyTuple_GET_SIZE(item) != 6) {
        PyErr_SetString(PyExc_TypeError,
                        "search items must be (deg, cover, edges, dirty, "
                        "max_deg_hint, depth) tuples");
        return -1;
    }
    f = &PyTuple_GET_ITEM(item, 0);
    if (get_int_array(f[0], &view, "item deg", 4, 0, st->n) < 0) {
        return -1;
    }
    nd = stack_next(st);
    if (nd == NULL) {
        PyBuffer_Release(&view);
        PyErr_NoMemory();
        return -1;
    }
    memcpy(nd->deg, view.buf, (size_t)st->n * sizeof(int32_t));
    PyBuffer_Release(&view);
    if (arg_ll(f[1], "item cover", &nd->cover) < 0
            || arg_ll(f[2], "item edges", &nd->edges) < 0
            || arg_ll(f[4], "item max_deg_hint", &nd->max_deg) < 0
            || arg_ll(f[5], "item depth", &nd->depth) < 0) {
        return -1;
    }
    nd->nhint = 0;
    if (f[3] == Py_None) {
        nd->nhint = -1;
    }
    else if (hint_for_each(f[3], st->n, hint_append, nd) < 0) {
        return -1;
    }
    st->top++;
    return 0;
}

static PyObject *
degrees_to_array(const int32_t *deg, Py_ssize_t n)
{
    npy_intp dims[1];
    PyObject *arr;
    dims[0] = (npy_intp)n;
    arr = PyArray_SimpleNew(1, dims, NPY_INT32);
    if (arr != NULL) {
        memcpy(PyArray_DATA((PyArrayObject *)arr), deg, (size_t)n * sizeof(int32_t));
    }
    return arr;
}

/* The bottom ``count`` slots, bottom first, as ``(deg, cover, edges,
 * dirty, max_deg_hint, depth)`` tuples with fresh int32 degree and int64
 * hint arrays. */
static PyObject *
stack_to_list(const Stack *st, Py_ssize_t count)
{
    PyObject *out = PyList_New(count);
    Py_ssize_t i;
    if (out == NULL) {
        return NULL;
    }
    for (i = 0; i < count; i++) {
        const Node *nd = &st->slot[i];
        PyObject *deg = degrees_to_array(nd->deg, st->n), *hint, *item;
        if (deg == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        if (nd->nhint < 0) {
            hint = Py_NewRef(Py_None);
        }
        else if ((hint = ids_to_array(nd->hint, nd->nhint)) == NULL) {
            Py_DECREF(deg);
            Py_DECREF(out);
            return NULL;
        }
        item = Py_BuildValue("(NLLNLL)", deg, nd->cover, nd->edges, hint,
                             nd->max_deg, nd->depth);
        if (item == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, item);
    }
    return out;
}

static void
slots_reverse(Node *a, Py_ssize_t m)
{
    Py_ssize_t i;
    for (i = 0; i < m / 2; i++) {
        node_swap(&a[i], &a[m - 1 - i]);
    }
}

/* Drop the bottom ``count`` items: the slots rotate down, so the dropped
 * items' buffers land above ``top`` for reuse. */
static void
stack_drop_bottom(Stack *st, Py_ssize_t count)
{
    slots_reverse(st->slot, count);
    slots_reverse(st->slot + count, st->top - count);
    slots_reverse(st->slot, st->top);
    st->top -= count;
}

/* ------------------------------------------------------------------ */
/* Walker: the depth-first loop on a stack kept across calls            */
/* ------------------------------------------------------------------ */

enum { SEARCH_EXHAUSTED = 0, SEARCH_FOUND = 1, SEARCH_BUDGET = 2 };

/* How walk() ended: normally, or with the error its caller raises once
 * the GIL is back (WALK_SIGNALLED: the signal handler already set it). */
enum { WALK_OK = 0, WALK_INCONSISTENT = -1, WALK_NO_MEMORY = -2,
       WALK_SIGNALLED = -3 };

typedef struct {
    PyObject_HEAD
    Views v;             /* the CSR graph, held for the walker's life */
    int have_graph, pvc, broken;
    int running;         /* a run() is in flight without the GIL */
    char bitset;         /* adj is built: the walk scans bitset rows */
    uint64_t *adj;       /* n rows of ``words`` words, read-only, or NULL */
    Py_ssize_t words;
    Stack st;
    Node cur;            /* the in-flight node's buffers, kept for reuse */
    int32_t *best_deg;   /* the last accepted leaf of the current run */
    long long runs, items_in, items_out;
} Walker;

/* One run's results, in the order run() returns them. */
typedef struct {
    int status;
    long long best, updates, nodes, branches, prunes, solutions;
    long long max_stack, max_depth;
    Counters c;
} Run;

/* The loop: pop, reduce, greedy prune test, leaf, pivot, branch.  Stops
 * on an empty stack, a PVC cover, or ``node_budget`` (< 0: none) nodes,
 * the in-flight node then back on top.  Runs without the GIL (``*ts`` is
 * the released thread state, swapped around the signal check) and
 * returns a WALK_* code.  ``b->call`` is NULL: the budget is pure C. */
static int
walk(Walker *w, K *k, Budget *b, long long node_budget, Run *r,
     PyThreadState **ts)
{
    Stack *st = &w->st;
    Node *cur = &w->cur;
    Scratch *s = k->s;
    Py_ssize_t n = k->n;
    int have_cur = 0;
    for (;;) {
        long long budget;
        int32_t vmax;
        Py_ssize_t nl, nhint;
        Node *def;
        int rc;
        if (!have_cur) {
            if (st->top == 0) {
                return WALK_OK;  /* exhausted */
            }
            node_swap(cur, &st->slot[--st->top]);
            have_cur = 1;
            if (k->adj != NULL) {
                k->deg = cur->deg;
                live_build(k);  /* a continued child keeps its parent's */
            }
        }
        if (node_budget >= 0 && r->nodes >= node_budget) {
            /* keep the stack checkpoint-complete: in-flight node on top */
            if (stack_grow(st) < 0) {
                return WALK_NO_MEMORY;
            }
            node_swap(cur, &st->slot[st->top++]);
            r->status = SEARCH_BUDGET;
            return WALK_OK;
        }
        if ((++r->nodes & 4095) == 0) {
            int sig;
            PyEval_RestoreThread(*ts);
            sig = PyErr_CheckSignals();
            *ts = PyEval_SaveThread();
            if (sig < 0) {
                return WALK_SIGNALLED;
            }
        }
        /* reduce, consuming the node's hint */
        k->deg = cur->deg;
        s->n1 = s->n2 = 0;
        if (cur->nhint < 0) {
            seed_full_scan(k);
            cur->max_deg = max_degree(k);
        }
        else {
            seed_from_ids(k, cur->hint, cur->nhint);
            cur->nhint = -1;
            if (cur->max_deg < 0) {
                cur->max_deg = max_degree(k);
            }
        }
        rc = reduce_fixpoint(k, b, &cur->cover, &cur->edges, &cur->max_deg, &r->c);
        if (rc < 0) {
            return WALK_INCONSISTENT;  /* -2 needs a budget callback */
        }
        /* the greedy bound's prune test */
        budget = b->base - cur->cover;
        if (budget < 0 || cur->edges > budget * budget) {
            r->prunes++;
            have_cur = 0;
            continue;
        }
        if (cur->edges == 0) {
            /* a leaf: the node is a cover, and the prune test above
             * (budget >= 0) makes it improve on best / fit within k */
            r->solutions++;
            have_cur = 0;
            if (w->best_deg == NULL) {
                w->best_deg = search_realloc(NULL, (size_t)n * sizeof(int32_t));
                if (w->best_deg == NULL) {
                    return WALK_NO_MEMORY;
                }
            }
            memcpy(w->best_deg, cur->deg, (size_t)n * sizeof(int32_t));
            r->best = cur->cover;
            r->updates++;
            if (w->pvc) {
                r->status = SEARCH_FOUND;
                return WALK_OK;
            }
            b->base = r->best - 1;
            continue;
        }
        /* branch on the pivot: the deferred child is pushed, the
         * continued child (this node, mutated) is processed next */
        vmax = argmax_degree(k);
        if (cur->deg[vmax] <= 0) {
            return WALK_INCONSISTENT;  /* edges left but no alive vertex carries one */
        }
        nl = live_neighbours(k, vmax);
        def = stack_next(st);
        if (def == NULL) {
            return WALK_NO_MEMORY;
        }
        def->edges = cur->edges - expand_deferred(k, nl, def->deg, &nhint);
        if (node_reserve(def, n, nhint) < 0) {
            return WALK_NO_MEMORY;
        }
        memcpy(def->hint, s->tgt, (size_t)nhint * sizeof(int32_t));
        def->nhint = nhint;
        def->cover = cur->cover + nl;
        def->max_deg = cur->max_deg;
        nhint = expand_continued(k, nl, vmax);
        if (node_reserve(cur, n, nhint) < 0) {
            return WALK_NO_MEMORY;
        }
        memcpy(cur->hint, s->tgt, (size_t)nhint * sizeof(int32_t));
        cur->nhint = nhint;
        cur->edges -= nl;
        cur->cover += 1;
        cur->depth += 1;  /* both children live one level below the parent */
        def->depth = cur->depth;
        st->top++;
        r->branches++;
        if (st->top > r->max_stack) {
            r->max_stack = st->top;
        }
        if (cur->depth > r->max_depth) {
            r->max_depth = cur->depth;
        }
    }
}

static int
walker_usable(Walker *w)
{
    if (!w->have_graph) {
        PyErr_SetString(PyExc_RuntimeError, "Walker is not initialised");
        return -1;
    }
    if (w->running) {
        PyErr_SetString(PyExc_RuntimeError,
                        "Walker is busy: run() is in flight on another thread");
        return -1;
    }
    if (w->broken) {
        PyErr_SetString(PyExc_RuntimeError,
                        "Walker is unusable after a failed run()");
        return -1;
    }
    return 0;
}

static int
parse_kind(PyObject *kind, int *pvc)
{
    if (!PyUnicode_Check(kind)) {
        PyErr_SetString(PyExc_TypeError, "kind must be 'mvc' or 'pvc'");
        return -1;
    }
    if (PyUnicode_CompareWithASCIIString(kind, "mvc") == 0) {
        *pvc = 0;
    }
    else if (PyUnicode_CompareWithASCIIString(kind, "pvc") == 0) {
        *pvc = 1;
    }
    else {
        PyErr_SetString(PyExc_ValueError, "kind must be 'mvc' or 'pvc'");
        return -1;
    }
    return 0;
}

/* The bitset copy of the CSR graph, built when a row costs no more words
 * than the mean CSR row has entries (W * n <= nnz = 2m), so it takes at
 * most 8 * nnz = 16m bytes.  Returns -1 on an allocation failure. */
static int
walker_build_bitset(Walker *w)
{
    Py_ssize_t n = w->v.n, words = (n + 63) / 64, u;
    int64_t nnz = w->v.indptr[n];
    if (n == 0 || (int64_t)words * n > nnz) {
        return 0;
    }
    w->adj = search_realloc(NULL, (size_t)n * (size_t)words * sizeof(uint64_t));
    if (w->adj == NULL) {
        return -1;
    }
    memset(w->adj, 0, (size_t)n * (size_t)words * sizeof(uint64_t));
    for (u = 0; u < n; u++) {
        uint64_t *row = w->adj + (size_t)u * (size_t)words;
        int64_t i;
        for (i = w->v.indptr[u]; i < w->v.indptr[u + 1]; i++) {
            int32_t x = w->v.indices[i];
            row[x >> 6] |= BIT(x);
        }
    }
    w->words = words;
    w->bitset = 1;
    return 0;
}

static int
Walker_init(Walker *w, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"indptr", "indices", "kind", NULL};
    PyObject *indptr, *indices, *kind;
    int pvc;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOO:Walker", kwlist,
                                     &indptr, &indices, &kind)) {
        return -1;
    }
    if (w->have_graph) {
        PyErr_SetString(PyExc_RuntimeError, "Walker is already initialised");
        return -1;
    }
    if (parse_kind(kind, &pvc) < 0 || graph_get(&w->v, indptr, indices) < 0) {
        return -1;
    }
    if (walker_build_bitset(w) < 0) {
        graph_release(&w->v);
        PyErr_NoMemory();
        return -1;
    }
    w->have_graph = 1;
    w->pvc = pvc;
    w->st.n = w->v.n;
    return 0;
}

static void
Walker_dealloc(Walker *w)
{
    stack_free(&w->st);
    node_free(&w->cur);
    search_free(w->best_deg);
    w->best_deg = NULL;
    search_free(w->adj);
    w->adj = NULL;
    if (w->have_graph) {
        graph_release(&w->v);
        w->have_graph = 0;
    }
    Py_TYPE(w)->tp_free((PyObject *)w);
}

/* Push every item of ``items`` (last on top), or none of them. */
static int
walker_push(Walker *w, PyObject *items)
{
    PyObject *seq;
    Py_ssize_t i, m, top = w->st.top;
    seq = PySequence_Tuple(items);  /* a copy no item's __index__ can resize */
    if (seq == NULL) {
        return -1;
    }
    m = PyTuple_GET_SIZE(seq);
    for (i = 0; i < m; i++) {
        if (stack_push_item(&w->st, PyTuple_GET_ITEM(seq, i)) < 0) {
            w->st.top = top;
            Py_DECREF(seq);
            return -1;
        }
    }
    w->items_in += m;
    Py_DECREF(seq);
    return 0;
}

/* One run(bound, node_budget), results in ``r``.  The walk runs without
 * the GIL; scratch (the live masks included) is taken before it is
 * released and returned after it is back, and so is the ``running`` flag
 * that locks out other calls. */
static int
walker_run(Walker *w, PyObject *bound_obj, PyObject *budget_obj, Run *r)
{
    K k = {0};
    Budget b = {NULL, 0};
    Scratch *s;
    PyThreadState *ts;
    long long bound, node_budget = -1;
    uint64_t *masks = NULL;
    int rc;
    if (walker_usable(w) < 0 || arg_ll(bound_obj, "bound", &bound) < 0) {
        return -1;
    }
    if (budget_obj != Py_None) {
        if (arg_ll(budget_obj, "node_budget", &node_budget) < 0) {
            return -1;
        }
        if (node_budget < 0) {
            node_budget = 0;
        }
    }
    memset(r, 0, sizeof(*r));
    r->status = SEARCH_EXHAUSTED;
    r->best = w->pvc ? -1 : bound;
    b.base = w->pvc ? bound : bound - 1;
    if (w->bitset) {
        masks = search_realloc(NULL, 2 * (size_t)w->words * sizeof(uint64_t));
        if (masks == NULL) {
            w->broken = 1;  /* as any failed run() leaves it */
            PyErr_NoMemory();
            return -1;
        }
        k.adj = w->adj;
        k.words = w->words;
        k.live = masks;
        k.spare = masks + w->words;
    }
    s = scratch_acquire(w->v.n);
    if (s == NULL) {
        search_free(masks);
        return -1;
    }
    k.indptr = w->v.indptr;
    k.indices = w->v.indices;
    k.n = w->v.n;
    k.s = s;
    w->running = 1;
    ts = PyEval_SaveThread();
    rc = walk(w, &k, &b, node_budget, r, &ts);
    PyEval_RestoreThread(ts);
    w->running = 0;
    scratch_release(s);
    search_free(masks);
    if (rc == WALK_INCONSISTENT) {
        inconsistent();
    }
    else if (rc == WALK_NO_MEMORY) {
        PyErr_NoMemory();
    }
    if (rc < 0) {
        w->broken = 1;  /* the in-flight node may be half expanded */
        return -1;
    }
    w->runs++;
    return 0;
}

/* ``(status, best, updates, incumbent, nodes, ..., sweeps)`` of a run. */
static PyObject *
run_to_tuple(Walker *w, const Run *r)
{
    PyObject *incumbent = Py_None;
    if (r->updates) {
        incumbent = degrees_to_array(w->best_deg, w->v.n);
        if (incumbent == NULL) {
            return NULL;
        }
    }
    else {
        Py_INCREF(incumbent);
    }
    return Py_BuildValue("(iLLNLLLLLLLLLL)", r->status, r->best, r->updates,
                         incumbent, r->nodes, r->branches, r->prunes,
                         r->solutions, r->max_stack, r->max_depth,
                         r->c.degree_one, r->c.degree_two_triangle,
                         r->c.high_degree, r->c.sweeps);
}

/* The bottom ``count`` items out as tuples, dropped from the stack. */
static PyObject *
walker_take_bottom(Walker *w, Py_ssize_t count)
{
    PyObject *out = stack_to_list(&w->st, count);
    if (out != NULL) {
        stack_drop_bottom(&w->st, count);
        w->items_out += count;
    }
    return out;
}

PyDoc_STRVAR(walker_push_doc,
"push(items)\n--\n\n"
"Push ``(deg, cover, edges, dirty, max_deg_hint, depth)`` items, the\n"
"last on top; their arrays are copied in and never written.  A bad item\n"
"raises TypeError/ValueError and pushes none of them.");

static PyObject *
Walker_push(Walker *w, PyObject *items)
{
    if (walker_usable(w) < 0 || walker_push(w, items) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

PyDoc_STRVAR(walker_run_doc,
"run(bound, node_budget)\n--\n\n"
"Walk the stack depth first: pop, reduce, greedy prune test, leaf,\n"
"lowest-id max-degree pivot, branch (deferred child pushed, continued\n"
"child processed next).  For 'mvc' ``bound`` is the incumbent size\n"
"(budget ``best - |S| - 1``), for 'pvc' it is k (budget ``k - |S|``,\n"
"stop at the first cover).  ``node_budget`` is None or the nodes this\n"
"call may process; on a trip the in-flight node goes back on top.\n"
"Returns ``(status, best, updates, incumbent, nodes, branches, prunes,\n"
"solutions, max_stack, max_depth, degree_one, degree_two_triangle,\n"
"high_degree, sweeps)``: status 0 exhausted, 1 a PVC cover found, 2 the\n"
"node budget tripped; ``incumbent`` is the degree array of the last\n"
"leaf accepted in this call, or None.  A call that raises leaves the\n"
"walker unusable (RuntimeError) but safe to free.  The walk runs without\n"
"the GIL; until it returns, every other call on this walker raises\n"
"RuntimeError.");

static PyObject *
Walker_run(Walker *w, PyObject *const *args, Py_ssize_t nargs)
{
    Run r;
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "run() takes 2 arguments (%zd given)", nargs);
        return NULL;
    }
    if (walker_run(w, args[0], args[1], &r) < 0) {
        return NULL;
    }
    return run_to_tuple(w, &r);
}

PyDoc_STRVAR(walker_donate_doc,
"donate_bottom(k)\n--\n\n"
"Remove and return up to ``k`` items from the bottom of the stack (the\n"
"shallowest, largest sub-trees), bottom first; the top item always\n"
"stays.");

static PyObject *
Walker_donate_bottom(Walker *w, PyObject *arg)
{
    long long k;
    Py_ssize_t give;
    if (walker_usable(w) < 0 || arg_ll(arg, "k", &k) < 0) {
        return NULL;
    }
    give = w->st.top - 1;
    if (k < give) {
        give = (Py_ssize_t)k;
    }
    return walker_take_bottom(w, give > 0 ? give : 0);
}

PyDoc_STRVAR(walker_drain_doc,
"drain()\n--\n\n"
"Remove and return every item, bottom first.");

static PyObject *
Walker_drain(Walker *w, PyObject *unused)
{
    if (walker_usable(w) < 0) {
        return NULL;
    }
    return walker_take_bottom(w, w->st.top);
}

static Py_ssize_t
Walker_len(Walker *w)
{
    if (w->running) {
        return walker_usable(w);  /* -1 with RuntimeError set */
    }
    return w->st.top;
}

static PyMethodDef walker_methods[] = {
    {"push", (PyCFunction)Walker_push, METH_O, walker_push_doc},
    {"run", (PyCFunction)(void (*)(void))Walker_run, METH_FASTCALL, walker_run_doc},
    {"donate_bottom", (PyCFunction)Walker_donate_bottom, METH_O, walker_donate_doc},
    {"drain", (PyCFunction)Walker_drain, METH_NOARGS, walker_drain_doc},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef walker_members[] = {
    {"runs", T_LONGLONG, offsetof(Walker, runs), READONLY,
     "run() calls that returned"},
    {"items_in", T_LONGLONG, offsetof(Walker, items_in), READONLY,
     "items taken in by push()"},
    {"items_out", T_LONGLONG, offsetof(Walker, items_out), READONLY,
     "items handed out by donate_bottom() and drain()"},
    {"bitset", T_BOOL, offsetof(Walker, bitset), READONLY,
     "the walk scans bitset rows (ceil(n / 64) <= 2m / n), not CSR rows"},
    {NULL, 0, 0, 0, NULL},
};

static PySequenceMethods walker_as_sequence = {
    .sq_length = (lenfunc)Walker_len,
};

PyDoc_STRVAR(walker_doc,
"Walker(indptr, indices, kind)\n--\n\n"
"The compiled depth-first loop on a stack that persists across calls, so\n"
"a caller walking in node-budget chunks hands items across the boundary\n"
"only when it pushes, donates or drains.  ``kind`` is 'mvc' or 'pvc'.");

static PyTypeObject WalkerType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_native.Walker",
    .tp_basicsize = sizeof(Walker),
    .tp_dealloc = (destructor)Walker_dealloc,
    .tp_as_sequence = &walker_as_sequence,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = walker_doc,
    .tp_methods = walker_methods,
    .tp_members = walker_members,
    .tp_init = (initproc)Walker_init,
    .tp_new = PyType_GenericNew,
};

PyDoc_STRVAR(search_doc,
"search(indptr, indices, items, kind, bound, node_budget)\n"
"--\n\n"
"One-shot Walker: push ``items`` (bottom to top, the top processed\n"
"first), run(bound, node_budget), drain.  Returns run()'s tuple plus\n"
"``remainder``, the stack left bottom to top -- on a budget trip with\n"
"the in-flight node on top.");

static PyObject *
native_search(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Walker *w;
    Run r;
    PyObject *run = NULL, *remainder = NULL, *result = NULL;
    if (nargs != 6) {
        PyErr_Format(PyExc_TypeError, "search() takes 6 arguments (%zd given)", nargs);
        return NULL;
    }
    w = (Walker *)PyObject_CallFunctionObjArgs((PyObject *)&WalkerType, args[0],
                                               args[1], args[3], NULL);
    if (w == NULL) {
        return NULL;
    }
    if (walker_push(w, args[2]) < 0 || walker_run(w, args[4], args[5], &r) < 0) {
        goto done;
    }
    run = run_to_tuple(w, &r);
    if (run == NULL) {
        goto done;
    }
    remainder = walker_take_bottom(w, w->st.top);
    if (remainder == NULL) {
        goto done;
    }
    result = PyTuple_New(PyTuple_GET_SIZE(run) + 1);
    if (result != NULL) {
        Py_ssize_t i;
        for (i = 0; i < PyTuple_GET_SIZE(run); i++) {
            PyTuple_SET_ITEM(result, i, Py_NewRef(PyTuple_GET_ITEM(run, i)));
        }
        PyTuple_SET_ITEM(result, i, Py_NewRef(remainder));
    }
done:
    Py_XDECREF(remainder);
    Py_XDECREF(run);
    Py_DECREF(w);
    return result;
}

/* ------------------------------------------------------------------ */
/* wire codec v2 (twins of VCState.to_wire_v2 / from_wire_v2)          */
/* ------------------------------------------------------------------ */

/* The frame: header "<BB6xqqqq" (version 2, mode, 6 pad bytes, cover,
 * edges, max_deg_hint, dirty_count), the dirty hint as int64 entries
 * (dirty_count >= 0), then either mode 1 -- an int64 count and the
 * int32 ids and values of the entries that differ from the root
 * degrees -- or mode 0, the dense int32 degree array.  Sparse iff
 * 8 * changed < 4 * n.  Little-endian host byte order, as above. */
#define WIRE_V2 2
#define WIRE_HEADER 40

typedef struct {
    int64_t *v;
    Py_ssize_t m, cap;
} I64s;

static int
i64s_append(void *ctx, int32_t x)
{
    I64s *a = (I64s *)ctx;
    if (a->m == a->cap) {
        Py_ssize_t cap = a->cap ? 2 * a->cap : 16;
        int64_t *v = PyMem_Realloc(a->v, (size_t)cap * sizeof(int64_t));
        if (v == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        a->v = v;
        a->cap = cap;
    }
    a->v[a->m++] = x;
    return 0;
}

static void
put_i64(char *p, long long x)
{
    int64_t v = (int64_t)x;
    memcpy(p, &v, 8);
}

static long long
get_i64(const char *p)
{
    int64_t v;
    memcpy(&v, p, 8);
    return (long long)v;
}

PyDoc_STRVAR(wire_encode_doc,
"wire_encode(deg, cover, edges, dirty, max_deg_hint, root_deg)\n"
"--\n\n"
"The codec-v2 frame of a search-tree node, byte for byte what\n"
"``VCState.to_wire_v2(root_deg)`` writes.  ``dirty`` is None or a\n"
"hint of vertex ids in [0, n).");

static PyObject *
native_wire_encode(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer dv, rv;
    I64s hint = {NULL, 0, 0};
    long long cover, edges, max_deg;
    const int32_t *deg, *root;
    Py_ssize_t n, i, changed = 0, size;
    PyObject *out = NULL;
    char *p;
    int sparse;

    if (nargs != 6) {
        PyErr_Format(PyExc_TypeError, "wire_encode() takes 6 arguments (%zd given)",
                     nargs);
        return NULL;
    }
    if (arg_ll(args[1], "cover", &cover) < 0 || arg_ll(args[2], "edges", &edges) < 0
            || arg_ll(args[4], "max_deg_hint", &max_deg) < 0) {
        return NULL;
    }
    if (get_int_array(args[0], &dv, "deg", 4, 0, -1) < 0) {
        return NULL;
    }
    n = dv.len / 4;
    if (get_int_array(args[5], &rv, "root_deg", 4, 0, n) < 0) {
        PyBuffer_Release(&dv);
        return NULL;
    }
    if (args[3] != Py_None && hint_for_each(args[3], n, i64s_append, &hint) < 0) {
        goto done;
    }
    deg = (const int32_t *)dv.buf;
    root = (const int32_t *)rv.buf;
    for (i = 0; i < n; i++) {
        changed += deg[i] != root[i];
    }
    sparse = changed * 8 < n * 4;
    size = WIRE_HEADER + (args[3] == Py_None ? 0 : 8 * hint.m)
        + (sparse ? 8 + 8 * changed : 4 * n);
    out = PyBytes_FromStringAndSize(NULL, size);
    if (out == NULL) {
        goto done;
    }
    p = PyBytes_AS_STRING(out);
    memset(p, 0, WIRE_HEADER);
    p[0] = WIRE_V2;
    p[1] = (char)sparse;
    put_i64(p + 8, cover);
    put_i64(p + 16, edges);
    put_i64(p + 24, max_deg);
    put_i64(p + 32, args[3] == Py_None ? -1 : (long long)hint.m);
    p += WIRE_HEADER;
    if (args[3] != Py_None) {
        memcpy(p, hint.v, (size_t)hint.m * 8);
        p += 8 * hint.m;
    }
    if (sparse) {
        char *ids = p + 8, *vals = ids + 4 * changed;
        put_i64(p, changed);
        for (i = 0; i < n; i++) {
            if (deg[i] != root[i]) {
                int32_t v = (int32_t)i;
                memcpy(ids, &v, 4);
                memcpy(vals, &deg[i], 4);
                ids += 4;
                vals += 4;
            }
        }
    }
    else {
        memcpy(p, deg, (size_t)n * 4);
    }
done:
    PyMem_Free(hint.v);
    PyBuffer_Release(&rv);
    PyBuffer_Release(&dv);
    return out;
}

PyDoc_STRVAR(wire_decode_doc,
"wire_decode(frame, root_deg)\n"
"--\n\n"
"Rebuild ``(deg, cover, edges, dirty, max_deg_hint)`` from a codec-v2\n"
"frame against the root degrees, as ``VCState.from_wire_v2`` does, with\n"
"fresh int32 degree and int64 hint arrays.  A frame that is not a\n"
"well-formed v2 frame for this n raises ValueError.");

static PyObject *
native_wire_decode(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer fv, rv;
    const char *f;
    long long cover, edges, max_deg, nd, nnz;
    Py_ssize_t n, len, off = WIRE_HEADER, i;
    PyObject *deg = NULL, *dirty = NULL, *out = NULL;
    npy_intp dims[1];
    int32_t *d;

    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "wire_decode() takes 2 arguments (%zd given)",
                     nargs);
        return NULL;
    }
    if (PyObject_GetBuffer(args[0], &fv, PyBUF_SIMPLE) < 0) {
        return NULL;
    }
    if (get_int_array(args[1], &rv, "root_deg", 4, 0, -1) < 0) {
        PyBuffer_Release(&fv);
        return NULL;
    }
    f = (const char *)fv.buf;
    len = fv.len;
    n = rv.len / 4;
    if (len < WIRE_HEADER || f[0] != WIRE_V2 || (f[1] != 0 && f[1] != 1)) {
        PyErr_SetString(PyExc_ValueError, "not a codec-v2 frame");
        goto done;
    }
    cover = get_i64(f + 8);
    edges = get_i64(f + 16);
    max_deg = get_i64(f + 24);
    nd = get_i64(f + 32);
    if (nd < -1 || nd > (len - off) / 8) {
        PyErr_SetString(PyExc_ValueError, "codec-v2 frame: bad dirty count");
        goto done;
    }
    if (nd >= 0) {
        dims[0] = (npy_intp)nd;
        dirty = PyArray_SimpleNew(1, dims, NPY_INT64);
        if (dirty == NULL) {
            goto done;
        }
        memcpy(PyArray_DATA((PyArrayObject *)dirty), f + off, (size_t)nd * 8);
        off += 8 * nd;
    }
    dims[0] = (npy_intp)n;
    deg = PyArray_SimpleNew(1, dims, NPY_INT32);
    if (deg == NULL) {
        goto done;
    }
    d = (int32_t *)PyArray_DATA((PyArrayObject *)deg);
    if (f[1] == 1) {
        const char *ids, *vals;
        if (len - off < 8 || (nnz = get_i64(f + off)) < 0
                || nnz > (len - off - 8) / 8) {
            PyErr_SetString(PyExc_ValueError, "codec-v2 frame: bad entry count");
            goto done;
        }
        ids = f + off + 8;
        vals = ids + 4 * nnz;
        memcpy(d, rv.buf, (size_t)n * 4);
        for (i = 0; i < nnz; i++) {
            int32_t v, x;
            memcpy(&v, ids + 4 * i, 4);
            memcpy(&x, vals + 4 * i, 4);
            if (v < 0 || v >= n) {
                PyErr_Format(PyExc_ValueError,
                             "codec-v2 frame: entry %d out of range for n=%zd", v, n);
                goto done;
            }
            d[v] = x;
        }
    }
    else {
        if (len - off < 4 * n) {
            PyErr_SetString(PyExc_ValueError, "codec-v2 frame: short degree array");
            goto done;
        }
        memcpy(d, f + off, (size_t)n * 4);
    }
    out = Py_BuildValue("(OLLOL)", deg, cover, edges, dirty ? dirty : Py_None, max_deg);
done:
    Py_XDECREF(deg);
    Py_XDECREF(dirty);
    PyBuffer_Release(&rv);
    PyBuffer_Release(&fv);
    return out;
}

PyDoc_STRVAR(search_blocks_doc,
"_search_blocks()\n--\n\n"
"Buffers the live Walkers (search() included) hold right now: 0 once\n"
"every Walker is freed, so nothing leaks.");

static PyObject *
native_search_blocks(PyObject *self, PyObject *unused)
{
    return PyLong_FromSsize_t(g_search_blocks);
}

PyDoc_STRVAR(fail_alloc_doc,
"_fail_search_alloc(k)\n--\n\n"
"Test hook: make the k-th next Walker allocation fail (-1 disarms).");

static PyObject *
native_fail_search_alloc(PyObject *self, PyObject *arg)
{
    long long k;
    if (arg_ll(arg, "k", &k) < 0) {
        return NULL;
    }
    g_fail_alloc = k;
    Py_RETURN_NONE;
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
    {"search", (PyCFunction)(void (*)(void))native_search,
     METH_FASTCALL, search_doc},
    {"wire_encode", (PyCFunction)(void (*)(void))native_wire_encode,
     METH_FASTCALL, wire_encode_doc},
    {"wire_decode", (PyCFunction)(void (*)(void))native_wire_decode,
     METH_FASTCALL, wire_decode_doc},
    {"_search_blocks", native_search_blocks, METH_NOARGS, search_blocks_doc},
    {"_fail_search_alloc", native_fail_search_alloc, METH_O, fail_alloc_doc},
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
    PyObject *m;
    import_array();
    if (PyType_Ready(&WalkerType) < 0) {
        return NULL;
    }
    m = PyModule_Create(&native_module);
    if (m != NULL && PyModule_AddObjectRef(m, "Walker", (PyObject *)&WalkerType) < 0) {
        Py_CLEAR(m);
    }
    return m;
}
