"""The compiled quiescence loop behind :meth:`Simulation.run`.

A plain CPython extension, built by :class:`~repro.native.CompiledModule`.
It runs the Python loop's body step for step on the same heap, popping it
exactly as ``heapq`` does, and calls into Python for everything but a *later
copy* of a message-disperse send (Section III): a delivery to a handler
:data:`~repro.sim.simulation.LATER_COPY_HANDLERS` lists for the exact type
of its engine, whose ``mid`` the engine's ``_pending`` map holds.  That one
it counts down itself, as the handler would.  ``sim._now`` and the delivered
and dropped counters are written before every call into Python and on exit.
"""

from __future__ import annotations

from repro.native import CompiledModule

MODULE_NAME = "_repro_run_loop"

C_SOURCE = r"""
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>

enum { NOW, QUEUE, HEAP, CANCELLED, PROCESSES, NETWORK, STATS, DELIVERED, DROPPED,
       EVENTS, DELIVER_MESSAGE, INLINE, CRASHED, HANDLERS, ON_MESSAGE, PENDING, MID,
       ACTION, ARGUMENT, NAMES };
static const char *names[NAMES] = {
    "_now", "_queue", "_heap", "_cancelled", "_processes", "network", "stats",
    "messages_delivered", "messages_dropped", "events_processed", "_deliver_message",
    "_deliver_inline", "_crashed", "handlers", "on_message", "_pending", "mid",
    "action", "argument"};
static PyObject *S[NAMES];

typedef struct {
    PyObject *sim, *stats, *now;  /* now: owned, the loop's sim._now */
    long long delivered, dropped; /* not yet added to stats */
    int synced;                   /* sim._now is the clock (Python may move it) */
    PyObject *no_arg, *copy_handlers;
} Loop;

/* obj.<name> += *delta, then *delta = 0; -1 on error. */
static int add_to(PyObject *obj, int name, long long *delta) {
    PyObject *old = *delta ? PyObject_GetAttr(obj, S[name]) : NULL, *step = NULL, *sum = NULL;
    if (*delta && old && (step = PyLong_FromLongLong(*delta)))
        sum = PyNumber_Add(old, step);
    int failed = *delta && (sum == NULL || PyObject_SetAttr(obj, S[name], sum) < 0);
    Py_XDECREF(old), Py_XDECREF(step), Py_XDECREF(sum);
    *delta = failed ? *delta : 0;
    return -failed;
}

/* Make the Python side current: before every call into it, and on exit. */
static int flush(Loop *L) {
    if (!L->synced && PyObject_SetAttr(L->sim, S[NOW], L->now) < 0)
        return -1;
    L->synced = 1;
    return add_to(L->stats, DELIVERED, &L->delivered) < 0
        || add_to(L->stats, DROPPED, &L->dropped) < 0 ? -1 : 0;
}

static int done(PyObject *result) { /* a call's status, its result dropped */
    Py_XDECREF(result);
    return result == NULL ? -1 : 0;
}

static int compare(PyObject *a, PyObject *b, int op) {
    if (!PyFloat_CheckExact(a) || !PyFloat_CheckExact(b))
        return PyObject_RichCompareBool(a, b, op);
    double x = PyFloat_AS_DOUBLE(a), y = PyFloat_AS_DOUBLE(b);
    return op == Py_GT ? x > y : x < y;
}

static int truth(PyObject *obj, int name) {
    PyObject *value = PyObject_GetAttr(obj, S[name]);
    int result = value == NULL ? -1 : PyObject_IsTrue(value);
    Py_XDECREF(value);
    return result;
}

/* Heap entry a < b as tuples compare, exact-float times and sequence
 * numbers compared without building a result object per level. */
static int before(PyObject *a, PyObject *b) {
    if (PyTuple_CheckExact(a) && PyTuple_CheckExact(b)
        && PyTuple_GET_SIZE(a) >= 2 && PyTuple_GET_SIZE(b) >= 2) {
        PyObject *ta = PyTuple_GET_ITEM(a, 0), *tb = PyTuple_GET_ITEM(b, 0);
        if (PyFloat_CheckExact(ta) && PyFloat_CheckExact(tb)) {
            double x = PyFloat_AS_DOUBLE(ta), y = PyFloat_AS_DOUBLE(tb);
            if (ta != tb && x != y)
                return x < y;
            PyObject *sa = PyTuple_GET_ITEM(a, 1), *sb = PyTuple_GET_ITEM(b, 1);
            int same = sa == sb ? 1 : PyObject_RichCompareBool(sa, sb, Py_EQ);
            if (same <= 0)
                return same < 0 ? -1 : PyObject_RichCompareBool(sa, sb, Py_LT);
        }
    }
    return PyObject_RichCompareBool(a, b, Py_LT);
}

/* heap[i] < heap[j], the list's size checked as heapq checks it. */
static int less(PyObject *heap, Py_ssize_t n, Py_ssize_t i, Py_ssize_t j) {
    PyObject *a = PyList_GET_ITEM(heap, i), *b = PyList_GET_ITEM(heap, j);
    Py_INCREF(a), Py_INCREF(b);
    int cmp = before(a, b);
    Py_DECREF(a), Py_DECREF(b);
    if (cmp >= 0 && n != PyList_GET_SIZE(heap)) {
        PyErr_SetString(PyExc_RuntimeError, "list changed size during iteration");
        return -1;
    }
    return cmp;
}

#define SWAP(heap, i, j) do { PyObject *item_ = PyList_GET_ITEM(heap, i); \
    PyList_SET_ITEM(heap, i, PyList_GET_ITEM(heap, j)); PyList_SET_ITEM(heap, j, item_); } while (0)

/* heapq.heappop step for step (Modules/_heapqmodule.c), so the list is left
 * as heapq leaves it: the smaller child moves up to a leaf, then the last
 * entry, put there, sifts back up. */
static PyObject *pop(PyObject *heap) {
    Py_ssize_t n = PyList_GET_SIZE(heap), pos = 0;
    PyObject *last = PyList_GET_ITEM(heap, n - 1), *top;
    Py_INCREF(last);
    if (PyList_SetSlice(heap, n - 1, n, NULL) < 0) {
        Py_DECREF(last);
        return NULL;
    }
    if (--n == 0)
        return last;
    top = PyList_GET_ITEM(heap, 0);
    PyList_SET_ITEM(heap, 0, last);
    int cmp = 0;
    for (Py_ssize_t child; (child = 2 * pos + 1) < n; pos = child) {
        if (child + 1 < n && (cmp = less(heap, n, child, child + 1)) < 0)
            break;
        child += child + 1 < n && cmp == 0;
        SWAP(heap, child, pos);
    }
    for (Py_ssize_t parent; cmp >= 0 && pos > 0; pos = parent) {
        if ((cmp = less(heap, n, pos, parent = (pos - 1) >> 1)) <= 0)
            break;
        SWAP(heap, pos, parent);
    }
    if (cmp >= 0)
        return top;
    Py_DECREF(top);
    return NULL;
}

/* 1: a later copy, counted down here; 0: for the handler; -1: error. */
static int later_copy(Loop *L, PyObject *handler, PyObject *payload) {
    if (!PyMethod_Check(handler))
        return 0;
    PyObject *engine = PyMethod_GET_SELF(handler);
    PyObject *funcs = PyDict_GetItemWithError(L->copy_handlers, (PyObject *)Py_TYPE(engine));
    if (funcs == NULL || !PyTuple_Check(funcs))
        return PyErr_Occurred() ? -1 : 0;
    Py_ssize_t i = PyTuple_GET_SIZE(funcs);
    while (--i >= 0 && PyTuple_GET_ITEM(funcs, i) != PyMethod_GET_FUNCTION(handler))
        ;
    if (i < 0)
        return 0;
    int result = 0, overflow;
    PyObject *pending = PyObject_GetAttr(engine, S[PENDING]);
    PyObject *mid = pending == NULL ? NULL : PyObject_GetAttr(payload, S[MID]);
    PyObject *left = mid != NULL && PyDict_CheckExact(pending)
                         ? PyDict_GetItemWithError(pending, mid) : NULL;
    if (left != NULL && PyLong_CheckExact(left)) {
        long long copies = PyLong_AsLongLongAndOverflow(left, &overflow);
        if (!overflow && copies == 1) {
            result = PyDict_DelItem(pending, mid) < 0 ? -1 : 1;
        } else if (!overflow && copies > LLONG_MIN) {
            PyObject *rest = PyLong_FromLongLong(copies - 1);
            result = rest == NULL || PyDict_SetItem(pending, mid, rest) < 0 ? -1 : 1;
            Py_XDECREF(rest);
        }
    }
    if (result == 0) /* anything unexpected is the handler's to raise */
        PyErr_Clear();
    Py_XDECREF(pending), Py_XDECREF(mid);
    return result;
}

static int deliver(Loop *L, PyObject *processes, PyObject *entry) {
    PyObject *payload = PyTuple_GET_ITEM(entry, 5), *handlers = NULL, *handler;
    PyObject *dest = PyDict_GetItemWithError(processes, PyTuple_GET_ITEM(entry, 3));
    if (dest == NULL && PyErr_Occurred())
        return -1;
    Py_XINCREF(dest);
    int status = -1, direct = dest != NULL && PyTuple_GET_ITEM(entry, 6) == Py_None
                                  ? truth(dest, INLINE) : 0;
    int crashed = direct > 0 ? truth(dest, CRASHED) : 0;
    if (direct < 0 || crashed < 0)
        goto out;
    if (crashed) {
        L->dropped++, status = 0;
        goto out;
    }
    if (direct && (handlers = PyObject_GetAttr(dest, S[HANDLERS])) == NULL)
        goto out;
    if (!direct || !PyDict_CheckExact(handlers)) { /* through Process.deliver */
        if (flush(L) == 0)
            status = done(PyObject_CallMethodOneArg(L->sim, S[DELIVER_MESSAGE], entry));
        goto out;
    }
    handler = PyDict_GetItemWithError(handlers, (PyObject *)Py_TYPE(payload));
    if (handler == NULL && PyErr_Occurred())
        goto out;
    L->delivered++; /* Process.deliver, inlined */
    if (handler != NULL && (status = later_copy(L, handler, payload)) != 0) {
        status = status > 0 ? 0 : -1;
        goto out;
    }
    status = -1;
    Py_XINCREF(handler);
    if (flush(L) == 0)
        status = done(handler != NULL ? PyObject_CallOneArg(handler, payload)
                                      : PyObject_CallMethodObjArgs(dest, S[ON_MESSAGE],
                                            PyTuple_GET_ITEM(entry, 4), payload, NULL));
    Py_XDECREF(handler);
out:
    Py_XDECREF(handlers), Py_XDECREF(dest);
    return status;
}

static int fire(Loop *L, PyObject *event) {
    PyObject *action = NULL, *argument = NULL, *result = NULL;
    if (PyObject_SetAttr(event, S[QUEUE], Py_None) == 0
        && (action = PyObject_GetAttr(event, S[ACTION])) != NULL
        && (argument = PyObject_GetAttr(event, S[ARGUMENT])) != NULL && flush(L) == 0)
        result = argument == L->no_arg ? PyObject_CallNoArgs(action)
                                       : PyObject_CallOneArg(action, argument);
    Py_XDECREF(action), Py_XDECREF(argument);
    return done(result);
}

/* One heap entry: 1 to go on, 0 past max_time, -1 on error. */
static int step(Loop *L, PyObject *queue, PyObject *heap, PyObject *processes,
                PyObject *max_time, PyObject *past_error, long long *processed) {
    PyObject *entry = PyList_GET_ITEM(heap, 0), *time, *event;
    if (!PyTuple_CheckExact(entry) || PyTuple_GET_SIZE(entry) < 3
        || ((event = PyTuple_GET_ITEM(entry, 2)) == Py_None && PyTuple_GET_SIZE(entry) != 7)) {
        PyErr_SetString(PyExc_TypeError, "not a (time, seq, event) or message entry");
        return -1;
    }
    time = PyTuple_GET_ITEM(entry, 0);
    if (event != Py_None) {
        PyObject *owner = PyObject_GetAttr(event, S[QUEUE]);
        if (owner == NULL)
            return -1;
        Py_DECREF(owner);
        if (owner != queue) { /* cancelled: skip it */
            long long one_less = -1;
            return done(pop(heap)) < 0 || add_to(queue, CANCELLED, &one_less) < 0 ? -1 : 1;
        }
    }
    int status = compare(time, max_time, Py_GT);
    if (status != 0)
        return status < 0 ? -1 : 0;
    if (L->synced) { /* Python ran: the clock is what it left (a nested run moves it) */
        PyObject *now = PyObject_GetAttr(L->sim, S[NOW]);
        if (now == NULL)
            return -1;
        Py_DECREF(L->now), L->now = now;
    }
    Py_INCREF(entry);
    if (done(pop(heap)) < 0 || (status = compare(time, L->now, Py_LT)) < 0) {
        status = -1;
    } else if (status > 0) {
        PyErr_Format(past_error, "entry scheduled in the past (%S < %S)", time, L->now);
    } else {
        Py_INCREF(time), Py_DECREF(L->now);
        L->now = time, L->synced = 0, ++*processed;
        status = event == Py_None ? deliver(L, processes, entry) : fire(L, event);
    }
    Py_DECREF(entry);
    return status == 0 ? 1 : -1;
}

/* run(sim, max_time, max_events,
 *     (NO_ARG, SimulationError, EventBudgetExceeded, LATER_COPY_HANDLERS)) */
static PyObject *run(PyObject *module, PyObject *args) {
    PyObject *sim, *max_time, *max_events, *past_error, *budget_error, *queue = NULL,
             *heap = NULL, *processes = NULL, *network = NULL;
    Loop L = {NULL, NULL, NULL, 0, 0, 1, NULL, NULL};
    if (!PyArg_ParseTuple(args, "OOO!(OOOO!)", &sim, &max_time, &PyLong_Type, &max_events,
                          &L.no_arg, &past_error, &budget_error, &PyDict_Type,
                          &L.copy_handlers))
        return NULL;
    int overflow, status = -1;
    long long budget = PyLong_AsLongLongAndOverflow(max_events, &overflow), processed = 0;
    if (overflow)
        budget = overflow > 0 ? LLONG_MAX : LLONG_MIN;
    L.sim = sim;
    if ((L.now = PyObject_GetAttr(sim, S[NOW])) != NULL
        && (queue = PyObject_GetAttr(sim, S[QUEUE])) != NULL
        && (heap = PyObject_GetAttr(queue, S[HEAP])) != NULL
        && (processes = PyObject_GetAttr(sim, S[PROCESSES])) != NULL
        && (network = PyObject_GetAttr(sim, S[NETWORK])) != NULL
        && (L.stats = PyObject_GetAttr(network, S[STATS])) != NULL) {
        if (PyList_CheckExact(heap) && PyDict_CheckExact(processes))
            status = 1;
        else
            PyErr_SetString(PyExc_TypeError, "the heap is a list, the processes a dict");
    }
    for (unsigned ticks = 1; status > 0; ticks++) {
        if ((ticks & 1023) == 0 && PyErr_CheckSignals() < 0)
            status = -1;
        else if (PyList_GET_SIZE(heap) == 0)
            status = 0;
        else if ((status = step(&L, queue, heap, processes, max_time, past_error,
                                &processed)) > 0 && processed > budget) {
            PyErr_Format(budget_error, "exceeded %S events without reaching quiescence",
                         max_events);
            status = -1;
        }
    }
    /* The Python loop's state on every exit, a pending error kept. */
#if PY_VERSION_HEX >= 0x030C0000
    PyObject *raised = PyErr_GetRaisedException();
#else
    PyObject *raised, *value, *traceback;
    PyErr_Fetch(&raised, &value, &traceback);
#endif
    if ((L.stats != NULL && flush(&L) < 0) || add_to(sim, EVENTS, &processed) < 0)
        status = -1;
    if (raised != NULL)
#if PY_VERSION_HEX >= 0x030C0000
        PyErr_SetRaisedException(raised);
#else
        PyErr_Restore(raised, value, traceback);
#endif
    Py_XDECREF(L.now), Py_XDECREF(L.stats), Py_XDECREF(network);
    Py_XDECREF(processes), Py_XDECREF(heap), Py_XDECREF(queue);
    if (status < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"run", run, METH_VARARGS, "Simulation.run's loop"}, {NULL, NULL, 0, NULL}};
static struct PyModuleDef definition = {
    PyModuleDef_HEAD_INIT, "_repro_run_loop", NULL, -1, methods};

PyMODINIT_FUNC PyInit__repro_run_loop(void) {
    for (int i = 0; i < NAMES; i++)
        if ((S[i] = PyUnicode_InternFromString(names[i])) == NULL)
            return NULL;
    return PyModule_Create(&definition);
}
"""

LOOP = CompiledModule(MODULE_NAME, C_SOURCE, "run loop", "python")
