"""The incremental atomicity checker's per-operation path, compiled.

A plain CPython extension built by :class:`~repro.native.CompiledModule`,
like the run loop.  ``Core(checker, globals)`` runs
``on_invoke`` / ``on_complete`` on the checker's own lists and dicts, storing
the objects Python would store: ``_new_cluster``, ``_update``, the tail
append of ``_table_insert``, ``_note_a_growth`` / ``_recompute_prefix`` and
``_check_crossings``.  Every other branch calls the checker's own method.
Digests, counters, ``_dirty_a`` and the tuning constants are read where
Python reads them, so patching any of them acts on both executors alike.
"""

from __future__ import annotations

from repro.native import CompiledModule

MODULE_NAME = "_repro_checker_core"

C_SOURCE = r"""
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

/* Held by a Core: the checker's lists, its dicts and four module constants
 * (slots 0..HELD-1, named like the names below them), then the checker, its
 * __dict__ and its module's globals.  The other names are read where Python
 * reads them: the instance's, the module's, the record's, and the methods
 * called for every branch but the common one. */
enum { WRITE_ID, MAX_INV, MIN_RESP, WRITE_INVOKED, HAS_WRITE, IS_CLOSED, MIN_READ_RESP,
       READS, FIRST_READ_INV, FIRST_READ_ID, POS, TB, TA, TCID, PM1, PA1, PM2,
       CID_OF, FRONTIER, DIRTY, OPEN_WRITE_KEYS, WRITE, INF, NEG_INF, RECORD, HELD,
       OPS_SEEN = HELD, READS_CHECKED, DIRTY_A, FRONTIER_LIMIT, RECENT_WRITES,
       VALUE_KEY, MEMO_MIN_BYTES, EAGER_TAIL, DIRTY_LIMIT, KIND, OP_ID, VALUE, INVOKED_AT,
       RESPONDED_AT, REGISTER_WRITE, REOPEN, TABLE_INSERT, TABLE_REMOVE, COMPACT,
       FLAG_CROSSING, UNKNOWN_READ, READ_FROM_FUTURE, REMEMBER, KEY_OF, DICT, NAMES };
enum { CHECKER = HELD, ATTRS, GLOBALS, OWNED };
static const char *names[NAMES] = {
    "_write_id", "_max_inv", "_min_resp", "_write_invoked", "_has_write", "_is_closed",
    "_min_read_resp", "_reads", "_first_read_inv", "_first_read_id", "_pos", "_tb", "_ta",
    "_tcid", "_pm1", "_pa1", "_pm2", "_cid_of", "_frontier", "_dirty", "_open_write_keys",
    "WRITE", "_INF", "_NEG_INF", "OperationRecord", "ops_seen", "reads_checked", "_dirty_a", "frontier_limit",
    "_recent_writes", "_value_key", "_MEMO_MIN_BYTES", "_EAGER_TAIL", "_DIRTY_LIMIT", "kind",
    "op_id", "value", "invoked_at", "responded_at", "_register_write", "_reopen",
    "_table_insert", "_table_remove", "_compact", "_flag_crossing", "_unknown_read",
    "_flag_read_from_future", "remember", "key_of", "__dict__"};
static PyObject *S[NAMES], *ZERO, *ONE, *MINUS_ONE, *EMPTY;

typedef struct {
    PyObject_HEAD
    PyObject *o[OWNED];
    Py_ssize_t slot[RESPONDED_AT - KIND + 1]; /* of each field in an OperationRecord */
} Core;

#define O(slot) (c->o[slot])
#define TRY(status) do { if ((status) < 0) return -1; } while (0)

/* a <op> b as Python's operator compares times. */
static int cmp(PyObject *a, PyObject *b, int op) {
    if (!PyFloat_CheckExact(a) || !PyFloat_CheckExact(b))
        return PyObject_RichCompareBool(a, b, op);
    double x = PyFloat_AS_DOUBLE(a), y = PyFloat_AS_DOUBLE(b);
    return op == Py_LT ? x < y : op == Py_GT ? x > y : op == Py_GE ? x >= y : x == y;
}

static PyObject *get(PyObject *dict, int name) { /* dict[name], borrowed */
    PyObject *value = PyDict_GetItemWithError(dict, S[name]);
    if (value == NULL && !PyErr_Occurred())
        PyErr_SetObject(PyExc_AttributeError, S[name]);
    return value;
}

static int versus(Py_ssize_t size, PyObject *dict, int name, int op) { /* size <op> dict[name] */
    PyObject *bound = get(dict, name), *length;
    int exact = bound && PyLong_CheckExact(bound), overflow = 1;
    long long limit = exact ? PyLong_AsLongLongAndOverflow(bound, &overflow) : 0;
    if (exact && !overflow)
        return op == Py_GT ? size > limit : size >= limit;
    if (bound == NULL || (length = PyLong_FromSsize_t(size)) == NULL)
        return -1;
    Py_INCREF(bound);
    int result = PyObject_RichCompareBool(length, bound, op);
    Py_DECREF(length), Py_DECREF(bound);
    return result;
}

static int bump(PyObject *dict, int name) { /* dict[name] += 1 */
    PyObject *old = get(dict, name), *sum = old ? PyNumber_Add(old, ONE) : NULL;
    int status = sum == NULL ? -1 : PyDict_SetItem(dict, S[name], sum);
    Py_XDECREF(sum);
    return status;
}

/* list[i], borrowed: only times and cids are compared while it is held, and
 * they run no Python code that could drop it. */
static PyObject *at(PyObject *list, Py_ssize_t i) {
    if (i >= 0 && i < PyList_GET_SIZE(list))
        return PyList_GET_ITEM(list, i);
    PyErr_SetString(PyExc_IndexError, "list index out of range");
    return NULL;
}

static int put(PyObject *list, Py_ssize_t i, PyObject *item) { /* list[i] = item */
    return PyList_SetItem(list, i, Py_NewRef(item));
}

/* record.<name>, a new reference: read off its slot in an OperationRecord. */
static PyObject *field(Core *c, PyObject *record, int name) {
    Py_ssize_t slot = c->slot[name - KIND];
    PyObject *value = slot && Py_TYPE(record) == (PyTypeObject *)O(RECORD)
                          ? *(PyObject **)((char *)record + slot) : NULL;
    return value ? Py_NewRef(value) : PyObject_GetAttr(record, S[name]);
}

static int done(PyObject *result) { /* a call's status, its result dropped */
    Py_XDECREF(result);
    return result == NULL ? -1 : 0;
}

/* checker.<name>(a[, b[, d]]), a new reference. */
static PyObject *method(Core *c, int name, PyObject *a, PyObject *b, PyObject *d) {
    PyObject *args[4] = {O(CHECKER), a, b, d};
    return PyObject_VectorcallMethod(S[name], args, 1 + (a != NULL) + (b != NULL) + (d != NULL),
                                     NULL);
}

/* _value_key(value), or checker._recent_writes.<name>(value[, key]). */
static PyObject *digest(Core *c, int name, PyObject *value, PyObject *key) {
    int global = name == VALUE_KEY;
    PyObject *owner = get(O(global ? GLOBALS : ATTRS), global ? name : RECENT_WRITES), *result;
    if (owner == NULL)
        return NULL;
    Py_INCREF(owner);
    PyObject *args[3] = {owner, value, key};
    result = global ? PyObject_CallOneArg(owner, value)
                    : PyObject_VectorcallMethod(S[name], args, 2 + (key != NULL), NULL);
    Py_DECREF(owner);
    return result;
}

static int is_large(Core *c, PyObject *value) { /* len(value) >= _MEMO_MIN_BYTES */
    Py_ssize_t size = value == Py_None ? 0 : PyObject_Size(value);
    return value == Py_None ? 0 : size < 0 ? -1 : versus(size, O(GLOBALS), MEMO_MIN_BYTES, Py_GE);
}

/* _recompute_prefix(start), in place.  The running maxima are borrowed from
 * _ta, _tcid or the slot before start, none of which this writes. */
static int recompute_prefix(Core *c, Py_ssize_t start) {
    PyObject *m1 = O(NEG_INF), *c1 = MINUS_ONE, *m2 = O(NEG_INF);
    Py_ssize_t n = PyList_GET_SIZE(O(TA));
    if (start > 0 && !((m1 = at(O(PM1), start - 1)) && (c1 = at(O(PA1), start - 1))
                       && (m2 = at(O(PM2), start - 1))))
        return -1;
    for (Py_ssize_t i = start; i < n; i++) {
        PyObject *a = PyList_GET_ITEM(O(TA), i);
        int above = cmp(a, m1, Py_GT), below = above ? 0 : cmp(a, m2, Py_GT);
        if (above < 0 || below < 0 || (above && (c1 = at(O(TCID), i)) == NULL))
            return -1;
        if (above)
            m2 = m1, m1 = a;
        else if (below)
            m2 = a;
        PyObject *row[3] = {m1, c1, m2};
        for (int k = 0; k < 3; k++)
            TRY(i < PyList_GET_SIZE(O(PM1 + k)) ? put(O(PM1 + k), i, row[k])
                                                 : PyList_Append(O(PM1 + k), row[k]));
    }
    for (int k = PM1; k <= PM2; k++)
        if (PyList_GET_SIZE(O(k)) > n)
            TRY(PyList_SetSlice(O(k), n, PyList_GET_SIZE(O(k)), NULL));
    return 0;
}

/* _new_cluster(key, op_id, invoked, _INF, invoked, True) */
static int new_cluster(Core *c, PyObject *key, PyObject *op_id, PyObject *invoked) {
    PyObject *cid = PyLong_FromSsize_t(PyList_GET_SIZE(O(WRITE_ID))), *old;
    PyObject *row[] = {op_id, invoked, O(INF), invoked, Py_True, Py_False, O(INF), ZERO,
                       O(INF), Py_None, MINUS_ONE};
    int status = cid == NULL ? -1 : PyDict_SetItem(O(CID_OF), key, cid), over = 0;
    for (int k = WRITE_ID; status == 0 && k <= POS; k++)
        status = PyList_Append(O(k), row[k]);
    if (status == 0 && (status = PyDict_SetItem(O(FRONTIER), cid, Py_None)) == 0)
        status = over = versus(PyDict_GET_SIZE(O(FRONTIER)), O(ATTRS), FRONTIER_LIMIT, Py_GT);
    Py_ssize_t pos = 0;
    if (over > 0 && PyDict_Next(O(FRONTIER), &pos, &old, NULL)) { /* evict the LRU end */
        Py_INCREF(old);
        status = PyDict_DelItem(O(FRONTIER), old) < 0
                 || put(O(IS_CLOSED), PyLong_AsSsize_t(old), Py_True) < 0 ? -1 : 0;
        Py_DECREF(old);
    }
    Py_XDECREF(cid);
    return status < 0 ? -1 : 0;
}

/* _note_a_growth(cid), _dirty_a raised for a dirty cid. */
static int note_a_growth(Core *c, PyObject *cid, Py_ssize_t i) {
    PyObject *slot = at(O(POS), i), *a = at(O(MAX_INV), i), *bound;
    Py_ssize_t index = slot && a ? PyLong_AsSsize_t(slot) : -1;
    if (index < 0)
        return index == -1 && PyErr_Occurred() ? -1 : 0;
    int dirty = PyDict_Contains(O(DIRTY), cid), far, higher, over;
    if (dirty == 0) {
        TRY(far = versus(PyList_GET_SIZE(O(TB)) - index, O(GLOBALS), EAGER_TAIL, Py_GT));
        if (!far)
            return put(O(TA), index, a) < 0 ? -1 : recompute_prefix(c, index);
        TRY(PyDict_SetItem(O(DIRTY), cid, Py_None));
    }
    TRY(dirty);
    if ((bound = get(O(ATTRS), DIRTY_A)) == NULL)
        return -1;
    TRY(higher = cmp(a, bound, Py_GT));
    if (higher)
        TRY(PyDict_SetItem(O(ATTRS), S[DIRTY_A], a));
    TRY(over = versus(PyDict_GET_SIZE(O(DIRTY)), O(GLOBALS), DIRTY_LIMIT, Py_GT));
    return over ? done(method(c, COMPACT, NULL, NULL, NULL)) : 0;
}

/* _table_insert(cid): a tail append here, any other place in Python. */
static int table_insert(Core *c, PyObject *cid, Py_ssize_t i) {
    Py_ssize_t size = PyList_GET_SIZE(O(TB));
    PyObject *b = at(O(MIN_RESP), i), *a = at(O(MAX_INV), i), *slot;
    int tail = size > 0 && b && a ? cmp(b, PyList_GET_ITEM(O(TB), size - 1), Py_GE) : 0;
    if (b == NULL || a == NULL || tail < 0)
        return -1;
    if (!tail)
        return done(method(c, TABLE_INSERT, cid, NULL, NULL));
    if ((slot = PyLong_FromSsize_t(size)) == NULL)
        return -1;
    int status = PyList_Append(O(TB), b) < 0 || PyList_Append(O(TA), a) < 0
                 || PyList_Append(O(TCID), cid) < 0 || put(O(POS), i, slot) < 0;
    Py_DECREF(slot);
    return status ? -1 : recompute_prefix(c, size);
}

static Py_ssize_t bisect_left(PyObject *list, PyObject *a) { /* probing as bisect does */
    Py_ssize_t lo = 0, hi = PyList_GET_SIZE(list);
    while (lo < hi) {
        Py_ssize_t mid = ((size_t)lo + hi) / 2;
        PyObject *item = at(list, mid);
        int below = item ? cmp(item, a, Py_LT) : -1;
        TRY(below);
        lo = below ? mid + 1 : lo, hi = below ? hi : mid;
    }
    return lo;
}

/* _check_crossings(cid) */
static int check_crossings(Core *c, PyObject *cid, Py_ssize_t i) {
    PyObject *b = at(O(MIN_RESP), i), *a = at(O(MAX_INV), i), *owner, *best, *other;
    Py_ssize_t index, pos = 0;
    int crossed = b && a ? cmp(b, O(INF), Py_EQ) : -1, scan, mine;
    if (crossed != 0)
        return crossed > 0 ? 0 : -1;
    TRY(index = bisect_left(O(TB), a));
    if (index) {
        TRY(mine = (owner = at(O(PA1), index - 1)) ? PyObject_RichCompareBool(owner, cid, Py_EQ) : -1);
        if ((best = at(O(mine ? PM2 : PM1), index - 1)) == NULL)
            return -1;
        TRY(crossed = cmp(best, b, Py_GT));
    }
    TRY(scan = crossed ? 0 : (owner = get(O(ATTRS), DIRTY_A)) ? cmp(owner, b, Py_GT) : -1);
    while (scan && !crossed && PyDict_Next(O(DIRTY), &pos, &other, NULL)) {
        Py_ssize_t j = PyLong_AsSsize_t(other);
        PyObject *resp = at(O(MIN_RESP), j), *inv = at(O(MAX_INV), j);
        TRY(mine = resp && inv ? PyObject_RichCompareBool(other, cid, Py_EQ) : -1);
        if (!mine && (crossed = cmp(resp, a, Py_LT)) > 0)
            crossed = cmp(inv, b, Py_GT);
        TRY(crossed);
    }
    return crossed ? done(method(c, FLAG_CROSSING, cid, NULL, NULL)) : 0;
}

/* _update(cid, new_inv, new_resp) */
static int update(Core *c, PyObject *cid, PyObject *new_inv, PyObject *new_resp) {
    Py_ssize_t i = PyLong_AsSsize_t(cid);
    PyObject *held = at(O(IS_CLOSED), i);
    int closed = held ? PyObject_IsTrue(held) : -1, grew;
    TRY(closed);
    TRY(closed ? done(method(c, REOPEN, cid, NULL, NULL))
               : PyDict_DelItem(O(FRONTIER), cid) < 0 ? -1
               : PyDict_SetItem(O(FRONTIER), cid, Py_None));
    TRY(grew = (held = at(O(MAX_INV), i)) ? cmp(new_inv, held, Py_GT) : -1);
    if (grew && (put(O(MAX_INV), i, new_inv) < 0 || note_a_growth(c, cid, i) < 0))
        return -1;
    if (new_resp != Py_None) {
        TRY(grew = (held = at(O(MIN_RESP), i)) ? cmp(new_resp, held, Py_LT) : -1);
        if (grew) {
            TRY(put(O(MIN_RESP), i, new_resp));
            Py_ssize_t placed = (held = at(O(POS), i)) ? PyLong_AsSsize_t(held) : -1;
            if ((placed == -1 && PyErr_Occurred())
                || (placed >= 0 && done(method(c, TABLE_REMOVE, cid, NULL, NULL)) < 0))
                return -1;
            TRY(table_insert(c, cid, i));
        }
    }
    return check_crossings(c, cid, i);
}

static int is_write(Core *c, PyObject *record) { /* record.kind == WRITE */
    PyObject *kind = field(c, record, KIND);
    int result = kind == NULL ? -1 : PyObject_RichCompareBool(kind, O(WRITE), Py_EQ);
    Py_XDECREF(kind);
    return result;
}

static PyObject *on_invoke(Core *c, PyObject *record) {
    PyObject *value = NULL, *key = NULL, *op_id = NULL, *pair = NULL, *cid, *invoked = NULL;
    int status = bump(O(ATTRS), OPS_SEEN) < 0 ? -1 : is_write(c, record), large;
    if (status > 0) {
        status = -1;
        if ((value = field(c, record, VALUE)) && (key = digest(c, VALUE_KEY, value, NULL))
            && (op_id = field(c, record, OP_ID)) && (pair = PyTuple_Pack(2, value, key))
            && PyDict_SetItem(O(OPEN_WRITE_KEYS), op_id, pair) == 0
            && (large = is_large(c, value)) >= 0
            && (!large || done(digest(c, REMEMBER, value, key)) == 0)) {
            if ((cid = Py_XNewRef(PyDict_GetItemWithError(O(CID_OF), key))) != NULL) {
                status = done(method(c, REGISTER_WRITE, record, key, cid));
                Py_DECREF(cid);
            } else if (!PyErr_Occurred() && (invoked = field(c, record, INVOKED_AT))) {
                status = new_cluster(c, key, op_id, invoked);
            }
        }
    }
    Py_XDECREF(value), Py_XDECREF(key), Py_XDECREF(op_id), Py_XDECREF(pair), Py_XDECREF(invoked);
    return status < 0 ? NULL : Py_NewRef(Py_None);
}

/* on_complete of a write up to its cluster: *key and *cid, new references (the
 * write is registered here if its invoke was not seen). */
static int write_completes(Core *c, PyObject *record, PyObject *op_id, PyObject *value,
                           PyObject **key, PyObject **cid) {
    PyObject *memo = Py_XNewRef(PyDict_GetItemWithError(O(OPEN_WRITE_KEYS), op_id)), *held;
    if ((memo == NULL && PyErr_Occurred())
        || (memo && PyDict_DelItem(O(OPEN_WRITE_KEYS), op_id) < 0)) {
        Py_XDECREF(memo);
        return -1;
    }
    held = memo ? PySequence_GetItem(memo, 0) : NULL; /* the digest serves that object only */
    Py_XDECREF(held);
    *key = held && held == value ? PySequence_GetItem(memo, 1) : NULL;
    Py_XDECREF(memo);
    if ((memo && held == NULL) || (*key == NULL && (*key = digest(c, VALUE_KEY, value, NULL)) == NULL))
        return -1;
    *cid = Py_XNewRef(PyDict_GetItemWithError(O(CID_OF), *key));
    int has = *cid ? ((held = at(O(HAS_WRITE), PyLong_AsSsize_t(*cid))) ? PyObject_IsTrue(held) : -1)
                   : PyErr_Occurred() ? -1 : 0;
    if (has != 0) /* a write registered at its invoke, or an error */
        return has < 0 ? -1 : 0;
    TRY(bump(O(ATTRS), OPS_SEEN));
    TRY(done(method(c, REGISTER_WRITE, record, *key, *cid ? *cid : Py_None)));
    Py_XSETREF(*cid, Py_XNewRef(PyDict_GetItemWithError(O(CID_OF), *key)));
    if (*cid == NULL && !PyErr_Occurred())
        PyErr_SetObject(PyExc_KeyError, *key);
    return *cid == NULL ? -1 : 0;
}

/* (invoked, op_id) < (first_inv, first_id or "") as tuples compare */
static int first_read(PyObject *invoked, PyObject *op_id, PyObject *first_inv, PyObject *first_id) {
    int same = PyObject_RichCompareBool(invoked, first_inv, Py_EQ), named;
    if (same <= 0)
        return same < 0 ? -1 : PyObject_RichCompareBool(invoked, first_inv, Py_LT);
    TRY(named = PyObject_IsTrue(first_id));
    first_id = named ? first_id : EMPTY;
    TRY(same = PyObject_RichCompareBool(op_id, first_id, Py_EQ));
    return same ? 0 : PyObject_RichCompareBool(op_id, first_id, Py_LT);
}

/* on_complete of a read after its key: the bookkeeping, then _update. */
static int read_completes(Core *c, PyObject *record, PyObject *op_id, PyObject *cid) {
    Py_ssize_t i = PyLong_AsSsize_t(cid);
    PyObject *count = at(O(READS), i), *sum = count ? PyNumber_Add(count, ONE) : NULL, *held, *named;
    PyObject *responded = NULL, *invoked = NULL;
    int status = sum == NULL || put(O(READS), i, sum) < 0 ? -1 : 0, lower = 0, earlier;
    Py_XDECREF(sum);
    if (status < 0 || (responded = field(c, record, RESPONDED_AT)) == NULL
        || (invoked = field(c, record, INVOKED_AT)) == NULL
        || (responded != Py_None
            && (lower = (held = at(O(MIN_READ_RESP), i)) ? cmp(responded, held, Py_LT) : -1) < 0)
        || (lower && put(O(MIN_READ_RESP), i, responded) < 0)
        || (held = at(O(FIRST_READ_INV), i)) == NULL
        || (named = at(O(FIRST_READ_ID), i)) == NULL
        || (earlier = first_read(invoked, op_id, held, named)) < 0
        || (earlier && (put(O(FIRST_READ_INV), i, invoked) < 0
                        || put(O(FIRST_READ_ID), i, op_id) < 0))
        || (responded != Py_None
            && (lower = (held = at(O(WRITE_INVOKED), i)) ? cmp(responded, held, Py_LT) : -1) < 0))
        status = -1;
    else if (responded != Py_None && lower)
        status = done(method(c, READ_FROM_FUTURE, record, cid, NULL));
    else
        status = update(c, cid, invoked, responded);
    Py_XDECREF(responded), Py_XDECREF(invoked);
    return status;
}

static PyObject *on_complete(Core *c, PyObject *record) {
    PyObject *op_id = field(c, record, OP_ID), *value = NULL, *key = NULL,
             *cid = NULL, *held, *responded;
    int write = op_id && (value = field(c, record, VALUE)) ? is_write(c, record) : -1;
    int status = write, large, found, other;
    if (write > 0 && (status = write_completes(c, record, op_id, value, &key, &cid)) == 0) {
        /* another write claimed the value: flagged at its invoke */
        if ((held = at(O(WRITE_ID), PyLong_AsSsize_t(cid))) == NULL
            || (other = PyObject_RichCompareBool(held, op_id, Py_NE)) < 0)
            status = -1;
        else if (!other && (responded = field(c, record, RESPONDED_AT)) != NULL) {
            status = update(c, cid, O(NEG_INF), responded);
            Py_DECREF(responded);
        } else
            status = other ? 0 : -1;
    } else if (write == 0) {
        status = bump(O(ATTRS), READS_CHECKED) < 0 || (large = is_large(c, value)) < 0 ? -1 : 0;
        if (status == 0 && large) { /* key_of(value) or _value_key(value) */
            if ((key = digest(c, KEY_OF, value, NULL)) == NULL || (found = PyObject_IsTrue(key)) < 0)
                status = -1;
            else if (!found)
                Py_CLEAR(key);
        }
        if (status == 0 && key == NULL && (key = digest(c, VALUE_KEY, value, NULL)) == NULL)
            status = -1;
        if (status == 0 && (cid = Py_XNewRef(PyDict_GetItemWithError(O(CID_OF), key))) == NULL)
            status = PyErr_Occurred() || (cid = method(c, UNKNOWN_READ, record, key, NULL)) == NULL ? -1 : 0;
        if (status == 0 && cid != Py_None)
            status = read_completes(c, record, op_id, cid);
    }
    Py_XDECREF(op_id), Py_XDECREF(value), Py_XDECREF(key), Py_XDECREF(cid);
    return status < 0 ? NULL : Py_NewRef(Py_None);
}

static int traverse(Core *c, visitproc visit, void *arg) {
    for (int k = 0; k < OWNED; k++)
        Py_VISIT(c->o[k]);
    return 0;
}

static int clear(Core *c) {
    for (int k = 0; k < OWNED; k++)
        Py_CLEAR(c->o[k]);
    return 0;
}

static void dealloc(Core *c) {
    PyObject_GC_UnTrack(c);
    clear(c);
    PyObject_GC_Del(c);
}

/* Core(checker, globals): the lists and dicts the checker never rebinds. */
static PyObject *new(PyTypeObject *type, PyObject *args, PyObject *kwargs) {
    PyObject *checker, *globals;
    Core *c;
    if (!PyArg_ParseTuple(args, "OO!:Core", &checker, &PyDict_Type, &globals)
        || (c = PyObject_GC_New(Core, type)) == NULL)
        return NULL;
    for (int k = 0; k < OWNED; k++)
        c->o[k] = NULL;
    O(CHECKER) = Py_NewRef(checker), O(GLOBALS) = Py_NewRef(globals);
    PyObject_GC_Track(c);
    int status = (O(ATTRS) = PyObject_GetAttr(checker, S[DICT])) ? 0 : -1;
    for (int k = 0; status == 0 && k < HELD; k++) {
        PyObject *held = get(k < WRITE ? O(ATTRS) : globals, k);
        if (held == NULL || (k < CID_OF && !PyList_CheckExact(held))
            || (k >= CID_OF && k < WRITE && !PyDict_CheckExact(held))) {
            if (held != NULL)
                PyErr_Format(PyExc_TypeError, "checker.%U is not a list or dict", S[k]);
            status = -1;
        } else {
            O(k) = Py_NewRef(held);
        }
    }
    for (int k = KIND; status == 0 && k <= RESPONDED_AT; k++) { /* slotted dataclass fields */
        PyObject *member = PyType_Check(O(RECORD))
            ? PyDict_GetItemWithError(((PyTypeObject *)O(RECORD))->tp_dict, S[k]) : NULL;
        c->slot[k - KIND] = member && Py_IS_TYPE(member, &PyMemberDescr_Type)
            && ((PyMemberDescrObject *)member)->d_member->type == T_OBJECT_EX
            ? ((PyMemberDescrObject *)member)->d_member->offset : 0;
        status = PyErr_Occurred() ? -1 : 0;
    }
    if (status == 0)
        return (PyObject *)c;
    Py_DECREF(c);
    return NULL;
}

static PyMethodDef core_methods[] = {
    {"on_invoke", (PyCFunction)on_invoke, METH_O, "the checker's on_invoke"},
    {"on_complete", (PyCFunction)on_complete, METH_O, "the checker's on_complete"},
    {NULL, NULL, 0, NULL}};

static PyTypeObject CoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_repro_checker_core.Core",
    .tp_basicsize = sizeof(Core), .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = new, .tp_dealloc = (destructor)dealloc, .tp_traverse = (traverseproc)traverse,
    .tp_clear = (inquiry)clear, .tp_methods = core_methods};

static struct PyModuleDef definition = {
    PyModuleDef_HEAD_INIT, "_repro_checker_core", NULL, -1, NULL};

PyMODINIT_FUNC PyInit__repro_checker_core(void) {
    for (int i = 0; i < NAMES; i++)
        if ((S[i] = PyUnicode_InternFromString(names[i])) == NULL)
            return NULL;
    if (!(ZERO = PyLong_FromLong(0)) || !(ONE = PyLong_FromLong(1))
        || !(MINUS_ONE = PyLong_FromLong(-1)) || !(EMPTY = PyUnicode_FromString(""))
        || PyType_Ready(&CoreType) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&definition);
    if (module != NULL && PyModule_AddObjectRef(module, "Core", (PyObject *)&CoreType) < 0)
        Py_CLEAR(module);
    return module;
}
"""

CORE = CompiledModule(MODULE_NAME, C_SOURCE, "checker core", "python")
