"""The incremental atomicity checker's per-operation path, compiled.

A plain CPython extension built by :class:`~repro.native.CompiledModule`,
like the run loop.  ``Core(checker, globals)`` puts typed columns
(``Column``: unboxed doubles, 64-bit ints, one byte per flag) in place of
the checker's fifteen numeric and flag lists and runs ``on_invoke`` /
``on_complete`` on them and on its other lists and dicts: ``_new_cluster``,
``_update``, the tail append of ``_table_insert``, ``_note_a_growth`` /
``_recompute_prefix`` and ``_check_crossings``.  Every other branch calls
the checker's method, which uses a column as the list: ``len``, item get,
set and ``del``, slice reads and deletes, ``append``, ``insert``,
iteration.  Non-float times go through ``incremental._as_time``.  Digests,
counters, ``_dirty_a`` and the tuning constants are read where Python
reads them, so patching any of them acts on both executors alike.
"""

from __future__ import annotations

from repro.native import CompiledModule

MODULE_NAME = "_repro_checker_core"

C_SOURCE = r"""
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#define TRY(status) do { if ((status) < 0) return -1; } while (0)

/* A column: a vector of doubles ('d'), long longs ('q') or flags ('?', a
 * byte each) through PyMem_*, over-allocated as a list is.  An item passes
 * as a double: a 'q' column holds ints of at most 2**53. */
typedef struct {
    PyObject_HEAD
    Py_ssize_t size, allocated;
    int kind;
    char *items;
} Column;

#define WIDTH(col) ((col)->kind == '?' ? 1 : 8)

static double at(Column *col, Py_ssize_t i) {
    char *item = col->items + i * WIDTH(col);
    return col->kind == 'd' ? *(double *)item : col->kind == 'q' ? *(long long *)item : *item;
}

static void put(Column *col, Py_ssize_t i, double x) {
    char *item = col->items + i * WIDTH(col);
    if (col->kind == 'd')
        *(double *)item = x;
    else if (col->kind == 'q')
        *(long long *)item = (long long)x;
    else
        *item = x != 0;
}

static int resize(Column *col, Py_ssize_t size) { /* by list_resize's rule */
    if (size > col->allocated || size < col->allocated >> 1) {
        size_t room = size ? ((size_t)size + (size >> 3) + 6) & ~(size_t)3 : 0;
        char *items = room > (size_t)PY_SSIZE_T_MAX / 8 ? NULL
                                                          : PyMem_Realloc(col->items, room * WIDTH(col));
        if (items == NULL && room) {
            PyErr_NoMemory();
            return -1;
        }
        col->items = items, col->allocated = room;
    }
    col->size = size;
    return 0;
}

static int place(Column *col, Py_ssize_t i, double x) { /* col.insert(i, x) */
    Py_ssize_t n = col->size, width = WIDTH(col);
    TRY(resize(col, n + 1));
    i = i < 0 ? (i + n < 0 ? 0 : i + n) : i > n ? n : i;
    memmove(col->items + (i + 1) * width, col->items + i * width, (n - i) * width);
    put(col, i, x);
    return 0;
}

static PyObject *box(Column *col, Py_ssize_t i) {
    double x = at(col, i);
    return col->kind == 'd' ? PyFloat_FromDouble(x)
           : col->kind == 'q' ? PyLong_FromLongLong((long long)x) : PyBool_FromLong(x != 0);
}

static int unbox(Column *col, PyObject *value, double *x) { /* a float, an int or a bool */
    long long q = 0;
    if (col->kind == 'd' ? !PyFloat_Check(value)
        : col->kind == 'q' ? !PyLong_Check(value) : !PyBool_Check(value)) {
        PyErr_Format(PyExc_TypeError, "a '%c' column holds no %.200s", col->kind,
                     Py_TYPE(value)->tp_name);
        return -1;
    }
    if (col->kind != 'd' && ((q = PyLong_AsLongLong(value)) > 1LL << 53 || q < -(1LL << 53)))
        PyErr_SetString(PyExc_OverflowError, "a column holds ints of at most 2**53");
    *x = col->kind == 'd' ? PyFloat_AS_DOUBLE(value) : (double)q;
    return PyErr_Occurred() ? -1 : 0;
}

static Py_ssize_t length(Column *col) { return col->size; }

static PyObject *item(Column *col, Py_ssize_t i) { /* what iteration and bisect read */
    if (i >= 0 && i < col->size)
        return box(col, i);
    PyErr_SetString(PyExc_IndexError, "column index out of range");
    return NULL;
}

static int index_of(Column *col, PyObject *key, Py_ssize_t *i) {
    *i = PyNumber_AsSsize_t(key, PyExc_IndexError);
    *i += *i < 0 ? col->size : 0;
    if (!PyErr_Occurred() && (*i < 0 || *i >= col->size))
        PyErr_SetString(PyExc_IndexError, "column index out of range");
    return PyErr_Occurred() ? -1 : 0;
}

static PyObject *subscript(Column *col, PyObject *key) { /* col[i], or col[slice] as a list */
    Py_ssize_t start, stop, step, n;
    if (!PySlice_Check(key))
        return index_of(col, key, &start) < 0 ? NULL : box(col, start);
    if (PySlice_Unpack(key, &start, &stop, &step) < 0)
        return NULL;
    n = PySlice_AdjustIndices(col->size, &start, &stop, step);
    PyObject *list = PyList_New(n), *value;
    for (Py_ssize_t k = 0; list != NULL && k < n; k++) {
        if ((value = box(col, start + k * step)) == NULL)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, k, value);
    }
    return list;
}

static int assign(Column *col, PyObject *key, PyObject *value) { /* col[i] = v, del col[i or i:j] */
    Py_ssize_t start, stop, step, width = WIDTH(col);
    double x;
    if (!PySlice_Check(key)) {
        TRY(index_of(col, key, &start));
        if (value != NULL) {
            TRY(unbox(col, value, &x));
            put(col, start, x);
            return 0;
        }
        stop = start + 1;
    } else if (value != NULL || PySlice_Unpack(key, &start, &stop, &step) < 0 || step != 1) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "a column's slices are deleted whole, not set");
        return -1;
    } else if (PySlice_AdjustIndices(col->size, &start, &stop, step) == 0) {
        return 0;
    }
    memmove(col->items + start * width, col->items + stop * width, (col->size - stop) * width);
    return resize(col, col->size - (stop - start));
}

static PyObject *append(Column *col, PyObject *value) {
    double x;
    return unbox(col, value, &x) < 0 || place(col, col->size, x) < 0 ? NULL : Py_NewRef(Py_None);
}

static PyObject *insert(Column *col, PyObject *args) {
    Py_ssize_t i;
    PyObject *value;
    double x;
    if (!PyArg_ParseTuple(args, "nO:insert", &i, &value) || unbox(col, value, &x) < 0
        || place(col, i, x) < 0)
        return NULL;
    return Py_NewRef(Py_None);
}

static void column_dealloc(Column *col) {
    PyMem_Free(col->items);
    Py_TYPE(col)->tp_free((PyObject *)col);
}

/* Column(kind, iterable) */
static PyObject *column_new(PyTypeObject *type, PyObject *args, PyObject *kwargs) {
    int kind;
    PyObject *items, *fast = NULL;
    Column *col = NULL;
    double x;
    if (!PyArg_ParseTuple(args, "CO:Column", &kind, &items))
        return NULL;
    if (kind != 'd' && kind != 'q' && kind != '?')
        PyErr_Format(PyExc_ValueError, "a column's kind is 'd', 'q' or '?', not '%c'", kind);
    else if ((fast = PySequence_Fast(items, "a column is made from an iterable")) != NULL
             && (col = PyObject_New(Column, type)) != NULL)
        col->size = col->allocated = 0, col->kind = kind, col->items = NULL;
    for (Py_ssize_t k = 0; col != NULL && k < PySequence_Fast_GET_SIZE(fast); k++)
        if (unbox(col, PySequence_Fast_GET_ITEM(fast, k), &x) < 0 || place(col, k, x) < 0)
            Py_CLEAR(col);
    Py_XDECREF(fast);
    return (PyObject *)col;
}

static PySequenceMethods column_sequence = {.sq_length = (lenfunc)length,
                                            .sq_item = (ssizeargfunc)item};
static PyMappingMethods column_mapping = {.mp_subscript = (binaryfunc)subscript,
                                          .mp_ass_subscript = (objobjargproc)assign};
static PyMethodDef column_methods[] = {
    {"append", (PyCFunction)append, METH_O, "list.append"},
    {"insert", (PyCFunction)insert, METH_VARARGS, "list.insert"},
    {NULL, NULL, 0, NULL}};

static PyTypeObject ColumnType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_repro_checker_core.Column",
    .tp_basicsize = sizeof(Column), .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = column_new, .tp_dealloc = (destructor)column_dealloc,
    .tp_as_sequence = &column_sequence, .tp_as_mapping = &column_mapping,
    .tp_methods = column_methods};

/* Held by a Core: the checker's columns (per cluster, then per table slot),
 * lists and dicts, two module names (slots 0..HELD-1, named like the names
 * below), then the checker, its __dict__ and its module's globals.  The other
 * names are read where Python reads them: the instance's, the module's, the
 * record's, and the methods called for every branch but the common one. */
enum { MAX_INV, MIN_RESP, WRITE_INVOKED, MIN_READ_RESP, FIRST_READ_INV, READS, POS, HAS_WRITE,
       IS_CLOSED, TB, TA, TCID, PM1, PM2, PA1, COLUMNS, WRITE_ID = COLUMNS, FIRST_READ_ID,
       CID_OF, FRONTIER, DIRTY, OPEN_WRITE_KEYS, WRITE, RECORD, HELD,
       OPS_SEEN = HELD, READS_CHECKED, DIRTY_A, FRONTIER_LIMIT, RECENT_WRITES,
       VALUE_KEY, AS_TIME, MEMO_MIN_BYTES, EAGER_TAIL, DIRTY_LIMIT, KIND, OP_ID, VALUE,
       INVOKED_AT, RESPONDED_AT, REGISTER_WRITE, REOPEN, TABLE_INSERT, TABLE_REMOVE, COMPACT,
       FLAG_CROSSING, UNKNOWN_READ, READ_FROM_FUTURE, REMEMBER, KEY_OF, DICT, NAMES };
enum { CHECKER = HELD, ATTRS, GLOBALS, OWNED };
static const char kinds[COLUMNS + 1] = "dddddqq??ddqddq";
static const char *names[NAMES] = {
    "_max_inv", "_min_resp", "_write_invoked", "_min_read_resp", "_first_read_inv", "_reads",
    "_pos", "_has_write", "_is_closed", "_tb", "_ta", "_tcid", "_pm1", "_pm2", "_pa1",
    "_write_id", "_first_read_id", "_cid_of", "_frontier", "_dirty", "_open_write_keys",
    "WRITE", "OperationRecord", "ops_seen", "reads_checked", "_dirty_a", "frontier_limit",
    "_recent_writes", "_value_key", "_as_time", "_MEMO_MIN_BYTES", "_EAGER_TAIL",
    "_DIRTY_LIMIT", "kind", "op_id", "value", "invoked_at", "responded_at", "_register_write",
    "_reopen", "_table_insert", "_table_remove", "_compact", "_flag_crossing", "_unknown_read",
    "_flag_read_from_future", "remember", "key_of", "__dict__"};
static PyObject *S[NAMES], *ONE, *EMPTY;

typedef struct {
    PyObject_HEAD
    PyObject *o[OWNED];
    Py_ssize_t slot[RESPONDED_AT - KIND + 1]; /* of each field in an OperationRecord */
} Core;

#define O(slot) (c->o[slot])
#define COL(slot) ((Column *)c->o[slot])
#define D(slot) ((double *)COL(slot)->items)
#define Q(slot) ((long long *)COL(slot)->items)

static int within(Core *c, int first, int last, Py_ssize_t i) { /* i indexes those columns */
    for (int k = first; k <= last; k++)
        if (i < 0 || i >= COL(k)->size) {
            PyErr_Format(PyExc_IndexError, "checker.%U has no slot %zd", S[k], i);
            return -1;
        }
    return 0;
}

/* The index of cluster cid (-1 on error), checked against its columns: no step shrinks them. */
static Py_ssize_t cluster(Core *c, PyObject *cid) {
    Py_ssize_t i = PyLong_AsSsize_t(cid);
    return (i == -1 && PyErr_Occurred()) || within(c, MAX_INV, IS_CLOSED, i) < 0 ? -1 : i;
}

static PyObject *get(PyObject *dict, int name) { /* dict[name], borrowed */
    PyObject *value = PyDict_GetItemWithError(dict, S[name]);
    if (value == NULL && !PyErr_Occurred())
        PyErr_SetObject(PyExc_AttributeError, S[name]);
    return value;
}

static int as_double(PyObject *value, double *x) { /* *x = float(value), value NULL on error */
    *x = value ? PyFloat_AsDouble(value) : -1.0;
    return value == NULL || (*x == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

static int store(PyObject *dict, int name, PyObject *value) { /* dict[name] = value, stolen */
    int status = value == NULL ? -1 : PyDict_SetItem(dict, S[name], value);
    Py_XDECREF(value);
    return status;
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
    PyObject *old = get(dict, name);
    return store(dict, name, old ? PyNumber_Add(old, ONE) : NULL);
}

/* record.<name>, a new reference: read off its slot in an OperationRecord. */
static PyObject *field(Core *c, PyObject *record, int name) {
    Py_ssize_t slot = c->slot[name - KIND];
    PyObject *value = slot && Py_TYPE(record) == (PyTypeObject *)O(RECORD)
                          ? *(PyObject **)((char *)record + slot) : NULL;
    return value ? Py_NewRef(value) : PyObject_GetAttr(record, S[name]);
}

/* record.<name> as a time into *t: a float as it is, anything else through
 * _as_time(op_id, time).  1, and no *t, for a response time of None. */
static int time_of(Core *c, PyObject *record, int name, PyObject *op_id, double *t) {
    PyObject *held = field(c, record, name), *as_time;
    int none = held == Py_None && name == RESPONDED_AT;
    if (held != NULL && !none && !PyFloat_CheckExact(held)) {
        as_time = Py_XNewRef(get(O(GLOBALS), AS_TIME));
        Py_SETREF(held, as_time ? PyObject_CallFunctionObjArgs(as_time, op_id, held, NULL) : NULL);
        Py_XDECREF(as_time);
    }
    int status = none ? 1 : as_double(held, t);
    Py_XDECREF(held);
    return status;
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

/* _recompute_prefix(start), in place. */
static int recompute_prefix(Core *c, Py_ssize_t start) {
    Py_ssize_t n = COL(TA)->size;
    double m1 = -Py_HUGE_VAL, m2 = -Py_HUGE_VAL;
    long long c1 = -1;
    if (start > 0) {
        TRY(within(c, PM1, PA1, start - 1));
        m1 = D(PM1)[start - 1], c1 = Q(PA1)[start - 1], m2 = D(PM2)[start - 1];
    }
    TRY(n > 0 ? within(c, TA, TCID, n - 1) : 0);
    for (int k = PM1; k <= PA1; k++)
        TRY(resize(COL(k), n));
    for (Py_ssize_t i = start; i < n; i++) {
        double a = D(TA)[i];
        if (a > m1)
            m2 = m1, m1 = a, c1 = Q(TCID)[i];
        else if (a > m2)
            m2 = a;
        D(PM1)[i] = m1, Q(PA1)[i] = c1, D(PM2)[i] = m2;
    }
    return 0;
}

/* _new_cluster(key, op_id, invoked, _INF, invoked, True) */
static int new_cluster(Core *c, PyObject *key, PyObject *op_id, double invoked) {
    double row[COLUMNS] = {invoked, Py_HUGE_VAL, invoked, Py_HUGE_VAL, Py_HUGE_VAL, 0, -1, 1, 0};
    PyObject *cid = PyLong_FromSsize_t(PyList_GET_SIZE(O(WRITE_ID))), *old;
    int status = cid == NULL || PyDict_SetItem(O(CID_OF), key, cid) < 0
                 || PyList_Append(O(WRITE_ID), op_id) < 0
                 || PyList_Append(O(FIRST_READ_ID), Py_None) < 0 ? -1 : 0, over = 0;
    for (int k = MAX_INV; status == 0 && k <= IS_CLOSED; k++)
        status = place(COL(k), COL(k)->size, row[k]);
    if (status == 0 && (status = PyDict_SetItem(O(FRONTIER), cid, Py_None)) == 0)
        status = over = versus(PyDict_GET_SIZE(O(FRONTIER)), O(ATTRS), FRONTIER_LIMIT, Py_GT);
    Py_ssize_t pos = 0, j = -1;
    if (over > 0 && PyDict_Next(O(FRONTIER), &pos, &old, NULL)) { /* evict the LRU end */
        Py_INCREF(old);
        status = PyDict_DelItem(O(FRONTIER), old) < 0 || (j = cluster(c, old)) < 0 ? -1 : 0;
        if (status == 0)
            COL(IS_CLOSED)->items[j] = 1;
        Py_DECREF(old);
    }
    Py_XDECREF(cid);
    return status < 0 ? -1 : 0;
}

/* _note_a_growth(cid), _dirty_a raised for a dirty cid. */
static int note_a_growth(Core *c, PyObject *cid, Py_ssize_t i) {
    Py_ssize_t index = Q(POS)[i];
    double a = D(MAX_INV)[i], bound;
    if (index < 0)
        return 0;
    int dirty = PyDict_Contains(O(DIRTY), cid), far, over;
    if (dirty == 0) {
        TRY(far = versus(COL(TB)->size - index, O(GLOBALS), EAGER_TAIL, Py_GT));
        if (!far) {
            TRY(within(c, TA, TA, index));
            D(TA)[index] = a;
            return recompute_prefix(c, index);
        }
        TRY(PyDict_SetItem(O(DIRTY), cid, Py_None));
    }
    TRY(dirty);
    TRY(as_double(get(O(ATTRS), DIRTY_A), &bound));
    if (a > bound && store(O(ATTRS), DIRTY_A, PyFloat_FromDouble(a)) < 0)
        return -1;
    TRY(over = versus(PyDict_GET_SIZE(O(DIRTY)), O(GLOBALS), DIRTY_LIMIT, Py_GT));
    return over ? done(method(c, COMPACT, NULL, NULL, NULL)) : 0;
}

/* _table_insert(cid): a tail append here, any other place in Python. */
static int table_insert(Core *c, PyObject *cid, Py_ssize_t i) {
    Py_ssize_t size = COL(TB)->size;
    double b = D(MIN_RESP)[i], a = D(MAX_INV)[i];
    if (size == 0 || !(b >= D(TB)[size - 1]))
        return done(method(c, TABLE_INSERT, cid, NULL, NULL));
    for (int k = TB; k <= TCID; k++)
        TRY(place(COL(k), COL(k)->size, k == TB ? b : k == TA ? a : i));
    Q(POS)[i] = size;
    return recompute_prefix(c, size);
}

/* _check_crossings(cid) */
static int check_crossings(Core *c, PyObject *cid, Py_ssize_t i) {
    double b = D(MIN_RESP)[i], a = D(MAX_INV)[i], bound = -Py_HUGE_VAL;
    Py_ssize_t index = 0, hi = COL(TB)->size, pos = 0, j;
    PyObject *other;
    int crossed = 0;
    if (b == Py_HUGE_VAL)
        return 0;
    while (index < hi) { /* bisect_left(_tb, a) */
        Py_ssize_t mid = ((size_t)index + hi) / 2;
        if (D(TB)[mid] < a)
            index = mid + 1;
        else
            hi = mid;
    }
    if (index) {
        TRY(within(c, PM1, PA1, index - 1));
        crossed = (Q(PA1)[index - 1] != i ? D(PM1) : D(PM2))[index - 1] > b;
    }
    if (!crossed)
        TRY(as_double(get(O(ATTRS), DIRTY_A), &bound));
    while (!crossed && bound > b && PyDict_Next(O(DIRTY), &pos, &other, NULL)) {
        TRY(j = cluster(c, other));
        crossed = j != i && D(MIN_RESP)[j] < a && D(MAX_INV)[j] > b;
    }
    return crossed ? done(method(c, FLAG_CROSSING, cid, NULL, NULL)) : 0;
}

/* _update(cid, new_inv, new_resp), new_resp NULL for None. */
static int update(Core *c, PyObject *cid, Py_ssize_t i, double new_inv, const double *new_resp) {
    TRY(COL(IS_CLOSED)->items[i] ? done(method(c, REOPEN, cid, NULL, NULL))
        : PyDict_DelItem(O(FRONTIER), cid) < 0 ? -1
        : PyDict_SetItem(O(FRONTIER), cid, Py_None));
    if (new_inv > D(MAX_INV)[i]) {
        D(MAX_INV)[i] = new_inv;
        TRY(note_a_growth(c, cid, i));
    }
    if (new_resp != NULL && *new_resp < D(MIN_RESP)[i]) {
        D(MIN_RESP)[i] = *new_resp;
        if (Q(POS)[i] >= 0)
            TRY(done(method(c, TABLE_REMOVE, cid, NULL, NULL)));
        TRY(table_insert(c, cid, i));
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
    PyObject *value = NULL, *key = NULL, *op_id = NULL, *pair = NULL, *cid;
    double invoked;
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
            } else if (!PyErr_Occurred() && time_of(c, record, INVOKED_AT, op_id, &invoked) == 0) {
                status = new_cluster(c, key, op_id, invoked);
            }
        }
    }
    Py_XDECREF(value), Py_XDECREF(key), Py_XDECREF(op_id), Py_XDECREF(pair);
    return status < 0 ? NULL : Py_NewRef(Py_None);
}

/* on_complete of a write up to its cluster: *key and *cid, new references (the
 * write is registered here if its invoke was not seen). */
static int write_completes(Core *c, PyObject *record, PyObject *op_id, PyObject *value,
                           PyObject **key, PyObject **cid) {
    PyObject *memo = Py_XNewRef(PyDict_GetItemWithError(O(OPEN_WRITE_KEYS), op_id)), *held;
    Py_ssize_t j;
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
    int has = *cid ? ((j = cluster(c, *cid)) < 0 ? -1 : COL(HAS_WRITE)->items[j])
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
static int first_read(double invoked, PyObject *op_id, double first_inv, PyObject *first_id) {
    int named, same;
    if (invoked != first_inv)
        return invoked < first_inv;
    TRY(named = PyObject_IsTrue(first_id));
    first_id = named ? first_id : EMPTY;
    TRY(same = PyObject_RichCompareBool(op_id, first_id, Py_EQ));
    return same ? 0 : PyObject_RichCompareBool(op_id, first_id, Py_LT);
}

/* on_complete of a read after its key: the bookkeeping, then _update. */
static int read_completes(Core *c, PyObject *record, PyObject *op_id, PyObject *cid,
                          Py_ssize_t i) {
    double responded, invoked;
    int none, earlier;
    Q(READS)[i] += 1;
    TRY(none = time_of(c, record, RESPONDED_AT, op_id, &responded));
    if (!none && responded < D(MIN_READ_RESP)[i])
        D(MIN_READ_RESP)[i] = responded;
    TRY(time_of(c, record, INVOKED_AT, op_id, &invoked));
    PyObject *first_id = PyList_GetItem(O(FIRST_READ_ID), i);
    TRY(earlier = first_id ? first_read(invoked, op_id, D(FIRST_READ_INV)[i], first_id) : -1);
    if (earlier) {
        D(FIRST_READ_INV)[i] = invoked;
        TRY(PyList_SetItem(O(FIRST_READ_ID), i, Py_NewRef(op_id)));
    }
    if (!none && responded < D(WRITE_INVOKED)[i])
        return done(method(c, READ_FROM_FUTURE, record, cid, NULL));
    return update(c, cid, i, invoked, none ? NULL : &responded);
}

static PyObject *on_complete(Core *c, PyObject *record) {
    PyObject *op_id = field(c, record, OP_ID), *value = NULL, *key = NULL, *cid = NULL, *held;
    int write = op_id && (value = field(c, record, VALUE)) ? is_write(c, record) : -1;
    int status = write, large, found, other = -1, none;
    Py_ssize_t i;
    double responded;
    if (write > 0 && (status = write_completes(c, record, op_id, value, &key, &cid)) == 0) {
        /* another write claimed the value: flagged at its invoke */
        if ((i = cluster(c, cid)) < 0
            || (held = PyList_GetItem(O(WRITE_ID), i)) == NULL
            || (other = PyObject_RichCompareBool(held, op_id, Py_NE)) < 0)
            status = -1;
        else if (!other && (none = time_of(c, record, RESPONDED_AT, op_id, &responded)) >= 0)
            status = update(c, cid, i, -Py_HUGE_VAL, none ? NULL : &responded);
        else
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
            status = (i = cluster(c, cid)) < 0 ? -1 : read_completes(c, record, op_id, cid, i);
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

/* Core(checker, globals): the columns it puts in place of the checker's
 * lists, and the lists and dicts the checker never rebinds. */
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
        if (held == NULL || k >= COLUMNS)
            O(k) = Py_XNewRef(held);
        else /* in place of the list */
            O(k) = PyObject_CallFunction((PyObject *)&ColumnType, "CO", kinds[k], held);
        if (O(k) == NULL || (k >= COLUMNS && k < CID_OF && !PyList_CheckExact(held))
            || (k >= CID_OF && k < WRITE && !PyDict_CheckExact(held))) {
            if (O(k) != NULL)
                PyErr_Format(PyExc_TypeError, "checker.%U is not a list or dict", S[k]);
            status = -1;
        }
    }
    for (int k = 0; status == 0 && k < COLUMNS; k++)
        status = PyDict_SetItem(O(ATTRS), S[k], O(k));
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
    if (!(ONE = PyLong_FromLong(1)) || !(EMPTY = PyUnicode_FromString(""))
        || PyType_Ready(&ColumnType) < 0 || PyType_Ready(&CoreType) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&definition);
    if (module != NULL && (PyModule_AddObjectRef(module, "Core", (PyObject *)&CoreType) < 0
                           || PyModule_AddObjectRef(module, "Column", (PyObject *)&ColumnType) < 0))
        Py_CLEAR(module);
    return module;
}
"""

CORE = CompiledModule(MODULE_NAME, C_SOURCE, "checker core", "python")
