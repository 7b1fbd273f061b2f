"""The incremental atomicity checker's per-operation path, compiled.

A plain CPython extension built by :class:`~repro.native.CompiledModule`,
like the run loop.  ``Core(checker, globals)`` puts typed columns
(``Column``: unboxed doubles, 64-bit ints, one byte per flag, or op ids as
UTF-8) in place of the checker's seventeen per-cluster and table lists, and
a ``KeyTable`` (16-byte digests by cid, with a C slot index) in place of
``_cid_of``, and runs ``on_invoke`` / ``on_complete`` on them and on its
dicts: ``_new_cluster``, ``_update``, the tail append of ``_table_insert``,
``_note_a_growth`` / ``_recompute_prefix`` and ``_check_crossings``.  Every
other branch calls the checker's method, which uses a column as the list
(``len``, item get, set and ``del``, slice reads and deletes, ``append``,
``insert``, iteration) and a key table as the dict (``get``, ``[]``, an
append-only ``[]=``, ``len``, ``in``, ``items()``, ``values()``).  Non-float
times go through ``incremental._as_time``, a non-str op id through
``_as_op_id``.  Digests, counters, ``_dirty_a`` and the tuning constants
are read where Python reads them, so patching any of them acts alike.
"""

from __future__ import annotations

from repro.native import CompiledModule

MODULE_NAME = "_repro_checker_core"

C_SOURCE = r"""
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#define TRY(status) do { if ((status) < 0) return -1; } while (0)

/* A column: a vector of doubles ('d'), long longs ('q'), flags ('?', a
 * byte each) or names ('s') through PyMem_*, over-allocated as a list is.
 * An item passes as a double: a 'q' column holds ints of at most 2**53.  A
 * name is a str or None: an item (offset << 24 | length) of its UTF-8 in an
 * arena, -1 for None.  Lone surrogates pass through, so byte order is
 * code-point order.  A set appends to the arena, compacted once the names
 * replaced outweigh the live ones.  A key table (below) is a column too. */
typedef struct {
    PyObject_HEAD
    Py_ssize_t size, allocated;
    int kind;
    char *items;
    char *arena;                 /* 's': names' bytes, used of room, dead of them replaced */
    Py_ssize_t used, room, dead;
    int32_t *index;              /* 'k': cid per slot (-1 free), slots a power of two */
    Py_ssize_t slots;
} Column;

#define WIDTH(col) ((col)->kind == '?' ? 1 : (col)->kind == 'k' ? 16 : 8)

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

/* Room in *items for size items of width bytes, by list_resize's rule. */
static int reserve(char **items, Py_ssize_t *allocated, Py_ssize_t size, Py_ssize_t width) {
    if (size > *allocated || size < *allocated >> 1) {
        size_t room = size ? ((size_t)size + (size >> 3) + 6) & ~(size_t)3 : 0;
        char *moved = room > (size_t)PY_SSIZE_T_MAX / width ? NULL
                                                             : PyMem_Realloc(*items, room * width);
        if (moved == NULL && room) {
            PyErr_NoMemory();
            return -1;
        }
        *items = moved, *allocated = room;
    }
    return 0;
}

static int resize(Column *col, Py_ssize_t size) {
    TRY(reserve(&col->items, &col->allocated, size, WIDTH(col)));
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

/* name's UTF-8 into *text, *size (NULL, 0 for None); *held, if set, is the bytes to release. */
static int utf8(PyObject *name, const char **text, Py_ssize_t *size, PyObject **held) {
    *held = NULL, *text = NULL, *size = 0;
    if (name == Py_None)
        return 0;
    if (!PyUnicode_Check(name))
        PyErr_Format(PyExc_TypeError, "a name column holds str or None, not %.200s",
                     Py_TYPE(name)->tp_name);
    else if ((*text = PyUnicode_AsUTF8AndSize(name, size)) == NULL
             && PyErr_ExceptionMatches(PyExc_UnicodeEncodeError) /* a lone surrogate */
             && (PyErr_Clear(), *held = PyUnicode_AsEncodedString(name, "utf-8", "surrogatepass")))
        *text = PyBytes_AS_STRING(*held), *size = PyBytes_GET_SIZE(*held);
    return PyErr_Occurred() ? -1 : 0;
}

/* The length of names[i] (-1 for None), its bytes in *text ("" for None). */
static Py_ssize_t name_at(Column *names, Py_ssize_t i, const char **text) {
    long long item = ((long long *)names->items)[i];
    *text = item < 0 ? "" : names->arena + (item >> 24);
    return item < 0 ? -1 : item & 0xffffff;
}

static int compact(Column *names) { /* drop the bytes of the names replaced */
    char *arena = NULL;
    const char *text;
    Py_ssize_t room = 0, used = 0, size;
    TRY(reserve(&arena, &room, names->used - names->dead + 1, 1));
    for (Py_ssize_t i = 0; i < names->size; i++)
        if ((size = name_at(names, i, &text)) >= 0) {
            memcpy(arena + used, text, size);
            ((long long *)names->items)[i] = (long long)used << 24 | size, used += size;
        }
    PyMem_Free(names->arena);
    names->arena = arena, names->room = room, names->used = used, names->dead = 0;
    return 0;
}

/* names[i] = text (None if NULL), appending at i == len(names). */
static int name_store(Column *names, Py_ssize_t i, const char *text, Py_ssize_t size) {
    long long was = i < names->size ? ((long long *)names->items)[i] : -1;
    if (size > 0xffffff)
        return PyErr_SetString(PyExc_OverflowError, "a name column holds names under 16 MiB"), -1;
    TRY(text ? reserve(&names->arena, &names->room, names->used + size + 1, 1) : 0);
    TRY(i == names->size ? resize(names, i + 1) : 0);
    ((long long *)names->items)[i] = text ? (long long)names->used << 24 | size : -1;
    if (text != NULL)
        memcpy(names->arena + names->used, text, size), names->used += size;
    names->dead += was < 0 ? 0 : was & 0xffffff;
    return names->dead > 4096 && 2 * names->dead > names->used ? compact(names) : 0;
}

static int name_put(Column *names, Py_ssize_t i, PyObject *name) { /* names[i] = name */
    const char *text;
    Py_ssize_t size;
    PyObject *held;
    int status = utf8(name, &text, &size, &held) < 0 ? -1 : name_store(names, i, text, size);
    Py_XDECREF(held);
    return status;
}

static PyObject *box(Column *col, Py_ssize_t i) {
    const char *text;
    Py_ssize_t size = col->kind == 's' ? name_at(col, i, &text) : 0;
    if (col->kind == 's')
        return size < 0 ? Py_NewRef(Py_None) : PyUnicode_DecodeUTF8(text, size, "surrogatepass");
    double x = at(col, i);
    return col->kind == 'd' ? PyFloat_FromDouble(x)
           : col->kind == 'q' ? PyLong_FromLongLong((long long)x) : PyBool_FromLong(x != 0);
}

static int unbox(Column *col, PyObject *value, double *x) { /* a float, an int or a bool */
    long long q = 0;
    if (col->kind == 'd' ? !PyFloat_Check(value)
        : col->kind == 'q' ? !PyLong_Check(value) : col->kind != '?' || !PyBool_Check(value)) {
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
        if (value != NULL && col->kind == 's')
            return name_put(col, start, value);
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

static int push(Column *col, PyObject *value) { /* col.append(value) */
    double x;
    return col->kind == 's' ? name_put(col, col->size, value)
           : unbox(col, value, &x) < 0 ? -1 : place(col, col->size, x);
}

static PyObject *append(Column *col, PyObject *value) {
    return push(col, value) < 0 ? NULL : Py_NewRef(Py_None);
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
    PyMem_Free(col->items), PyMem_Free(col->arena), PyMem_Free(col->index);
    Py_TYPE(col)->tp_free((PyObject *)col);
}

static Column *empty(PyTypeObject *type, int kind) { /* allocates nothing until its first item */
    Column *col = PyObject_New(Column, type);
    if (col != NULL)
        memset(&col->size, 0, sizeof(Column) - offsetof(Column, size)), col->kind = kind;
    return col;
}

/* Column(kind, iterable) */
static PyObject *column_new(PyTypeObject *type, PyObject *args, PyObject *kwargs) {
    int kind;
    PyObject *items, *fast = NULL;
    Column *col = NULL;
    if (!PyArg_ParseTuple(args, "CO:Column", &kind, &items))
        return NULL;
    if (kind != 'd' && kind != 'q' && kind != '?' && kind != 's')
        PyErr_Format(PyExc_ValueError, "a column's kind is 'd', 'q', '?' or 's', not '%c'", kind);
    else if ((fast = PySequence_Fast(items, "a column is made from an iterable")) != NULL)
        col = empty(type, kind);
    for (Py_ssize_t k = 0; col != NULL && k < PySequence_Fast_GET_SIZE(fast); k++)
        if (push(col, PySequence_Fast_GET_ITEM(fast, k)) < 0)
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

/* A key table: the dict of 16-byte value digests to cids it replaces, in
 * cid order and append-only.  Its 'k' items hold key cid at cid; the index
 * holds each cid at the slot its key's first 8 bytes name (a digest is
 * uniform already), or past it by linear probing, at most two thirds full. */
static Py_ssize_t probe(Column *table, const char *key) { /* key's slot, or its free one */
    unsigned long long hash;
    memcpy(&hash, key, 8);
    Py_ssize_t mask = table->slots - 1, s = (Py_ssize_t)(hash & mask);
    while (table->index[s] >= 0 && memcmp(table->items + 16 * (Py_ssize_t)table->index[s], key, 16))
        s = (s + 1) & mask;
    return s;
}

static const char *digest_of(PyObject *key) { /* a 16-byte key's bytes, or NULL */
    return PyBytes_Check(key) && PyBytes_GET_SIZE(key) == 16 ? PyBytes_AS_STRING(key) : NULL;
}

static Py_ssize_t find(Column *table, PyObject *key) { /* key's cid, -1 if it has none */
    const char *digest = digest_of(key);
    return digest == NULL || table->slots == 0 ? -1 : table->index[probe(table, digest)];
}

static int add(Column *table, PyObject *key) { /* table[key] = len(table), key not in it */
    const char *digest = digest_of(key);
    Py_ssize_t n = table->size, slots = table->slots ? 2 * table->slots : 8;
    if (digest == NULL)
        return PyErr_Format(PyExc_TypeError, "a key table holds 16-byte keys, not %R", key), -1;
    if ((n + 1) * 3 > table->slots * 2) { /* a new index, twice as large */
        int32_t *index = n < INT32_MAX ? PyMem_Malloc(slots * sizeof(int32_t)) : NULL;
        if (index == NULL)
            return PyErr_NoMemory(), -1;
        PyMem_Free(table->index);
        table->index = memset(index, 0xff, slots * sizeof(int32_t)), table->slots = slots;
        for (Py_ssize_t j = 0; j < n; j++)
            index[probe(table, table->items + 16 * j)] = (int32_t)j;
    }
    TRY(resize(table, n + 1));
    memcpy(table->items + 16 * n, digest, 16);
    table->index[probe(table, digest)] = (int32_t)n;
    return 0;
}

/* table.get(key, otherwise), a new reference; table[key] if otherwise is NULL */
static PyObject *lookup(Column *table, PyObject *key, PyObject *otherwise) {
    Py_ssize_t cid = find(table, key);
    if (cid < 0 && otherwise == NULL)
        PyErr_SetObject(PyExc_KeyError, key);
    return cid < 0 ? Py_XNewRef(otherwise) : PyLong_FromSsize_t(cid);
}

static PyObject *key_subscript(Column *table, PyObject *key) { return lookup(table, key, NULL); }

static int key_assign(Column *table, PyObject *key, PyObject *cid) { /* table[key] = cid */
    Py_ssize_t i = cid != NULL && PyLong_Check(cid) ? PyLong_AsSsize_t(cid) : -1;
    if (i != table->size || find(table, key) >= 0) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "a key table takes a new key at cid len(table)");
        return -1;
    }
    return add(table, key);
}

static int key_contains(Column *table, PyObject *key) { return find(table, key) >= 0; }

static PyObject *key_get(Column *table, PyObject *key) { return lookup(table, key, Py_None); }

static PyObject *key_items(Column *table, PyObject *unused) { /* as a list, in cid order */
    PyObject *list = PyList_New(table->size), *row;
    for (Py_ssize_t i = 0; list != NULL && i < table->size; i++) {
        if ((row = Py_BuildValue("(y#n)", table->items + 16 * i, (Py_ssize_t)16, i)) == NULL)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, i, row);
    }
    return list;
}

static PyObject *key_values(Column *table, PyObject *unused) { /* the cids: a range */
    return PyObject_CallFunction((PyObject *)&PyRange_Type, "n", table->size);
}

/* KeyTable(dict): the dict's keys, its cids 0, 1, ... in order */
static PyObject *key_table_new(PyTypeObject *type, PyObject *args, PyObject *kwargs) {
    PyObject *dict, *key, *cid;
    Py_ssize_t pos = 0;
    Column *table = NULL;
    if (PyArg_ParseTuple(args, "O!:KeyTable", &PyDict_Type, &dict))
        table = empty(type, 'k');
    while (table != NULL && PyDict_Next(dict, &pos, &key, &cid))
        if (key_assign(table, key, cid) < 0)
            Py_CLEAR(table);
    return (PyObject *)table;
}

static PySequenceMethods key_sequence = {.sq_contains = (objobjproc)key_contains};
static PyMappingMethods key_mapping = {.mp_length = (lenfunc)length,
                                       .mp_subscript = (binaryfunc)key_subscript,
                                       .mp_ass_subscript = (objobjargproc)key_assign};
static PyMethodDef key_methods[] = {
    {"get", (PyCFunction)key_get, METH_O, "dict.get, with no default"},
    {"items", (PyCFunction)key_items, METH_NOARGS, "dict.items, as a list"},
    {"values", (PyCFunction)key_values, METH_NOARGS, "dict.values, as a range"},
    {NULL, NULL, 0, NULL}};

static PyTypeObject KeyTableType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_repro_checker_core.KeyTable",
    .tp_basicsize = sizeof(Column), .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = key_table_new, .tp_dealloc = (destructor)column_dealloc,
    .tp_as_sequence = &key_sequence, .tp_as_mapping = &key_mapping, .tp_methods = key_methods};

/* Held by a Core: the checker's columns (per cluster, then per table slot),
 * key table and dicts, two module names (slots 0..HELD-1, named like the names
 * below), then the checker, its __dict__ and its module's globals.  The other
 * names are read where Python reads them: the instance's, the module's, the
 * record's, and the methods called for every branch but the common one. */
enum { MAX_INV, MIN_RESP, WRITE_INVOKED, MIN_READ_RESP, FIRST_READ_INV, READS, POS, HAS_WRITE,
       IS_CLOSED, WRITE_ID, FIRST_READ_ID, TB, TA, TCID, PM1, PM2, PA1, CID_OF, FRONTIER, DIRTY,
       OPEN_WRITE_KEYS, WRITE, RECORD, HELD,
       OPS_SEEN = HELD, READS_CHECKED, DIRTY_A, FRONTIER_LIMIT, RECENT_WRITES,
       VALUE_KEY, AS_TIME, AS_OP_ID, MEMO_MIN_BYTES, EAGER_TAIL, DIRTY_LIMIT, KIND, OP_ID, VALUE,
       INVOKED_AT, RESPONDED_AT, REGISTER_WRITE, REOPEN, TABLE_INSERT, TABLE_REMOVE, COMPACT,
       FLAG_CROSSING, UNKNOWN_READ, READ_FROM_FUTURE, REMEMBER, KEY_OF, DICT, NAMES };
enum { CHECKER = HELD, ATTRS, GLOBALS, OWNED };
static const char kinds[FRONTIER + 1] = "dddddqq??ssddqddqk";
static const char *names[NAMES] = {
    "_max_inv", "_min_resp", "_write_invoked", "_min_read_resp", "_first_read_inv", "_reads",
    "_pos", "_has_write", "_is_closed", "_write_id", "_first_read_id", "_tb", "_ta", "_tcid",
    "_pm1", "_pm2", "_pa1", "_cid_of", "_frontier", "_dirty", "_open_write_keys",
    "WRITE", "OperationRecord", "ops_seen", "reads_checked", "_dirty_a", "frontier_limit",
    "_recent_writes", "_value_key", "_as_time", "_as_op_id", "_MEMO_MIN_BYTES", "_EAGER_TAIL",
    "_DIRTY_LIMIT", "kind", "op_id", "value", "invoked_at", "responded_at", "_register_write",
    "_reopen", "_table_insert", "_table_remove", "_compact", "_flag_crossing", "_unknown_read",
    "_flag_read_from_future", "remember", "key_of", "__dict__"};
static PyObject *S[NAMES], *ONE;

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
    return (i == -1 && PyErr_Occurred()) || within(c, MAX_INV, FIRST_READ_ID, i) < 0 ? -1 : i;
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

/* _value_key(a), _as_time(a, b) or _as_op_id(a), as the module names them;
 * or checker._recent_writes.<name>(a[, b]).  A new reference. */
static PyObject *call(Core *c, int name, PyObject *a, PyObject *b) {
    int global = name >= VALUE_KEY && name <= AS_OP_ID;
    PyObject *owner = get(O(global ? GLOBALS : ATTRS), global ? name : RECENT_WRITES), *result;
    if (owner == NULL)
        return NULL;
    Py_INCREF(owner);
    PyObject *args[3] = {owner, a, b};
    result = global ? PyObject_Vectorcall(owner, args + 1, 1 + (b != NULL), NULL)
                    : PyObject_VectorcallMethod(S[name], args, 2 + (b != NULL), NULL);
    Py_DECREF(owner);
    return result;
}

/* record.op_id, a new reference: anything but a str goes through _as_op_id(op_id). */
static PyObject *op_id_of(Core *c, PyObject *record) {
    PyObject *op_id = field(c, record, OP_ID);
    if (op_id != NULL && !PyUnicode_Check(op_id))
        Py_SETREF(op_id, call(c, AS_OP_ID, op_id, NULL));
    return op_id;
}

/* record.<name> as a time into *t: a float as it is, anything else through
 * _as_time(op_id, time).  1, and no *t, for a response time of None. */
static int time_of(Core *c, PyObject *record, int name, PyObject *op_id, double *t) {
    PyObject *held = field(c, record, name);
    int none = held == Py_None && name == RESPONDED_AT;
    if (held != NULL && !none && !PyFloat_CheckExact(held))
        Py_SETREF(held, call(c, AS_TIME, op_id, held));
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
    double row[IS_CLOSED + 1] = {invoked, Py_HUGE_VAL, invoked, Py_HUGE_VAL, Py_HUGE_VAL, 0, -1, 1, 0};
    Py_ssize_t n = COL(WRITE_ID)->size;
    PyObject *cid = PyLong_FromSsize_t(n), *old;
    int status = cid == NULL || add(COL(CID_OF), key) < 0 || name_put(COL(WRITE_ID), n, op_id) < 0
                 || name_store(COL(FIRST_READ_ID), n, NULL, 0) < 0 ? -1 : 0, over = 0;
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
    PyObject *op_id = op_id_of(c, record), *value = NULL, *key = NULL, *pair = NULL, *cid = NULL;
    double invoked;
    int status = op_id == NULL || bump(O(ATTRS), OPS_SEEN) < 0 ? -1 : is_write(c, record), large;
    if (status > 0) {
        status = -1;
        if ((value = field(c, record, VALUE)) && (key = call(c, VALUE_KEY, value, NULL))
            && (pair = PyTuple_Pack(2, value, key))
            && PyDict_SetItem(O(OPEN_WRITE_KEYS), op_id, pair) == 0
            && (large = is_large(c, value)) >= 0
            && (!large || done(call(c, REMEMBER, value, key)) == 0)
            && (cid = lookup(COL(CID_OF), key, Py_None)) != NULL) {
            if (cid != Py_None)
                status = done(method(c, REGISTER_WRITE, record, key, cid));
            else if (time_of(c, record, INVOKED_AT, op_id, &invoked) == 0)
                status = new_cluster(c, key, op_id, invoked);
        }
    }
    Py_XDECREF(value), Py_XDECREF(key), Py_XDECREF(op_id), Py_XDECREF(pair), Py_XDECREF(cid);
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
    if ((memo && held == NULL) || (*key == NULL && (*key = call(c, VALUE_KEY, value, NULL)) == NULL)
        || (*cid = lookup(COL(CID_OF), *key, Py_None)) == NULL)
        return -1;
    int has = *cid != Py_None ? ((j = cluster(c, *cid)) < 0 ? -1 : COL(HAS_WRITE)->items[j]) : 0;
    if (has != 0) /* a write registered at its invoke, or an error */
        return has < 0 ? -1 : 0;
    TRY(bump(O(ATTRS), OPS_SEEN));
    TRY(done(method(c, REGISTER_WRITE, record, *key, *cid)));
    Py_SETREF(*cid, lookup(COL(CID_OF), *key, Py_None));
    if (*cid == Py_None)
        PyErr_SetObject(PyExc_KeyError, *key);
    return *cid == NULL || *cid == Py_None ? -1 : 0;
}

/* (invoked, op_id) < (first_inv, first_id or "") as tuples compare: op_id's
 * UTF-8 is text, and UTF-8 byte order is code-point order. */
static int first_read(Core *c, Py_ssize_t i, double invoked, const char *text, Py_ssize_t size) {
    const char *first;
    Py_ssize_t length = name_at(COL(FIRST_READ_ID), i, &first), order;
    if (invoked != D(FIRST_READ_INV)[i])
        return invoked < D(FIRST_READ_INV)[i];
    length = length < 0 ? 0 : length;
    order = memcmp(text, first, size < length ? size : length);
    return order < 0 || (order == 0 && size < length);
}

/* on_complete of a read after its key: the bookkeeping, then _update. */
static int read_completes(Core *c, PyObject *record, PyObject *op_id, const char *text,
                          Py_ssize_t size, PyObject *cid, Py_ssize_t i) {
    double responded, invoked;
    int none;
    Q(READS)[i] += 1;
    TRY(none = time_of(c, record, RESPONDED_AT, op_id, &responded));
    if (!none && responded < D(MIN_READ_RESP)[i])
        D(MIN_READ_RESP)[i] = responded;
    TRY(time_of(c, record, INVOKED_AT, op_id, &invoked));
    if (first_read(c, i, invoked, text, size)) {
        D(FIRST_READ_INV)[i] = invoked;
        TRY(name_store(COL(FIRST_READ_ID), i, text, size));
    }
    if (!none && responded < D(WRITE_INVOKED)[i])
        return done(method(c, READ_FROM_FUTURE, record, cid, NULL));
    return update(c, cid, i, invoked, none ? NULL : &responded);
}

static PyObject *on_complete(Core *c, PyObject *record) {
    PyObject *op_id = op_id_of(c, record), *value = NULL, *key = NULL, *cid = NULL, *held = NULL;
    const char *text, *name;
    Py_ssize_t i, size;
    int write = op_id && utf8(op_id, &text, &size, &held) == 0
                && (value = field(c, record, VALUE)) ? is_write(c, record) : -1;
    int status = write, large, found, none;
    double responded;
    if (write > 0 && (status = write_completes(c, record, op_id, value, &key, &cid)) == 0) {
        if ((i = cluster(c, cid)) < 0)
            status = -1;
        else if (name_at(COL(WRITE_ID), i, &name) != size || memcmp(name, text, size))
            status = 0; /* another write claimed the value: flagged at its invoke */
        else if ((none = time_of(c, record, RESPONDED_AT, op_id, &responded)) >= 0)
            status = update(c, cid, i, -Py_HUGE_VAL, none ? NULL : &responded);
        else
            status = -1;
    } else if (write == 0) {
        status = bump(O(ATTRS), READS_CHECKED) < 0 || (large = is_large(c, value)) < 0 ? -1 : 0;
        if (status == 0 && large) { /* key_of(value) or _value_key(value) */
            if ((key = call(c, KEY_OF, value, NULL)) == NULL || (found = PyObject_IsTrue(key)) < 0)
                status = -1;
            else if (!found)
                Py_CLEAR(key);
        }
        if (status == 0 && key == NULL && (key = call(c, VALUE_KEY, value, NULL)) == NULL)
            status = -1;
        if (status == 0 && (cid = lookup(COL(CID_OF), key, Py_None)) == Py_None)
            Py_SETREF(cid, method(c, UNKNOWN_READ, record, key, NULL));
        if (status == 0 && cid == NULL)
            status = -1;
        else if (status == 0 && cid != Py_None)
            status = (i = cluster(c, cid)) < 0 ? -1
                     : read_completes(c, record, op_id, text, size, cid, i);
    }
    Py_XDECREF(op_id), Py_XDECREF(value), Py_XDECREF(key), Py_XDECREF(cid), Py_XDECREF(held);
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

/* Core(checker, globals): the columns and key table it puts in place of the
 * checker's lists and _cid_of, and the dicts the checker never rebinds. */
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
        if (held == NULL || k >= FRONTIER)
            O(k) = Py_XNewRef(held);
        else /* in place of the list or dict */
            O(k) = k == CID_OF ? PyObject_CallOneArg((PyObject *)&KeyTableType, held)
                   : PyObject_CallFunction((PyObject *)&ColumnType, "CO", kinds[k], held);
        if (O(k) == NULL || (k >= FRONTIER && k < WRITE && !PyDict_CheckExact(held))) {
            if (O(k) != NULL)
                PyErr_Format(PyExc_TypeError, "checker.%U is not a dict", S[k]);
            status = -1;
        }
    }
    for (int k = 0; status == 0 && k < FRONTIER; k++)
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
    if (!(ONE = PyLong_FromLong(1)) || PyType_Ready(&ColumnType) < 0
        || PyType_Ready(&KeyTableType) < 0 || PyType_Ready(&CoreType) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&definition);
    if (module != NULL && (PyModule_AddObjectRef(module, "Core", (PyObject *)&CoreType) < 0
                           || PyModule_AddObjectRef(module, "Column", (PyObject *)&ColumnType) < 0
                           || PyModule_AddObjectRef(module, "KeyTable", (PyObject *)&KeyTableType) < 0))
        Py_CLEAR(module);
    return module;
}
"""

CORE = CompiledModule(MODULE_NAME, C_SOURCE, "checker core", "python")
