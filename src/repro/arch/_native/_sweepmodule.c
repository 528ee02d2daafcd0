/* _sweep: the native (C) sweep kernel behind ChipConfig.kernel == "native".
 *
 * Three entry points implement the simulator's per-cycle hot loops over the
 * exact state the Python implementations use, so every path produces the
 * bit-identical deterministic schedule (the repo's cross-kernel equivalence
 * tests, snapshot state hashes, fuzz oracle and CI store cmp all pin this):
 *
 *   advance_links     -- one cycle of the cycle-accurate NoC link sweep
 *                        (NativeCycleAccurateNoC.advance), mirroring
 *                        CycleAccurateNoC.advance over the flat
 *                        array('q') slot buffers: pop each active link's
 *                        head, follow the sentinel-terminated route pool
 *                        one hop, relink the intrusive per-link FIFOs,
 *                        stamp-dedupe next-cycle activations, deliver at
 *                        the sentinel.
 *
 *   dispatch_arrivals -- Simulator.step phase 3 (executor fast path):
 *                        queue each delivered message on its destination
 *                        cell and activate the cell, first occurrence wins.
 *
 *   burn_cells        -- Simulator.step phase 4: per active cell, one
 *                        operation in activation order (instruction burn
 *                        with held-message flush, staging drain into the
 *                        NoC, or task start via the installed executor),
 *                        including the park decision and wake-bucket
 *                        bookkeeping.  Callbacks (executor, noc.inject)
 *                        re-enter Python; the active list length is
 *                        re-read every iteration so a mid-step wake()
 *                        appends exactly like the Python loop.  Parking is
 *                        always on here: the simulator runs the Python
 *                        loop whenever parking is off.
 *
 * Integer state lives in array('q') buffers (and one bytearray) accessed
 * through the buffer protocol; buffers are acquired per call and released
 * before returning, because array('q') forbids resizing while a view is
 * exported and the Python side grows slot buffers during inject.  Message
 * and cell attributes are touched through interned-string Get/SetAttr, so
 * the objects themselves stay plain Python (__slots__) instances.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

/* Interned attribute/method names (module-lifetime references). */
static PyObject *s_hops, *s_position, *s_delivered_cycle, *s_created_cycle,
    *s_dst, *s_task_queue, *s_staging, *s_held_messages,
    *s_remaining_instructions, *s_instructions_executed, *s_messages_staged,
    *s_tasks_executed, *s_popleft, *s_extend, *s_append, *s_run,
    *s_src, *s_size_words, *s_stats, *s_messages_injected, *s_in_flight,
    *s_pool_memo, *s_vfree, *s_vslot_msg, *s_local_deliveries, *s_active,
    *s_vq_head, *s_vq_tail, *s_vstamp, *s_vnext, *s_vpos, *s_vrlen,
    *s_num_cells, *s_flit_words, *s_sweep, *s_grow_slots;

typedef struct {
    Py_buffer view;
    int64_t *p;
} QBuf;

static int
qbuf_acquire(PyObject *obj, QBuf *buf, const char *name)
{
    if (PyObject_GetBuffer(obj, &buf->view, PyBUF_WRITABLE) < 0)
        return -1;
    if (buf->view.itemsize != (Py_ssize_t)sizeof(int64_t)) {
        PyBuffer_Release(&buf->view);
        PyErr_Format(PyExc_TypeError, "%s: expected an array('q') buffer",
                     name);
        return -1;
    }
    buf->p = (int64_t *)buf->view.buf;
    return 0;
}

static int
set_int_attr(PyObject *obj, PyObject *name, long long value)
{
    PyObject *v = PyLong_FromLongLong(value);
    int rc;
    if (v == NULL)
        return -1;
    rc = PyObject_SetAttr(obj, name, v);
    Py_DECREF(v);
    return rc;
}

static long long
get_int_attr(PyObject *obj, PyObject *name, int *err)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    long long out;
    if (v == NULL) {
        *err = 1;
        return 0;
    }
    out = PyLong_AsLongLong(v);
    Py_DECREF(v);
    if (out == -1 && PyErr_Occurred()) {
        *err = 1;
        return 0;
    }
    return out;
}

static int
append_int(PyObject *list, long long value)
{
    PyObject *v = PyLong_FromLongLong(value);
    int rc;
    if (v == NULL)
        return -1;
    rc = PyList_Append(list, v);
    Py_DECREF(v);
    return rc;
}

/* ------------------------------------------------------------------ */
/* advance_links(active, nxt, vq_head, vq_tail, vnext, vpos, vrlen,    */
/*               pool, vstamp, link_dst, slot_msg, vfree, delivered,   */
/*               sweep, cycle) -> deliveries                           */
/* ------------------------------------------------------------------ */
static PyObject *
advance_links(PyObject *self, PyObject *args)
{
    PyObject *active, *nxt, *slot_msg, *vfree, *delivered;
    PyObject *bufobjs[8];
    QBuf bufs[8];
    long long sweep, cycle, deliveries = 0;
    Py_ssize_t i, n;
    int nacq;

    if (!PyArg_ParseTuple(args, "OOOOOOOOOOOOOLL", &active, &nxt,
                          &bufobjs[0], &bufobjs[1], &bufobjs[2], &bufobjs[3],
                          &bufobjs[4], &bufobjs[5], &bufobjs[6], &bufobjs[7],
                          &slot_msg, &vfree, &delivered, &sweep, &cycle))
        return NULL;
    if (!PyList_CheckExact(active) || !PyList_CheckExact(nxt)
            || !PyList_CheckExact(slot_msg) || !PyList_CheckExact(vfree)
            || !PyList_CheckExact(delivered)) {
        PyErr_SetString(PyExc_TypeError,
                        "advance_links: active/nxt/slot_msg/vfree/delivered "
                        "must be lists");
        return NULL;
    }
    for (nacq = 0; nacq < 8; nacq++) {
        if (qbuf_acquire(bufobjs[nacq], &bufs[nacq], "advance_links") < 0) {
            while (nacq--)
                PyBuffer_Release(&bufs[nacq].view);
            return NULL;
        }
    }
    {
        int64_t *vq_head = bufs[0].p;
        int64_t *vq_tail = bufs[1].p;
        int64_t *vnext = bufs[2].p;
        int64_t *vpos = bufs[3].p;
        int64_t *vrlen = bufs[4].p;
        int64_t *pool = bufs[5].p;
        int64_t *vstamp = bufs[6].p;
        int64_t *link_dst = bufs[7].p;

        /* No callback below re-enters user Python (list appends and slot
         * attribute sets only), so the active list is frozen for the call. */
        n = PyList_GET_SIZE(active);
        for (i = 0; i < n; i++) {
            int64_t lid = PyLong_AsLongLong(PyList_GET_ITEM(active, i));
            int64_t s, ns, p, nlid;
            if (lid == -1 && PyErr_Occurred())
                goto fail;
            s = vq_head[lid];
            ns = vnext[s];
            vq_head[lid] = ns;
            if (ns == -1)
                vq_tail[lid] = -1;
            p = vpos[s] + 1;
            nlid = pool[p];
            if (nlid == -1) {
                /* Sentinel: the route is exhausted -- deliver. */
                PyObject *msg = PyList_GET_ITEM(slot_msg, s);
                Py_INCREF(msg);
                Py_INCREF(Py_None);
                if (PyList_SetItem(slot_msg, s, Py_None) < 0) {
                    Py_DECREF(msg);
                    goto fail;
                }
                if (append_int(vfree, s) < 0
                        || set_int_attr(msg, s_hops, vrlen[s]) < 0
                        || set_int_attr(msg, s_position, link_dst[lid]) < 0
                        || set_int_attr(msg, s_delivered_cycle, cycle) < 0
                        || PyList_Append(delivered, msg) < 0) {
                    Py_DECREF(msg);
                    goto fail;
                }
                Py_DECREF(msg);
                deliveries++;
            } else {
                /* Forward one hop: splice the slot onto the next link's
                 * intrusive FIFO and (first occurrence only) activate it. */
                int64_t t;
                vpos[s] = p;
                t = vq_tail[nlid];
                if (t == -1)
                    vq_head[nlid] = s;
                else
                    vnext[t] = s;
                vq_tail[nlid] = s;
                vnext[s] = -1;
                if (vstamp[nlid] != sweep) {
                    vstamp[nlid] = sweep;
                    if (append_int(nxt, nlid) < 0)
                        goto fail;
                }
            }
            if (vq_head[lid] != -1 && vstamp[lid] != sweep) {
                vstamp[lid] = sweep;
                if (append_int(nxt, lid) < 0)
                    goto fail;
            }
        }
    }
    for (nacq = 0; nacq < 8; nacq++)
        PyBuffer_Release(&bufs[nacq].view);
    return PyLong_FromLongLong(deliveries);

fail:
    for (nacq = 0; nacq < 8; nacq++)
        PyBuffer_Release(&bufs[nacq].view);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* dispatch_arrivals(delivered, cells, parked, cell_stamp,             */
/*                   active_cells, sweep) -> None                      */
/* ------------------------------------------------------------------ */
static PyObject *
dispatch_arrivals(PyObject *self, PyObject *args)
{
    PyObject *delivered, *cells, *o_parked, *o_stamp, *active_cells;
    Py_buffer parked_view;
    QBuf stamp;
    long long sweep;
    Py_ssize_t i, n;
    unsigned char *parked;
    int64_t *cell_stamp;

    if (!PyArg_ParseTuple(args, "OOOOOL", &delivered, &cells, &o_parked,
                          &o_stamp, &active_cells, &sweep))
        return NULL;
    if (!PyList_CheckExact(delivered) || !PyList_CheckExact(cells)
            || !PyList_CheckExact(active_cells)) {
        PyErr_SetString(PyExc_TypeError,
                        "dispatch_arrivals: delivered/cells/active_cells "
                        "must be lists");
        return NULL;
    }
    if (PyObject_GetBuffer(o_parked, &parked_view, PyBUF_WRITABLE) < 0)
        return NULL;
    if (qbuf_acquire(o_stamp, &stamp, "cell_stamp") < 0) {
        PyBuffer_Release(&parked_view);
        return NULL;
    }
    parked = (unsigned char *)parked_view.buf;
    cell_stamp = stamp.p;

    n = PyList_GET_SIZE(delivered);
    for (i = 0; i < n; i++) {
        PyObject *msg = PyList_GET_ITEM(delivered, i);
        PyObject *cell, *tq, *r;
        int err = 0;
        long long dst = get_int_attr(msg, s_dst, &err);
        if (err)
            goto fail;
        cell = PyList_GET_ITEM(cells, dst);
        tq = PyObject_GetAttr(cell, s_task_queue);
        if (tq == NULL)
            goto fail;
        r = PyObject_CallMethodObjArgs(tq, s_append, msg, NULL);
        Py_DECREF(tq);
        if (r == NULL)
            goto fail;
        Py_DECREF(r);
        if (!parked[dst] && cell_stamp[dst] != sweep) {
            cell_stamp[dst] = sweep;
            if (append_int(active_cells, dst) < 0)
                goto fail;
        }
    }
    PyBuffer_Release(&parked_view);
    PyBuffer_Release(&stamp.view);
    Py_RETURN_NONE;

fail:
    PyBuffer_Release(&parked_view);
    PyBuffer_Release(&stamp.view);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* Staged-drain inject fast path.                                      */
/*                                                                     */
/* When burn_cells is handed the NativeCycleAccurateNoC itself, the    */
/* one-staged-message-per-cell-per-cycle drain injects straight into   */
/* the NoC's flat slot buffers from C (the memo-hit, non-local path of */
/* NativeCycleAccurateNoC.inject), instead of crossing back into       */
/* Python per message.  Route misses, and the (pre-grown-away) empty-  */
/* freelist case, fall back to the Python inject; stats and the        */
/* in-flight count are accumulated and flushed once per call -- except */
/* in_flight, which is flushed before every Python fallback because    */
/* the route memoiser's pool epoch reset reads it.                     */
/* ------------------------------------------------------------------ */

enum { IX_HEAD, IX_TAIL, IX_STAMP, IX_NEXT, IX_POS, IX_RLEN, IX_NBUFS };

typedef struct {
    int ready;   /* setup finished: owned refs + views must be released */
    int valid;   /* fast path usable (cleared if Python had to grow)    */
    PyObject *noc;          /* borrowed */
    PyObject *stats;        /* owned */
    PyObject *pool_memo;    /* owned */
    PyObject *vfree;        /* owned */
    PyObject *vslot_msg;    /* owned */
    PyObject *local_deliv;  /* owned */
    PyObject *active;       /* owned */
    QBuf b[IX_NBUFS];
    int nbufs;
    long long num_cells, flit_words, sweep;
    long long injected, hops, in_flight_delta;
} InjectCtx;

static int
inject_flush_in_flight(InjectCtx *c)
{
    int err = 0;
    long long v;
    if (!c->in_flight_delta)
        return 0;
    v = get_int_attr(c->noc, s_in_flight, &err);
    if (err || set_int_attr(c->noc, s_in_flight,
                            v + c->in_flight_delta) < 0)
        return -1;
    c->in_flight_delta = 0;
    return 0;
}

static int
inject_ctx_flush(InjectCtx *c)
{
    int err = 0;
    long long v;
    if (!c->ready)
        return 0;
    if (c->injected) {
        v = get_int_attr(c->stats, s_messages_injected, &err);
        if (err || set_int_attr(c->stats, s_messages_injected,
                                v + c->injected) < 0)
            return -1;
        c->injected = 0;
    }
    if (c->hops) {
        v = get_int_attr(c->stats, s_hops, &err);
        if (err || set_int_attr(c->stats, s_hops, v + c->hops) < 0)
            return -1;
        c->hops = 0;
    }
    return inject_flush_in_flight(c);
}

static void
inject_ctx_release(InjectCtx *c)
{
    while (c->nbufs > 0)
        PyBuffer_Release(&c->b[--c->nbufs].view);
    Py_CLEAR(c->stats);
    Py_CLEAR(c->pool_memo);
    Py_CLEAR(c->vfree);
    Py_CLEAR(c->vslot_msg);
    Py_CLEAR(c->local_deliv);
    Py_CLEAR(c->active);
    c->ready = 0;
    c->valid = 0;
}

static int
inject_ctx_setup(InjectCtx *c, PyObject *noc)
{
    static PyObject **buf_names[IX_NBUFS] = {
        &s_vq_head, &s_vq_tail, &s_vstamp, &s_vnext, &s_vpos, &s_vrlen,
    };
    PyObject *tmp;
    int err = 0, k;

    memset(c, 0, sizeof(*c));
    c->noc = noc;
    c->num_cells = get_int_attr(noc, s_num_cells, &err);
    if (err)
        return -1;
    c->flit_words = get_int_attr(noc, s_flit_words, &err);
    if (err)
        return -1;
    c->sweep = get_int_attr(noc, s_sweep, &err);
    if (err)
        return -1;
    c->vfree = PyObject_GetAttr(noc, s_vfree);
    if (c->vfree == NULL)
        return -1;
    c->ready = 1;
    /* Pre-grow: the burn loop drains at most one staged message per cell
     * per cycle (activation stamps make each cell's turn unique), so
     * num_cells free slots guarantee the slot arrays never grow while the
     * views below are held. */
    while (PyList_CheckExact(c->vfree)
           && PyList_GET_SIZE(c->vfree) < c->num_cells) {
        tmp = PyObject_CallMethodObjArgs(noc, s_grow_slots, NULL);
        if (tmp == NULL)
            goto fail;
        Py_DECREF(tmp);
    }
    c->stats = PyObject_GetAttr(noc, s_stats);
    c->pool_memo = PyObject_GetAttr(noc, s_pool_memo);
    c->vslot_msg = PyObject_GetAttr(noc, s_vslot_msg);
    c->local_deliv = PyObject_GetAttr(noc, s_local_deliveries);
    c->active = PyObject_GetAttr(noc, s_active);
    if (c->stats == NULL || c->pool_memo == NULL || c->vslot_msg == NULL
            || c->local_deliv == NULL || c->active == NULL)
        goto fail;
    if (!PyList_CheckExact(c->vfree) || !PyDict_CheckExact(c->pool_memo)
            || !PyList_CheckExact(c->vslot_msg)
            || !PyList_CheckExact(c->local_deliv)
            || !PyList_CheckExact(c->active)) {
        PyErr_SetString(PyExc_TypeError,
                        "burn_cells: malformed native NoC state");
        goto fail;
    }
    for (k = 0; k < IX_NBUFS; k++) {
        tmp = PyObject_GetAttr(noc, *buf_names[k]);
        if (tmp == NULL)
            goto fail;
        if (qbuf_acquire(tmp, &c->b[k], "burn_cells") < 0) {
            Py_DECREF(tmp);
            goto fail;
        }
        Py_DECREF(tmp);
        c->nbufs++;
    }
    c->valid = 1;
    return 0;

fail:
    inject_ctx_release(c);
    return -1;
}

static int
ctx_inject(InjectCtx *c, PyObject *msg, PyObject *cycle_obj, long long cycle,
           PyObject *noc_inject)
{
    int err = 0;
    long long src, dst, off, rlen, first, size, s, t;
    PyObject *keyobj, *memo, *r;
    Py_ssize_t n;

    src = get_int_attr(msg, s_src, &err);
    if (err)
        return -1;
    dst = get_int_attr(msg, s_dst, &err);
    if (err)
        return -1;
    if (src == dst) {
        /* Local delivery: no network traversal, delivered next cycle. */
        c->injected++;
        if (set_int_attr(msg, s_delivered_cycle, cycle) < 0)
            return -1;
        return PyList_Append(c->local_deliv, msg);
    }
    keyobj = PyLong_FromLongLong(src * c->num_cells + dst);
    if (keyobj == NULL)
        return -1;
    memo = PyDict_GetItemWithError(c->pool_memo, keyobj);
    Py_DECREF(keyobj);
    if (memo == NULL) {
        if (PyErr_Occurred())
            return -1;
        /* Route miss: Python memoises it (the pool epoch reset there
         * reads in_flight, so flush the delta first). */
        if (inject_flush_in_flight(c) < 0)
            return -1;
        r = PyObject_CallFunctionObjArgs(noc_inject, msg, cycle_obj, NULL);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
        return 0;
    }
    n = PyList_GET_SIZE(c->vfree);
    if (n == 0) {
        /* Pre-growth should make this unreachable; if Python must grow,
         * the slot arrays are swapped under our (now stale) views, so
         * every later inject of this call goes through Python too. */
        c->valid = 0;
        if (inject_flush_in_flight(c) < 0)
            return -1;
        r = PyObject_CallFunctionObjArgs(noc_inject, msg, cycle_obj, NULL);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
        return 0;
    }
    size = get_int_attr(msg, s_size_words, &err);
    if (err)
        return -1;
    off = PyLong_AsLongLong(PyTuple_GET_ITEM(memo, 0));
    rlen = PyLong_AsLongLong(PyTuple_GET_ITEM(memo, 1));
    first = PyLong_AsLongLong(PyTuple_GET_ITEM(memo, 2));
    if (PyErr_Occurred())
        return -1;
    /* Flit-hops prepaid for the whole route (ceil-divide for multi-flit
     * payloads), exactly as in the Python inject. */
    c->hops += (size <= c->flit_words)
        ? rlen
        : ((size + c->flit_words - 1) / c->flit_words) * rlen;
    c->injected++;
    s = PyLong_AsLongLong(PyList_GET_ITEM(c->vfree, n - 1));
    if (s == -1 && PyErr_Occurred())
        return -1;
    if (PyList_SetSlice(c->vfree, n - 1, n, NULL) < 0)
        return -1;
    Py_INCREF(msg);
    if (PyList_SetItem(c->vslot_msg, s, msg) < 0)
        return -1;
    c->b[IX_POS].p[s] = off;
    c->b[IX_RLEN].p[s] = rlen;
    c->b[IX_NEXT].p[s] = -1;
    t = c->b[IX_TAIL].p[first];
    if (t == -1)
        c->b[IX_HEAD].p[first] = s;
    else
        c->b[IX_NEXT].p[t] = s;
    c->b[IX_TAIL].p[first] = s;
    if (c->b[IX_STAMP].p[first] != c->sweep) {
        c->b[IX_STAMP].p[first] = c->sweep;
        if (append_int(c->active, first) < 0)
            return -1;
    }
    c->in_flight_delta++;
    return 0;
}

/* ------------------------------------------------------------------ */
/* burn_cells(active_cells, still_active, cells, cell_stamp, parked,   */
/*            wake_buckets, noc_inject, executor, message_type,        */
/*            cycle, sweep[, noc])                                     */
/*   -> (did_work, active_count, parked_delta)                         */
/* ------------------------------------------------------------------ */
static PyObject *
burn_cells(PyObject *self, PyObject *args)
{
    PyObject *active_cells, *still_active, *cells, *o_stamp, *o_parked,
        *wake_buckets, *noc_inject, *executor, *message_type;
    PyObject *noc_obj = Py_None;
    PyObject *cycle_obj = NULL;
    Py_buffer parked_view;
    QBuf stamp;
    InjectCtx ictx;
    long long cycle, sweep;
    int did_work = 0;
    long long active_count = 0, parked_delta = 0;
    Py_ssize_t i;
    unsigned char *parked;
    int64_t *cell_stamp;

    memset(&ictx, 0, sizeof(ictx));
    if (!PyArg_ParseTuple(args, "OOOOOO!OOOLL|O", &active_cells,
                          &still_active, &cells, &o_stamp, &o_parked,
                          &PyDict_Type, &wake_buckets, &noc_inject,
                          &executor, &message_type, &cycle, &sweep,
                          &noc_obj))
        return NULL;
    if (!PyList_CheckExact(active_cells) || !PyList_CheckExact(still_active)
            || !PyList_CheckExact(cells)) {
        PyErr_SetString(PyExc_TypeError,
                        "burn_cells: active_cells/still_active/cells must "
                        "be lists");
        return NULL;
    }
    if (PyObject_GetBuffer(o_parked, &parked_view, PyBUF_WRITABLE) < 0)
        return NULL;
    if (qbuf_acquire(o_stamp, &stamp, "cell_stamp") < 0) {
        PyBuffer_Release(&parked_view);
        return NULL;
    }
    parked = (unsigned char *)parked_view.buf;
    cell_stamp = stamp.p;
    cycle_obj = PyLong_FromLongLong(cycle);
    if (cycle_obj == NULL)
        goto fail;
    if (noc_obj != Py_None && inject_ctx_setup(&ictx, noc_obj) < 0)
        goto fail;

    /* The executor may wake() cells mid-step, appending to active_cells;
     * re-reading the length each iteration reproduces the Python for-loop's
     * behaviour exactly (appended cells are processed this same cycle). */
    i = 0;
    while (i < PyList_GET_SIZE(active_cells)) {
        PyObject *cc_obj = PyList_GET_ITEM(active_cells, i);
        PyObject *cell = NULL, *staging = NULL, *tq = NULL;
        long long cc, remaining, rem_now;
        int err = 0, still;
        Py_ssize_t ssz;

        Py_INCREF(cc_obj);
        cc = PyLong_AsLongLong(cc_obj);
        if (cc == -1 && PyErr_Occurred()) {
            Py_DECREF(cc_obj);
            goto fail;
        }
        cell_stamp[cc] = sweep;
        if (parked[cc]) {
            /* Parked placeholder: keep the slot so processing order is
             * identical with parking on or off. */
            int rc = PyList_Append(still_active, cc_obj);
            Py_DECREF(cc_obj);
            if (rc < 0)
                goto fail;
            i++;
            continue;
        }
        cell = PyList_GET_ITEM(cells, cc);
        Py_INCREF(cell);
        /* staging and task_queue are fixed deque objects per cell (only
         * ever mutated in place), so one fetch serves the whole turn. */
        staging = PyObject_GetAttr(cell, s_staging);
        if (staging == NULL)
            goto cellfail;
        tq = PyObject_GetAttr(cell, s_task_queue);
        if (tq == NULL)
            goto cellfail;
        remaining = get_int_attr(cell, s_remaining_instructions, &err);
        if (err)
            goto cellfail;
        rem_now = remaining;

        if (remaining > 0) {
            /* Finish the instructions of the action in progress. */
            long long instr;
            remaining -= 1;
            rem_now = remaining;
            if (set_int_attr(cell, s_remaining_instructions, remaining) < 0)
                goto cellfail;
            instr = get_int_attr(cell, s_instructions_executed, &err);
            if (err || set_int_attr(cell, s_instructions_executed,
                                    instr + 1) < 0)
                goto cellfail;
            if (remaining == 0) {
                PyObject *held = PyObject_GetAttr(cell, s_held_messages);
                int truth;
                if (held == NULL)
                    goto cellfail;
                truth = PyObject_IsTrue(held);
                if (truth < 0) {
                    Py_DECREF(held);
                    goto cellfail;
                }
                if (truth) {
                    PyObject *empty, *r;
                    int rc;
                    r = PyObject_CallMethodObjArgs(staging, s_extend, held,
                                                   NULL);
                    Py_DECREF(held);
                    if (r == NULL)
                        goto cellfail;
                    Py_DECREF(r);
                    empty = PyList_New(0);
                    if (empty == NULL)
                        goto cellfail;
                    rc = PyObject_SetAttr(cell, s_held_messages, empty);
                    Py_DECREF(empty);
                    if (rc < 0)
                        goto cellfail;
                } else {
                    Py_DECREF(held);
                }
            }
            active_count++;
            did_work = 1;
            goto endcheck;
        }
        ssz = PyObject_Size(staging);
        if (ssz < 0)
            goto cellfail;
        if (ssz > 0) {
            /* Drain the output staging queue (one message per cycle). */
            PyObject *staged, *r;
            long long staged_n = get_int_attr(cell, s_messages_staged, &err);
            if (err || set_int_attr(cell, s_messages_staged,
                                    staged_n + 1) < 0)
                goto cellfail;
            staged = PyObject_CallMethodObjArgs(staging, s_popleft, NULL);
            if (staged == NULL)
                goto cellfail;
            if (PyObject_SetAttr(staged, s_created_cycle, cycle_obj) < 0) {
                Py_DECREF(staged);
                goto cellfail;
            }
            if (ictx.valid) {
                if (ctx_inject(&ictx, staged, cycle_obj, cycle,
                               noc_inject) < 0) {
                    Py_DECREF(staged);
                    goto cellfail;
                }
                Py_DECREF(staged);
            } else {
                r = PyObject_CallFunctionObjArgs(noc_inject, staged,
                                                 cycle_obj, NULL);
                Py_DECREF(staged);
                if (r == NULL)
                    goto cellfail;
                Py_DECREF(r);
            }
            active_count++;
            did_work = 1;
            goto endcheck;
        }
        ssz = PyObject_Size(tq);
        if (ssz < 0)
            goto cellfail;
        if (ssz > 0) {
            /* Start the next queued task: a delivered message runs through
             * the executor, an enqueued Task runs itself. */
            PyObject *item, *res, *seq, *messages;
            long long cost, counter;
            item = PyObject_CallMethodObjArgs(tq, s_popleft, NULL);
            if (item == NULL)
                goto cellfail;
            if ((PyObject *)Py_TYPE(item) == message_type) {
                res = PyObject_CallFunctionObjArgs(executor, cell, item,
                                                   NULL);
            } else {
                res = PyObject_CallMethodObjArgs(item, s_run, NULL);
            }
            Py_DECREF(item);
            if (res == NULL)
                goto cellfail;
            seq = PySequence_Fast(res,
                                  "task result must be a (cost, messages) "
                                  "pair");
            Py_DECREF(res);
            if (seq == NULL)
                goto cellfail;
            if (PySequence_Fast_GET_SIZE(seq) != 2) {
                PyErr_SetString(PyExc_ValueError,
                                "task result must be a (cost, messages) "
                                "pair");
                Py_DECREF(seq);
                goto cellfail;
            }
            cost = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(seq, 0));
            if (cost == -1 && PyErr_Occurred()) {
                Py_DECREF(seq);
                goto cellfail;
            }
            messages = PySequence_Fast_GET_ITEM(seq, 1);
            Py_INCREF(messages);
            Py_DECREF(seq);
            counter = get_int_attr(cell, s_tasks_executed, &err);
            if (err || set_int_attr(cell, s_tasks_executed,
                                    counter + 1) < 0) {
                Py_DECREF(messages);
                goto cellfail;
            }
            counter = get_int_attr(cell, s_instructions_executed, &err);
            if (err || set_int_attr(cell, s_instructions_executed,
                                    counter + 1) < 0) {
                Py_DECREF(messages);
                goto cellfail;
            }
            remaining = cost - 1;
            rem_now = remaining;
            active_count++;
            did_work = 1;
            if (remaining <= 0) {
                int truth = PyObject_IsTrue(messages);
                if (truth < 0) {
                    Py_DECREF(messages);
                    goto cellfail;
                }
                if (truth) {
                    PyObject *r = PyObject_CallMethodObjArgs(
                        staging, s_extend, messages, NULL);
                    if (r == NULL) {
                        Py_DECREF(messages);
                        goto cellfail;
                    }
                    Py_DECREF(r);
                }
                Py_DECREF(messages);
            } else {
                PyObject *held = PySequence_List(messages);
                int rc;
                Py_DECREF(messages);
                if (held == NULL)
                    goto cellfail;
                rc = PyObject_SetAttr(cell, s_held_messages, held);
                Py_DECREF(held);
                if (rc < 0)
                    goto cellfail;
                if (remaining >= 3) {
                    /* Park: the next remaining-1 cycles are pure
                     * decrements; wake on the flush cycle.  The cell keeps
                     * a placeholder slot in the active list. */
                    PyObject *key, *bucket, *entry;
                    int own_bucket = 0, rc2;
                    if (set_int_attr(cell, s_remaining_instructions, 1) < 0)
                        goto cellfail;
                    parked[cc] = 1;
                    parked_delta++;
                    key = PyLong_FromLongLong(cycle + remaining);
                    if (key == NULL)
                        goto cellfail;
                    bucket = PyDict_GetItemWithError(wake_buckets, key);
                    if (bucket == NULL) {
                        if (PyErr_Occurred()) {
                            Py_DECREF(key);
                            goto cellfail;
                        }
                        bucket = PyList_New(0);
                        if (bucket == NULL
                                || PyDict_SetItem(wake_buckets, key,
                                                  bucket) < 0) {
                            Py_XDECREF(bucket);
                            Py_DECREF(key);
                            goto cellfail;
                        }
                        own_bucket = 1;
                    }
                    Py_DECREF(key);
                    entry = Py_BuildValue("(LL)", cc, remaining - 1);
                    rc2 = (entry == NULL) ? -1
                                          : PyList_Append(bucket, entry);
                    Py_XDECREF(entry);
                    if (own_bucket)
                        Py_DECREF(bucket);
                    if (rc2 < 0)
                        goto cellfail;
                    rc2 = PyList_Append(still_active, cc_obj);
                    Py_DECREF(staging);
                    Py_DECREF(tq);
                    Py_DECREF(cell);
                    Py_DECREF(cc_obj);
                    if (rc2 < 0)
                        goto fail;
                    i++;
                    continue;
                }
                if (set_int_attr(cell, s_remaining_instructions,
                                 remaining) < 0)
                    goto cellfail;
            }
        }

endcheck:
        if (rem_now > 0) {
            still = 1;
        } else {
            ssz = PyObject_Size(staging);
            if (ssz < 0)
                goto cellfail;
            if (ssz > 0) {
                still = 1;
            } else {
                ssz = PyObject_Size(tq);
                if (ssz < 0)
                    goto cellfail;
                still = ssz > 0;
            }
        }
        if (still) {
            if (PyList_Append(still_active, cc_obj) < 0)
                goto cellfail;
        } else {
            cell_stamp[cc] = 0;
        }
        Py_DECREF(staging);
        Py_DECREF(tq);
        Py_DECREF(cell);
        Py_DECREF(cc_obj);
        i++;
        continue;

cellfail:
        Py_XDECREF(staging);
        Py_XDECREF(tq);
        Py_XDECREF(cell);
        Py_DECREF(cc_obj);
        goto fail;
    }

    if (inject_ctx_flush(&ictx) < 0)
        goto fail;
    inject_ctx_release(&ictx);
    Py_DECREF(cycle_obj);
    PyBuffer_Release(&parked_view);
    PyBuffer_Release(&stamp.view);
    return Py_BuildValue("(iLL)", did_work, active_count, parked_delta);

fail:
    /* Keep counters consistent even on error: flush under a saved
     * exception (discarding any secondary failure), then release. */
    {
        PyObject *et, *ev, *tb;
        PyErr_Fetch(&et, &ev, &tb);
        inject_ctx_flush(&ictx);
        PyErr_Clear();
        PyErr_Restore(et, ev, tb);
    }
    inject_ctx_release(&ictx);
    Py_XDECREF(cycle_obj);
    PyBuffer_Release(&parked_view);
    PyBuffer_Release(&stamp.view);
    return NULL;
}

/* ------------------------------------------------------------------ */

static PyMethodDef sweep_methods[] = {
    {"advance_links", advance_links, METH_VARARGS,
     "One cycle of the cycle-accurate NoC link sweep over the flat slot "
     "buffers; returns the delivery count."},
    {"dispatch_arrivals", dispatch_arrivals, METH_VARARGS,
     "Queue delivered messages on their destination cells and activate "
     "the cells (executor fast path of Simulator.step phase 3)."},
    {"burn_cells", burn_cells, METH_VARARGS,
     "One operation per active cell in activation order (Simulator.step "
     "phase 4); returns (did_work, active_count, parked_delta)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef sweep_module = {
    PyModuleDef_HEAD_INIT,
    "repro.arch._native._sweep",
    "Native (C) implementations of the simulator's per-cycle hot loops.",
    -1,
    sweep_methods,
};

static int
intern_all(void)
{
#define INTERN(var, text)                                 \
    do {                                                  \
        var = PyUnicode_InternFromString(text);           \
        if (var == NULL)                                  \
            return -1;                                    \
    } while (0)
    INTERN(s_hops, "hops");
    INTERN(s_position, "position");
    INTERN(s_delivered_cycle, "delivered_cycle");
    INTERN(s_created_cycle, "created_cycle");
    INTERN(s_dst, "dst");
    INTERN(s_task_queue, "task_queue");
    INTERN(s_staging, "staging");
    INTERN(s_held_messages, "_held_messages");
    INTERN(s_remaining_instructions, "_remaining_instructions");
    INTERN(s_instructions_executed, "instructions_executed");
    INTERN(s_messages_staged, "messages_staged");
    INTERN(s_tasks_executed, "tasks_executed");
    INTERN(s_popleft, "popleft");
    INTERN(s_extend, "extend");
    INTERN(s_append, "append");
    INTERN(s_run, "run");
    INTERN(s_src, "src");
    INTERN(s_size_words, "size_words");
    INTERN(s_stats, "stats");
    INTERN(s_messages_injected, "messages_injected");
    INTERN(s_in_flight, "in_flight");
    INTERN(s_pool_memo, "_pool_memo");
    INTERN(s_vfree, "_vfree");
    INTERN(s_vslot_msg, "_vslot_msg");
    INTERN(s_local_deliveries, "_local_deliveries");
    INTERN(s_active, "_active");
    INTERN(s_vq_head, "_vq_head");
    INTERN(s_vq_tail, "_vq_tail");
    INTERN(s_vstamp, "_vstamp");
    INTERN(s_vnext, "_vnext");
    INTERN(s_vpos, "_vpos");
    INTERN(s_vrlen, "_vrlen");
    INTERN(s_num_cells, "_num_cells");
    INTERN(s_flit_words, "_flit_words");
    INTERN(s_sweep, "_sweep");
    INTERN(s_grow_slots, "_grow_slots");
#undef INTERN
    return 0;
}

PyMODINIT_FUNC
PyInit__sweep(void)
{
    if (intern_all() < 0)
        return NULL;
    return PyModule_Create(&sweep_module);
}
