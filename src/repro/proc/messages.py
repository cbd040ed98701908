"""Wire protocol between the proc driver and its worker processes.

Each worker owns one duplex pipe, and the worker runs *sessions*: one
driver ``TASK`` starts a session, during which the worker may execute
any number of tasks from its own local queue (the bottom tier of the
scheduling plane, :mod:`repro.sched_plane`), reporting each with a
one-way ``DONE`` and announcing new locally-born work with one-way
``SUBMIT_LOCAL`` notices; ``IDLE`` ends the session.

While a task runs, the worker may issue any number of *requests*
(fetch an argument, submit a nested task it could not keep, block in
``get``/``wait``, ``put`` a value, create or call an actor), each
answered by exactly one reply from the driver's per-worker service
thread.  Because the worker is single-threaded, requests never
interleave — the protocol needs no sequence numbers.  The driver's
one-way messages (``STEAL_REQUEST``, ``CANCEL_NOTICE``, ``PLACED``) may
arrive interleaved with request replies; the worker processes them at
every pipe touch-point — before dispatching each local task, inside its
reply-wait loop, and while idle.  Pipe FIFO ordering is the protocol's
only synchronization: a ``SUBMIT_LOCAL`` always precedes any ``DONE`` or
``STEAL_GRANT`` that mentions its task, so the driver's mirror of each
worker queue is maintained in causal order.

Messages are tuples ``(tag, *payload)``.  Everything crossing the pipe is
picklable by construction: user *code* is pre-serialized with
:func:`~repro.utils.serialization.serialize_portable`, user *values* with
plain pickle, and framework objects (ids, refs, resource requests,
:class:`~repro.core.worker.ErrorValue`) are simple dataclasses.

Large user values do not cross the pipe at all when the shared-memory
data plane is on: FETCH/GET replies and DONE blobs carry a
:class:`ShmDescriptor` (segment name + slot + size) instead of bytes,
and the payload moves through :mod:`repro.shm` zero-copy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.ids import ObjectID

# -- driver -> worker ---------------------------------------------------
TASK = "task"          # (TASK, payload_dict): execute one task
SHUTDOWN = "shutdown"  # (SHUTDOWN,): exit the worker loop

# -- worker -> driver (requests while a task runs) ----------------------
FETCH = "fetch"                # (FETCH, object_id) -> (OK, bytes)
SUBMIT = "submit"              # (SUBMIT, payload) -> (OK, ObjectRef | tuple)
GET = "get"                    # (GET, [object_id], timeout) -> (OK, [bytes | ShmDescriptor])
WAIT = "wait"                  # (WAIT, [refs], num_returns, timeout) -> (OK, (ready, pending))
PUT = "put"                    # (PUT, bytes) -> (OK, ObjectRef)
CANCEL = "cancel"              # (CANCEL, ref, recursive) -> (OK, bool)
CREATE_ACTOR = "create_actor"  # (CREATE_ACTOR, payload) -> (OK, ActorHandle)
CALL_ACTOR = "call_actor"      # (CALL_ACTOR, payload) -> (OK, ObjectRef)
GET_ACTOR = "get_actor"        # (GET_ACTOR, name) -> (OK, ActorHandle)

# -- worker -> driver (the shared-memory data plane) --------------------
# Metadata-only variants of FETCH/PUT/DONE: large objects cross the
# pipe as ~100-byte ShmDescriptors; only small ones ship as bytes.
# Argument descriptors ship embedded in SlotRef (no round trip);
# SHM_ATTACH is the explicit metadata refetch for everything else.
SHM_ATTACH = "shm_attach"  # (SHM_ATTACH, object_id) -> (OK, ShmDescriptor | bytes)
                           # descriptor when shm-resident; bytes fallback
SHM_CREATE = "shm_create"  # (SHM_CREATE, object_id | None, nbytes)
                           #   -> (OK, ShmDescriptor | None): reserve an
                           # unsealed allocation the worker fills through
                           # its own mapping (None: budget full, take the
                           # pipe); object_id=None allocates a fresh id
SHM_SEAL = "shm_seal"      # (SHM_SEAL, object_id) -> (OK, ObjectRef):
                           # publish a worker-filled allocation (put path;
                           # result blobs seal implicitly on DONE)
SHM_ABORT = "shm_abort"    # (SHM_ABORT, object_id) -> (OK, None): return
                           # a granted-but-unwritable allocation to the
                           # arena (the worker is falling back to bytes)

# -- sessions and the scheduling plane ----------------------------------
# One-way messages; no tag below ever gets a reply.

# worker -> driver:
SUBMIT_LOCAL = "submit_local"  # (SUBMIT_LOCAL, [notice, ...]): nested
                               # tasks were enqueued on the worker's own
                               # local queue with zero round-trips.  The
                               # worker batches notices and flushes the
                               # batch before any other outbound message,
                               # so the driver registers lineage/mirror
                               # state causally first; it acks the batch
                               # with one PLACED
DONE = "done"          # (DONE, task_id, [blob, ...], failed): one task
                       # finished; one blob per return slot (num_returns),
                       # each either result bytes or a ShmDescriptor the
                       # worker already filled (the driver seals it on
                       # receipt)
IDLE = "idle"          # (IDLE,): local queue drained; session over — the
                       # worker now blocks awaiting the next TASK
STEAL_GRANT = "steal_grant"  # (STEAL_GRANT, [task_id, ...]): the worker
                             # (sole owner of its queue) gives away the
                             # tail of its local queue; the driver
                             # re-homes the tasks from its mirror.  May
                             # be empty (nothing left to give).

# -- the tracing plane (init(..., tracing=True)) ------------------------
# Span records normally piggyback on messages the worker already sends:
# DONE and IDLE each grow one OPTIONAL trailing element — an
# "obs blob" (send_monotonic, [(t, kind, payload), ...], dropped_total)
# appended only when the worker's SpanRecorder has something to flush.
# Receivers index those messages positionally from the front, so the
# trailing element is invisible to tracing-unaware paths (including the
# dist agent's blob rewrite, which preserves trailing elements).  A
# buffer that grows large mid-session (or the final flush at SHUTDOWN)
# rides this dedicated one-way frame instead:
SPANS = "spans"  # (SPANS, obs_blob): worker -> driver, never replied to

# driver -> worker:
STEAL_REQUEST = "steal_request"  # (STEAL_REQUEST, max_count): an idle
                                 # worker wants work; answer with a
                                 # STEAL_GRANT of up to max_count tasks
CANCEL_NOTICE = "cancel_notice"  # (CANCEL_NOTICE, task_id): the task was
                                 # cancelled; drop it from the local
                                 # queue — it must never execute
PLACED = "placed"      # (PLACED, [task_id, ...]): the placement ack —
                       # the driver has registered a SUBMIT_LOCAL batch
                       # for lineage (crash replay covers those tasks
                       # from here on)

# -- driver -> worker (replies) -----------------------------------------
OK = "ok"    # (OK, value)
ERR = "err"  # (ERR, exception): re-raised inside the worker at the call site


@dataclass(frozen=True)
class SlotRef:
    """Placeholder for a task argument that was an :class:`ObjectRef`.

    The driver substitutes one of these for every top-level ref argument
    when building a task message; small objects ride along serialized in
    the message's ``inline`` table, large ones stay in the driver store
    and the worker fetches them on demand into its local cache (the
    inline-vs-store threshold of :mod:`repro.utils.serialization`).
    Shared-memory-resident objects ship their :class:`ShmDescriptor`
    *embedded* in ``shm`` — the worker attaches and reads zero-copy with
    no extra driver round trip (descriptors stay valid for the object's
    lifetime: stored objects are pinned).
    """

    object_id: ObjectID
    shm: "ShmDescriptor | None" = None


@dataclass(frozen=True)
class ShmDescriptor:
    """Where a large object's payload lives in shared memory.

    This is what crosses the pipe in place of the payload: the receiver
    attaches ``segment`` lazily (cached per segment), takes its refcount
    cell for ``slot``, and reads ``size`` framed bytes zero-copy.  Sent
    in FETCH/GET replies, DONE blobs, and SHM_CREATE grants.
    """

    object_id: ObjectID
    segment: str
    slot: int
    size: int
