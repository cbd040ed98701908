"""The real control store (the paper's GCS) for live backends.

The sim models a sharded control plane with queueing and service costs
(:mod:`repro.store.control_plane`); this module is the store the live
runtimes use: object/task/actor tables and an append-only event log
behind one lock, with fire-and-forget async writes on hot paths mirroring
the sim's ``async_*`` idiom.  One lock suffices because the only
synchronous writer is the driver, already serialized by its runtime
lock; every other write rides the single async writer thread.

Design rules the runtimes rely on:

* **Write-ahead lineage** — ``task_put`` is synchronous and happens before
  a task is dispatched, so crash replay always finds the spec.  State
  transitions, residency updates, and actor bookkeeping ride the async
  writer thread instead; ``flush()`` drains it (recovery calls this first).
* **Optional durability** — give the store a ``wal_dir`` and every applied
  write is appended, in apply order, to one write-ahead log file;
  :meth:`ControlStore.open` rebuilds the tables from it.  With
  ``wal_sync=True`` a mutation returns only once its record is fsynced,
  but the fsync runs *outside* the store lock and group-commits: one
  flush covers every record appended before it, so concurrent writers
  batch instead of queueing a disk flush each.  That batching is what
  ``bench_e12`` measures against the old single-lock driver layout.
"""

from __future__ import annotations

import io
import os
import pickle
import queue
import struct
import threading
import time
from typing import Callable, Iterator, Optional

from repro.gcs.tables import ActorEntry, ObjectEntry, TaskEntry
from repro.store.event_log import EventLog

try:  # cloudpickle widens what the WAL can persist (closures in specs)
    import cloudpickle as _wal_pickler
except Exception:  # pragma: no cover - cloudpickle is a baked-in dep
    _wal_pickler = None

_LEN = struct.Struct(">I")
#: Name of the write-ahead log file inside ``wal_dir``.
WAL_FILE = "control.wal"


class ControlStore:
    """Object/task/actor tables, event log, and WAL behind one lock.

    Thread-safe; shared by the driver's service threads and any number of
    submitter threads.  A single instance can outlive the driver that
    created it — that is the HA story: pass the same store to a fresh
    runtime with ``recover=True`` and it rebuilds from these tables.
    """

    def __init__(
        self,
        *,
        wal_dir: Optional[str] = None,
        wal_sync: bool = False,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.wal_dir = wal_dir
        self.wal_sync = wal_sync
        self._clock = clock
        self._closed = False

        self._lock = threading.Lock()
        self._objects: dict = {}
        self._tasks: dict = {}
        self._actors: dict = {}
        #: name -> actor_id index.
        self._names: dict = {}
        self._event_log = EventLog()
        # Best-effort counters (racy increments lose at most a few counts;
        # the uniform stats() contract promises keys, not exactness).
        self._ops = 0
        self._contended = 0
        self._waiting = 0
        self._max_waiting = 0

        self._wal_fd: Optional[int] = None
        if wal_dir is not None:
            os.makedirs(wal_dir, exist_ok=True)
            self._wal_fd = os.open(
                os.path.join(wal_dir, WAL_FILE),
                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                0o644,
            )
        self._wal_records = 0
        #: Highest record index covered by an fsync (group commit).
        self._wal_synced = 0
        self._sync_lock = threading.Lock()

        #: Driver generations handed out so far (id-namespace salting).
        self._generation = 0
        self._replaying = False
        self.wal_skipped = 0

        # Fire-and-forget writer: hot paths enqueue, one daemon applies.
        self._async_queue: "queue.Queue" = queue.Queue()
        self._async_backlog_max = 0
        self._async_paused = threading.Event()
        self._async_paused.set()  # set == running
        self._writer = threading.Thread(
            target=self._writer_loop, name="gcs-async-writer", daemon=True
        )
        self._writer.start()

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _apply(
        self,
        key,
        kind: str,
        mutate,
        *,
        log: bool = True,
        wal: Optional[tuple] = None,
        **payload,
    ):
        """Run one mutation under the store lock (+ event + WAL).

        ``wal`` is ``(op_name, kwargs)`` — the full public-API mutation, so
        :meth:`open` can replay it verbatim.  ``None`` skips the WAL (reads).

        Durable mode group-commits: the WAL append happens under the store
        lock (so the on-disk record order matches the apply order) but the
        fsync happens *after* the lock is released.  An fsync covers every
        record appended before it, so a thread whose record was already
        covered by a later thread's commit skips its own fsync entirely —
        the classic group-commit batching, and the reason colliding
        submitters don't serialize behind each other's disk flushes.
        """
        # Encode the WAL record before taking the lock: it depends only on
        # the arguments, and pickling is the priciest CPU step — doing it
        # inside the critical section would serialize colliding writers
        # behind it on top of the append itself.
        blob = None
        if wal is not None and self._wal_fd is not None and not self._replaying:
            blob = self._wal_encode((wal[0], key, wal[1]))
            if blob is None:
                self.wal_skipped += 1
        lock = self._lock
        if not lock.acquire(blocking=False):
            self._contended += 1
            self._waiting += 1
            if self._waiting > self._max_waiting:
                self._max_waiting = self._waiting
            lock.acquire()
            self._waiting -= 1
        wal_seq = None
        try:
            self._ops += 1
            result = mutate()
            if log:
                self._event_log.append(self._clock(), kind, key=str(key), **payload)
            if blob is not None and self._wal_fd is not None:
                wal_seq = self._wal_append(blob)
        finally:
            lock.release()
        # Only synchronous callers pay for durability; the async writer
        # thread appends without committing (write-ahead ordering only
        # promises that *sync* ops — the lineage writes — are on disk
        # before the caller proceeds).  Its records become durable with
        # the next sync commit, or at :meth:`close`.
        if (
            wal_seq is not None
            and self.wal_sync
            and threading.current_thread() is not self._writer
        ):
            self._wal_commit(wal_seq)
        return result

    def _wal_append(self, blob: bytes) -> int:
        """Append one pre-encoded record (caller holds the store lock);
        returns its 1-based sequence number."""
        os.write(self._wal_fd, _LEN.pack(len(blob)) + blob)
        self._wal_records += 1
        return self._wal_records

    def _wal_commit(self, seq: int) -> None:
        """Make record ``seq`` durable, batching with concurrent commits.

        ``_wal_records`` is only incremented after its ``os.write``
        completes (under the store lock), so reading it here — without the
        lock — yields a conservative high-water mark: every record at or
        below it is fully in the page cache and one fsync covers them all.
        """
        if self._wal_synced >= seq:
            return  # a later thread's commit already covered our record
        with self._sync_lock:
            if self._wal_synced >= seq:
                return
            covered = self._wal_records
            os.fsync(self._wal_fd)
            if covered > self._wal_synced:
                self._wal_synced = covered

    def _wal_encode(self, record: tuple) -> Optional[bytes]:
        try:
            return pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            if _wal_pickler is None:
                return None
            try:
                return _wal_pickler.dumps(record)
            except Exception:
                return None

    # ------------------------------------------------------------------
    # Task table (spec-as-lineage)
    # ------------------------------------------------------------------

    def task_put(self, task_id, spec, *, state: str = "submitted", node=None) -> None:
        """Write-ahead lineage record.  SYNCHRONOUS by contract: runtimes
        call this before dispatching, so a crash can always replay."""

        def mutate():
            entry = self._tasks.get(task_id)
            if entry is None:
                self._tasks[task_id] = TaskEntry(
                    task_id=task_id,
                    spec=spec,
                    state=state,
                    node=node,
                    timestamps={"submitted": self._clock()},
                )
            else:  # resubmission after recovery keeps the attempt count
                entry.spec = spec
                entry.state = state
                entry.node = node

        self._apply(
            task_id,
            "task_submitted",
            mutate,
            state=state,
            wal=("task_put", {"spec": spec, "state": state, "node": node}),
        )

    def task_update(
        self,
        task_id,
        *,
        state: Optional[str] = None,
        node=None,
        attempt: bool = False,
    ) -> None:
        def mutate():
            entry = self._tasks.get(task_id)
            if entry is None:
                entry = self._tasks[task_id] = TaskEntry(task_id=task_id, spec=None)
            if state is not None:
                entry.state = state
                entry.timestamps[state] = self._clock()
            if node is not None:
                entry.node = node
            if attempt:
                entry.attempts += 1

        self._apply(
            task_id,
            "task_state",
            mutate,
            state=state or "",
            wal=("task_update", {"state": state, "node": node, "attempt": attempt}),
        )

    def task_get(self, task_id) -> Optional[TaskEntry]:
        def read():
            entry = self._tasks.get(task_id)
            return entry.snapshot() if entry is not None else None

        return self._apply(task_id, "task_lookup", read, log=False)

    def tasks(self) -> list:
        with self._lock:
            return [e.snapshot() for e in self._tasks.values()]

    # ------------------------------------------------------------------
    # Object table (directory + inline payloads)
    # ------------------------------------------------------------------

    def object_put(
        self,
        object_id,
        *,
        size: Optional[int] = None,
        location=None,
        drop_location=None,
        ready: Optional[bool] = None,
        producer_task=None,
        payload: Optional[bytes] = None,
    ) -> None:
        def mutate():
            entry = self._objects.get(object_id)
            if entry is None:
                entry = self._objects[object_id] = ObjectEntry(object_id=object_id)
            if size is not None:
                entry.size = size
            if location is not None:
                entry.locations.add(location)
            if drop_location is not None:
                entry.locations.discard(drop_location)
            if producer_task is not None:
                entry.producer_task = producer_task
            if payload is not None:
                entry.payload = payload
            if ready is not None:
                entry.ready = ready

        self._apply(
            object_id,
            "object_update",
            mutate,
            ready=bool(ready),
            wal=(
                "object_put",
                {
                    "size": size,
                    "location": location,
                    "drop_location": drop_location,
                    "ready": ready,
                    "producer_task": producer_task,
                    "payload": payload,
                },
            ),
        )

    def object_get(self, object_id) -> Optional[ObjectEntry]:
        def read():
            entry = self._objects.get(object_id)
            return entry.snapshot() if entry is not None else None

        return self._apply(object_id, "object_lookup", read, log=False)

    def object_drop_location(self, object_id, location) -> None:
        self.object_put(object_id, drop_location=location)

    def objects(self) -> list:
        with self._lock:
            return [e.snapshot() for e in self._objects.values()]

    # ------------------------------------------------------------------
    # Actor table (registry + name index)
    # ------------------------------------------------------------------

    def actor_register(
        self,
        actor_id,
        *,
        spec=None,
        name: Optional[str] = None,
        node=None,
        state: str = "alive",
    ) -> None:
        def mutate():
            self._actors[actor_id] = ActorEntry(
                actor_id=actor_id, spec=spec, name=name, node=node, state=state
            )
            if name is not None:
                self._names[name] = actor_id

        self._apply(
            actor_id,
            "actor_registered",
            mutate,
            name=name or "",
            wal=(
                "actor_register",
                {"spec": spec, "name": name, "node": node, "state": state},
            ),
        )

    def actor_update(
        self, actor_id, *, state: Optional[str] = None, node=None, method_inc: bool = False
    ) -> None:
        def mutate():
            entry = self._actors.get(actor_id)
            if entry is None:
                entry = self._actors[actor_id] = ActorEntry(actor_id=actor_id)
            if state is not None:
                entry.state = state
            if node is not None:
                entry.node = node
            if method_inc:
                entry.methods_submitted += 1

        self._apply(
            actor_id,
            "actor_state",
            mutate,
            state=state or "",
            wal=(
                "actor_update",
                {"state": state, "node": node, "method_inc": method_inc},
            ),
        )

    def actor_get(self, actor_id) -> Optional[ActorEntry]:
        def read():
            entry = self._actors.get(actor_id)
            return entry.snapshot() if entry is not None else None

        return self._apply(actor_id, "actor_lookup", read, log=False)

    def actor_by_name(self, name: str):
        def read():
            return self._names.get(name)

        return self._apply(name, "actor_name_lookup", read, log=False)

    def actors(self) -> list:
        with self._lock:
            return [e.snapshot() for e in self._actors.values()]

    # ------------------------------------------------------------------
    # Async (fire-and-forget) variants — the sim's ``async_*`` idiom
    # ------------------------------------------------------------------

    def async_task_put(self, task_id, spec, **kwargs) -> None:
        self._enqueue(self.task_put, task_id, spec, **kwargs)

    def async_task_update(self, task_id, **kwargs) -> None:
        self._enqueue(self.task_update, task_id, **kwargs)

    def async_object_put(self, object_id, **kwargs) -> None:
        self._enqueue(self.object_put, object_id, **kwargs)

    def async_actor_register(self, actor_id, **kwargs) -> None:
        self._enqueue(self.actor_register, actor_id, **kwargs)

    def async_actor_update(self, actor_id, **kwargs) -> None:
        self._enqueue(self.actor_update, actor_id, **kwargs)

    def _enqueue(self, fn, *args, **kwargs) -> None:
        if self._closed:
            return
        self._async_queue.put((fn, args, kwargs))
        depth = self._async_queue.qsize()
        if depth > self._async_backlog_max:
            self._async_backlog_max = depth

    def _writer_loop(self) -> None:
        while True:
            item = self._async_queue.get()
            if item is None:
                return
            self._async_paused.wait()
            fn, args, kwargs = item
            try:
                fn(*args, **kwargs)
            except Exception:  # never kill the writer; stats expose backlog
                pass
            finally:
                self._async_queue.task_done()

    def flush(self, timeout: Optional[float] = None) -> bool:
        """Drain the async write backlog.  Recovery calls this first so the
        tables reflect every write the dead driver managed to enqueue."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while self._async_queue.unfinished_tasks > 0:
            if deadline is not None and time.monotonic() > deadline:
                return False
            if not self._async_paused.is_set():
                return False  # paused writers never drain
            time.sleep(0.001)
        return True

    # Test hooks: freeze/thaw the writer to model a driver dying with
    # async control writes still in flight.
    def pause_async_writes(self) -> None:
        self._async_paused.clear()

    def resume_async_writes(self) -> None:
        self._async_paused.set()

    # ------------------------------------------------------------------
    # Generations, snapshots, stats
    # ------------------------------------------------------------------

    def register_generation(self) -> int:
        """Hand out the next driver generation (salts the id namespace so a
        recovered driver can never mint an id the dead one already used)."""
        with self._lock:
            self._generation += 1
            generation = self._generation
        self._apply(
            f"generation/{generation}",
            "driver_generation",
            lambda: None,
            generation=generation,
            wal=("generation", {"generation": generation}),
        )
        return generation

    @property
    def generation(self) -> int:
        return self._generation

    def snapshot(self) -> dict:
        """Consistent copy of every table."""
        with self._lock:
            return {
                "objects": {k: v.snapshot() for k, v in self._objects.items()},
                "tasks": {k: v.snapshot() for k, v in self._tasks.items()},
                "actors": {k: v.snapshot() for k, v in self._actors.items()},
            }

    def events(self, kind: Optional[str] = None) -> list:
        with self._lock:
            return self._event_log.filter(kind=kind)

    def stats(self) -> dict:
        # The schema is the sim's sharded control plane's; the live store
        # is its one-shard case.
        return {
            "num_shards": 1,
            "ops_total": self._ops,
            "ops_per_shard": [self._ops],
            "max_shard_queue": self._max_waiting,
            "contended_ops": self._contended,
            "event_log_len": len(self._event_log),
            "async_backlog": self._async_queue.qsize(),
            "async_backlog_max": self._async_backlog_max,
            "generation": self._generation,
        }

    # ------------------------------------------------------------------
    # Durability: WAL replay
    # ------------------------------------------------------------------

    @classmethod
    def open(cls, wal_dir: str, *, resume_wal: bool = False) -> "ControlStore":
        """Rebuild a store from the WAL in ``wal_dir``, in apply order.

        ``resume_wal=True`` reopens the log for appending (continuing the
        same history); the default replays into a memory-only store.
        """
        with open(os.path.join(wal_dir, WAL_FILE), "rb") as fh:
            records = list(_read_wal(fh))
        store = cls(wal_dir=wal_dir if resume_wal else None)
        store._replaying = True
        replayed = 0
        try:
            for op, key, kwargs in records:
                if store._replay_op(op, key, kwargs):
                    replayed += 1
        finally:
            store._replaying = False
        store.replayed_records = replayed
        return store

    def _replay_op(self, op: str, key, kwargs: dict) -> bool:
        """Re-apply one WAL record through the public mutation API."""
        if op == "task_put":
            kwargs = dict(kwargs)
            spec = kwargs.pop("spec", None)
            self.task_put(key, spec, **{k: v for k, v in kwargs.items() if v is not None})
        elif op == "task_update":
            self.task_update(key, **kwargs)
        elif op == "object_put":
            self.object_put(key, **kwargs)
        elif op == "actor_register":
            self.actor_register(key, **kwargs)
        elif op == "actor_update":
            self.actor_update(key, **kwargs)
        elif op == "generation":
            with self._lock:
                self._generation = max(self._generation, kwargs.get("generation", 0))
        else:
            return False
        return True

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._async_paused.set()
        self._async_queue.put(None)
        self._writer.join(timeout=2.0)
        if self._wal_fd is not None:
            try:
                if self.wal_sync and self._wal_records > self._wal_synced:
                    os.fsync(self._wal_fd)  # async-writer tail records
                os.close(self._wal_fd)
            except OSError:
                pass
            self._wal_fd = None

    @property
    def closed(self) -> bool:
        return self._closed


def _read_wal(fh: io.BufferedReader) -> Iterator[tuple]:
    while True:
        header = fh.read(_LEN.size)
        if len(header) < _LEN.size:
            return
        (length,) = _LEN.unpack(header)
        blob = fh.read(length)
        if len(blob) < length:
            return  # torn tail write: the crash cut mid-record; stop here
        try:
            yield pickle.loads(blob)
        except Exception:
            return
