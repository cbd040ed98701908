"""The real Global Control Store (control plane + driver HA).

``ControlStore`` is the live-backend promotion of the sim's modeled
control plane: the same object/task/actor tables (:mod:`repro.gcs.tables`,
shared with :mod:`repro.store.control_plane`) and an append-only event
log behind one lock, with synchronous write-ahead lineage, async
fire-and-forget state writes, and an optional durable WAL.  The sim keeps
the paper's sharding as a model (``num_gcs_shards``).  ``plan_recovery``
turns a store that outlived its driver into the exact restore/resubmit
plan a fresh runtime executes (``init(..., control_store=store,
recover=True)``).
"""

from repro.gcs.recovery import RecoveryPlan, plan_recovery
from repro.gcs.store import ControlStore
from repro.gcs.tables import (
    ActorEntry,
    NodeInfo,
    ObjectEntry,
    TaskEntry,
    hash_key,
)

__all__ = [
    "ActorEntry",
    "ControlStore",
    "NodeInfo",
    "ObjectEntry",
    "RecoveryPlan",
    "TaskEntry",
    "hash_key",
    "plan_recovery",
]
