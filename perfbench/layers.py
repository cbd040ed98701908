"""Per-layer split of a traced session.

Two span streams meet here, both on the driver's monotonic clock:

* the benchmark's own spans around each public call (``Record``), and
* the runtime's span stream under ``tracing=True``, read through the
  public ``event_log`` after the session.

The event log is stamped relative to the runtime's start, so the offset
between the two is found from ``task_submitted``: the runtime records it
inside ``.remote()``, hence between the benchmark's before- and
after-stamps of that call.  Every such bracket bounds the offset from
both sides; the offset used is the middle of their intersection.
"""

from __future__ import annotations

from perfbench.workloads import SERVE_LADDER, percentile

#: Span kinds that mark a task's life, in order, and the phase each
#: consecutive pair names.
TASK_KINDS = {
    "task_submitted": "submitted",
    "task_placed": "placed",
    "task_started": "started",
    "task_finished": "finished",
    "result_stored": "stored",
}
PHASES = (
    ("submitted -> placed", "submitted", "placed"),
    ("placed -> started", "placed", "started"),
    ("execute", "started", "finished"),
    ("finished -> stored", "finished", "stored"),
)


def align(submits, log):
    """Offset to add to an event-log time to get the benchmark's clock,
    and the width of the interval it was pinned to (seconds)."""
    at = {
        r.payload["task_id"]: r.timestamp
        for r in log
        if r.kind == "task_submitted" and not r.payload.get("worker_born")
    }
    lo, hi = float("-inf"), float("inf")
    for t_before, t_after, task_id in submits:
        t = at.get(task_id)
        if t is not None:
            lo = max(lo, t_before - t)
            hi = min(hi, t_after - t)
    if lo == float("-inf"):
        raise RuntimeError("no benchmark submit matched a task_submitted span")
    return (lo + hi) / 2.0, hi - lo


def task_table(log, offset):
    """task_id -> {phase point: first time on the benchmark clock}."""
    table = {}
    for r in log:
        point = TASK_KINDS.get(r.kind)
        if point is None:
            continue
        row = table.setdefault(r.payload["task_id"], {})
        row.setdefault(point, r.timestamp + offset)
        if point == "submitted" and r.payload.get("worker_born"):
            row["worker_born"] = True
    return table


def _us(values):
    return [v * 1e6 for v in values]


def phase_samples(table, window):
    """Per-phase durations (seconds) of tasks submitted in ``window``."""
    start, end = window
    samples = {name: [] for name, _, _ in PHASES}
    for row in table.values():
        t = row.get("submitted")
        if t is None or not start <= t <= end:
            continue
        for name, a, b in PHASES:
            if a in row and b in row:
                samples[name].append(row[b] - row[a])
    return samples


def wake_samples(rec, table):
    """stored -> ``get`` returns, for every ``get`` the benchmark made.

    A ``get`` called after its last result was stored wakes from its
    own call instead, so the phase never counts time before the call.
    """
    out = []
    for t_call, t_return, task_ids in rec.gets:
        done = []
        for task_id in task_ids:
            row = table.get(task_id, {})
            point = row.get("stored", row.get("finished"))
            if point is None:
                break
            done.append(point)
        else:
            out.append(t_return - max(t_call, max(done)))
    return out


def deps_wait(rec, table):
    """Last rollout result stored -> its fit started (policy)."""
    out = []
    for fit_id, roll_ids in rec.deps.items():
        started = table.get(fit_id, {}).get("started")
        stored = [table.get(r, {}).get("stored") for r in roll_ids]
        if started is not None and None not in stored:
            out.append(started - max(stored))
    return out


def serve_queue_wait(rec, log, offset):
    """Reference-rate request submit -> the batch flush that carried it.

    Flushes are matched to requests in arrival order; with two replicas
    and least-loaded routing this is exact up to replica interleaving.
    """
    window = rec.extra.get("serve_ref_window")
    submitted = iter(sorted(t for t, _, task_id in rec.submits if task_id is None))
    if not window:
        return []
    flushes = sorted(
        (r.timestamp + offset, r.payload["batch_size"])
        for r in log
        if r.kind == "serve_batch_flush" and r.timestamp + offset >= window[0]
    )
    waits = []
    for t_flush, size in flushes:
        for _ in range(size):
            t_sub = next(submitted, None)
            if t_sub is None:
                return waits
            waits.append(max(0.0, t_flush - t_sub))
    return waits


def phase_report(rec, table, window):
    """Named phases of a one-task-in-flight loop: p50, p99 and sample
    count of each, and the share of the median round trip (measured
    around ``.remote()`` and ``get``) that their p50s add up to."""
    created = [
        table[task_id]["submitted"] - t_before
        for t_before, _, task_id in rec.submits
        if "submitted" in table.get(task_id, {})
    ]
    samples = {"remote() -> submitted": created}
    samples.update(phase_samples(table, window))
    samples["stored -> get returns"] = wake_samples(rec, table)
    rows = [
        {"phase": name, "p50_us": percentile(v, 50) * 1e6,
         "p99_us": percentile(v, 99) * 1e6, "samples": len(v)}
        for name, v in samples.items()
    ]
    started = {task_id: t for t, _, task_id in rec.submits}
    rtts = [t_ret - started[ids[0]] for _, t_ret, ids in rec.gets]
    rtt = percentile(rtts, 50) * 1e6
    covered = sum(row["p50_us"] for row in rows)
    # Means add up where medians need not: this share is 1.0 exactly
    # when every round trip has every phase's spans.
    mean_covered = sum(sum(v) for v in samples.values())
    return {
        "rtt_p50_us": rtt,
        "coverage_share": covered / rtt if rtt else 0.0,
        "mean_coverage_share": mean_covered / sum(rtts) if rtts else 0.0,
        "rows": rows,
    }


def split(rec, session, floor):
    """Every per-layer value a traced ``session`` yields (see the
    ``per_layer`` list of BENCHMARK.json), except those that compare it
    with an untraced session.  Layers the workload leaves idle read 0.
    Returns the values and notes for the results file: the clock
    alignment's width and, for one task in flight, the phase report."""
    stats, log = session.stats, session.event_log
    offset, width = align(rec.anchors + rec.submits, log)
    table = task_table(log, offset)
    window = rec.window
    phases = phase_samples(table, window)
    wake = wake_samples(rec, table)
    sched = stats["sched"]
    control = stats["control"]
    shm = stats["shm"]
    obs = stats["obs"]
    serve = stats["serve"]
    internode = stats["cluster"]["internode"]
    on_dist = session.workload.backend == "dist"
    placed = sched["tasks_placed_local"] + sched["tasks_placed_global"]
    worker_born = sum(1 for row in table.values() if row.get("worker_born"))
    executed = stats["tasks_executed"]
    span = window[1] - window[0]
    dispatch = _us(phases["placed -> started"])
    ret = _us(phases["finished -> stored"])
    values = {
        "api.submit_us.p50": percentile(
            [(b - a) * 1e6 for a, b, _ in rec.submits], 50
        ),
        "api.get_block_us.p50": percentile(
            [(b - a) * 1e6 for a, b, _ in rec.gets], 50
        ),
        "api.put_ms.p50": percentile([(b - a) * 1e3 for a, b in rec.puts], 50),
        "sched.place_us.p50": percentile(
            _us(phases["submitted -> placed"]), 50
        ),
        "sched.stolen_share": sched["tasks_stolen"] / placed if placed else 0.0,
        "sched.local_share": (
            sched["tasks_placed_local"] / worker_born if worker_born else 0.0
        ),
        "sched.spilled": sched["tasks_spilled"],
        "sched.locality_hit_share": (
            sched["placement_locality_hits"] / sched["tasks_placed_global"]
            if sched["tasks_placed_global"] else 0.0
        ),
        "proc.dispatch_us.p50": percentile(dispatch, 50),
        "proc.dispatch_us.p99": percentile(dispatch, 99),
        "proc.return_us.p50": percentile(ret, 50),
        "proc.return_us.p99": percentile(ret, 99),
        "proc.exec_us.p50": percentile(_us(phases["execute"]), 50),
        "proc.worker_busy_share": (
            sum(phases["execute"]) / (session.workers * span) if span else 0.0
        ),
        "proc.args_fetched_bytes": stats["args_fetched"]["total_bytes"],
        "core.wake_us.p50": percentile(_us(wake), 50),
        "core.wake_us.p99": percentile(_us(wake), 99),
        "core.deps_wait_ms.p50": percentile(
            [v * 1e3 for v in deps_wait(rec, table)], 50
        ),
        "gcs.ops_per_task": control["ops_total"] / executed if executed else 0.0,
        "gcs.contended_ops": control["contended_ops"],
        "gcs.max_shard_queue": control["max_shard_queue"],
        "gcs.async_backlog_max": control["async_backlog_max"],
        "gcs.event_log_len": control["event_log_len"],
        "shm.hits": shm["shm_hits"],
        "shm.zero_copy_bytes": shm["zero_copy_bytes"],
        "shm.pipe_fallbacks": shm["pipe_fallbacks"],
        "store.objects_retained": stats["objects_stored"],
        "serve.batch_mean": (
            serve["submitted"] / serve["batches"] if serve["batches"] else 0.0
        ),
        "serve.largest_batch": max(
            (p["largest_batch"] for p in serve["pools"]), default=0
        ),
        "serve.queue_wait_ms.p50": percentile(
            [v * 1e3 for v in serve_queue_wait(rec, log, offset)], 50
        ),
        "serve.shed": serve["shed"],
        "serve.gen_late_ms.p99": rec.extra.get("gen_late_ms_p99", 0.0),
        "serve.gen_late_ms.max": rec.extra.get("gen_late_ms_max", 0.0),
        "serve.max_qps": rec.extra.get("max_qps", 0),
        "serve.capacity_qps": rec.extra.get("capacity_qps", 0.0),
        "dist.dispatch_us.p50": percentile(dispatch, 50) if on_dist else 0.0,
        "dist.internode_fetches": internode["internode_fetches"],
        "dist.internode_bytes": internode["internode_bytes"],
        "dist.rtt_p50_us": percentile(_us(rec.samples), 50) if on_dist else 0.0,
        "dist.rtt_p99_us": percentile(_us(rec.samples), 99) if on_dist else 0.0,
        "obs.spans_dropped": obs["spans_dropped"],
        "obs.clock_skew_us": obs["clock_skew_est"] * 1e6,
        "host.pipe_rtt_us": floor["pipe_rtt_us"],
        "host.tcp_rtt_us": floor["tcp_rtt_us"],
        "host.cores": floor["cores"],
        "phase.coverage_share": 0.0,
        "fanout.driver_tasks_per_s": rec.extra.get("driver_tasks_per_s", 0.0),
        "fanout.nested_tasks_per_s": rec.extra.get("nested_tasks_per_s", 0.0),
    }
    rungs = {r["offered"]: r for r in rec.extra.get("rungs", ())}
    for rate in SERVE_LADDER:
        rung = rungs.get(rate, {})
        values[f"serve.r{rate}.p50_ms"] = rung.get("p50_ms", 0.0)
        values[f"serve.r{rate}.p99_ms"] = rung.get("p99_ms", 0.0)
    notes = {"clock_align_us": width * 1e6}
    if session.workload.phase_report:
        notes["phases"] = phase_report(rec, table, window)
        values["phase.coverage_share"] = notes["phases"]["coverage_share"]
    return values, notes
