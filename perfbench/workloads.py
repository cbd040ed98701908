"""The workloads: each drives the public API on a live backend.

Every workload runs in a session (``init`` + warm-up, the measured
loop, ``shutdown``) and fills a :class:`Record` with the benchmark's own
monotonic spans around each public call, so a traced session can be
split into layers afterwards (see ``layers.py``).
"""

from __future__ import annotations

import resource
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import repro
from perfbench import tasks

clock = time.monotonic

#: Longest a single blocking call may take before it counts as failed.
CALL_TIMEOUT_S = 30.0

#: Operations after which each workload reads the driver's peak RSS.
RTT_RSS_AFTER = 2000
POLICY_RSS_AFTER = 40

#: fanout: driver-born tasks per wave, and spawners x children per
#: nested wave (the same 32 tasks either way).
FANOUT_TASKS = 32
FANOUT_SPAWNERS = 2
FANOUT_CHILDREN = 16

#: policy: rollouts per iteration, split evenly over the fit tasks.
POLICY_ROLLOUTS = 4
POLICY_FITS = 2
POLICY_STEPS = (60, 180)
POLICY_STRAGGLER_P = 0.1
POLICY_STRAGGLER_X = 4

#: serve: 2 replicas with micro-batching; the open-loop ladder of offered
#: rates (requests/s).  The first rung is the reference rate, about a
#: fifth of closed-loop capacity on a 2-core host.
SERVE_REPLICAS = 2
SERVE_BATCH = 16
SERVE_BATCH_WAIT_MS = 1.0
SERVE_LADDER = (1000, 2000, 4000, 6000, 8000)
SERVE_SLO_MS = 250.0
SERVE_CAPACITY_WINDOW = 256
#: Shares of the session's seconds: the reference rung, all other rungs
#: together, and closed-loop capacity.
SERVE_SPLIT = (0.45, 0.4, 0.15)


@dataclass
class Record:
    """One measured session: outcomes plus the benchmark-side spans."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    #: Latency of each measured operation (seconds), the percentile that
    #: is its tail, and the operations done per ``elapsed`` seconds.
    samples: list = field(default_factory=list)
    tail_q: float = 99.0
    ops: int = 0
    elapsed: float = 0.0
    #: extra numbers the workload knows about itself (no trace needed).
    extra: dict = field(default_factory=dict)
    #: (t_before, t_after, task_id) around each ``.remote()``; task_id
    #: is None for ``ActorPool.submit`` at the serve reference rate.
    submits: list = field(default_factory=list)
    #: (t_call, t_return, [task_id, ...]) around each ``get``.
    gets: list = field(default_factory=list)
    #: (t_before, t_after) around each ``put``.
    puts: list = field(default_factory=list)
    #: fit task_id -> the rollout task_ids it consumes (policy).
    deps: dict = field(default_factory=dict)
    #: (t_before, t_after, task_id) around the warm-up ``.remote()``
    #: calls: clock anchors only, kept out of the api figures.
    anchors: list = field(default_factory=list)
    #: (start, end) of the measured loop.
    window: tuple = (0.0, 0.0)
    #: False outside a traced session, so untraced loops skip bookkeeping.
    keep_spans: bool = False
    #: Driver peak RSS (MiB) once the session's fixed amount of work is
    #: done; a fixed amount, so a faster commit is not charged for the
    #: extra tasks it fits into the same seconds.
    rss_mb: float = 0.0

    def fail(self, count: int = 1, wrong: bool = False) -> None:
        """Count operations that raised, timed out, were refused or, with
        ``wrong``, returned a wrong value."""
        self.failed += count
        if wrong:
            self.wrong += count

    def checkpoint_rss(self) -> None:
        if not self.rss_mb:
            self.rss_mb = peak_rss_mb()

    def finish(self, samples, tail_q, ops, elapsed) -> None:
        self.checkpoint_rss()
        self.samples, self.tail_q = samples, tail_q
        self.ops, self.elapsed = ops, elapsed


def end_to_end(recs) -> dict:
    """Latency percentiles over the pooled operations of ``recs``, and
    their combined throughput."""
    samples = [x for r in recs for x in r.samples]
    elapsed = sum(r.elapsed for r in recs)
    return {
        "p10_ms": percentile(samples, 10) * 1e3,
        "p50_ms": percentile(samples, 50) * 1e3,
        "tail_ms": percentile(samples, recs[0].tail_q) * 1e3,
        "throughput_per_s": sum(r.ops for r in recs) / elapsed if elapsed else 0.0,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this (the driver) process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q):
    """Nearest-rank percentile of ``values`` (q in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def _task_id(ref):
    return str(ref.producer_task)


@dataclass(frozen=True)
class Workload:
    """How to set up, warm and drive one workload."""

    name: str
    backend: str
    init_kwargs: dict
    warm: Callable
    run: Callable
    #: One task in flight: print the phase report of its round trip.
    phase_report: bool = False
    #: Loops a traced run of this workload also runs, traced, to measure
    #: the layers it leaves idle; each names the prefixes of the
    #: per-layer metrics it supplies.
    companions: tuple = ()
    owns: tuple = ()


def _warm_tasks(rec: Record):
    """A few tasks per worker, so spawn and imports finish before timing."""
    refs = []
    for v in range(8):
        t0 = clock()
        refs.append(tasks.inc.remote(v))
        rec.anchors.append((t0, clock(), _task_id(refs[-1])))
    if repro.get(refs, timeout=60.0) != [v + 1 for v in range(8)]:
        raise RuntimeError("warm-up tasks returned wrong values")


# ----------------------------------------------------------------------
# rtt / rtt_remote: closed loop, one task in flight
# ----------------------------------------------------------------------
def run_rtt(state, seconds, rng, rec: Record):
    prev = int(rng.integers(1 << 30))
    lat = []
    deadline = clock() + seconds
    start = clock()
    while clock() < deadline:
        rec.attempted += 1
        t0 = clock()
        ref = tasks.inc.remote(prev)
        t1 = clock()
        try:
            value = repro.get(ref, timeout=CALL_TIMEOUT_S)
        except repro.ReproError:
            rec.fail()
            continue
        t2 = clock()
        if value != prev + 1:
            rec.fail(wrong=True)
        prev = value
        lat.append(t2 - t0)
        if len(lat) == RTT_RSS_AFTER:
            rec.checkpoint_rss()
        if rec.keep_spans:
            task_id = _task_id(ref)
            rec.submits.append((t0, t1, task_id))
            rec.gets.append((t1, t2, [task_id]))
    rec.finish(lat, 99, len(lat), clock() - start)


# ----------------------------------------------------------------------
# fanout: alternating driver-born and nested waves
# ----------------------------------------------------------------------
def _submit_all(rec, calls):
    refs = []
    for fn, args in calls:
        t0 = clock()
        ref = fn.remote(*args)
        if rec.keep_spans:
            rec.submits.append((t0, clock(), _task_id(ref)))
        refs.append(ref)
    return refs


def _get_all(rec, refs):
    t0 = clock()
    values = repro.get(refs, timeout=CALL_TIMEOUT_S)
    if rec.keep_spans:
        rec.gets.append((t0, clock(), [_task_id(r) for r in refs]))
    return values


def run_fanout(state, seconds, rng, rec: Record):
    rounds = []
    driver_time = nested_time = 0.0
    driver_tasks = nested_tasks = 0
    deadline = clock() + seconds
    start = clock()
    while clock() < deadline:
        base = int(rng.integers(1 << 30))
        t0 = clock()
        rec.attempted += FANOUT_TASKS
        try:
            values = _get_all(rec, _submit_all(
                rec, [(tasks.inc, (base + i,)) for i in range(FANOUT_TASKS)]
            ))
        except repro.ReproError:
            rec.fail(FANOUT_TASKS)
            continue
        t1 = clock()
        rec.fail(sum(v != base + i + 1 for i, v in enumerate(values)), wrong=True)
        per = FANOUT_CHILDREN
        rec.attempted += FANOUT_SPAWNERS * (per + 1)
        try:
            sums = _get_all(rec, _submit_all(
                rec,
                [(tasks.spawner, (base + j * per, per))
                 for j in range(FANOUT_SPAWNERS)],
            ))
        except repro.ReproError:
            rec.fail(FANOUT_SPAWNERS * (per + 1))
            continue
        t2 = clock()
        for j, total in enumerate(sums):
            first = base + j * per + 1
            if total != per * first + per * (per - 1) // 2:
                rec.fail(per + 1, wrong=True)
        rounds.append(t2 - t0)
        driver_time += t1 - t0
        nested_time += t2 - t1
        driver_tasks += FANOUT_TASKS
        nested_tasks += FANOUT_SPAWNERS * (per + 1)
    rec.finish(rounds, 95, driver_tasks + nested_tasks, clock() - start)
    rec.extra.update(
        driver_tasks_per_s=driver_tasks / driver_time if driver_time else 0.0,
        nested_tasks_per_s=nested_tasks / nested_time if nested_time else 0.0,
    )


# ----------------------------------------------------------------------
# policy: put parameters, K rollouts, fits over rollout refs
# ----------------------------------------------------------------------
def _warm_policy(rec: Record):
    _warm_tasks(rec)
    params = np.zeros(tasks.PARAM_SHAPE)
    ref = repro.put(params)
    rolls = [tasks.rollout.remote(ref, k, 1) for k in range(2)]
    repro.get(tasks.fit.remote(*rolls), timeout=60.0)


def _policy_inputs(rng):
    steps = rng.integers(POLICY_STEPS[0], POLICY_STEPS[1], POLICY_ROLLOUTS)
    stragglers = rng.random(POLICY_ROLLOUTS) < POLICY_STRAGGLER_P
    steps = np.where(stragglers, steps * POLICY_STRAGGLER_X, steps)
    seeds = rng.integers(1 << 31, size=POLICY_ROLLOUTS)
    return [int(s) for s in seeds], [int(s) for s in steps]


def run_policy(state, seconds, rng, rec: Record):
    params = rng.standard_normal(tasks.PARAM_SHAPE) * 0.05
    group = POLICY_ROLLOUTS // POLICY_FITS
    iters = []
    deadline = clock() + seconds
    while clock() < deadline:
        seeds, steps = _policy_inputs(rng)
        rec.attempted += 1
        t0 = clock()
        try:
            pref = repro.put(params)
            t_put = clock()
            rolls = _submit_all(
                rec,
                [(tasks.rollout, (pref, seeds[k], steps[k]))
                 for k in range(POLICY_ROLLOUTS)],
            )
            fits = _submit_all(
                rec,
                [(tasks.fit, tuple(rolls[i:i + group]))
                 for i in range(0, POLICY_ROLLOUTS, group)],
            )
            got = _get_all(rec, fits)
        except repro.ReproError:
            rec.fail()
            continue
        update = np.mean(np.stack(got), axis=0)
        new_params = tasks.apply_update(params, update)
        t1 = clock()
        iters.append(t1 - t0)
        if len(iters) == POLICY_RSS_AFTER:
            rec.checkpoint_rss()
        if rec.keep_spans:
            rec.puts.append((t0, t_put))
            for i, f in enumerate(fits):
                rec.deps[_task_id(f)] = [
                    _task_id(r) for r in rolls[i * group:(i + 1) * group]
                ]
        # Check against the same computation done in the driver, outside
        # the timed iteration.
        expected = [
            tasks.rollout_value(params, seeds[k], steps[k])
            for k in range(POLICY_ROLLOUTS)
        ]
        for i, value in enumerate(got):
            want = tasks.fit_value(*expected[i * group:(i + 1) * group])
            if not np.allclose(value, want, rtol=1e-9, atol=1e-12):
                rec.fail(wrong=True)
                break
        params = new_params
    rec.finish(iters, 95, len(iters), sum(iters))


# ----------------------------------------------------------------------
# serve: open-loop Poisson arrivals on a 2-replica ActorPool
# ----------------------------------------------------------------------
def _warm_serve(rec: Record):
    _warm_tasks(rec)
    pool = repro.ActorPool(
        tasks.Scorer,
        size=SERVE_REPLICAS,
        max_batch_size=SERVE_BATCH,
        batch_wait_ms=SERVE_BATCH_WAIT_MS,
        routing="least_loaded",
    )
    for i in range(SERVE_REPLICAS * 4):
        if pool.submit(i).result(timeout=60.0) != tasks.serve_answer(i):
            raise RuntimeError("warm-up serve call returned a wrong value")
    return pool


def _capacity(pool, seconds, rng, rec):
    """Closed loop: windows of concurrent requests; returns the number
    answered and the seconds taken."""
    done = 0
    deadline = clock() + seconds
    start = clock()
    while clock() < deadline:
        values = rng.integers(1 << 30, size=SERVE_CAPACITY_WINDOW).tolist()
        rec.attempted += len(values)
        futures = []
        for v in values:
            try:
                futures.append((v, pool.submit(v)))
            except repro.Backpressure:
                rec.fail()
        for v, future in futures:
            try:
                if future.result(timeout=CALL_TIMEOUT_S) != tasks.serve_answer(v):
                    rec.fail(wrong=True)
                else:
                    done += 1
            except (repro.ReproError, TimeoutError):
                rec.fail()
    return done, clock() - start


def _open_loop(pool, rate, seconds, rng, rec, keep):
    """One ladder rung: Poisson arrivals at ``rate`` for ``seconds``.

    Each request is timed from when it was due; the generator's own
    lateness (actual submit - due) is kept apart.
    """
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 16)
    offsets = np.cumsum(gaps)
    offsets = offsets[offsets < seconds]
    values = rng.integers(1 << 30, size=len(offsets)).tolist()
    n = len(offsets)
    done_at = [0.0] * n
    lateness = [0.0] * n
    futures = [None] * n
    completed = [0]
    lock = threading.Lock()

    def _mark(i):
        def _cb(_future):
            done_at[i] = clock()
            with lock:
                completed[0] += 1
        return _cb

    start = clock()
    for i in range(n):
        due = start + offsets[i]
        delay = due - clock()
        if delay > 0:
            time.sleep(delay)
        t_sub = clock()
        lateness[i] = t_sub - due
        rec.attempted += 1
        try:
            future = pool.submit(values[i])
        except repro.Backpressure:
            rec.fail()
            continue
        if keep:
            rec.submits.append((t_sub, clock(), None))
        future.add_done_callback(_mark(i))
        futures[i] = future
    end = clock()
    with lock:
        backlog = sum(1 for f in futures if f is not None) - completed[0]
    latencies = []
    for i, future in enumerate(futures):
        if future is None:
            continue
        try:
            value = future.result(timeout=CALL_TIMEOUT_S)
        except (repro.ReproError, TimeoutError):
            rec.fail()
            continue
        if value != tasks.serve_answer(values[i]):
            rec.fail(wrong=True)
            continue
        # result() can return before the done callback has run.
        latencies.append((done_at[i] or clock()) - (start + offsets[i]))
    return {
        "offered": rate,
        "requests": n,
        "achieved_qps": n / max(end - start, 1e-9),
        "p50_ms": percentile(latencies, 50) * 1e3,
        "p99_ms": percentile(latencies, 99) * 1e3,
        "backlog": backlog,
        "lateness": lateness,
        "latencies": latencies,
    }


def run_serve(pool, seconds, rng, rec: Record):
    ref_s, rest_s, cap_s = (seconds * share for share in SERVE_SPLIT)
    per_rung = rest_s / (len(SERVE_LADDER) - 1)
    rungs = []
    for i, rate in enumerate(SERVE_LADDER):
        start = clock()
        rung = _open_loop(
            pool, rate, ref_s if i == 0 else per_rung, rng, rec,
            keep=rec.keep_spans and i == 0,
        )
        if i == 0:
            rec.extra["serve_ref_window"] = (start, clock())
        rungs.append(rung)
    done, elapsed = _capacity(pool, cap_s, rng, rec)
    rec.finish(rungs[0]["latencies"], 99, done, elapsed)
    lateness = [x for r in rungs for x in r.pop("lateness")]
    for rung in rungs:
        del rung["latencies"]
    # A rung passes when the generator really offered its rate, p99 met
    # the SLO, and no more was left in flight than the SLO allows.
    passing = [
        r["offered"] for r in rungs
        if r["achieved_qps"] >= 0.95 * r["offered"]
        and r["p99_ms"] <= SERVE_SLO_MS
        and r["backlog"] <= r["offered"] * SERVE_SLO_MS / 1e3
    ]
    rec.extra.update(
        rungs=rungs,
        capacity_qps=done / elapsed if elapsed else 0.0,
        max_qps=max(passing) if passing else 0,
        gen_late_ms_p99=percentile(lateness, 99) * 1e3,
        gen_late_ms_max=max(lateness) * 1e3 if lateness else 0.0,
        pool=pool.stats(),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rtt", "proc", {"num_workers": 2}, _warm_tasks, run_rtt,
            phase_report=True,
            companions=(
                Workload(
                    "rtt_remote", "dist",
                    {"num_nodes": 2, "workers_per_node": 1},
                    _warm_tasks, run_rtt, phase_report=True, owns=("dist.",),
                ),
                Workload(
                    "serve", "proc", {"num_workers": 2}, _warm_serve,
                    run_serve, owns=("serve.",),
                ),
            ),
        ),
        Workload(
            "policy", "proc", {"num_workers": 2}, _warm_policy, run_policy,
            companions=(
                Workload(
                    "fanout", "proc", {"num_workers": 2}, _warm_tasks,
                    run_fanout, owns=("fanout.", "sched.local_share"),
                ),
            ),
        ),
    )
}
