"""One benchmark for a task's life on the live backends.

Usage, from the repository root::

    python3 perfbench/run.py --workload rtt --seed 1 --seconds 40 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen), all driven by
one driver process on a 2-core host, never more workers than cores:

* ``rtt``     one no-op task in flight, ``proc`` with 2 workers
* ``policy``  put a 2 MiB parameter array, rollouts, fits over refs

A traced run of a workload also runs its companions, traced, for the
layers it leaves idle.  ``rtt`` runs the same loop on ``dist`` (2 nodes
x 1 worker) and ``serve``: a 2-replica batching ActorPool under an
open-loop Poisson rate ladder, then a closed loop.  ``policy`` runs
``fanout``: alternating waves of driver-born tasks and of spawners whose
worker-born children are fetched.

``--trace 0`` measures the workload untraced, in ``SESSIONS`` sessions
that share the seconds, and reports the end-to-end metrics.
``--trace 1`` runs one untraced and one ``tracing=True`` session, then
the companions, all sharing the seconds, and reports the per-layer
split of the traced sessions.

Every operation's output is checked.  Each run writes its full results
(seed, host facts, commit, every figure and the raw latencies) to
``perfbench/results/<workload>-trace<n>.json`` before it prints its
verdict; the last line of standard output is the one-line JSON summary.
The run exits non-zero without a summary when the program cannot be
imported or a session fails outright.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"

#: An untraced run measures this many sessions (``init`` ... ``shutdown``)
#: of equal length and pools their operations.  Each session settles
#: into its own pattern of steals and placements, and a shared host's
#: load drifts; pooling keeps one session from setting the run's
#: figures.  Set-up time is the median over the sessions.
SESSIONS = 4

#: One worker per core: keep BLAS in each process to one thread.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _declared():
    """Metric name -> unit for (--trace 0, --trace 1), as BENCHMARK.json
    declares them; a run must produce every one of them."""
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return tuple(
        {m["name"]: m["unit"] for m in spec[key]}
        for key in ("end_to_end", "per_layer")
    )


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _commit():
    """The checkout's commit when it is a git work tree, else unknown."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    args = _parse(argv)
    for name in THREAD_ENV:
        os.environ.setdefault(name, "1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    import numpy as np

    from perfbench import host, layers
    from perfbench.session import Session
    from perfbench.workloads import WORKLOADS, end_to_end

    declared_e2e, per_layer = _declared()
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; valid: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    RESULTS.mkdir(parents=True, exist_ok=True)
    out_path = RESULTS / f"{args.workload}-trace{args.trace}.json"
    # A run that fails must not leave an earlier passing result behind.
    out_path.unlink(missing_ok=True)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "host": {**host.facts(), **host.measure_floor()},
        "leaks": [],
    }
    rng = np.random.default_rng(args.seed)
    sessions = []
    cpu_before = host.cpu_times()

    def run_session(tracing, seconds, which=workload):
        session = Session(which, tracing)
        sessions.append(session)
        return session, session.run(seconds, rng)

    try:
        if args.trace == 0:
            recs = [run_session(False, args.seconds / SESSIONS)[1]
                    for _ in range(SESSIONS)]
            setups = [s.setup_s for s in sessions]
            e2e = end_to_end(recs)
            metrics = {
                "setup_s": statistics.median(setups),
                "peak_rss_mb": recs[0].rss_mb,
                # A shared host's neighbours slow every operation for
                # minutes at a time; the tenth percentile moves least
                # with them (the median and tail are in the results).
                "latency_ms": e2e["p10_ms"],
            }
            units = declared_e2e
            result["setup_samples_s"] = setups
            result["e2e"] = e2e
            session = sessions[-1]
        else:
            part = args.seconds / (2 + len(workload.companions))
            _, plain = run_session(False, part)
            session, rec = run_session(True, part)
            recs = [plain, rec]
            metrics, notes = layers.split(rec, session, result["host"])
            result.update(notes)
            units = per_layer
            traced = end_to_end([rec])
            untraced = end_to_end([plain])
            metrics.update({
                "obs.overhead_pct": (
                    traced["p50_ms"] / untraced["p50_ms"] - 1
                ) * 100,
                "e2e.p50_ms": untraced["p50_ms"],
                "e2e.tail_ms": untraced["tail_ms"],
                "e2e.throughput_per_s": untraced["throughput_per_s"],
            })
            result["e2e_untraced"], result["e2e_traced"] = untraced, traced
            for companion in workload.companions:
                other, crec = run_session(True, part, companion)
                recs.append(crec)
                values, result[companion.name] = layers.split(
                    crec, other, result["host"]
                )
                metrics.update(
                    (k, v) for k, v in values.items()
                    if k.startswith(companion.owns)
                )
        result["growth"] = {
            "store.objects_retained": session.stats["objects_stored"],
            "gcs.event_log_len": session.stats["control"]["event_log_len"],
        }
    except BaseException as exc:
        result["error"] = repr(exc)
        raise
    finally:
        result["leaks"] = [leak for s in sessions for leak in s.leaks]
        result["host"]["steal_share"] = host.steal_share(
            cpu_before, host.cpu_times()
        )
        if "error" in result:
            _write(out_path, result)

    leaks = result["leaks"]
    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs) + len(leaks)
    if args.trace == 1:
        metrics["run.fail_share"] = failed / attempted if attempted else 1.0
        metrics["run.leaked"] = len(leaks)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"declared metrics not measured: {missing}")
    summary = {
        "correct": sum(r.wrong for r in recs) == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    result.update(
        summary=summary,
        extra=[r.extra for r in recs],
        samples_ms=[[x * 1e3 for x in r.samples] for r in recs],
    )
    _write(out_path, result)

    _print_report(result, summary)
    print(json.dumps(summary))
    return 0


def _write(path, result):
    with open(path, "w") as f:
        json.dump(result, f, indent=1, default=str)


def _print_report(result, summary):
    h = result["host"]
    print(f"# {result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={result['trace']} "
          f"commit={result['commit'][:12]}")
    print(f"# host: {h['cores']} cores, python {h['python']}, "
          f"numpy {h['numpy']}, pipe rtt {h['pipe_rtt_us']:.1f} us, "
          f"tcp rtt {h['tcp_rtt_us']:.1f} us, "
          f"cpu steal {h['steal_share']:.1%} during the run")
    if "e2e" in result:
        e = result["e2e"]
        print(f"# pooled operations: p10 {e['p10_ms']:.4f} ms, "
              f"p50 {e['p50_ms']:.4f} ms, "
              f"tail {e['tail_ms']:.4f} ms, {e['throughput_per_s']:.1f}/s")
    if "clock_align_us" in result:
        print(f"# benchmark and runtime clocks aligned to within "
              f"{result['clock_align_us']:.1f} us")
    for ph, where in ((result.get("phases"), "proc"),
                      (result.get("rtt_remote", {}).get("phases"), "dist")):
        if ph is None:
            continue
        print(f"# phases of the median {where} round trip "
              f"({ph['rtt_p50_us']:.0f} us):")
        for row in ph["rows"]:
            print(f"#   {row['phase']:<24} p50 {row['p50_us']:9.1f} us  "
                  f"p99 {row['p99_us']:9.1f} us  n={row['samples']}")
        print(f"#   their p50s add up to {ph['coverage_share']:.1%} of the "
              f"median round trip; their means to "
              f"{ph['mean_coverage_share']:.1%} of the mean")
    for leak in result["leaks"]:
        print(f"# LEAK: {leak}")
    for name, value in result["growth"].items():
        print(f"# {name} = {value} at the end of the run")
    for name, m in summary["metrics"].items():
        print(f"{name:<28} {m['value']:>14.4f} {m['unit']}")
    print(f"# attempted={summary['attempted']} failed={summary['failed']} "
          f"correct={summary['correct']}")


def stop_resource_tracker(timeout_s: float = 10.0) -> None:
    """Stop this process's multiprocessing resource tracker and wait for
    it to end.

    Spawned processes (the runtime's workers, the host floor's echo
    child) start a tracker that would otherwise outlive the benchmark by
    a moment: it exits only when it reads end-of-file after this process
    has gone.  Closing its pipe here ends it now; if a straggling child
    still holds the pipe open, the tracker is killed instead.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    fd, pid = tracker._fd, tracker._pid
    if pid is None:
        return
    tracker._fd = tracker._pid = None
    os.close(fd)
    deadline = time.monotonic() + timeout_s
    try:
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)
    except ChildProcessError:
        pass  # already reaped


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_resource_tracker()
    sys.exit(code)
