"""Host facts and the hardware floor each round trip is compared with.

The floor is the raw cost of one message there and back between two
processes on this host: over a ``multiprocessing.Pipe`` (what ``proc``
workers talk over) and over loopback TCP (what ``dist`` node agents
talk over).  Both echo in a spawned child, as the workers do.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import socket
import statistics
import time

ROUND_TRIPS = 2000


def _echo(conn, port_out):
    """Child: echo pipe messages until ``None``, then echo one TCP peer."""
    while True:
        message = conn.recv()
        conn.send(message)
        if message is None:
            break
    server = socket.create_server(("127.0.0.1", 0))
    port_out.send(server.getsockname()[1])
    peer, _ = server.accept()
    peer.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    with server, peer:
        while True:
            data = peer.recv(64)
            if not data:
                break
            peer.sendall(data)


def _median_us(samples):
    return statistics.median(samples) * 1e6


def measure_floor(round_trips: int = ROUND_TRIPS) -> dict:
    """Median pipe and loopback-TCP round trips, in microseconds."""
    ctx = multiprocessing.get_context("spawn")
    parent, child = ctx.Pipe()
    port_in, port_out = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_echo, args=(child, port_out), daemon=True)
    proc.start()
    try:
        pipe = []
        for i in range(round_trips):
            t0 = time.monotonic()
            parent.send(i)
            parent.recv()
            pipe.append(time.monotonic() - t0)
        parent.send(None)
        parent.recv()
        tcp = []
        with socket.create_connection(("127.0.0.1", port_in.recv())) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for _ in range(round_trips):
                t0 = time.monotonic()
                sock.sendall(b"x")
                sock.recv(64)
                tcp.append(time.monotonic() - t0)
    finally:
        proc.join(timeout=10.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
        for conn in (parent, child, port_in, port_out):
            conn.close()
    return {"pipe_rtt_us": _median_us(pipe), "tcp_rtt_us": _median_us(tcp)}


def cpu_times():
    """Host-wide CPU time counters (jiffies) from ``/proc/stat``, or
    None where there is no such file."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after) -> float:
    """Share of CPU time the hypervisor gave to other guests between two
    ``cpu_times()`` readings: on a shared host, the noise under every
    figure of the run."""
    if before is None or after is None or len(after) < 8:
        return 0.0
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def facts() -> dict:
    import numpy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
