"""Reference kernel that measures how fast the CPU runs at each moment.

On a shared machine the same pass of dqdsim can take anywhere from 1x to
2x its time, because other tenants slow the CPU down for seconds at a time
(the process's CPU time grows with its wall time, so the slowdown is not
descheduling).  Run.py therefore starts this kernel on the CPU that the
benchmark uses, at nice 10, so it takes about a tenth of that CPU in slices
of a few milliseconds, interleaved with the measured process.  The kernel
does fixed work (small numpy arrays and interpreted arithmetic, like
dqdsim's own inner loops) and logs (time, iterations, its CPU seconds).
Its iterations per CPU second over a time window give the CPU's speed in
that window; a timed quantity's CPU seconds times speed / REFERENCE_RATE
is what it costs on a CPU of reference speed.  The kernel is part of the
benchmark and does not change with the program.

Started as ``python3 refspeed.py``: prints ``ready`` once warmed up, runs
until SIGTERM, then prints its log as one JSON line.
"""
from __future__ import annotations

import bisect
import json
import math
import os
import signal
import time

REFERENCE_RATE = 18000.0   # iterations per CPU second on the reference CPU
NICE = 10
LOG_EVERY = 8              # iterations between log records


def _kernel(numpy, a, v, i: int) -> float:
    x = numpy.atleast_1d(numpy.abs(numpy.asarray(0.5 + (i % 100) * 1e-4)))
    term, acc = x.copy(), x.copy()
    for k in range(1, 12):
        term = term * 0.0625 / (k * k)
        acc += term
    s = float(acc[0]) + float(numpy.einsum("pi,qj,rk,sl,ijkl->pqrs", a, a, a, a, v)[0, 0, 0, 0])
    for j in range(50):
        s += math.sqrt(j + 1.0)
    return s


def serve() -> None:
    import numpy  # here, so that run.py imports speed() without numpy

    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    os.nice(NICE)
    a = numpy.array([[1.0, 0.1], [0.1, 1.0]])
    v = numpy.ones((2, 2, 2, 2))
    for i in range(200):
        _kernel(numpy, a, v, i)
    print("ready", flush=True)
    log, n = [], 0
    while not stop:
        for _ in range(LOG_EVERY):
            _kernel(numpy, a, v, n)
            n += 1
        log.append((time.perf_counter(), n, time.process_time()))
    print(json.dumps(log), flush=True)


def speed(log: list, t0: float, t1: float) -> float:
    """Kernel iterations per CPU second between times t0 and t1, over
    REFERENCE_RATE: above 1 the CPU ran faster than the reference."""
    times = [rec[0] for rec in log]

    def at(t):
        i = min(max(bisect.bisect_left(times, t), 1), len(log) - 1)
        (ta, na, ca), (tb, nb, cb) = log[i - 1], log[i]
        w = (t - ta) / (tb - ta) if tb > ta else 0.0
        return na + w * (nb - na), ca + w * (cb - ca)

    n0, c0 = at(t0)
    n1, c1 = at(t1)
    if c1 <= c0:
        raise ValueError(f"reference kernel did not run between {t0} and {t1}")
    return (n1 - n0) / (c1 - c0) / REFERENCE_RATE


if __name__ == "__main__":
    serve()
