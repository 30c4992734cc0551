"""One repeat of one workload, in a fresh process started by ``run.py``.

Usage (``run.py`` does this; the package is found through PYTHONPATH):

    python3 perfbench/worker.py --workload W --input PATH --out DIR --report FILE [--trace]

``--input`` is the shipped config of a CLI workload or the LIBSVM text of
``sparse_large``. The report is a JSON file holding the cells attempted
and failed, the output digest, the time the worker spent on bench-only
work (so run.py can take it out of the measured wall time), the peak
resident memory when the workload finished, the host-speed samples and
the span metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import signal
import time


class HostSpeed:
    """Samples the host's CPU speed while the workload runs.

    The host's speed drifts by up to 2x within seconds, because other
    tenants share the physical cores, and each vCPU drifts on its own.
    That is far wider than any regression bound. Every ``PERIOD_S`` a
    timer signal interrupts the workload, on its own CPU, to time a
    fixed, bench-owned kernel of about 0.5 ms. The kernel runs small
    sparse products in an interpreter loop and sweeps a vector, and it
    calls no proxrestart code, so a change to the package cannot move it.
    ``run.py`` turns the samples into the speed of the repeat.
    """

    PERIOD_S = 0.05

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp

        rng = np.random.default_rng(0)
        self._np = np
        self._small = sp.random(200, 30, density=0.3, random_state=rng, format="csr")
        self._v, self._u = rng.standard_normal(30), rng.standard_normal(200)
        self._long = rng.standard_normal(5_000)
        self.samples: list[float] = []

    def _kernel(self, signum, frame):
        np, small, u = self._np, self._small, self._u
        began = time.perf_counter()
        v = self._v
        for _ in range(5):
            v = small.T @ (small @ v - u)
            v /= np.linalg.norm(v)
        np.logaddexp(0.0, self._long).sum()
        self.samples.append(time.perf_counter() - began)

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._kernel)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


class Clock:
    """Marks the span of the workload proper within the worker's life."""

    def __init__(self, host: HostSpeed, sample: bool):
        self.begin = self.end = None
        self.peak_rss_mb = 0.0
        self._host = host
        self._sample = sample

    @contextlib.contextmanager
    def timed(self):
        with self._host.sampling() if self._sample else contextlib.nullcontext():
            self.begin = time.perf_counter()
            try:
                yield
            finally:
                self.end = time.perf_counter()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--input", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import numpy
    import scipy

    import proxrestart
    if args.workload != "sparse_large":
        import proxrestart.cli  # noqa: F401  (part of what a CLI user waits for)

    imported = time.perf_counter()
    import metrics
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracing.instrument(tracer, full=args.trace)
    host = HostSpeed()
    clock = Clock(host, sample=not args.trace)
    if args.workload == "sparse_large":
        lines = workloads.read_lines(args.input)
        cells, failed, digest, notes = workloads.run_sparse_large(lines, clock)
    elif args.workload == "check_small":
        cells, failed, digest, notes = workloads.run_check_small(args.input, args.out, clock)
    else:
        cells, failed, digest, notes = workloads.run_run_small(args.input, args.out, clock)
    shutil.rmtree(args.out, ignore_errors=True)

    table = metrics.SpanTable(tracer)
    report = {
        "cells": cells,
        "failed": failed,
        "digest": digest,
        "notes": notes,
        "peak_rss_mb": clock.peak_rss_mb,
        "speed_samples_s": host.samples,
        "end_to_end": metrics.end_to_end_from_spans(table),
        "per_layer": metrics.per_layer_from_spans(table) if args.trace else {},
        "cell_rows": table.cell_rows,
        "versions": {"proxrestart": proxrestart.__version__, "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    # Everything after the package import and outside the workload proper
    # is the bench's own work; run.py takes it out of the wall time.
    report["bench_s"] = (clock.begin - imported) + (time.perf_counter() - clock.end)
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
