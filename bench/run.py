"""Benchmark of the belyi pipeline.

    python3 bench/run.py --workload grid-1e3-s2 --seed 1 --seconds 25 --trace 0

Runs one workload (see ``workloads.py`` and ``README.md``) in this
process for at least ``--seconds`` seconds of whole rounds, with the
workload's fixed reference work timed between rounds so that operation
times can be given relative to the host's speed at the time, checks
every output against the benchmark's own oracle, and prints one JSON
line as the last line of stdout:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, from spans recorded around each layer's public calls,
and the spans are written to ``bench/out/trace-<workload>-<seed>.json``.

belyi is imported from ``src/`` beside this directory; without it the
benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
MODULES = ("ribbon", "cusps", "farey", "cheeger", "experiments", "cli")

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, failed, probe  # noqa: E402


def import_belyi() -> types.SimpleNamespace:
    """The belyi layer modules, imported from ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import importlib

    b = types.SimpleNamespace(**{m: importlib.import_module(f"belyi.{m}") for m in MODULES})
    where = Path(b.ribbon.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"belyi was imported from {where}, not from {SRC}")
    return b


def child_setup_s(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter: import belyi and build the inputs."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


@dataclass
class Times:
    """Times of the operations on full-size inputs, traced or untraced."""

    seconds: list[float] = field(default_factory=list)  # wall seconds per operation
    op_total: float = 0.0  # wall seconds of all these operations
    ref_total: float = 0.0  # the reference time of each one's round, summed over them

    @property
    def rel_mean(self) -> float:
        """Mean operation time over mean reference time."""
        return self.op_total / self.ref_total


def timed_rounds(wl, seconds: float, tracer: Tracer | None):
    """Run whole rounds until ``seconds`` have passed.

    The workload's reference work is timed before the first round and
    after each round; a round's reference time is the mean of the two on
    either side of it.  With a tracer, odd rounds are traced and even
    rounds are not, so the two halves give the tracing overhead.
    Returns the calls with their outputs, the ``Times`` of untraced and
    of traced operations, and the wall seconds spent in all calls.
    """
    results = []
    times = {False: Times(), True: Times()}
    busy = 0.0
    start = time.perf_counter()
    before = wl.time_reference()
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
        timed = []
        try:
            for call in wl.round(i):
                t0 = time.perf_counter()
                if traced:
                    tracer.op = len(results) + len(timed)
                    out = tracer.wrap("op", call.fn)()
                else:
                    out = call.fn()
                timed.append((call, out, time.perf_counter() - t0))
        finally:
            if traced:
                tracer.uninstall()
        after = wl.time_reference()
        ref = (before + after) / 2
        before = after
        t = times[traced]
        for call, out, dt in timed:
            results.append((call, out))
            busy += dt
            if not call.malformed:
                t.seconds.append(dt / call.ops)
                t.op_total += dt
                t.ref_total += ref * call.ops
        i += 1
        if time.perf_counter() - start >= seconds and (tracer is None or i >= 2):
            return results, times[False], times[True], busy


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    try:
        b = import_belyi()
    except ImportError as exc:
        print(f"error: cannot import belyi from {SRC}: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    try:
        wl = WORKLOADS[args.workload](b, args.seed, workdir)
        workdir.mkdir()
        wl.setup()
        setups = [time.perf_counter() - t0]
        if args.setup_only:
            print(setups[0])
            return 0
        wl.prepare_reference()
        # half the fresh set-ups before the timed rounds and half after, so
        # that their median samples the host's speed across the whole run
        children = 0 if args.trace else wl.setups - 1
        setups += [child_setup_s(args.workload, args.seed) for _ in range(children // 2)]

        tracer = Tracer() if args.trace else None
        results, plain, traced, busy = timed_rounds(wl, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups += [child_setup_s(args.workload, args.seed) for _ in range(children - children // 2)]
        attempted = sum(call.ops for call, _ in results)
        kept = [(call, out) for call, out in results if not failed(call, out)]
        failures = attempted - sum(call.ops for call, _ in kept)

        if args.trace:
            tracer.op = "probe"
            tracer.install()
            try:
                probe(b, wl.n, wl.round_seed(0), workdir)
            finally:
                tracer.uninstall()
            tracer.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.json")
            own = {i for i, (call, _) in enumerate(results) if not call.malformed}
            values = tracer.metrics(own, "probe")
            units = {k: "count" if k == "farey.developed_triangles" else "s" for k in values}
            # share by which tracing slows an operation, from relative times
            values["trace.overhead_share"] = traced.rel_mean / plain.rel_mean - 1
            units["trace.overhead_share"] = "ratio"
        else:
            values = {
                "setup_s": statistics.median(setups),
                "op_rel_mean": plain.rel_mean,
                "peak_rss_mb": peak_rss_mb,
            }
            units = {"setup_s": "s", "op_rel_mean": "ratio", "peak_rss_mb": "MB"}
            # wall-clock figures follow the shared host's speed too closely
            # to carry a bound; they are shown for information
            print(
                f"op_p50_s {statistics.median(plain.seconds):.6g}, "
                f"ops_per_s {(attempted - failures) / busy:.6g}",
                file=sys.stderr,
            )

        problems = wl.check(kept)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failures,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
