"""Seeded Monte Carlo harness over the sampling + cut pipeline.

Each trial samples a graph from a per-trial derived seed, runs the full
pipeline, checks the exact identities that must hold on every sample
(``cheeger.invariant_failures``), and emits one flat record.  Failed
trials (disconnected sample, no large cusp) are recorded with a status
instead of being resampled, so measured fractions stay interpretable
against the sampling measure.
Reruns with the same inputs reproduce every field except the wall
time, whether the trials run in this process or in a pool of workers.
"""

from __future__ import annotations

import csv
import os
import statistics
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .cheeger import EmptyI1, cheeger_upper_bound, invariant_failures
from .farey import _capped_l, classify_segments
from .ribbon import BrokenInvariant, _check_n, derive_seed, faces, sample

__all__ = [
    "SCHEMA_VERSION",
    "H_THRESHOLD",
    "CSV_COLUMNS",
    "TrialRecord",
    "SummaryStats",
    "run_trial",
    "pool_plan",
    "run_grid",
    "write_csv",
    "summarize",
]

SCHEMA_VERSION = 1

# the paper's bound 2/3 + epsilon at epsilon = 0.05
H_THRESHOLD = 2.0 / 3.0 + 0.05

@dataclass(frozen=True)
class TrialRecord:
    """One pipeline run, flattened for CSV output.

    A CSV row is ``SCHEMA_VERSION``, then the fields in order.  The
    header (``CSV_COLUMNS``) names each field by its
    ``metadata["column"]`` where set, else by the field name.
    """

    n: int
    seed: int
    trial_index: int = field(metadata={"column": "trial"})
    status: str  # ok | disconnected | empty_i1
    lht: int
    genus: int | None
    connected: bool
    min_degree: int = field(metadata={"column": "min_d"})
    max_degree: int = field(metadata={"column": "max_d"})
    sum_degrees: int = field(metadata={"column": "sum_d"})
    num_i1: int | None
    boundary_length: float | None = field(metadata={"column": "boundary_len"})
    area_a: float | None
    area_b: float | None
    h_upper: float | None
    s2_size: int | None
    wall_time_ms: int

    def csv_row(self) -> list[str]:
        def fmt(x) -> str:
            if x is None:
                return ""
            if isinstance(x, bool):
                return "1" if x else "0"
            if isinstance(x, float):
                return repr(x)
            return str(x)

        return [fmt(SCHEMA_VERSION)] + [fmt(getattr(self, f.name)) for f in fields(self)]


CSV_COLUMNS = ["schema_version"] + [f.metadata.get("column", f.name) for f in fields(TrialRecord)]


@dataclass(frozen=True)
class SummaryStats:
    """Per-grid-point aggregate of trial records."""

    n: int
    trials: int
    usable: int
    excluded: int
    mean_lht: float
    var_lht: float
    h_threshold: float
    fraction_h_below: float | None


def run_trial(
    n: int,
    seed: int,
    trial_index: int,
    s2_l: float | None = None,
) -> TrialRecord:
    """Sample, trace faces, run the cut pipeline, and flatten the result;
    raise ``BrokenInvariant``, naming n and seed, if an identity fails."""
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if s2_l is not None:
        _capped_l(s2_l)  # checked on every seed, not only where the draw is connected
    t0 = time.perf_counter()
    g = sample(n, seed)
    fd = faces(g)
    status = "ok" if fd.connected else "disconnected"
    division = None
    s2_size = None
    if fd.connected:
        try:
            division = cheeger_upper_bound(g, fd, n)
            if s2_l is not None:
                s2_size = len(classify_segments(g, fd, division.i1, s2_l))
        except EmptyI1:
            status = "empty_i1"
    wall_ms = int(round((time.perf_counter() - t0) * 1000))
    failures = invariant_failures(g, fd, division)
    if failures:
        raise BrokenInvariant(f"n={n}, seed={seed}: {failures[0]}")
    return TrialRecord(
        n=n,
        seed=seed,
        trial_index=trial_index,
        status=status,
        lht=fd.lht,
        genus=fd.genus,
        connected=fd.connected,
        min_degree=fd.min_degree,
        max_degree=fd.max_degree,
        sum_degrees=fd.sum_degrees,
        # an empty I1 is a count of 0; a disconnected surface has none
        num_i1=division.num_i1 if division else (0 if status == "empty_i1" else None),
        boundary_length=division.boundary_length if division else None,
        area_a=division.area_a if division else None,
        area_b=division.area_b if division else None,
        h_upper=division.h_upper if division else None,
        s2_size=s2_size,
        wall_time_ms=wall_ms,
    )


def _trial_args(args: tuple) -> TrialRecord:
    return run_trial(*args)


def pool_plan(workers: int | None, num_jobs: int) -> tuple[int, int]:
    """(worker processes, chunk size) for ``num_jobs`` trials.

    ``None`` asks for one worker per CPU this process may run on.  The
    count is capped at the job count, since a pool may start all its
    workers at once; one worker means the serial in-process loop.  The
    chunk size gives each worker about four chunks, so no worker idles
    while another holds the whole grid.
    """
    if workers is None:
        if hasattr(os, "sched_getaffinity"):
            workers = len(os.sched_getaffinity(0))
        else:
            workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    workers = max(1, min(workers, num_jobs))
    return workers, max(1, num_jobs // (4 * workers))


def _map_jobs(fn: Callable, jobs: Sequence, workers: int | None) -> Iterator:
    """``fn(job)`` for each job, yielded in job order.

    Plans at the call, so a worker count below 1 raises before any job
    runs, and runs the jobs as the result is iterated: in this process
    when ``pool_plan(workers, len(jobs))`` gives one worker, else in a
    pool that ends once the last result is read.  ``fn`` must be a
    module-level function, so that it can be sent to the workers.
    """
    workers, chunksize = pool_plan(workers, len(jobs))
    if workers == 1:
        return map(fn, jobs)
    return _pool_map(fn, jobs, workers, chunksize)


def _pool_map(fn: Callable, jobs: Sequence, workers: int, chunksize: int) -> Iterator:
    # imported here, so that serial paths skip loading the pool's modules
    # (multiprocessing, pickle, socket, logging), a large share of start-up
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, jobs, chunksize=chunksize)


def run_grid(
    n_values: Sequence[int],
    trials: int,
    base_seed: int,
    out_path: str | Path | None = None,
    s2_l: float | None = None,
    workers: int | None = None,
) -> list[TrialRecord]:
    """One record per (n, trial), with per-trial derived seeds.

    Trials run in a pool of ``pool_plan(workers, ...)`` processes, by
    default one per available CPU; the pool ends before this returns.
    Rows are ordered by (n, trial_index) regardless of completion
    order; with ``out_path`` they are also written as CSV.  Identical
    inputs reproduce identical records except for the wall time, for
    any number of workers.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    for i, n in enumerate(n_values):
        _check_n(n)  # an int in [1, MAX_N], before any trial runs or the directory is made
        if n < 3:
            raise ValueError(f"grid n values must be >= 3, got {n}")
        if n in n_values[:i]:
            raise ValueError(f"grid n values must be distinct, got {n} twice")
    if s2_l is not None:
        _capped_l(s2_l)  # the footprints' level cap, checked before any trial runs
    jobs = [
        (n, derive_seed(base_seed, n, t), t, s2_l)
        for n in n_values
        for t in range(trials)
    ]
    results = _map_jobs(_trial_args, jobs, workers)
    if out_path is not None:
        # fail before the first trial, not after the last
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    records = list(results)
    if out_path is not None:
        write_csv(records, out_path)
    return records


def write_csv(records: Iterable[TrialRecord], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(rec.csv_row())


def summarize(records: Sequence[TrialRecord], n: int) -> SummaryStats:
    """Aggregate of the rows at ``n``; ``fraction_h_below`` is the share
    of the usable rows, those with an ``h_upper``, below ``H_THRESHOLD``,
    and is None without one."""
    rows = [rec for rec in records if rec.n == n]
    if not rows:
        raise ValueError(f"no records at n={n}")
    usable = [rec for rec in rows if rec.h_upper is not None]
    lhts = [rec.lht for rec in rows]
    fraction = (
        sum(rec.h_upper < H_THRESHOLD for rec in usable) / len(usable) if usable else None
    )
    return SummaryStats(
        n=n,
        trials=len(rows),
        usable=len(usable),
        excluded=len(rows) - len(usable),
        mean_lht=statistics.fmean(lhts),
        var_lht=float(statistics.pvariance(lhts)),
        h_threshold=H_THRESHOLD,
        fraction_h_below=fraction,
    )
