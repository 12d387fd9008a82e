"""The benchmark's four workloads.

Each workload builds its inputs from the benchmark seed in ``setup``,
hands the harness one round of timed calls at a time, and checks the
outputs of every call against ``oracle`` once timing is over.  Calls
look the program's functions up on their modules when they run, so the
tracer's rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle

ROUND_SEEDS = 4096  # more rounds than any run of at most 60 s reaches; reused cyclically beyond


@dataclass
class Call:
    fn: Callable[[], object]
    ops: int = 1  # operations the call performs; its time per operation is time / ops
    malformed: bool = False  # a small malformed CLI input, left out of op_rel_mean
    label: object = None  # what the check needs to know about the call


def ingest(b, path: Path) -> tuple[int, str, str]:
    """``belyi cheeger --graph path`` in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = b.cli.main(["cheeger", "--graph", str(path)])
        except Exception:
            # an exception that escapes main ends the real process with exit 1
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def failed(call: Call, out) -> bool:
    """A call on malformed input fails unless it is rejected cleanly:
    exit 2, an ``error:`` line on stderr, nothing on stdout."""
    if not call.malformed:
        return False
    code, stdout, stderr = out
    return not (code == 2 and stdout == "" and stderr.startswith("error:"))


def probe(b, n: int, seed: int, workdir: Path) -> None:
    """Call every traced layer once on one size-n surface, for the layers
    a workload's own operations never reach."""
    rec = b.experiments.run_trial(n, seed, 0)
    b.experiments.write_csv([rec], workdir / "probe.csv")
    g = b.ribbon.sample(n, seed)
    fd = b.ribbon.faces(g)
    b.farey.classify_segments(g, fd, b.cusps.partition_cusps(fd, n), 4)
    b.cusps.has_large_cusps(fd, 2)
    path = workdir / "probe.json"
    path.write_text(json.dumps(oracle.graph_json(n, oracle.matching(n, seed))))
    ingest(b, path)


def record_out(rec) -> dict:
    return {
        "status": rec.status,
        "lht": rec.lht,
        "genus": rec.genus,
        "sum_degrees": rec.sum_degrees,
        "num_i1": rec.num_i1,
        "boundary_length": rec.boundary_length,
        "area_a": rec.area_a,
        "area_b": rec.area_b,
        "h_upper": rec.h_upper,
    }


class Workload:
    name = ""
    n = 0
    reference_repeats = 1
    setups = 9  # set-ups timed per untraced run: the run's own and fresh interpreters

    def __init__(self, b, seed: int, workdir: Path):
        self.b = b
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        rng = random.Random(f"{self.name}/{self.seed}")
        self.round_seeds = [rng.getrandbits(63) for _ in range(ROUND_SEEDS)]

    def prepare_reference(self) -> None:
        """Build the reference surface; not part of the timed set-up."""
        self.reference_alpha = oracle.matching(self.n, self.round_seeds[0])

    def time_reference(self) -> float:
        """Seconds of the workload's reference work: the oracle's faces and
        division of one fixed surface of the workload's size, ``reference_repeats``
        times.  It does not touch belyi, so only the host changes its time."""
        t0 = time.perf_counter()
        for _ in range(self.reference_repeats):
            oracle.division(self.n, oracle.trace_faces(self.reference_alpha))
        return time.perf_counter() - t0

    def round_seed(self, i: int) -> int:
        return self.round_seeds[i % ROUND_SEEDS]

    def round(self, i: int) -> list[Call]:
        raise NotImplementedError

    def check(self, results: list[tuple[Call, object]]) -> list[str]:
        raise NotImplementedError

    def check_records(self, base: int, records, full: bool) -> list[str]:
        """Checks on the records of one ``run_grid`` call at a single n.

        Every record gets the seed-stream and identity checks; with
        ``full`` the sampler, faces and division are also compared with
        the oracle, which costs about two trials' time per record.
        """
        problems = []
        b = self.b
        for t, rec in enumerate(records):
            where = f"n={rec.n} seed={rec.seed}"
            if (rec.n, rec.trial_index) != (self.n, t):
                problems.append(f"{where}: record {t} is (n={rec.n}, trial {rec.trial_index})")
            if rec.seed != oracle.derive_seed(base, self.n, t):
                problems.append(f"{where}: seed is not derive_seed({base}, {self.n}, {t})")
            out = record_out(rec)
            problems += [f"{where}: {p}" for p in oracle.identity_problems(self.n, out)]
            if rec.connected != (rec.status != "disconnected"):
                problems.append(f"{where}: connected={rec.connected} with status {rec.status}")
            if not full:
                continue
            alpha = oracle.matching(self.n, rec.seed)
            g = b.ribbon.sample(self.n, rec.seed)
            if list(g.matching) != alpha:
                problems.append(f"{where}: sample() differs from the shuffle-and-pair matching")
            out["degrees"] = sorted(b.ribbon.faces(g).degrees)
            if (rec.min_degree, rec.max_degree) != (out["degrees"][0], out["degrees"][-1]):
                problems.append(f"{where}: min/max degree differ from faces()")
            problems += [f"{where}: {p}" for p in oracle.surface_problems(self.n, alpha, out)]
        return problems


class Trial(Workload):
    """One n = 1e5 trial per call, through ``run_grid`` without s2."""

    name = "trial-1e5"
    n = 100_000

    def round(self, i):
        base = self.round_seed(i)
        return [Call(lambda: self.b.experiments.run_grid([self.n], 1, base), label=base)]

    def check(self, results):
        problems = []
        for k, (call, records) in enumerate(results):
            if len(records) != 1:
                problems.append(f"run_grid returned {len(records)} records, expected 1")
            problems += self.check_records(call.label, records, full=k == 0)
        return problems


class Grid(Workload):
    """Fifty n = 1e3 trials per call with s2 at l = 4, written as CSV."""

    name = "grid-1e3-s2"
    n = 1000
    reference_repeats = 10
    trials = 50
    l = 4

    def round(self, i):
        base = self.round_seed(i)
        path = self.workdir / f"grid-{i}.csv"
        fn = lambda: self.b.experiments.run_grid([self.n], self.trials, base, s2_l=self.l, out_path=path)
        return [Call(fn, ops=self.trials, label=(base, path))]

    def check(self, results):
        problems = []
        for k, (call, records) in enumerate(results):
            base, path = call.label
            if len(records) != self.trials:
                problems.append(f"run_grid returned {len(records)} records, expected {self.trials}")
            problems += self.check_records(base, records, full=k == 0)
            for rec in records:
                if rec.status == "ok" and not rec.s2_size <= oracle.m_bound(self.l) * rec.lht:
                    problems.append(f"seed={rec.seed}: |s2| = {rec.s2_size} > m_bound(4) * lht")
            problems += csv_problems(path, records)
        return problems


# CSV column -> (TrialRecord attribute, parser); other columns are not compared.
CSV_FIELDS = {
    "n": ("n", int),
    "seed": ("seed", int),
    "trial": ("trial_index", int),
    "status": ("status", str),
    "lht": ("lht", int),
    "genus": ("genus", int),
    "connected": ("connected", lambda s: {"1": True, "0": False}[s]),
    "min_d": ("min_degree", int),
    "max_d": ("max_degree", int),
    "sum_d": ("sum_degrees", int),
    "num_i1": ("num_i1", int),
    "boundary_len": ("boundary_length", float),
    "area_a": ("area_a", float),
    "area_b": ("area_b", float),
    "h_upper": ("h_upper", float),
    "s2_size": ("s2_size", int),
}


def csv_problems(path: Path, records) -> list[str]:
    """The CSV read back must hold one row per record, in order, with equal fields."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(records):
        return [f"{path.name}: {len(rows)} rows for {len(records)} records"]
    missing = set(CSV_FIELDS) - set(rows[0]) if rows else set()
    if missing:
        return [f"{path.name}: columns {sorted(missing)} are missing"]
    problems = []
    for row, rec in zip(rows, records):
        for column, (attr, parse) in CSV_FIELDS.items():
            text = row[column]
            value = None if text == "" else parse(text)
            if value != getattr(rec, attr):
                problems.append(f"{path.name}: {column}={text!r} but the record has {getattr(rec, attr)!r}")
    return problems


class Ingest(Workload):
    """``belyi cheeger --graph FILE`` on an n = 1e5 graph file, then on five
    small malformed files, in every round."""

    name = "ingest-json"
    n = 100_000
    setups = 3  # each writes an n = 1e5 graph file, about 1.5 s

    # A connected n = 4 graph with one face of degree 21, so that its
    # cheeger run succeeds; each malformed file changes one thing in it.
    BASE = [[0, 14], [1, 8], [2, 20], [3, 19], [4, 10], [5, 18],
            [6, 11], [7, 17], [9, 23], [12, 13], [15, 16], [21, 22]]
    MALFORMED = {
        "duplicate-dart": lambda p: p[:1] + [[p[0][0], p[1][1]]] + p[2:],
        "true-dart": lambda p: p[:1] + [[True, p[1][1]]] + p[2:],
        "float-dart": lambda p: p[:1] + [[1.0, p[1][1]]] + p[2:],
        "string-dart": lambda p: p[:1] + [["1", p[1][1]]] + p[2:],
    }

    def setup(self):
        super().setup()
        self.alpha = oracle.matching(self.n, self.round_seeds[0])
        self.graph = self.workdir / "graph.json"
        self.graph.write_text(json.dumps(oracle.graph_json(self.n, self.alpha)))
        self.malformed = []
        for name, change in self.MALFORMED.items():
            path = self.workdir / f"{name}.json"
            path.write_text(json.dumps({"n": 4, "matching": change(self.BASE)}))
            self.malformed.append(path)
        path = self.workdir / "fractional-n.json"
        path.write_text(json.dumps({"n": 4.5, "matching": self.BASE}))
        self.malformed.append(path)

    def prepare_reference(self):
        self.reference_alpha = self.alpha

    def round(self, i):
        calls = [Call(lambda: ingest(self.b, self.graph), label=self.graph)]
        for path in self.malformed:
            calls.append(Call(lambda p=path: ingest(self.b, p), malformed=True, label=path))
        return calls

    def check(self, results):
        outputs = [out for call, out in results if call.label == self.graph]
        problems = []
        if any(out != outputs[0] for out in outputs):
            problems.append("repeated runs on the same graph file differ")
        code, stdout, stderr = outputs[0]
        if code != 0 or stderr:
            return problems + [f"exit {code} on a valid graph: {stderr.strip()}"]
        got = json.loads(stdout)
        out = {
            "status": "ok",
            "lht": got["lht"],
            "genus": got["genus"],
            "num_i1": got["num_i1"],
            "mixed": got["boundary_segments"],
            "boundary_length": got["boundary_length"],
            "area_a": got["area_a"],
            "area_b": got["area_b"],
            "h_upper": got["h_upper"],
        }
        if got["n"] != self.n:
            problems.append(f"n {got['n']} != {self.n}")
        problems += oracle.identity_problems(self.n, out)
        problems += oracle.surface_problems(self.n, self.alpha, out)
        return problems


class Membership(Workload):
    """One F* membership decision per call: sample, faces, in_f_star at l = 2, c = 10.
    A round is four calls, so that the reference work between rounds stays
    a small share of the run."""

    name = "membership-1e4"
    n = 10_000
    per_round = 4
    reference_repeats = 3
    l = 2
    c = 10
    floor = 0.7  # acceptance criterion 7
    full_checks = 5

    def round(self, i):
        b = self.b
        calls = []
        for seed in (self.round_seed(i * self.per_round + j) for j in range(self.per_round)):
            fn = lambda seed=seed: b.cheeger.in_f_star(b.ribbon.faces(b.ribbon.sample(self.n, seed)), self.l, self.c, self.n)
            calls.append(Call(fn, label=seed))
        return calls

    def check(self, results):
        problems = []
        decisions = [out for _, out in results]
        if any(type(d) is not bool for d in decisions):
            problems.append("in_f_star returned a non-bool")
        share = sum(decisions) / len(decisions)
        if share < self.floor:
            problems.append(f"F* membership {share:.3f} below the floor {self.floor}")
        for call, decision in results[: self.full_checks]:
            seed = call.label
            alpha = oracle.matching(self.n, seed)
            g = self.b.ribbon.sample(self.n, seed)
            if list(g.matching) != alpha:
                problems.append(f"seed={seed}: sample() differs from the shuffle-and-pair matching")
            degrees = sorted(len(c) for c in oracle.trace_faces(alpha))
            if sorted(self.b.ribbon.faces(g).degrees) != degrees:
                problems.append(f"seed={seed}: faces() degrees differ from the traced orbits")
            few_cusps = len(degrees) <= self.c * math.log(self.n)
            if decision and not few_cusps:
                problems.append(f"seed={seed}: in F* with {len(degrees)} > c log n cusps")
            if few_cusps and degrees[0] > self.l and not decision:
                problems.append(f"seed={seed}: min degree {degrees[0]} > l but not in F*")
        return problems


WORKLOADS = {w.name: w for w in (Trial, Grid, Ingest, Membership)}
