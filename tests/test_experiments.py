from __future__ import annotations

import csv
import dataclasses
import hashlib
import math
import multiprocessing
import os
import re
import subprocess
import sys

import pytest

from belyi import experiments
from belyi.cheeger import EmptyI1, in_f_star
from belyi.cli import main
from belyi.experiments import (
    CSV_COLUMNS,
    TrialRecord,
    pool_plan,
    run_grid,
    run_trial,
    summarize,
    write_csv,
)
from belyi.ribbon import MAX_N, BrokenInvariant, FaceDecomposition, faces, sample


def read_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def strip_timing(path) -> str:
    """CSV text with the wall-time column removed, for byte comparison."""
    rows = read_rows(path)
    idx = rows[0].index("wall_time_ms")
    return "\n".join(",".join(r[:idx] + r[idx + 1 :]) for r in rows)


def synthetic_record(n, lht, min_degree=3, h=0.5):
    return TrialRecord(
        n=n,
        seed=0,
        trial_index=0,
        status="ok",
        lht=lht,
        genus=None,
        connected=False,
        min_degree=min_degree,
        max_degree=6 * n,
        sum_degrees=6 * n,
        num_i1=1,
        boundary_length=1.0,
        area_a=1.0,
        area_b=1.0,
        h_upper=h,
        s2_size=None,
        wall_time_ms=0,
    )


class TestRunTrial:
    def test_ok_row(self):
        rec = run_trial(10, 12345, 0)
        assert rec.status == "ok"
        assert rec.sum_degrees == 60
        assert rec.h_upper is not None and rec.h_upper > 0
        assert rec.area_a + rec.area_b == pytest.approx(20 * math.pi, abs=1e-9)

    def test_s2_recorded_when_requested(self):
        rec = run_trial(100, 7, 0, s2_l=4)
        if rec.status == "ok":
            assert rec.s2_size is not None
        assert run_trial(100, 7, 0).s2_size is None

    def test_n_below_three_rejected_on_every_seed(self):
        # seed 2 samples a disconnected surface, which would otherwise make a record
        for seed in range(8):
            with pytest.raises(ValueError, match=r"^n must be >= 3, got 2$"):
                run_trial(2, seed, 0)

    def test_s2_l_checked_before_sampling(self):
        # seed 0 draws a disconnected surface at n = 3, where no footprint is developed
        assert run_trial(3, 0, 0).status == "disconnected"
        for seed in (0, 1):
            with pytest.raises(ValueError, match=r"exceeds cap"):
                run_trial(3, seed, 0, s2_l=1e12)

    def test_no_layer_rebuilds_every_face(self, monkeypatch):
        # the cut, the footprints and the F* test read the walk, face by face
        def rebuilt(fd):
            raise AssertionError("every face rebuilt")

        monkeypatch.setattr(FaceDecomposition, "faces", property(rebuilt))
        n = 10_000
        rec = run_trial(n, 5, 0, s2_l=4)
        assert rec.status == "ok" and rec.s2_size is not None
        assert isinstance(in_f_star(faces(sample(n, 5)), 2, 10, n), bool)
        assert main(["cheeger", "--n", "2000", "--seed", "1"]) == 0

    def test_broken_invariant_names_n_and_seed(self, monkeypatch):
        checked = []

        def failing(g, fd, division):
            checked.append(division)
            return ["degree sum 59 != 6n", "a second failure"]

        monkeypatch.setattr(experiments, "invariant_failures", failing)
        with pytest.raises(BrokenInvariant, match=r"^n=10, seed=12345: degree sum 59 != 6n$"):
            run_trial(10, 12345, 0)
        assert len(checked[0].minority) == 60  # the trial's division was checked

    @pytest.mark.parametrize(
        "error, status, num_i1, num_i1_cell",
        [(EmptyI1, "empty_i1", 0, "0"), (None, "disconnected", None, "")],
    )
    def test_stopped_trial_record(self, monkeypatch, error, status, num_i1, num_i1_cell):
        # an empty I1 is raised by the bound; a disconnected surface is read
        # from its faces (error None), and the bound is never called
        def stopped(g, fd, n):
            raise error("patched") if error else AssertionError("bound called")

        monkeypatch.setattr(experiments, "cheeger_upper_bound", stopped)
        if error is None:
            traced = experiments.faces
            monkeypatch.setattr(
                experiments,
                "faces",
                lambda g: dataclasses.replace(traced(g), genus=None),
            )
        rec = run_trial(10, 12345, 0, s2_l=4)
        assert rec.status == status
        assert rec.num_i1 == num_i1
        blank = ("boundary_length", "area_a", "area_b", "h_upper", "s2_size")
        assert [getattr(rec, name) for name in blank] == [None] * 5
        assert rec.sum_degrees == 60  # the graph's fields are still recorded
        row = dict(zip(CSV_COLUMNS, rec.csv_row()))
        assert row["status"] == status
        assert row["num_i1"] == num_i1_cell
        for column in ("boundary_len", "area_a", "area_b", "h_upper", "s2_size"):
            assert row[column] == ""


class TestRunGrid:
    def test_row_count_and_order(self, tmp_path):
        records = run_grid([10, 20], 3, 1, out_path=tmp_path / "out.csv")
        assert len(records) == 6
        assert [(r.n, r.trial_index) for r in records] == [
            (10, 0), (10, 1), (10, 2), (20, 0), (20, 1), (20, 2),
        ]
        rows = read_rows(tmp_path / "out.csv")
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == 7

    def test_rerun_byte_identical_outside_timing(self, tmp_path):
        run_grid([10], 3, 1, out_path=tmp_path / "a.csv")
        run_grid([10], 3, 1, out_path=tmp_path / "b.csv")
        assert strip_timing(tmp_path / "a.csv") == strip_timing(tmp_path / "b.csv")

    def test_every_row_has_exact_degree_sum(self, tmp_path):
        run_grid([10], 5, 2, out_path=tmp_path / "c.csv")
        rows = read_rows(tmp_path / "c.csv")
        sum_idx = CSV_COLUMNS.index("sum_d")
        for row in rows[1:]:
            assert int(row[sum_idx]) == 60

    def test_failed_trials_recorded_not_resampled(self):
        # base seed 0 at n=3 is known to include a disconnected draw
        records = run_grid([3], 20, 0)
        statuses = [r.status for r in records]
        assert "disconnected" in statuses
        assert len(records) == 20
        for rec in records:
            if rec.status == "disconnected":
                assert rec.h_upper is None
                assert rec.genus is None
                assert not rec.connected

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        # 24 jobs give each of two workers several chunks.  No sample this
        # small lacks a large cusp, so the patch turns the surfaces whose
        # dart 0 meets a multiple of 3 into empty_i1 rows; forked workers
        # inherit it.
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("only forked workers see a patched module")
        real = experiments.cheeger_upper_bound

        def patched(g, fd, n):
            if fd.connected and g.matching[0] % 3 == 0:
                raise EmptyI1("patched")
            return real(g, fd, n)

        monkeypatch.setattr(experiments, "cheeger_upper_bound", patched)
        grid = ([3, 4, 5, 6], 6, 0)
        serial = run_grid(*grid, out_path=tmp_path / "serial.csv", workers=1)
        assert {r.status for r in serial} == {"ok", "disconnected", "empty_i1"}
        strip = lambda r: {k: v for k, v in r.__dict__.items() if k != "wall_time_ms"}
        for workers in (None, 2):
            parallel = run_grid(*grid, out_path=tmp_path / "parallel.csv", workers=workers)
            assert [strip(r) for r in parallel] == [strip(r) for r in serial]
            assert strip_timing(tmp_path / "parallel.csv") == strip_timing(tmp_path / "serial.csv")

    def test_one_job_or_one_worker_runs_in_process(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        assert len(run_grid([10], 1, 0)) == 1
        assert len(run_grid([10], 5, 0, workers=1)) == 5

    def test_serial_paths_load_no_pool_modules(self):
        # a fresh interpreter, since this one may have loaded them already
        code = (
            "import sys\n"
            "from belyi.cli import main\n"
            "from belyi.experiments import run_grid\n"
            "assert main(['cheeger', '--n', '50', '--seed', '1']) == 0\n"
            "assert len(run_grid([10], 3, 0, workers=1)) == 3\n"
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_golden_fingerprint(self, tmp_path):
        # sha256 of the CSV without wall_time_ms; the grid includes one disconnected row
        records = run_grid([3, 100, 1000], 20, 5, s2_l=4, out_path=tmp_path / "g.csv")
        assert sum(r.status == "disconnected" for r in records) == 1
        digest = hashlib.sha256(strip_timing(tmp_path / "g.csv").encode()).hexdigest()
        assert digest == "283e8b2a161b5827ed3d8cdfd481dfeaf6ac5373c36a43cb3881d1c269ff1cfa"

    def test_validation(self, tmp_path):
        out_path = tmp_path / "d" / "trials.csv"
        for grid, workers in ((([2], 1, 0), 1), (([10], 0, 0), 1), (([10], 1, 0), 0)):
            with pytest.raises(ValueError):
                run_grid(*grid, out_path=out_path, workers=workers)
        assert not out_path.parent.exists()  # rejected inputs make no directory

    def test_repeated_n_rejected(self, tmp_path):
        out_path = tmp_path / "d" / "trials.csv"
        with pytest.raises(ValueError, match=r"^grid n values must be distinct, got 50 twice$"):
            run_grid([50, 10, 50], 2, 3, out_path=out_path, workers=1)
        assert not out_path.parent.exists()

    def test_unmakeable_directory_fails_before_first_trial(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "run_trial", lambda *args: calls.append(args))
        (tmp_path / "f").write_text("")
        with pytest.raises(OSError):
            run_grid([10], 2, 0, out_path=tmp_path / "f" / "trials.csv", workers=1)
        assert calls == []

    def test_n_above_max_fails_before_first_trial(self, tmp_path, monkeypatch):
        # 6n darts must fit uint32: an n above MAX_N is refused before the
        # trials at the smaller n run and before the directory is made
        calls = []
        monkeypatch.setattr(experiments, "run_trial", lambda *args: calls.append(args))
        out_path = tmp_path / "d" / "trials.csv"
        message = f"n must be <= {MAX_N}, so that 6n darts fit uint32, got 800000000"
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_grid([50, 800_000_000], 1, 0, out_path=out_path, workers=1)
        assert calls == []
        assert not out_path.parent.exists()

    @pytest.mark.parametrize("n", [1000.0, "1000"], ids=["float", "string"])
    def test_n_not_an_int_fails_before_first_trial(self, tmp_path, monkeypatch, n):
        calls = []
        monkeypatch.setattr(experiments, "run_trial", lambda *args: calls.append(args))
        out_path = tmp_path / "d" / "trials.csv"
        message = f"n must be an integer, got {n!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_grid([50, n], 1, 0, out_path=out_path, workers=1)
        assert calls == []
        assert not out_path.parent.exists()


class TestPoolPlan:
    """``pool_plan`` is pure: these cases start no process."""

    def test_default_is_the_available_cpus(self):
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count() or 1
        assert pool_plan(None, 1000)[0] == min(cpus, 1000)

    @pytest.mark.parametrize(
        "workers, jobs, plan",
        [
            (2, 50, (2, 6)),  # grid-sized: each worker gets several chunks
            (2, 2, (2, 1)),  # two large trials split across two workers
            (4, 3, (3, 1)),  # capped at the job count
            (8, 1, (1, 1)),  # one job runs in process
            (1, 50, (1, 12)),
            (3, 0, (1, 1)),
        ],
        ids=["2-50-plan0", "2-2-plan1", "4-3-plan2", "8-1-plan3", "1-50-plan4", "3-0-plan5"],
    )
    def test_count_and_chunk(self, workers, jobs, plan):
        assert pool_plan(workers, jobs) == plan

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_below_one(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            pool_plan(workers, 10)


class TestSummarize:
    def test_basic(self):
        failed = dataclasses.replace(
            synthetic_record(10, 5), status="empty_i1", num_i1=0, boundary_length=None,
            area_a=None, area_b=None, h_upper=None,
        )
        records = [synthetic_record(10, lht) for lht in (4, 6)] + [failed]
        stats = summarize(records, 10)
        assert stats.trials == 3
        assert stats.usable == 2
        assert stats.mean_lht == pytest.approx(5.0)
        # the fraction is over the usable rows: 2 of 2, not 2 of 3
        assert stats.fraction_h_below == 1.0

    def test_missing_n(self):
        with pytest.raises(ValueError, match=r"^no records at n=999$"):
            summarize([synthetic_record(10, 4)], 999)

    @pytest.mark.parametrize(
        "lhts, var",
        [((5,), 0.0), ((5, 5), 0.0), ((4, 6), 1.0)],
        ids=["lhts0-0.0", "lhts1-0.0", "lhts2-1.0"],
    )
    def test_var_lht_is_a_float(self, lhts, var):
        # pvariance of ints is an int when the variance is a whole number
        stats = summarize([synthetic_record(10, lht) for lht in lhts], 10)
        assert type(stats.var_lht) is float
        assert stats.var_lht == var


class TestWriteCsv:
    def test_schema_and_float_repr(self, tmp_path):
        rec = synthetic_record(10, 5, h=1 / 3)
        write_csv([rec], tmp_path / "x.csv")
        rows = read_rows(tmp_path / "x.csv")
        assert rows[0] == CSV_COLUMNS
        h_idx = CSV_COLUMNS.index("h_upper")
        assert rows[1][h_idx] == repr(1 / 3)
