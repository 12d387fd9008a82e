from __future__ import annotations

import csv
import gc
import hashlib
import io
import json
import subprocess
import sys

import pytest

from belyi import cheeger, cli, cusps, experiments, farey, ribbon
from belyi.cli import main
from belyi.ribbon import derive_seed, sample


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSample:
    def test_writes_graph_json(self, capsys):
        code, out, err = run_cli(capsys, "sample", "--n", "1", "--seed", "42")
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 1
        assert len(data["matching"]) == 3
        assert err == "lht=1 genus=1 connected=true degrees=[6]\n"

    def test_stderr_line_of_a_disconnected_draw(self, capsys):
        # the draw that cheeger rejects as disconnected
        code, _, err = run_cli(capsys, "sample", "--n", "3", "--seed", "0")
        assert code == 0
        assert err == "lht=5 genus=None connected=false degrees=[1, 1, 1, 4, 11]\n"

    def test_invalid_n_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--n", "0")
        assert code == 2
        assert "error" in err

    def test_n_beyond_uint32_darts_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "sample", "--n", "800000000", "--seed", "1")
        assert (code, out) == (2, "")
        assert err == (
            "error: n must be <= 715827882, so that 6n darts fit uint32, got 800000000\n"
        )

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        code, out, _ = run_cli(capsys, "sample", "--n", "2", "--seed", "1", "--out", str(path))
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["n"] == 2

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "sample", "--n", "4", "--seed", "9")
        _, out2, _ = run_cli(capsys, "sample", "--n", "4", "--seed", "9")
        assert out1 == out2


class TestCheeger:
    def test_direct_run(self, capsys):
        code, out, _ = run_cli(capsys, "cheeger", "--n", "100", "--seed", "1")
        assert code == 0
        data = json.loads(out)
        assert set(data) == {
            "n", "seed", "lht", "genus", "num_i1", "boundary_segments",
            "boundary_length", "area_a", "area_b", "h_upper", "y_factor",
        }
        assert data["h_upper"] > 0

    def test_pipeline_consistency(self, capsys, tmp_path, monkeypatch):
        # n = 5, seed 3 is a known connected sample
        code, graph_json, _ = run_cli(capsys, "sample", "--n", "5", "--seed", "3")
        assert code == 0
        path = tmp_path / "g.json"
        path.write_text(graph_json)
        code, from_file, _ = run_cli(capsys, "cheeger", "--graph", str(path))
        assert code == 0
        code, direct, _ = run_cli(capsys, "cheeger", "--n", "5", "--seed", "3")
        assert code == 0
        a = json.loads(from_file)
        b = json.loads(direct)
        assert a["h_upper"] == b["h_upper"]
        assert a["boundary_length"] == b["boundary_length"]
        assert a["seed"] is None and b["seed"] == 3

    def test_graph_from_stdin(self, capsys, monkeypatch):
        code, graph_json, _ = run_cli(capsys, "sample", "--n", "5", "--seed", "3")
        monkeypatch.setattr("sys.stdin", io.StringIO(graph_json))
        code, out, _ = run_cli(capsys, "cheeger", "--graph", "-")
        assert code == 0
        assert json.loads(out)["n"] == 5

    def test_no_large_cusp_exits_3(self, capsys, tmp_path):
        # honeycomb torus: all 196 faces are hexagons, and at n=196 the
        # degree threshold exceeds 6, so there is nothing to cut
        m = 14
        n = m * m

        def vert(x, y, side):
            return 2 * ((x % m) * m + (y % m)) + side

        pairs = []
        for x in range(m):
            for y in range(m):
                a = vert(x, y, 0)
                for slot, b in enumerate(
                    [vert(x, y, 1), vert(x - 1, y, 1), vert(x, y - 1, 1)]
                ):
                    pairs.append([3 * a + slot, 3 * b + slot])
        path = tmp_path / "honeycomb.json"
        path.write_text(json.dumps({"n": n, "matching": pairs}))
        code, _, err = run_cli(capsys, "cheeger", "--graph", str(path))
        assert code == 3
        assert "error" in err

    def test_broken_invariant_exits_1_before_printing(self, capsys, monkeypatch):
        monkeypatch.setattr(cheeger, "invariant_failures", lambda g, fd, division: ["boom"])
        code, out, err = run_cli(capsys, "cheeger", "--n", "50", "--seed", "1")
        assert code == 1
        assert out == ""
        assert err == "error: boom\n"

    def test_n_below_threshold_domain_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "cheeger", "--n", "1", "--seed", "42")
        assert code == 2
        assert "error" in err

    def test_disconnected_graph_exits_2(self, capsys, tmp_path):
        # two disjoint copies of the two-vertex torus pattern
        path = tmp_path / "disc.json"
        path.write_text(
            json.dumps(
                {"n": 2, "matching": [[0, 3], [1, 4], [2, 5], [6, 9], [7, 10], [8, 11]]}
            )
        )
        code, _, err = run_cli(capsys, "cheeger", "--graph", str(path))
        assert code == 2
        assert err == "error: the graph is disconnected\n"

    @pytest.mark.parametrize(
        "n, first_pair",
        [
            (5, lambda b: [False, b]),
            (5, lambda b: [0.0, b]),
            (5, lambda b: ["0", b]),
            (5.0, lambda b: [0, b]),
            (5, lambda b: [0, b, b]),
        ],
        ids=["bool-dart", "float-dart", "string-dart", "float-n", "triple"],
    )
    def test_malformed_graph_exits_2(self, capsys, tmp_path, n, first_pair):
        # n = 5, seed 3 is a known connected sample whose cheeger run succeeds;
        # its first pair is (0, b)
        data = sample(5, 3).to_json_dict()
        data["n"] = n
        data["matching"][0] = first_pair(data["matching"][0][1])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "cheeger", "--graph", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "text, stdin",
        [
            ('{"matching": []}', False),
            ('{"n": 4}', False),
            (json.dumps([1, [[0, 3], [1, 4], [2, 5]]]), False),
            (json.dumps({"n": 1, "matching": [[0, 0], [1, 4], [2, 5]]}), False),
            ("not json", False),
            (None, False),
            ('{"n": 4}', True),
            ("[" * 200_000, False),  # json raises RecursionError
        ],
        ids=[
            "no-n", "no-matching", "list", "self-paired", "not-json", "missing-file",
            "no-matching-stdin", "deep-nesting",
        ],
    )
    def test_unreadable_graph_exits_2(self, capsys, tmp_path, monkeypatch, text, stdin):
        path = tmp_path / "g.json"
        if stdin:
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
        elif text is not None:
            path.write_text(text)
        code, out, err = run_cli(capsys, "cheeger", "--graph", "-" if stdin else str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read graph: ")

    def test_load_peak_memory_per_dart(self, peak_bytes, tmp_path):
        # the file's bytes and its text, about 8 bytes a dart each, while
        # they are decoded; then the text, the matching's array (4) and one
        # slice's pair lists.  A whole json.load holds a list and two ints
        # for every pair, 84 bytes a dart
        g = sample(10_000, derive_seed(71, "load"))
        path = tmp_path / "g.json"
        path.write_text(cli._dump_json(g.to_json_dict()) + "\n")  # as sample --out writes it
        peak, loaded = peak_bytes(cli._load_graph, str(path))
        assert loaded == g
        assert peak <= 24 * g.num_darts, peak / g.num_darts

    def test_neither_graph_nor_sample_exits_2(self, capsys):
        for argv in ((), ("--n", "10"), ("--seed", "1")):
            code, out, err = run_cli(capsys, "cheeger", *argv)
            assert code == 2
            assert out == ""
            assert err == "error: either --graph or both --n and --seed are required\n"

    def test_graph_with_n_or_seed_exits_2_before_reading(self, capsys, monkeypatch):
        # were the graph read, its own n would be printed and the given
        # --n and --seed ignored
        def no_read(source):
            raise AssertionError(f"{source} was read")

        monkeypatch.setattr(cli, "_load_graph", no_read)
        for extra in (("--n", "9", "--seed", "7"), ("--n", "9"), ("--seed", "7")):
            code, out, err = run_cli(capsys, "cheeger", "--graph", "g.json", *extra)
            assert code == 2
            assert out == ""
            assert err == "error: either --graph or both --n and --seed are required\n"

    def test_huge_n_short_matching_exits_2(self, capsys, tmp_path):
        # rejected on its pair count, before a 6n-entry list is allocated
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 10**15, "matching": []}))
        code, out, err = run_cli(capsys, "cheeger", "--graph", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "cheeger", "--n", "50", "--seed", "2")
        _, out2, _ = run_cli(capsys, "cheeger", "--n", "50", "--seed", "2")
        assert out1 == out2

    @pytest.mark.parametrize(
        "n, seed, digest",
        [
            (1000, 1, "184faecf271e6d0a619f9213f7fd2bbfa4b2570391ec0a558995071ad395cb3c"),
            (10000, 7, "94890e7c336c0f64ef481958d94d284a1b3520ff73d488ca68ee367960592938"),
            (100000, 2024, "30ee23fd373dcdffe566b6b159cefd6739fb938e63c1024d89296bcf85c628d3"),
        ],
    )
    def test_golden_stdout(self, capsys, n, seed, digest):
        # sha256 of the exact stdout bytes, trailing newline included;
        # at (100000, 2024) h_upper is 0.47852591019177376 over 149818 segments
        code, out, _ = run_cli(capsys, "cheeger", "--n", str(n), "--seed", str(seed))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_large_run(self, capsys):
        code, out, _ = run_cli(capsys, "cheeger", "--n", "100000", "--seed", "1")
        assert code == 0
        data = json.loads(out)
        assert 0 < data["h_upper"] < 1
        assert data["boundary_segments"] <= 2 * 100000


class TestCollectorPause:
    """``cheeger --graph`` and ``sample`` pause the cyclic collector while
    they parse or build the pair lists, and leave it as they found it."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        was_enabled = gc.isenabled()
        yield
        if was_enabled:
            gc.enable()
        else:
            gc.disable()

    def test_no_collection_while_loading(self, tmp_path):
        # 6000 pair lists, several gen-0 thresholds' worth with the collector on
        g = sample(2000, 1)
        path = tmp_path / "g.json"
        path.write_text(json.dumps(g.to_json_dict()))
        collections = []

        def hook(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        gc.enable()
        gc.collect()
        gc.callbacks.append(hook)
        try:
            loaded = cli._load_graph(str(path))
        finally:
            gc.callbacks.remove(hook)
        assert collections == []
        assert loaded == g

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "case, expected",
        [("valid", 0), ("true-dart", 2), ("missing", 2), ("broken", 1), ("no-cut", 3), ("sample", 0)],
    )
    def test_state_restored(self, capsys, tmp_path, monkeypatch, enabled, case, expected):
        # n = 5, seed 3 is a known connected sample whose cheeger run succeeds
        data = sample(5, 3).to_json_dict()
        if case == "true-dart":
            data["matching"][0] = [True, data["matching"][0][1]]
        if case == "broken":
            monkeypatch.setattr(cheeger, "invariant_failures", lambda g, fd, division: ["boom"])
        if case == "no-cut":

            def no_cut(*args):
                raise cheeger.EmptyI1("no large cusp")

            monkeypatch.setattr(cheeger, "cheeger_upper_bound", no_cut)
        path = tmp_path / "g.json"
        if case != "missing":
            path.write_text(json.dumps(data))
        argv = ("sample", "--n", "5", "--seed", "3", "--out", str(tmp_path / "out.json"))
        if case != "sample":
            argv = ("cheeger", "--graph", str(path))
        if enabled:
            gc.enable()
        else:
            gc.disable()
        code, _, _ = run_cli(capsys, *argv)
        assert code == expected
        assert gc.isenabled() is enabled


class TestFarey:
    def test_bound_seven(self, capsys):
        code, out, _ = run_cli(capsys, "farey", "--l", "4")
        assert code == 0
        data = json.loads(out)
        assert data["n_bound"] == 7
        assert data["m_bound"] == 84
        assert data["count_intersecting"] == 1

    def test_level_listing(self, capsys):
        code, out, _ = run_cli(capsys, "farey", "--l", "4", "--level", "2")
        assert code == 0
        data = json.loads(out)
        assert data["triangles"] == [
            {"left": "0/1", "apex": "1/3", "right": "1/2"},
            {"left": "1/2", "apex": "2/3", "right": "1/1"},
        ]

    def test_deepest_level_within_cap(self, capsys):
        # l = 62 needs subdivision level 30, the cap; l = 63 would need 31
        code, out, _ = run_cli(capsys, "farey", "--l", "62")
        assert code == 0
        assert json.loads(out)["count_intersecting"] == 89
        code, out, err = run_cli(capsys, "farey", "--l", "63")
        assert code == 2
        assert out == "" and "exceeds cap" in err
        # the cap is what keeps a huge l from the descent and from n_bound
        code, out, err = run_cli(capsys, "farey", "--l", "1e12")
        assert code == 2
        assert out == "" and "exceeds cap" in err

    @pytest.mark.parametrize("level", ["17", "30", "0"])
    def test_level_outside_listable_range_exits_2(self, capsys, level):
        # a listing holds 2^(level-1) triangles; 16 is the deepest accepted
        code, out, err = run_cli(capsys, "farey", "--l", "4", "--level", level)
        assert code == 2
        assert out == "" and "--level" in err

    def test_level_twelve_lists(self, capsys):
        code, out, _ = run_cli(capsys, "farey", "--l", "4", "--level", "12")
        assert code == 0
        assert len(json.loads(out)["triangles"]) == 2**11

    def test_count_above_bound_exits_1_before_printing(self, capsys, monkeypatch):
        monkeypatch.setattr(farey, "n_bound", lambda l: 0)
        code, out, err = run_cli(capsys, "farey", "--l", "4")
        assert code == 1
        assert out == ""
        assert err == "error: l=4.0: count_intersecting 1 > n_bound 0\n"

    def test_invalid_l(self, capsys):
        code, _, _ = run_cli(capsys, "farey", "--l", "0")
        assert code == 2

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "farey", "--l", "10")
        _, out2, _ = run_cli(capsys, "farey", "--l", "10")
        assert out1 == out2


class TestVerify:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--seeds", "25", "--n", "50")
        assert code == 0
        assert out.count("ok") == 3

    def test_identities_hundred_seeds(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "identities", "--seeds", "100", "--n", "100"
        )
        assert code == 0
        assert "suite identities: ok" in out

    def test_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--suite", "nope")
        assert code == 2

    def test_bad_seed_count_or_n_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--seeds", "0")
        assert code == 2
        assert out == "" and "--seeds: must be a positive integer, got '0'" in err
        code, out, err = run_cli(capsys, "verify", "--n", "2")
        assert code == 2
        assert out == "" and err == "error: --n must be >= 3, got 2\n"

    def test_broken_invariant_fails_suite(self, capsys, monkeypatch):
        monkeypatch.setattr(experiments, "invariant_failures", lambda g, fd, division: ["boom"])
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "identities", "--seeds", "1", "--n", "50"
        )
        assert code == 1
        seed = derive_seed(0, "identities", 0)
        assert out == f"suite identities: FAIL: n=50, seed={seed}: boom\n"

    def test_small_n_passes(self, capsys):
        # at n = 3 a cut's two sides can differ by more than 1 (odd degree)
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--seeds", "50", "--n", "3")
        assert code == 0
        assert out == "suite identities: ok\nsuite farey: ok\nsuite division: ok\n"


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("farey", "--l", "4", "--level", "3"),
            "0b64f70b05db4c15866a8b40e2840cad2ad1539ef330f773a25082e06ec1accf",
        ),
        (
            ("verify", "--suite", "all", "--seeds", "20", "--n", "50"),
            "d3968771d0c9f36a24a7096b6e1f6298c5efb52729a43e5fa5a9dbd9f47e9489",
        ),
    ],
    ids=["farey", "verify"],
)
def test_golden_stdout(capsys, argv, digest):
    # sha256 of the exact stdout bytes, trailing newline included; with
    # TestCheeger::test_golden_stdout, a run under python -O checks that
    # no output depends on the optimisation flag
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestGrid:
    def test_row_count(self, capsys, tmp_path):
        out_dir = tmp_path / "d"
        code, out, _ = run_cli(
            capsys, "grid", "--n-list", "10,20", "--trials", "10",
            "--seed", "5", "--out", str(out_dir),
        )
        assert code == 0
        with open(out_dir / "trials.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 21  # header + 20 data rows
        summary = json.loads((out_dir / "summary.json").read_text())
        assert [s["n"] for s in summary] == [10, 20]

    def test_rerun_identical_outside_timing(self, capsys, tmp_path):
        for name in ("a", "b"):
            run_cli(
                capsys, "grid", "--n-list", "10", "--trials", "5",
                "--seed", "3", "--out", str(tmp_path / name),
            )

        def stripped(p):
            with open(p / "trials.csv") as fh:
                rows = list(csv.reader(fh))
            idx = rows[0].index("wall_time_ms")
            return [r[:idx] + r[idx + 1 :] for r in rows]

        assert stripped(tmp_path / "a") == stripped(tmp_path / "b")
        assert (tmp_path / "a" / "summary.json").read_text() == (
            tmp_path / "b" / "summary.json"
        ).read_text()

    def test_default_workers_match_one_worker(self, capsys, tmp_path):
        for name, extra in (("default", ()), ("serial", ("--workers", "1"))):
            code, _, _ = run_cli(
                capsys, "grid", "--n-list", "50,200", "--trials", "8", "--seed", "3",
                *extra, "--out", str(tmp_path / name),
            )
            assert code == 0

        def without_last_column(p):
            with open(p / "trials.csv") as fh:
                return [r[:-1] for r in csv.reader(fh)]

        assert without_last_column(tmp_path / "default") == without_last_column(tmp_path / "serial")
        assert (tmp_path / "default" / "summary.json").read_bytes() == (
            tmp_path / "serial" / "summary.json"
        ).read_bytes()

    def test_n_above_max_exits_2_before_running(self, capsys, tmp_path):
        # 6n darts must fit uint32: the n = 50 trial does not run, and no
        # directory is made
        out_dir = tmp_path / "d"
        code, out, err = run_cli(
            capsys, "grid", "--n-list", "50,800000000", "--trials", "1", "--out", str(out_dir),
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: n must be <= 715827882, so that 6n darts fit uint32, got 800000000\n"
        )
        assert not out_dir.exists()

    def test_repeated_n_exits_2_before_running(self, capsys, tmp_path):
        out_dir = tmp_path / "d"
        code, out, err = run_cli(
            capsys, "grid", "--n-list", "50,50", "--trials", "1", "--out", str(out_dir),
        )
        assert code == 2
        assert out == ""
        assert err == "error: grid n values must be distinct, got 50 twice\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("workers", ["0", "-1", "x"])
    def test_bad_workers_exit_2_before_running(self, capsys, tmp_path, workers):
        out_dir = tmp_path / "d"
        code, out, err = run_cli(
            capsys, "grid", "--n-list", "10", "--trials", "1", "--workers", workers,
            "--out", str(out_dir),
        )
        assert code == 2
        assert out == ""
        assert "--workers" in err
        assert not out_dir.exists()

    def test_out_under_a_file_exits_2_before_running(self, capsys, tmp_path, monkeypatch):
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiments, "run_trial", no_trial)
        (tmp_path / "f").write_text("")
        code, out, err = run_cli(
            capsys, "grid", "--n-list", "100000", "--trials", "2", "--seed", "1",
            "--workers", "1", "--out", str(tmp_path / "f"),
        )
        assert code == 2
        assert out == "" and err.startswith("error: ")

    def test_golden_summary(self, capsys, tmp_path):
        # sha256 of summary.json on the grid of the golden CSV digest in test_experiments
        code, _, _ = run_cli(
            capsys, "grid", "--n-list", "3,100,1000", "--trials", "20", "--seed", "5",
            "--s2-l", "4", "--out", str(tmp_path),
        )
        assert code == 0
        digest = hashlib.sha256((tmp_path / "summary.json").read_bytes()).hexdigest()
        assert digest == "85626656a6c741cf27f075d6bb31a73a88349b19941e37e2a278ea054cbccf00"

    @pytest.mark.parametrize(
        "n_list, trials",
        [("2", "1"), ("10", "0"), (",", "1"), ("10,x", "1")],
        ids=["n-below-3", "zero-trials", "empty-list", "unparsable"],
    )
    def test_bad_n_list(self, capsys, tmp_path, n_list, trials):
        out_dir = tmp_path / "d"
        code, out, err = run_cli(
            capsys, "grid", "--n-list", n_list, "--trials", trials, "--out", str(out_dir)
        )
        assert code == 2
        assert out == "" and err.startswith("error: ")
        assert not out_dir.exists()

    @pytest.mark.parametrize("l", ["0", "-1", "inf", "nan"])
    def test_nonpositive_s2_l_exits_2_before_running(self, capsys, tmp_path, l):
        out_dir = tmp_path / "d"
        code, _, err = run_cli(
            capsys, "grid", "--n-list", "100000", "--trials", "2", "--s2-l", l,
            "--out", str(out_dir),
        )
        assert code == 2
        assert "--s2-l" in err
        assert not out_dir.exists()

    def test_s2_l_above_level_cap_exits_2_before_running(self, capsys, tmp_path):
        # l = 62 needs subdivision level 30, the cap; a larger l would make
        # every small cusp's horoball descent grow like l log l
        code, _, _ = run_cli(
            capsys, "grid", "--n-list", "50", "--trials", "1", "--s2-l", "62",
            "--workers", "1", "--out", str(tmp_path / "at-cap"),
        )
        assert code == 0
        out_dir = tmp_path / "d"
        code, out, err = run_cli(
            capsys, "grid", "--n-list", "1000", "--trials", "2", "--s2-l", "1e12",
            "--workers", "1", "--out", str(out_dir),
        )
        assert code == 2
        assert out == "" and "exceeds cap" in err
        assert not out_dir.exists()

    def test_broken_invariant_exits_1(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "invariant_failures", lambda g, fd, division: ["boom"])
        code, _, err = run_cli(
            capsys, "grid", "--n-list", "10", "--trials", "1", "--seed", "4", "--out", str(tmp_path)
        )
        assert code == 1
        assert "boom" in err and "n=10" in err


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("value", ["0", "-1", "inf", "nan"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--seeds"),
            ("grid", "--n-list", "10", "--trials", "1", "--out", "{out}", "--s2-l"),
            ("grid", "--n-list", "10", "--trials", "1", "--out", "{out}", "--workers"),
            ("farey", "--l"),
            # --threshold is an unknown option, so every value is refused
            # while parsing, before the output directory is made
            ("grid", "--n-list", "10", "--trials", "1", "--out", "{out}", "--threshold"),
        ],
        ids=["argv0", "argv1", "argv2", "argv3", "argv4"],
    )
    def test_rejected_while_parsing(self, capsys, tmp_path, argv, value):
        out_dir = tmp_path / "d"
        argv = [a.format(out=out_dir) for a in argv]
        code, out, err = run_cli(capsys, *argv, value)
        assert code == 2
        assert out == ""
        assert argv[-1] in err
        assert not out_dir.exists()


class TestRemovedOptions:
    @pytest.mark.parametrize(
        "argv",
        [
            ("cheeger", "--n", "1000", "--seed", "1"),
            ("verify", "--seeds", "1"),
            ("grid", "--n-list", "10", "--trials", "1", "--out", "{out}"),
        ],
        ids=["cheeger", "verify", "grid"],
    )
    def test_y_factor_rejected(self, capsys, tmp_path, argv):
        # every cut sits at y = n * d, and no option moves it: --y-factor
        # is an unknown argument at any value
        out_dir = tmp_path / "d"
        argv = [a.format(out=out_dir) for a in argv]
        code, out, err = run_cli(capsys, *argv, "--y-factor", "2")
        assert code == 2
        assert out == ""
        assert "--y-factor" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("grid", "--n-list", "10", "--trials", "1", "--out", "{out}", "--threshold", "0.7"),
            ("verify", "--seeds", "1", "--n", "10", "--seed", "1"),
        ],
        ids=["grid-threshold", "verify-seed"],
    )
    def test_option_without_caller_rejected(self, capsys, tmp_path, argv):
        # summary.json reports the share below the paper's 2/3 + 0.05, and
        # verify draws from fixed seed streams: each option is unknown
        out_dir = tmp_path / "d"
        argv = [a.format(out=out_dir) for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in err
        assert not out_dir.exists()

    def test_connected_rejected(self, capsys, tmp_path):
        # sample draws one uniform pairing per (n, seed) and never redraws
        # it: --connected is an unknown argument
        path = tmp_path / "g.json"
        code, out, err = run_cli(
            capsys, "sample", "--n", "3", "--seed", "0", "--connected", "--out", str(path)
        )
        assert code == 2
        assert out == ""
        assert "--connected" in err
        assert not path.exists()


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "belyi.cli", "farey", "--l", "4"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["n_bound"] == 7

    def test_help_mentions_schema(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "schema" in out or "CSV" in out


class TestModuleNames:
    @pytest.mark.parametrize("module", [ribbon, cusps, farey, cheeger, experiments, cli])
    def test_all_names_resolve(self, module):
        assert [name for name in module.__all__ if not hasattr(module, name)] == []

    def test_cheeger_loads_without_farey(self):
        # a fresh interpreter, since this one has loaded farey already
        code = "import sys, belyi.cheeger; print('belyi.farey' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"
