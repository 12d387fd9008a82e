"""Command-line front end.

Subcommands: ``sample`` (graph JSON to stdout or a file), ``cheeger``
(division summary JSON), ``farey`` (subdivision counts and bounds),
``verify`` (invariant suites), and ``grid`` (Monte Carlo CSV runs).
The ``identities`` and ``division`` suites of ``verify`` run
``experiments.run_trial``, the same trial and checks as every grid
row, on surfaces from their own seed streams; ``farey`` checks the Farey
counts and bounds.
Exit codes: 0 ok, 1 invariant failure (a counterexample, so a bug),
2 usage or validation error (including a length that is not a
positive finite number, a worker or seed count below 1, or an empty
``--out``, rejected while parsing, and a length above 62, past the
Farey level cap), 3 no large cusp to cut.  ``main`` alone maps
errors to these codes.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import cheeger as cheeger_mod
from . import experiments, farey, ribbon

__all__ = ["main"]

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_EMPTY_I1 = 3


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "))


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _positive_finite(text: str) -> float:
    """argparse type for lengths: 0 < x < inf, so no nan."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _nonempty(text: str) -> str:
    """argparse type for ``--out``: "" names no file, and as a directory it is "."."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_USAGE


def _load_graph(source: str) -> ribbon.RibbonGraph:
    """The graph in ``source`` (stdin for ``-``), read with the cyclic collector paused:
    json's pair lists of ints form no cycle, yet would trigger 320 collections at n = 1e5."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        if source == "-":
            data = json.load(sys.stdin, cls=ribbon.GraphDecoder)
        else:
            with open(source) as fh:
                data = json.load(fh, cls=ribbon.GraphDecoder)
        g = ribbon.RibbonGraph.from_json_dict(data)
        del data  # free the text, or json's pair lists, before the collector resumes
    finally:
        if was_enabled:
            gc.enable()
    return g


def _cmd_sample(args) -> int:
    g = ribbon.sample(args.n, args.seed)
    fd = ribbon.faces(g)
    if args.out is None:
        g.write_json(sys.stdout)
    else:
        with open(args.out, "w") as fh:
            g.write_json(fh)
    print(
        f"lht={fd.lht} genus={fd.genus} connected={str(fd.connected).lower()} "
        f"degrees={sorted(fd.degrees)}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_cheeger(args) -> int:
    given = (args.graph is not None, args.n is not None, args.seed is not None)
    if given not in ((True, False, False), (False, True, True)):
        return _fail("either --graph or both --n and --seed are required")
    if args.graph is None:
        g = ribbon.sample(args.n, args.seed)
    else:
        try:
            g = _load_graph(args.graph)
        except (OSError, ValueError, RecursionError) as exc:  # json recurses per nesting level
            return _fail(f"cannot read graph: {exc}")
    fd = ribbon.faces(g)
    division = cheeger_mod.cheeger_upper_bound(g, fd, g.n)
    failures = cheeger_mod.invariant_failures(g, fd, division)
    if failures:
        raise ribbon.BrokenInvariant(failures[0])
    print(
        _dump_json(
            {
                "n": g.n,
                "seed": args.seed,  # None for --graph
                "lht": fd.lht,
                "genus": fd.genus,
                "num_i1": division.num_i1,
                "boundary_segments": division.minority.count(1),
                "boundary_length": division.boundary_length,
                "area_a": division.area_a,
                "area_b": division.area_b,
                "h_upper": division.h_upper,
                "y_factor": 1.0,  # a fixed key: every cut sits at y = n * d
            }
        )
    )
    return EXIT_OK


def _cmd_farey(args) -> int:
    count, bound = farey.count_intersecting(args.l), farey.n_bound(args.l)
    if count > bound:
        raise ribbon.BrokenInvariant(f"l={args.l}: count_intersecting {count} > n_bound {bound}")
    out = {
        "l": args.l,
        "count_intersecting": count,
        "n_bound": bound,
        "m_bound": farey.m_bound(args.l),
    }
    if args.level is not None:
        triangles = farey.enumerate_level(args.level)
        out["level"] = args.level
        out["triangles"] = [
            {
                "left": _frac_str(t.left),
                "apex": _frac_str(t.apex),
                "right": _frac_str(t.right),
            }
            for t in triangles
        ]
    print(_dump_json(out))
    return EXIT_OK


def _cmd_grid(args) -> int:
    try:
        n_values = [int(x) for x in args.n_list.split(",") if x]
    except ValueError:
        return _fail(f"cannot parse --n-list {args.n_list!r}")
    if not n_values:
        return _fail("--n-list needs integers >= 3")
    out_dir = Path(args.out)
    records = experiments.run_grid(
        n_values,
        args.trials,
        args.seed,
        out_path=out_dir / "trials.csv",
        s2_l=args.s2_l,
        workers=args.workers,
    )
    summary = [dataclasses.asdict(experiments.summarize(records, n)) for n in n_values]
    (out_dir / "summary.json").write_text(_dump_json(summary) + "\n")
    print(f"wrote {len(records)} rows to {out_dir / 'trials.csv'}")
    return EXIT_OK


def _check(ok: bool, message: str, failures: list[str]) -> None:
    if not ok:
        failures.append(message)


def _suite_sampled(label: str, args) -> list[str]:
    """``experiments.run_trial`` on surfaces sampled from the ``label`` seed stream."""
    for k in range(args.seeds):
        seed = ribbon.derive_seed(0, label, k)
        try:
            experiments.run_trial(args.n, seed, k)
        except ribbon.BrokenInvariant as exc:
            return [str(exc)]
    return []


def _suite_farey() -> list[str]:
    failures: list[str] = []
    for m in range(1, 13):
        level = farey.enumerate_level(m)
        _check(len(level) == 2 ** (m - 1), f"level {m}: wrong size", failures)
        # each level-(m+1) triangle spans one gap of row m
        gap = max(t.right - t.left for t in farey.enumerate_level(m + 1))
        _check(gap <= Fraction(1, m + 1), f"row {m}: gap bound fails", failures)
    for l in range(1, 31):
        _check(
            farey.count_intersecting(l) <= farey.n_bound(l),
            f"l={l}: count exceeds bound",
            failures,
        )
    _check(farey.n_bound(4) == 7, "n_bound(4) != 7", failures)
    _check(farey.m_bound(4) == 84, "m_bound(4) != 84", failures)
    return failures


def _cmd_verify(args) -> int:
    if args.n < 3:
        return _fail(f"--n must be >= 3, got {args.n}")
    suites = ["identities", "farey", "division"] if args.suite == "all" else [args.suite]
    for name in suites:
        if name == "farey":
            failures = _suite_farey()
        else:
            failures = _suite_sampled(name, args)
        if failures:
            print(f"suite {name}: FAIL: {failures[0]}")
            return EXIT_INVARIANT
        print(f"suite {name}: ok")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="belyi",
        description="Random oriented cubic graphs, their cusped surfaces, and "
        "certified Cheeger-constant upper bounds.",
        epilog="CSV schema: " + ",".join(experiments.CSV_COLUMNS),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample a graph and print its JSON")
    p.add_argument("--n", type=int, required=True, help="size parameter (2n vertices)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--out", type=_nonempty, help="write the graph JSON to this file, not stdout")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("cheeger", help="run the cut pipeline and print the division JSON")
    p.add_argument("--n", type=int, help="size parameter (with --seed)")
    p.add_argument("--seed", type=int, help="sampling seed (with --n)")
    p.add_argument("--graph", help="graph JSON file, or - for stdin")
    p.set_defaults(func=_cmd_cheeger)

    p = sub.add_parser("farey", help="subdivision counts and bounds as JSON")
    p.add_argument("--l", type=_positive_finite, required=True, help="strip depth parameter")
    p.add_argument(
        "--level", type=int, choices=range(1, farey.LISTING_CAP + 1),
        metavar=f"{{1..{farey.LISTING_CAP}}}",
        help="also list the 2^(level-1) triangles of this level",
    )
    p.set_defaults(func=_cmd_farey)

    # exact option names, so that the removed --seed is not read as --seeds
    p = sub.add_parser("verify", help="run invariant suites", allow_abbrev=False)
    p.add_argument(
        "--suite",
        choices=["identities", "farey", "division", "all"],
        default="all",
    )
    p.add_argument("--seeds", type=_positive_int, default=100, help="number of sampled surfaces")
    p.add_argument("--n", type=int, default=100, help="size parameter for samples")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("grid", help="Monte Carlo grid, CSV + JSON summary")
    p.add_argument("--n-list", required=True, help="comma-separated n values")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--s2-l", type=_positive_finite, default=None, help="also record |s2| at this l")
    p.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="worker processes (default: one per CPU this process may use)",
    )
    p.add_argument("--out", type=_nonempty, required=True, help="output directory")
    p.set_defaults(func=_cmd_grid)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ribbon.BrokenInvariant as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except cheeger_mod.EmptyI1 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY_I1
    except (ValueError, OSError, RuntimeError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
