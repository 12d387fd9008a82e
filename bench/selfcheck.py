"""Fast self-check of the benchmark's oracles and checks, on small n.

    python3 bench/selfcheck.py

The oracle must agree with the program where both are right (hand-made
surfaces, small samples) and the checks must flag outputs that are
wrong.  Takes a few seconds; exits 1 and names every disagreement.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import tempfile
from pathlib import Path

import oracle
import workloads
from run import import_belyi

failures: list[str] = []


def expect(ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def check_hand_cases() -> None:
    sphere = [3, 5, 4, 0, 2, 1]  # pairs (0,3) (1,5) (2,4): three faces, genus 0
    torus = [3, 4, 5, 0, 1, 2]  # pairs (0,3) (1,4) (2,5): one face of degree 6
    expect(sorted(map(len, oracle.trace_faces(sphere))) == [2, 2, 2], "theta sphere faces")
    expect(oracle.trace_faces(torus) == [[0, 4, 2, 3, 1, 5]], "theta torus face walk")
    expect(oracle.connected(torus), "theta graph is connected")
    two_thetas = [3, 5, 4, 0, 2, 1, 9, 11, 10, 6, 8, 7]
    expect(not oracle.connected(two_thetas), "two theta graphs are not connected")
    expect(oracle.m_bound(4) == 84, "m_bound(4) == 84")
    for broken, why in (
        ([1, 0, 2, 4, 3, 5], "a self-paired dart"),
        ([1, 2, 0, 4, 5, 3], "a non-involution"),
        ([6, 5, 4, 0, 2, 1], "a dart out of range"),
        ([3, 5.0, 4, 0, 2, 1], "a float dart"),
    ):
        expect(oracle.involution_problem(broken, 1) is not None, f"involution check misses {why}")


def check_against_program(b) -> None:
    for n in (1, 2, 3, 10, 57, 200):
        for seed in range(20):
            alpha = oracle.matching(n, seed)
            g = b.ribbon.sample(n, seed)
            expect(list(g.matching) == alpha, f"matching n={n} seed={seed}")
            expect(oracle.involution_problem(alpha, n) is None, f"involution n={n} seed={seed}")
            fd = b.ribbon.faces(g)
            cycles = oracle.trace_faces(alpha)
            expect([tuple(c) for c in cycles] == list(fd.faces), f"faces n={n} seed={seed}")
            expect(oracle.connected(alpha) == fd.connected, f"connected n={n} seed={seed}")
            if n < 3 or not fd.connected:
                continue
            div = oracle.division(n, cycles)
            try:
                d = b.cheeger.cheeger_upper_bound(g, fd, n)
            except b.cheeger.EmptyI1:
                expect(div is None, f"empty i1 n={n} seed={seed}")
                continue
            expect(div["mixed"] == len(d.boundary_segments), f"boundary count n={n} seed={seed}")
            expect(oracle.close(div["boundary_length"], d.boundary_length, 1e-12), f"length n={n} seed={seed}")
            expect(oracle.close(div["area_a"], d.area_a), f"area_a n={n} seed={seed}")
    for parts in ((7,), (20240809, "member", 3), (5, 1000, 49)):
        expect(oracle.derive_seed(*parts) == b.ribbon.derive_seed(*parts), f"derive_seed{parts}")
    expect(oracle.m_bound(4) == b.farey.m_bound(4), "m_bound(4) agrees with farey.m_bound")


def check_checks_flag_errors(b) -> None:
    n = 1000
    rec = b.experiments.run_trial(n, 11, 0)
    alpha = oracle.matching(n, 11)
    out = workloads.record_out(rec)
    out["degrees"] = sorted(b.ribbon.faces(b.ribbon.sample(n, 11)).degrees)
    expect(rec.status == "ok", "run_trial(1000, 11) is ok")
    expect(oracle.surface_problems(n, alpha, out) == [], "a correct record passes")
    expect(oracle.identity_problems(n, out) == [], "a correct record has its identities")
    for key, wrong in (
        ("h_upper", rec.h_upper * (1 + 1e-9)),
        ("boundary_length", rec.boundary_length + 1),
        ("area_a", rec.area_a + 1e-3),
        ("lht", rec.lht + 2),
        ("num_i1", rec.num_i1 + 1),
        ("status", "empty_i1"),
        ("degrees", out["degrees"][:-1] + [out["degrees"][-1] + 1]),
    ):
        flagged = oracle.surface_problems(n, alpha, dict(out, **{key: wrong}))
        expect(bool(flagged), f"surface check misses a wrong {key}")
    expect(bool(oracle.identity_problems(n, dict(out, area_b=out["area_b"] + 1))), "area sum unchecked")
    expect(bool(oracle.identity_problems(n, dict(out, genus=out["genus"] + 1))), "Euler unchecked")
    expect(bool(oracle.identity_problems(n, dict(out, h_upper=0.7, boundary_length=0.7 * min(out["area_a"], out["area_b"])))), "h_upper >= 2/3 unchecked")
    expect(bool(oracle.surface_problems(n, alpha, dict(out, mixed=0))), "boundary count unchecked")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        recs = b.experiments.run_grid([n], 3, 5, s2_l=4, out_path=path)
        expect(workloads.csv_problems(path, recs) == [], "CSV read back equals the records")
        changed = [recs[0], dataclasses.replace(recs[1], h_upper=0.5), recs[2]]
        expect(bool(workloads.csv_problems(path, changed)), "CSV check misses a changed field")


def check_workloads(b) -> None:
    """One round of every workload, at small n, passes its checks."""
    small = {"trial-1e5": 1000, "grid-1e3-s2": 1000, "ingest-json": 1000, "membership-1e4": 2000}
    for name, cls in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory() as tmp:
            wl = type(cls.__name__, (cls,), {"n": small[name]})(b, 3, Path(tmp))
            wl.setup()
            wl.prepare_reference()
            expect(len(wl.reference_alpha) == 6 * wl.n and wl.time_reference() > 0, f"{name}: reference work")
            results = [(call, call.fn()) for i in range(2) for call in wl.round(i)]
            bad = [call.label.name for call, out in results if workloads.failed(call, out)]
            kept = [(call, out) for call, out in results if not workloads.failed(call, out)]
            expect(wl.check(kept) == [], f"{name}: checks fail at n={small[name]}: {wl.check(kept)[:3]}")
            if name == "ingest-json":
                # the four inputs that today's from_json_dict mishandles, twice
                expected = ["true-dart.json", "float-dart.json", "string-dart.json", "fractional-n.json"]
                expect(bad == expected * 2, f"ingest-json: failed calls {bad}")
                g = b.ribbon.from_matching(4, wl.BASE)
                fd = b.ribbon.faces(g)
                expect(fd.connected and math.isfinite(b.cheeger.cheeger_upper_bound(g, fd, 4).h_upper),
                       "ingest-json: the malformed files' base graph runs through cheeger")
            else:
                expect(bad == [], f"{name}: failed calls {bad}")


def main() -> int:
    b = import_belyi()
    check_hand_cases()
    check_against_program(b)
    check_checks_flag_errors(b)
    check_workloads(b)
    for f in failures:
        print(f"FAIL {f}")
    print(f"selfcheck: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
