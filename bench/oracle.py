"""Independent reference computations for the benchmark's output checks.

Nothing here imports ``belyi``: the seed stream, the sampler, the face
tracer and the division are re-derived from their definitions so that
the benchmark can check the program's outputs against them.

A graph of size ``n`` has ``6n`` darts; dart ``d`` sits at vertex
``d // 3`` and the rotation at a vertex is ``3v -> 3v+1 -> 3v+2 -> 3v``.
Faces are the orbits of ``rotation o matching``.
"""

from __future__ import annotations

import hashlib
import math
import random

# The mixed-triangle share |boundary| / 2n and h_upper fluctuate around
# their predicted values with standard deviations close to these
# constants over sqrt(n), measured on 2000, 200 and 12 surfaces at
# n = 1e3, 1e4 and 1e5 (0.44 and 0.28-0.29 at every n).  The share's is
# about 1.45 times the binomial value sqrt(3/32) = 0.306, because the
# darts of one face are labelled in a single run.
SHARE_SD_SQRT_N = 0.45
H_SD_SQRT_N = 0.30
Z_MAX = 6.0
H_PAPER = 2.0 / 3.0


def derive_seed(*parts: object) -> int:
    """The program's per-trial seed stream: blake2b-64 of the parts joined by '/'."""
    text = "/".join(str(p) for p in parts)
    return int.from_bytes(hashlib.blake2b(text.encode("ascii"), digest_size=8).digest(), "big")


def matching(n: int, seed: int) -> list[int]:
    """Uniform pairing of 6n darts: shuffle range(6n) with Random(seed), pair neighbours."""
    darts = list(range(6 * n))
    random.Random(seed).shuffle(darts)
    alpha = [0] * (6 * n)
    for a, b in zip(darts[0::2], darts[1::2]):
        alpha[a] = b
        alpha[b] = a
    return alpha


def graph_json(n: int, alpha: list[int]) -> dict:
    """Graph interchange dict: pairs (low, high) in increasing order of the low dart."""
    return {"n": n, "matching": [[d, e] for d, e in enumerate(alpha) if d < e]}


def involution_problem(alpha: list[int], n: int) -> str | None:
    """Why ``alpha`` is not a fixed-point-free involution on [0, 6n), or None."""
    total = 6 * n
    if len(alpha) != total:
        return f"matching has {len(alpha)} darts, expected {total}"
    for d, e in enumerate(alpha):
        if type(e) is not int or not 0 <= e < total:
            return f"dart {d} is paired with {e!r}, outside [0, 6n)"
        if e == d:
            return f"dart {d} is paired with itself"
        if alpha[e] != d:
            return f"dart {d} -> {e} -> {alpha[e]} is not an involution"
    return None


def trace_faces(alpha: list[int]) -> list[list[int]]:
    """Orbits of rotation o matching, each in walk order from its smallest dart."""
    seen = bytearray(len(alpha))
    cycles = []
    for start in range(len(alpha)):
        if seen[start]:
            continue
        cycle = []
        d = start
        while not seen[d]:
            seen[d] = 1
            cycle.append(d)
            e = alpha[d]
            d = e + 1 if e % 3 != 2 else e - 2
        cycles.append(cycle)
    return cycles


def connected(alpha: list[int]) -> bool:
    """Whether the cubic graph is connected (breadth-first search over vertices)."""
    num_vertices = len(alpha) // 3
    seen = bytearray(num_vertices)
    seen[0] = 1
    frontier = [0]
    reached = 1
    while frontier:
        v = frontier.pop()
        for d in (3 * v, 3 * v + 1, 3 * v + 2):
            w = alpha[d] // 3
            if not seen[w]:
                seen[w] = 1
                reached += 1
                frontier.append(w)
    return reached == num_vertices


def division(n: int, cycles: list[list[int]]) -> dict:
    """The majority-rule division of a connected surface, from its face cycles.

    Faces of degree d > n / (log n)^2 are cut at k = d // 2 segments by a
    curve at height y = n d of length 2 log y + k / y; the first k darts
    of such a face are A, every other dart is B, and each triangle
    (vertex) takes its majority label.  Returns None when no face is
    large enough to cut.
    """
    threshold = n / math.log(n) ** 2
    large = [c for c in cycles if len(c) > threshold]
    if not large:
        return None
    side_a = bytearray(6 * n)
    etas = []
    side1 = []
    for c in large:
        d = len(c)
        k = d // 2
        y = float(n * d)
        etas.append(2.0 * math.log(y) + k / y)
        side1.append(k * (1.0 - 1.0 / y))
        for dart in c[:k]:
            side_a[dart] = 1
    mixed = 0
    a_triangles = 0
    for v in range(2 * n):
        votes = side_a[3 * v] + side_a[3 * v + 1] + side_a[3 * v + 2]
        mixed += votes in (1, 2)
        a_triangles += votes >= 2
    eta = math.fsum(etas)
    return {
        "num_i1": len(large),
        "mixed": mixed,
        "eta": eta,
        "boundary_length": mixed + eta,
        "area_a": math.fsum(side1) + (math.pi - 3.0) * a_triangles,
    }


def m_bound(l: int) -> int:
    """|s2| bound per cusp for integral l: 3 l (2^(floor(l/2) + 1) - 1)."""
    return 3 * l * (2 ** (l // 2 + 1) - 1)


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def surface_problems(n: int, alpha: list[int], out: dict) -> list[str]:
    """Compare one surface's reported figures with the oracle.

    ``out`` holds the program's figures under these keys: ``status``
    ("ok", "disconnected" or "empty_i1"), ``lht``, ``genus`` and, when
    ok, ``num_i1``, ``boundary_length``, ``area_a``, ``area_b``,
    ``h_upper``; ``degrees`` (sorted) and ``mixed`` (the boundary
    segment count) are compared when present.
    """
    problems = []
    why = involution_problem(alpha, n)
    if why:
        return [f"oracle matching: {why}"]
    cycles = trace_faces(alpha)
    if out["lht"] != len(cycles):
        problems.append(f"face count {out['lht']} != traced {len(cycles)}")
    if "degrees" in out and out["degrees"] != sorted(len(c) for c in cycles):
        problems.append("sorted face degrees differ from the traced orbits")
    is_connected = connected(alpha)
    div = division(n, cycles) if is_connected else None
    status = "disconnected" if not is_connected else ("empty_i1" if div is None else "ok")
    if out["status"] != status:
        return problems + [f"status {out['status']} != {status}"]
    if is_connected and out["genus"] != 1 + (n - len(cycles)) // 2:
        problems.append(f"genus {out['genus']} breaks Euler's formula with {len(cycles)} faces")
    if status != "ok":
        return problems
    if out["num_i1"] != div["num_i1"]:
        problems.append(f"num_i1 {out['num_i1']} != {div['num_i1']}")
    if "mixed" in out and out["mixed"] != div["mixed"]:
        problems.append(f"boundary segments {out['mixed']} != {div['mixed']}")
    if not close(out["boundary_length"], div["boundary_length"], 1e-12):
        problems.append(f"boundary length {out['boundary_length']} != {div['boundary_length']}")
    if not close(out["area_a"], div["area_a"]):
        problems.append(f"area_a {out['area_a']} != {div['area_a']}")
    h = (div["mixed"] + div["eta"]) / min(out["area_a"], out["area_b"])
    if not close(out["h_upper"], h, 1e-12):
        problems.append(f"h_upper {out['h_upper']} != recomputed {h}")
    share = div["mixed"] / (2 * n)
    if abs(share - 0.75) > Z_MAX * SHARE_SD_SQRT_N / math.sqrt(n):
        problems.append(f"mixed-triangle share {share:.5f} is far from 3/4")
    predicted = 3.0 / (2.0 * math.pi) + div["eta"] / (math.pi * n)
    if abs(out["h_upper"] - predicted) > Z_MAX * H_SD_SQRT_N / math.sqrt(n):
        problems.append(f"h_upper {out['h_upper']:.5f} is far from predicted {predicted:.5f}")
    return problems


def identity_problems(n: int, out: dict) -> list[str]:
    """Checks that need no oracle: degree sum, Euler, area, h_upper < 2/3."""
    problems = []
    if "sum_degrees" in out and out["sum_degrees"] != 6 * n:
        problems.append(f"degree sum {out['sum_degrees']} != 6n")
    if out["status"] != "disconnected":
        if out["genus"] is None or 2 - 2 * out["genus"] != out["lht"] - n:
            problems.append(f"Euler identity fails: genus {out['genus']}, {out['lht']} faces")
    if out["status"] == "ok":
        if not close(out["area_a"] + out["area_b"], 2.0 * math.pi * n, 1e-12):
            problems.append("area_a + area_b != 2 pi n")
        if not close(out["h_upper"], out["boundary_length"] / min(out["area_a"], out["area_b"]), 1e-12):
            problems.append("h_upper != boundary length / min(area)")
        if not out["h_upper"] < H_PAPER:
            problems.append(f"h_upper {out['h_upper']} is not below 2/3")
    return problems
