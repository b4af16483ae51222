"""Seeded generator of well-posed two-stage instances, as instance documents.

The documents are plain JSON-ready dicts in the format `instance_io` parses;
the benchmark serializes them and hands the package only the parsed result.
Coefficient ranges follow `bendercuts.randgen.random_instance` (H, A and c in
[-5, 5], an anchor x0 in [0, 3] and y0 in [-3, 3], b = H x0 + A y0 + [0, 3]).
Four extra properties make every draw well posed by construction:

* the master set is the box 0 <= x <= U, or a finite set of its integer points;
* recourse is complete: the last column of A is all -1, so A y <= r is
  feasible for every right-hand side r;
* recourse is bounded: d = -u'A for a random u > 0, so A y <= b - Hx implies
  d.y >= -u.(b - Hx);
* eta_lower_bound lies strictly below the minimum of -u.(b - Hx) over the box.

So every decomposition solve on a draw must end optimal at the undecomposed
optimum. Draws are never filtered: a draw that is not well posed is a bug here,
and the benchmark counts it as a failed op.
"""

from __future__ import annotations

import random
from typing import Iterator

LO, HI = -5, 5
BOX = 4


def instance_document(rng: random.Random, n: int, k: int, m: int,
                      finite_points: int = 0) -> dict:
    """One well-posed draw; finite_points > 0 gives a finite master set."""
    if k < 2:
        raise ValueError("complete recourse needs a column besides the all -1 one")
    H = [[rng.randint(LO, HI) for _ in range(n)] for _ in range(m)]
    A = [[rng.randint(LO, HI) for _ in range(k - 1)] + [-1] for _ in range(m)]
    x0 = [rng.randint(0, 3) for _ in range(n)]
    y0 = [rng.randint(-3, 3) for _ in range(k)]
    b = [sum(h * x for h, x in zip(H[i], x0)) + sum(a * y for a, y in zip(A[i], y0))
         + rng.randint(0, 3) for i in range(m)]
    c = [rng.randint(LO, HI) for _ in range(n)]
    u = [rng.randint(1, HI) for _ in range(m)]
    d = [-sum(u[i] * A[i][j] for i in range(m)) for j in range(k)]
    uH = [sum(u[i] * H[i][j] for i in range(m)) for j in range(n)]
    # min over the box of -u.(b - Hx) = -u.b + sum_j min(0, U (u'H)_j)
    floor = -sum(ui * bi for ui, bi in zip(u, b)) + sum(min(0, BOX * v) for v in uH)
    eta_lower_bound = floor - rng.randint(1, 5)
    if finite_points:
        points = {tuple(x0)}
        while len(points) < finite_points:
            points.add(tuple(rng.randint(0, BOX) for _ in range(n)))
        master = {"type": "finite", "points": [list(p) for p in sorted(points)]}
    else:
        unit = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        master = {"type": "polyhedron",
                  "G": unit + [[-v for v in row] for row in unit],
                  "g": [BOX] * n + [0] * n}
    return {"n": n, "k": k, "m": m, "c": c, "d": d, "H": H, "A": A, "b": b,
            "master": master, "eta_lower_bound": eta_lower_bound}


def instance_documents(seed: int, count: int, n: int, k: int, m: int,
                       finite_points: int = 0) -> Iterator[dict]:
    """The first `count` draws of the stream that `seed` starts, one at a time."""
    rng = random.Random(seed)
    for _ in range(count):
        yield instance_document(rng, n, k, m, finite_points)
