"""The three workloads as seeded lists of command-line jobs.

Each job is one `quadrics` invocation; the program sees only its argv.  The
seed drives the rational point draw and the order of the transport jobs;
the homogeneous and census job lists are fixed cells in a fixed order.
"""

import random
from fractions import Fraction

from answers import Arith, Pointed, point_count, quadric_points


class Job:
    """One command line plus what the checker needs to judge its report."""

    __slots__ = ("argv", "kind", "n", "ar", "point", "path")

    def __init__(self, argv, kind, n, ar, point=None, path=None):
        self.argv, self.kind, self.n, self.ar = argv, kind, n, ar
        self.point, self.path = point, path

    @property
    def key(self):
        return " ".join(self.argv)


def _cell_job(kind, n, spec):
    argv = ["count"] if kind == "count" else ["verify", kind]
    return Job(argv + ["--n", str(n), "--field", spec], kind, n, Arith(spec))


# (n, field) cells.  homogeneous: the paper's orbit-stabilizer check in the
# order that climbs to the (2,3) reflection closure of 51,840 matrices.
HOMOGENEOUS = [(1, "2"), (1, "3"), (1, "2^2"), (1, "5"), (1, "7"), (1, "3^2"),
               (2, "2"), (2, "3")]
# census: point counts, the idempotent sweep and the similitude BFS over
# prime and extension fields, with no group and no certificate.
CENSUS = ([("count", 2, "2^4"), ("count", 3, "5"), ("count", 2, "3^2")]
          + [("spin", 2, "7"), ("spin", 1, "2^4"), ("spin", 2, "5")]
          + [("similitude", 1, "2^2"), ("similitude", 1, "5"), ("similitude", 2, "3"),
             ("similitude", 1, "7")])
# transport: every point of these finite cells ...
TRANSPORT_FINITE = [(2, "2^2"), (2, "5"), (3, "3")]
# ... plus seeded rational points: (n, points drawn, how many of them on z = 1).
TRANSPORT_RATIONAL = [(1, 18, 2), (2, 18, 4)]

SMOKE = {
    "homogeneous": [(1, "2"), (1, "3")],
    "census": [("count", 1, "3"), ("spin", 1, "3"), ("similitude", 1, "3")],
    "transport_finite": [(1, "3")],
    "transport_rational": [(1, 2, 1), (2, 1, 0)],
}


def _transport_job(n, ar, w, space):
    point = tuple(ar.fmt(c) for c in w)
    argv = ["transport", "--n", str(n), "--field", ar.spec, "--point=" + ",".join(point)]
    return Job(argv, "transport", n, ar, point, space.expected_path(w))


def _rational(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def rational_points(rng, n, count, on_z1):
    """Distinct points of x.y = z(1 - z) over Q, none of them x_0; the first
    `on_z1` have z = 1 (case 2 of the transport), the rest have z != 1."""
    space = Pointed(Arith("Q"), n)
    points = []
    while len(points) < count:
        x = [_rational(rng) for _ in range(n - 1)]
        x.append(Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 4)))
        z = Fraction(1)
        while len(points) >= on_z1 and z == 1:
            z = _rational(rng)
        y = [_rational(rng) for _ in range(n - 1)]
        y.append((z * (1 - z) - sum(a * b for a, b in zip(x, y))) / x[-1])
        w = space.ambient(x, y, z)
        if w not in points:
            points.append(w)
    return points


def build(workload, seed, smoke=False):
    """The job list of one pass, and the (field spec, n, needs a GroupContext)
    cells its set-up builds."""
    if workload == "homogeneous":
        cells = SMOKE["homogeneous"] if smoke else HOMOGENEOUS
        jobs = [_cell_job("homogeneous", n, spec) for n, spec in cells]
        return jobs, [(spec, n, True) for n, spec in cells]
    if workload == "census":
        cells = SMOKE["census"] if smoke else CENSUS
        jobs = [_cell_job(kind, n, spec) for kind, n, spec in cells]
        return jobs, [(spec, n, False) for _, n, spec in cells]
    if workload != "transport":
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    jobs, cells = [], []
    for n, spec in SMOKE["transport_finite"] if smoke else TRANSPORT_FINITE:
        ar = Arith(spec)
        space = Pointed(ar, n)
        points = quadric_points(ar, n)
        if len(points) != point_count(n, ar.q):
            raise RuntimeError(f"enumerated {len(points)} points of Q_{2 * n} over {spec}")
        if smoke:
            points = rng.sample(points, 4)
        jobs += [_transport_job(n, ar, w, space) for w in points]
        cells.append((spec, n, True))
    for n, count, on_z1 in SMOKE["transport_rational"] if smoke else TRANSPORT_RATIONAL:
        ar = Arith("Q")
        space = Pointed(ar, n)
        jobs += [_transport_job(n, ar, w, space)
                 for w in rational_points(rng, n, count, on_z1)]
        cells.append(("Q", n, True))
    rng.shuffle(jobs)
    return jobs, cells
