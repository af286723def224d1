"""Answers the benchmark checks every job against, computed without the
package: field arithmetic, quadric points, classical group orders, and a
re-verification of each transport certificate by applying its reflection
word to the base point.

Nothing here imports `quadrics`; the only shared convention is the input
syntax of the command line (field specs such as "5", "2^4", "Q", and element
strings such as "1+0*g+2*g^2" over an extension), which fixes the one
irreducible modulus each supported extension field is defined by.
"""

import json
from fractions import Fraction
from itertools import product

# The defining modulus of each extension field a workload uses, low degree first.
MODULI = {(2, 2): (1, 1, 1), (3, 2): (1, 0, 1), (2, 4): (1, 1, 0, 0, 1)}


class Arith:
    """Exact arithmetic in F_p (residues), GF(p^k) (coefficient tuples
    reduced by MODULI) or Q (Fractions), parsed from a command-line spec."""

    def __init__(self, spec):
        self.spec = spec
        if spec == "Q":
            self.p, self.k, self.q = 0, 1, None
            self.zero, self.one = Fraction(0), Fraction(1)
            return
        p, _, k = spec.partition("^")
        self.p, self.k = int(p), int(k or 1)
        self.q = self.p ** self.k
        if self.k == 1:
            self.zero, self.one = 0, 1
        else:
            self.modulus = MODULI[self.p, self.k]
            self.zero = (0,) * self.k
            self.one = (1,) + (0,) * (self.k - 1)
            self._inverses = {}

    def elements(self):
        if self.k == 1:
            return list(range(self.p))
        return [tuple(c) for c in product(range(self.p), repeat=self.k)]

    def add(self, a, b):
        if self.p == 0:
            return a + b
        if self.k == 1:
            return (a + b) % self.p
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        if self.p == 0:
            return -a
        if self.k == 1:
            return -a % self.p
        return tuple(-x % self.p for x in a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.p == 0:
            return a * b
        if self.k == 1:
            return a * b % self.p
        p, k, mod = self.p, self.k, self.modulus
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i] % p
            for j in range(k + 1):
                prod[i - k + j] -= c * mod[j]
        return tuple(c % p for c in prod[:k])

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        if self.p == 0:
            return 1 / a
        if self.k == 1:
            return pow(a, -1, self.p)
        if a not in self._inverses:
            self._inverses[a] = next(b for b in self.elements() if self.mul(a, b) == self.one)
        return self._inverses[a]

    def fmt(self, a):
        """The command line's string for an element."""
        if self.k == 1:
            return str(a)
        return "+".join(str(c) if i == 0 else f"{c}*g" if i == 1 else f"{c}*g^{i}"
                        for i, c in enumerate(a))

    def parse(self, text):
        if self.p == 0:
            return Fraction(text)
        if self.k == 1:
            return int(text) % self.p
        coeffs = [0] * self.k
        for term in text.split("+"):
            c, _, power = term.partition("*")
            coeffs[int(power.partition("^")[2] or 1) if power else 0] = int(c) % self.p
        return tuple(coeffs)


class Pointed:
    """The pointed even space F^(2n+2), q(w) = sum_{i<=n+1} w_i w_{n+1+i},
    with base point x_0 = e_{2n+2} and trace t(w) = w_{n+1} + w_{2n+2}."""

    def __init__(self, ar, n):
        self.ar, self.n, self.dim = ar, n, 2 * n + 2
        self.x0 = (ar.zero,) * (self.dim - 1) + (ar.one,)

    def q(self, w):
        ar, h = self.ar, self.n + 1
        total = ar.zero
        for i in range(h):
            total = ar.add(total, ar.mul(w[i], w[h + i]))
        return total

    def b(self, u, w):
        ar, h = self.ar, self.n + 1
        total = ar.zero
        for i in range(h):
            total = ar.add(total, ar.add(ar.mul(u[i], w[h + i]), ar.mul(u[h + i], w[i])))
        return total

    def trace(self, w):
        return self.ar.add(w[self.n], w[-1])

    def reflect(self, v, w):
        ar = self.ar
        c = ar.mul(self.b(v, w), ar.inv(self.q(v)))
        return tuple(ar.sub(wi, ar.mul(c, vi)) for wi, vi in zip(w, v))

    def sub(self, u, w):
        return tuple(self.ar.sub(a, b) for a, b in zip(u, w))

    def ambient(self, x, y, z):
        """w = (x, 1 - z, -y, z), the embedding of x.y = z(1 - z)."""
        ar = self.ar
        return tuple(x) + (ar.sub(ar.one, z),) + tuple(ar.neg(c) for c in y) + (z,)

    def expected_path(self, w):
        """identity at x_0; case1 when q(w - x_0) = z - 1 is invertible; else case2."""
        if w == self.x0:
            return "identity"
        return "case1" if self.q(self.sub(w, self.x0)) != self.ar.zero else "case2"


def quadric_points(ar, n):
    """Every point of Q_2n over a finite field, in ambient coordinates."""
    space = Pointed(ar, n)
    els = ar.elements()
    rhs = {z: ar.mul(z, ar.sub(ar.one, z)) for z in els}
    points = []
    for x in product(els, repeat=n):
        for y in product(els, repeat=n):
            xy = ar.zero
            for a, c in zip(x, y):
                xy = ar.add(xy, ar.mul(a, c))
            points += [space.ambient(x, y, z) for z in els if rhs[z] == xy]
    return points


# -- classical formulas ---------------------------------------------------------

def point_count(n, q):
    return q ** (2 * n) + q ** n


def open_cell_count(n, q):
    """Points with x_n != 0: A^(2n-1) x G_m."""
    return q ** (2 * n - 1) * (q - 1)


def so_odd_order(n, q):
    order = q ** (n * n)
    for i in range(1, n + 1):
        order *= q ** (2 * i) - 1
    return order


def so_even_order(n, q):
    order = q ** (n * (n - 1)) * (q ** n - 1)
    for i in range(1, n):
        order *= q ** (2 * i) - 1
    return order


def nonzero_norm_count(n, q):
    """Vectors of F^(2m), m = n + 1, with q(v) != 0 under the split form."""
    m = n + 1
    return (q - 1) * (q ** (2 * m - 1) - q ** (m - 1))


def similitude_orbit_size(n, q, p):
    """All nonzero-norm vectors in characteristic 2; the square-norm half of
    them otherwise (each nonzero norm value is taken equally often)."""
    total = nonzero_norm_count(n, q)
    return total if p == 2 else total // 2


# -- job verdicts -----------------------------------------------------------------

def check(job, rc, data):
    """Mismatches between one job's exit code and report and the benchmark's
    own answer; an empty list means the job is correct."""
    if rc != 0:
        return [f"exit code {rc!r}, expected 0"]
    try:
        report = json.loads(data)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    if not isinstance(report, dict):
        return [f"report is a {type(report).__name__}, not an object"]
    return CHECKS[job.kind](job, report)


def _expect(report, **wanted):
    return [f"{key} = {report.get(key)!r}, expected {value!r}"
            for key, value in wanted.items() if report.get(key) != value]


def _check_homogeneous(job, report):
    n, q = job.n, job.ar.q
    count, odd, even = point_count(n, q), so_odd_order(n, q), so_even_order(n, q)
    errors = _expect(report, check="homogeneous", n=n, field=job.ar.spec,
                     quadric_points=count, orbit_size=count, stab_size=even,
                     group_size=odd, group_order=odd, even_group_order=even,
                     witnesses=[], **{"pass": True})
    checks = report.get("checks")
    if not isinstance(checks, dict) or len(checks) != 4 or not all(v is True for v in checks.values()):
        errors.append(f"checks = {checks!r}, expected four true checks")
    return errors


def _check_count(job, report):
    n, q = job.n, job.ar.q
    count, opens = point_count(n, q), open_cell_count(n, q)
    return _expect(report, n=n, field=job.ar.spec, closed_form=count, recursive=count,
                   count=count, strata={"open": opens, "closed": count - opens},
                   match=True)


def _check_spin(job, report):
    count = point_count(job.n, job.ar.q)
    return _expect(report, check="spin_projective", n=job.n, field=job.ar.spec,
                   idempotents=count, quadric_points=count, equal=True,
                   **{"pass": True})


def _check_similitude(job, report):
    ar = job.ar
    size = similitude_orbit_size(job.n, ar.q, ar.p)
    return _expect(report, check="similitude", n=job.n, field=ar.spec, orbit_size=size,
                   nonzero_norm_vectors=nonzero_norm_count(job.n, ar.q),
                   expected_orbit_size=size, **{"pass": True})


def _check_transport(job, report):
    """Re-verify the certificate: each word vector has trace 0 (so its
    reflection fixes 1) and invertible norm, the word has even length at
    most 3 (so Dickson 0), and applying it to x_0 lands on the requested
    point."""
    space = Pointed(job.ar, job.n)
    ar = space.ar
    errors = _expect(report, source=[ar.fmt(c) for c in space.x0], target=list(job.point),
                     path=job.path, dickson=0, scalar=None, verified=True)
    if errors:
        return errors
    try:
        word = [tuple(ar.parse(s) for s in v) for v in report["word"]]
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        return [f"unreadable word: {exc!r}"]
    if len(word) > 3 or len(word) % 2:
        return [f"word length {len(word)}, expected an even length <= 3"]
    image = space.x0
    for v in reversed(word):
        if len(v) != space.dim or space.trace(v) != ar.zero or space.q(v) == ar.zero:
            return [f"word vector {v!r} is not a trace-0 vector of invertible norm"]
        image = space.reflect(v, image)
    if [ar.fmt(c) for c in image] != list(job.point):
        return [f"word moves x_0 to {image!r}, not to the target"]
    return []


CHECKS = {
    "homogeneous": _check_homogeneous,
    "count": _check_count,
    "spin": _check_spin,
    "similitude": _check_similitude,
    "transport": _check_transport,
}
