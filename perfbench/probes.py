"""Kernel micro-probes: fixed-size batches of the hot calls that get no span,
timed per call over F_5, GF(9), GF(16) and Q.  Inputs come from the seed;
each batch is timed REPEATS times and the median is kept.
"""

import statistics
from fractions import Fraction
from time import perf_counter_ns

FIELDS = {"prime": ["5"], "extension": ["3^2", "2^4"], "rational": ["Q"]}
REPEATS = 3
N_OPS = 2000       # operand pairs; four raw operations on each
N_FORMS = 1000     # vectors for raw_q and pairs for raw_b
N_MATRICES = 40    # matrices for matmul, reflection_matrix, is_isometry, dickson
N_APPLY = 400      # matrix-vector products
RANK = 2           # the pointed even space of dimension 6


def _ns_per_call(body, calls):
    """Median over REPEATS of (time of body()) / calls, in ns."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter_ns()
        body()
        times.append((perf_counter_ns() - start) / calls)
    return statistics.median(times)


def _raw(field, rng, nonzero=False):
    while True:
        value = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if field.q is None
                 else rng.randrange(field.q))
        if value or not nonzero:
            return value


def _probe_field(quadrics, spec, rng):
    """Per-call ns of every probed kernel over one field, and the number of
    probe results that came out wrong."""
    field = quadrics.Field.parse(spec)
    space = quadrics.SplitSpace.pointed_even(field, RANK)
    dim = space.dim
    pairs = [(_raw(field, rng), _raw(field, rng, nonzero=True)) for _ in range(N_OPS)]
    vectors = [tuple(_raw(field, rng) for _ in range(dim)) for _ in range(N_FORMS + 1)]
    reflectors = []
    while len(reflectors) < 2 * N_MATRICES:
        raws = [_raw(field, rng) for _ in range(dim)]
        raws[-1] = field.raw_neg(raws[RANK])          # trace 0: the reflection fixes 1
        if space.raw_q(raws):
            reflectors.append(quadrics.Vector(field, raws))
    refl = [quadrics.reflection_matrix(space, v) for v in reflectors]
    pair_rows = [(refl[2 * i] * refl[2 * i + 1]).rows for i in range(N_MATRICES)]
    targets = [quadrics.Vector(field, v) for v in vectors[:N_APPLY]]

    add, sub, mul, div = field.raw_add, field.raw_sub, field.raw_mul, field.raw_div
    raw_q, raw_b = space.raw_q, space.raw_b

    def field_ops():
        for a, b in pairs:
            add(a, b)
            sub(a, b)
            mul(a, b)
            div(a, b)

    def forms_q():
        for v in vectors[:N_FORMS]:
            raw_q(v)

    def forms_b():
        for u, w in zip(vectors, vectors[1:]):
            raw_b(u, w)

    def matmul():
        for a, b in zip(refl, refl[1:N_MATRICES + 1]):
            a * b

    def apply():
        m = refl[0]
        for v in targets:
            m.apply(v)

    def reflection_matrices():
        for v in reflectors[:N_MATRICES]:
            quadrics.reflection_matrix(space, v)

    # is_isometry and dickson cache on the matrix, so each repeat gets fresh copies
    fresh = [[quadrics.GroupElement(field, rows) for rows in pair_rows] for _ in range(2 * REPEATS)]
    isometry_ok, dickson_values = [], []

    def isometries():
        isometry_ok.extend(quadrics.is_isometry(space, m) for m in fresh.pop())

    def dicksons():
        dickson_values.extend(quadrics.dickson(space, m) for m in fresh.pop())

    timings = {
        "fields.op_ns": _ns_per_call(field_ops, 4 * N_OPS),
        "quadform.raw_q_ns": _ns_per_call(forms_q, N_FORMS),
        "quadform.raw_b_ns": _ns_per_call(forms_b, N_FORMS),
        "quadform.matmul_us": _ns_per_call(matmul, N_MATRICES) / 1e3,
        "quadform.apply_us": _ns_per_call(apply, N_APPLY) / 1e3,
        "quadform.reflection_matrix_us": _ns_per_call(reflection_matrices, N_MATRICES) / 1e3,
        "quadform.is_isometry_us": _ns_per_call(isometries, N_MATRICES) / 1e3,
        "quadform.dickson_us": _ns_per_call(dicksons, N_MATRICES) / 1e3,
    }
    # r_v r_w is an isometry of Dickson invariant 0, and r_v(v) = -v
    wrong = isometry_ok.count(False) + sum(1 for d in dickson_values if d != 0)
    wrong += sum(1 for v, m in zip(reflectors, refl[:N_MATRICES]) if m.apply(v) != -v)
    return timings, wrong


def run(quadrics, rng):
    """Probe metrics and, per probed field, the count of wrong probe results.

    Each kernel is reported per field kind (`<name>.prime`, `.extension`,
    `.rational`) and, for the quadform kernels, also as `<name>` over all four
    fields.  Both are geometric means, so a change that speeds up one field
    by a given share moves the figure by the same share whatever that
    field's absolute cost.
    """
    per_field, wrong = {}, []
    for specs in FIELDS.values():
        for spec in specs:
            per_field[spec], bad = _probe_field(quadrics, spec, rng)
            wrong.append(bad)
    metrics = {}
    for name in per_field[FIELDS["prime"][0]]:
        for kind, specs in FIELDS.items():
            metrics[f"{name}.{kind}"] = statistics.geometric_mean(per_field[s][name] for s in specs)
        if name != "fields.op_ns":
            metrics[name] = statistics.geometric_mean(t[name] for t in per_field.values())
    return metrics, wrong
