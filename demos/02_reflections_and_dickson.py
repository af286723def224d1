"""Split quadratic spaces, reflections, and the Dickson invariant.

The two split shapes over a field F:

    even:          q(x) = x_1 x_{n+1} + ... + x_n x_{2n}
    pointed even:  the even form in 2n+2 variables, carrying the vector 1

Run with:  python demos/02_reflections_and_dickson.py
"""

from quadrics import Field, SplitSpace, dickson, reflect, reflection_matrix

F2 = Field.prime(2)
F3 = Field.prime(3)

# The pointed even space: q(1) = 1, and the trace t(x) = B(x, 1).
S = SplitSpace.pointed_even(F3, 1)
one = S.one_vector()
print("one-vector:", one.to_strings(), " q(1) =", S.eval_q(one), " t(1) =", S.trace(one))

# A reflection r_v(w) = w - B(v,w) v / q(v) preserves q and is an involution.
v = S.vector([0, 1, 0, 2])          # trace 0, q = 2
w = S.vector([1, 1, 2, 0])
image = reflect(S, v, w)
print("\nreflecting", w.to_strings(), "in", v.to_strings(), "gives", image.to_strings())
print("q preserved:", S.eval_q(w) == S.eval_q(image))
print("involution:", reflect(S, v, image) == w)

# Reflections always have Dickson invariant 1; products flip parity.
r = reflection_matrix(S, v)
u = reflection_matrix(S, S.vector([1, 0, 1, 0]))
print("\nD(r_v) =", dickson(S, r), "  D(r_v r_u) =", dickson(S, r * u))

# In characteristic 2 the determinant is blind (always 1), but the Dickson
# invariant still detects reflections: it is the rank mod 2 of the block of
# m taking the Lagrangian L = <e_1, e_2> to its partner <e_3, e_4>: mL meets
# L in dimension 2 - rank, and its parity says whether m keeps L's family.
S2 = SplitSpace.pointed_even(F2, 1)
r2 = reflection_matrix(S2, S2.vector([1, 0, 1, 0]))
print("\nover F_2:  det(r) =", r2.det(), " but D(r) =", dickson(S2, r2))

# Trace-zero reflection vectors fix the one-vector: B(v, 1) = t(v) = 0.
print("r_v fixes 1:", r.apply(one) == one)
