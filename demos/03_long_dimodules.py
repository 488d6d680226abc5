"""Long dimodules: one carrier, an action over H, a coaction over B.

The compatibility rho(h.m) = b(m_-1) (x) a(h).m_0 ties the two structures
together; tensor products and a canonical carrier H (x) B live inside the
same category.  The monoidal constraints are explicit maps on tensor legs, so
coherence (pentagon, triangle, morphism properties) is decided exactly, and
genuine failures are reported rather than assumed away.
"""

from homlong import fixtures as fx
from homlong.longdimod import (associator_legs, canonical_dimodule, check_coherence,
                               tensor_dimodule, validate_long_dimodule)
from homlong.report import compose

kz2 = fx.kz2()
dims = fx.standard_dimodules()

print("== the fixture dimodules over (kZ2, kZ2) ==")
for name, d in dims.items():
    print("%-10s dim %d  valid? %s" % (name, d.dim, validate_long_dimodule(d).ok))

# The canonical carrier works over any pair, including twisted ones.
can = canonical_dimodule(fx.kz4_twisted(), kz2)
print("\ncanonical carrier over (twisted Z4, kZ2): dim %d, valid? %s"
      % (can.dim, validate_long_dimodule(can).ok))

# Tensor products stay in the category.
t = tensor_dimodule(dims["canonical"], dims["canonical"])
print("tensor of two canonical carriers: dim %d, valid? %s"
      % (t.dim, validate_long_dimodule(t).ok))

# The associator is mu^-1 (x) id (x) omega: mu^-1 on the first leg and omega
# on the last; units act by the structure map.
u, v, w = dims["sign"], dims["canonical"], dims["trivial"]
assoc = compose(dict(x=u.dim, y=v.dim, z=w.dim), associator_legs(u, w, "x z"),
                "x y z").matrix()
print("\nassociator shape: %dx%d" % (assoc.rows, assoc.cols))

# Coherence holds on the standard fixtures...
rep = check_coherence(dims["trivial"], dims["sign"], dims["canonical"])
print("\ncoherence on (trivial, sign, canonical): all pass?", rep.ok)

# ...but the triangle axiom genuinely fails once structure maps stop being
# involutions: with mu = diag(1, 2) the two triangle legs differ by mu^2.
scaled = fx.scaled_dimodules()["trivial-diag12"]
rep = check_coherence(scaled, scaled, scaled)
print("\ncoherence with mu = diag(1,2):")
for check in rep.checks:
    print("  %-24s %s" % (check.axiom, "pass" if check.passed else "FAIL"))
print("finding: the triangle needs mu_U^-2 (x) nu_V^2 = id, which scaled")
print("structure maps violate; everything else still passes.")
