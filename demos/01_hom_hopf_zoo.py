"""Tour of the Hom-Hopf zoo: build structures, validate axioms, read witnesses.

A Hom-Hopf algebra is an ordinary Hopf algebra whose associativity and
coassociativity are twisted by an automorphism.  Everything here is stored as
structure constants over exact rationals, and every axiom is checked as an
exact matrix identity.
"""

from dataclasses import replace

from homlong import fixtures as fx
from homlong.linalg import Matrix
from homlong.homstruct import (dual_hopf, opposite_algebra, tensor_hopf, validate_all,
                               validate_hom_algebra)

# The group algebra of Z2 with the identity twist is a classical Hopf algebra.
kz2 = fx.kz2()
print("== group algebra of Z2 ==")
print(validate_all(kz2))

# Twisting a classical Hopf algebra by a Hopf automorphism produces a genuine
# Hom-Hopf algebra: multiplication becomes phi o mult, comultiplication
# becomes comult o phi, and the twist is phi itself.
kz4t = fx.kz4_twisted()
print("\n== Z4 group algebra twisted along g -> g^3 ==")
print("twist is the identity?", kz4t.gamma.is_identity())
print("all axioms pass?", validate_all(kz4t).ok)

# The same works for the 4-dimensional algebra with a group-like g and a
# skew-primitive x (g^2 = 1, x^2 = 0, xg = -gx), twisted by x -> -x.
swt = fx.sweedler_twisted()
print("\n== twisted 4-dimensional Hopf algebra ==")
print("all axioms pass?", validate_all(swt).ok)

# Validators return witnesses: perturb one structure constant and the report
# names the basis tuple where the axiom breaks.  Here the algebra part of kZ2
# gets a twist that does not respect the product.
bad = replace(kz2.algebra, gamma=Matrix([[1, 0], [0, 2]]))
print("\n== a broken twist on kZ2 ==")
for check in validate_hom_algebra(bad).failed():
    print("fails %s at %r" % (check.axiom, check.witness))

# Duals, opposites and tensor products stay inside the Hom world.
dual = dual_hopf(kz4t)
print("\n== dual of the twisted Z4 algebra ==")
print("valid?", validate_all(dual).ok)
print("its twist is (phi^-1)^T?", dual.gamma == fx.kz4_twist_map().inv().transpose())

double_dual = dual_hopf(dual)
print("double dual recovers the original?",
      double_dual.mult == kz4t.mult and double_dual.comult == kz4t.comult)

prod = tensor_hopf(kz4t, kz2)
print("\n== tensor product with kZ2 ==")
print("dim %d, valid? %s" % (prod.dim, validate_all(prod).ok))

op = opposite_algebra(dual.algebra)
print("opposite of the dual algebra is a Hom-algebra?", validate_hom_algebra(op).ok)
print("opposite twice is the identity?", opposite_algebra(op) == dual.algebra)
