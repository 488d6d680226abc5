"""Quasitriangular elements and coquasitriangular forms.

An element R of H (x) H is quasitriangular when it intertwines the coproduct
with its opposite and splits correctly along both legs; it is triangular when
its flip is its inverse in the tensor-square algebra (decided here by an
exact linear solve).  Dually, a bilinear form on B is coquasitriangular, and
cotriangular when the flipped pairing is its convolution inverse.
"""

from homlong import fixtures as fx
from homlong.homstruct import validate_coquasitriangular, validate_quasitriangular

kz2 = fx.kz2()

# The standard triangular element on kZ2: (1x1 + 1xg + gx1 - gxg)/2.
rt = fx.kz2_rmatrix()
print("== R_t on kZ2 ==")
print(validate_quasitriangular(kz2, rt))

# The standard cotriangular form: <g|g> = -1, all other pairings 1.
print("\n== the form with <g|g> = -1 ==")
print(validate_coquasitriangular(kz2, fx.kz2_form()))

# R = 1 (x) 1 works on any cocommutative Hom-Hopf algebra, including twists.
kz4t = fx.kz4_twisted()
print("\n== R = 1 (x) 1 on twisted Z4 ==")
print(validate_quasitriangular(kz4t, fx.trivial_rmatrix(kz4t)))

# A failing candidate: R = 1 (x) g breaks the counit axiom.
from homlong.linalg import Matrix
print("\n== R = 1 (x) g ==")
for check in validate_quasitriangular(kz2, Matrix([[0, 1], [0, 0]])).failed():
    print("fails %s" % check.axiom)

# Quasitriangular does not imply triangular: on the Klein four group algebra
# the double-style element (1x1 + 1xb + ax1 - axb)/2 passes all five axioms
# but its flip is not its inverse.
klein = fx.klein_hopf()
q = validate_quasitriangular(klein, fx.klein_rmatrix())
print("\n== Klein four element ==")
print("quasitriangular?", q.ok, "| triangular?", q.flags["triangular"])

c = validate_coquasitriangular(kz2, fx.kz2_form())
print("\ncotriangular flag on the kZ2 form:", c.flags["cotriangular"])
