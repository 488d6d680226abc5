"""The braiding on Long dimodules and the Yang-Baxter identity.

With a quasitriangular element on H and a coquasitriangular form on B,
m (x) n maps to <m_-1|n_-1> R2.nu^-2(n_0) (x) R1.mu^-2(m_0).  The hexagons
and the categorical Yang-Baxter composite (associators included, since they
are not identities here) hold exactly; with triangular + cotriangular data
the braiding is a symmetry.
"""

from homlong import fixtures as fx
from homlong.braidcat import (BraidingContext, InvalidContext,
                              check_braid_morphism, check_hexagons, check_qybe,
                              check_symmetry, long_braiding,
                              long_braiding_inverse, module_as_dimodule)

kz2 = fx.kz2()
ctx = BraidingContext(kz2, fx.kz2_rmatrix(), kz2, fx.kz2_form())
print("context valid?", ctx.valid,
      "| triangular?", ctx.triangular, "| cotriangular?", ctx.cotriangular)

dims = fx.standard_dimodules()
sign, can = dims["sign"], dims["canonical"]

c = long_braiding(ctx, sign, sign)
print("\nbraiding on the sign line (both -1 factors cancel):", c.matrix.data)

c = long_braiding(ctx, sign, can)
ci = long_braiding_inverse(ctx, sign, can)
print("\nbraiding sign vs canonical is invertible exactly?",
      ci.matrix == c.matrix.inv())
print("and is a morphism of dimodules?")
print(check_braid_morphism(c))

print("\nhexagons on (sign, canonical, trivial):")
print(check_hexagons(ctx, sign, can, dims["trivial"]))

print("\nYang-Baxter composite on (canonical, sign, canonical):")
print(check_qybe(ctx, can, sign, can))

print("\nsymmetry on every fixture pair:")
for nm, m in dims.items():
    for nn, n in dims.items():
        print("  C_NM o C_MN = id on (%s, %s): %s"
              % (nm, nn, check_symmetry(ctx, m, n).ok))

# A quasitriangular but non-triangular context still braids, but refuses the
# symmetry claim; diagnose mode computes the composite anyway.
klein = fx.klein_hopf()
ctx4 = BraidingContext(klein, fx.klein_rmatrix(), klein, fx.trivial_form(klein))
reg = module_as_dimodule(klein, fx.regular_module(klein), klein)
print("\n== non-triangular context on the Klein four algebra ==")
print("hexagons still hold?", check_hexagons(ctx4, reg, reg, reg).ok)
print("Yang-Baxter still holds?", check_qybe(ctx4, reg, reg, reg).ok)
try:
    check_symmetry(ctx4, reg, reg)
except InvalidContext as exc:
    print("symmetry refused:", exc)
rep = check_symmetry(ctx4, reg, reg, diagnose=True)
print("diagnose: hypothesis met? %s; C^2 = id? %s"
      % (rep.flags["hypothesis-met"], rep.passed("symmetry")))
