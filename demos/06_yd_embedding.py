"""Long dimodules sit inside Yetter-Drinfeld modules over H (x) B.

The action (h (x) x).m = <x|m_-1> a^-3(h).mu^-1(m_0) and the coaction
rho(m) = R2 (x) b^-3(m_-1) (x) R1.mu^-1(m_0) make every Long dimodule a
Yetter-Drinfeld module over the tensor product, and the Yetter-Drinfeld
pre-braiding restricts to the dimodule braiding on the nose.
"""

from homlong import fixtures as fx
from homlong.braidcat import (BraidingContext, check_braiding_compatibility,
                              hb_yd_structure, long_braiding)
from homlong.repmod import check_yd, validate_hom_comodule, validate_hom_module, yd_prebraiding

kz2 = fx.kz2()
ctx = BraidingContext(kz2, fx.kz2_rmatrix(), kz2, fx.kz2_form())
dims = fx.standard_dimodules()

print("== induced Yetter-Drinfeld structures over H (x) B ==")
for name, d in dims.items():
    yd = hb_yd_structure(ctx, d)
    mod = validate_hom_module(yd).ok
    com = validate_hom_comodule(yd).ok
    hyd = check_yd(yd)
    print("%-10s module %s  comodule %s  (HYD) %s  cross-check agrees %s"
          % (name, mod, com, hyd.passed("HYD"), hyd.flags["hyd-consistent"]))

print("\n== the pre-braiding equals the dimodule braiding ==")
for nm, m in dims.items():
    for nn, n in dims.items():
        pre = yd_prebraiding(hb_yd_structure(ctx, m), hb_yd_structure(ctx, n))
        braid = long_braiding(ctx, m, n).matrix
        assert pre == braid
        print("  (%s, %s): matrices identical" % (nm, nn))

print("\nsummary report form:")
print(check_braiding_compatibility(ctx, dims["sign"], dims["canonical"]))
