"""Long dimodules are the same thing as modules over B*op (x) H.

One direction evaluates the coaction against the dual basis:
(p (x) h).m = p(m_-1) h.mu^-1(m_0); the other recovers the action along
eps (x) h and the coaction from the dual basis elements.  Both round trips
are the identity at the level of structure constants.
"""

from homlong import fixtures as fx
from homlong.linalg import Matrix
from homlong.longdimod import (canonical_dimodule, from_smash_module,
                               smash_product_algebra, to_smash_module,
                               trivial_dimodule)
from homlong.repmod import validate_hom_module

kz2, kz4t = fx.kz2(), fx.kz4_twisted()

alg = smash_product_algebra(kz2, kz2)
print("the algebra B*op (x) H for B = H = kZ2: dim %d, basis %s"
      % (alg.dim, alg.basis))

roster = dict(fx.standard_dimodules())
roster["canonical over (kZ2, twisted Z4)"] = canonical_dimodule(kz2, kz4t)
roster["scaled trivial over (kZ2, twisted Z4)"] = trivial_dimodule(
    kz2, kz4t, Matrix.diagonal([1, 2]))

print("\n== round trips ==")
for name, d in roster.items():
    n = to_smash_module(d)
    ok_mod = validate_hom_module(n).ok
    back = from_smash_module(n, d.H, d.B)
    ok_back = (back.action == d.action and back.coaction == d.coaction
               and back.mu == d.mu)
    again = to_smash_module(back)
    ok_again = again.action == n.action
    print("%-40s module %s  there-and-back %s  back-and-there %s"
          % (name, ok_mod, ok_back, ok_again))

# the sign line: (delta_g (x) 1) . v = delta_g(g) v = v
sign = fx.standard_dimodules()["sign"]
n = to_smash_module(sign)
print("\nsign line smash action of (g*, 1):", n.action[0, 2])
