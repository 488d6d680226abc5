"""Left and right duals of Long dimodules, with exact snake identities.

The dual carrier pairs coordinates against the chosen basis; the action twists
through the antipode and the coaction through its inverse.  Both zig-zag
composites, built from the explicit unit and associativity constraints, must
equal the identity matrix on the nose.
"""

from homlong import fixtures as fx
from homlong.longdimod import (check_snake, left_dual, right_dual,
                               validate_long_dimodule)

dims = fx.standard_dimodules()
sign = dims["sign"]

ld = left_dual(sign)
print("== left dual of the sign line ==")
print("dual action tensor:", ld.dual.action.to_json())
print("dual coaction tensor:", ld.dual.coaction.to_json())
print("dual is a valid dimodule?", validate_long_dimodule(ld.dual).ok)
print("snake identities:")
print(check_snake(sign, ld))

rd = right_dual(sign)
print("\n== right dual ==")
print(check_snake(sign, rd))

# Works for every fixture, with scaled structure maps, and over twisted pairs.
print("\n== snake identities across the fixture roster ==")
roster = {**dims, **fx.scaled_dimodules()}
from homlong.longdimod import canonical_dimodule
roster["canonical-twisted"] = canonical_dimodule(fx.kz4_twisted(), fx.kz2())
for name, d in roster.items():
    ok_l = check_snake(d, left_dual(d)).ok
    ok_r = check_snake(d, right_dual(d)).ok
    print("%-20s left %s  right %s" % (name, ok_l, ok_r))

# Double duals identify with the original carrier.
can = dims["canonical"]
dd = right_dual(left_dual(can).dual)
print("\nright dual of the left dual recovers the canonical carrier?",
      dd.dual.action == can.action and dd.dual.coaction == can.coaction)
