"""The Hom-Long equation (R (x) mu)(mu (x) R) = (mu (x) R)(R (x) mu).

Diagonal operators always solve it; the coordinate criterion is checked
against the operator-level oracle; the flip transforms preserve solvability;
every single-algebra Long dimodule induces a solution m (x) n -> n_-1.m (x) n_0;
and small grids can be searched exhaustively.
"""

from homlong import fixtures as fx
from homlong.linalg import Matrix
from homlong.longeq import (HAlphaLongDimodule, OperatorOnTensorSquare,
                            check_invertible_iff, check_long_equation,
                            comodule_extension, coordinate_criterion,
                            diagonal_solution, dimodule_solution,
                            module_extension, operator_to_coords,
                            search_solutions, tau_transforms,
                            validate_halpha_dimodule)

# diagonal family: mu = diag(a_i), R(m_i x m_j) = b_ij m_i x m_j
op = diagonal_solution([1, 2], Matrix([[1, 3], [5, 7]]))
print("diagonal operator solves?", check_long_equation(op).ok,
      "| classical?", op.classical)
print("its inverse too?", check_invertible_iff(op).flags["iff-consistent"])

# the flip m_i (x) m_j -> m_j (x) m_i against mu = diag(1,2) fails, with a
# counterexample triple
flip = Matrix([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
bad = OperatorOnTensorSquare(2, flip, Matrix.diagonal([1, 2]))
rep = check_long_equation(bad)
print("\nflip fails at basis triple:", rep.check("hom-long-eq").witness)

# coordinate criterion vs. the operator oracle
x = operator_to_coords(op)
rep = coordinate_criterion(x, x, op.structure_map)
print("\ncoordinate criterion on the diagonal family:")
print(rep)

# flip transforms: all four verdicts coincide
transforms, rep = tau_transforms(op)
print("\nflip transforms U = tau R, T = R tau, W = tau R tau:")
print(rep)

# single-algebra Long dimodules induce solutions
kz2, kz4t = fx.kz2(), fx.kz4_twisted()
sd = fx.sign_dimodule()
d = HAlphaLongDimodule(kz2, 1, sd.action, sd.coaction, sd.mu, sd.basis)
sol = dimodule_solution(d)
print("\nsign-line dimodule: valid? %s; induced R = %s; solves? %s"
      % (validate_halpha_dimodule(d).ok, sol.matrix.data,
         check_long_equation(sol).ok))

print("\nextension carriers H (x) M:")
for name, ext in [("module extension of the sign module",
                   module_extension(kz2, fx.sign_module())),
                  ("comodule extension over twisted Z4",
                   comodule_extension(kz4t, fx.regular_comodule(kz4t)))]:
    ok = validate_halpha_dimodule(ext).ok
    solves = check_long_equation(dimodule_solution(ext)).ok
    print("  %-42s valid %s  induced solution %s" % (name, ok, solves))

# exhaustive searches
sols = search_solutions(Matrix.identity(2), [0, 1], "diagonal")
print("\ndiagonal {0,1} grid over mu = id: %d solutions (all 16 candidates)"
      % len(sols))
sols = search_solutions(Matrix.diagonal([1, 2]), [0, 1], "full")
print("full {0,1} grid over mu = diag(1,2): %d of 65536 candidates solve"
      % len(sols))
for s in sols[:3]:
    print("  e.g.", s.matrix.data)
