"""The Hom-Long equation toolkit.

An operator R on M (x) M together with an invertible structure map mu is a
solution when (R (x) mu)(mu (x) R) = (mu (x) R)(R (x) mu).  This module
provides the checker, the diagonal solution family, the coordinate criterion
with its operator-level oracle, the flip-transform equivalences, the single-
algebra Long dimodules with their induced solutions, the two extension
constructions on H (x) M, and an exhaustive grid search.
"""

import itertools
from dataclasses import dataclass

from .linalg import (Matrix, Tensor3, Vector, DimensionMismatch, SingularMatrix,
                     kron, perm_matrix, flip_matrix, scalar, ZERO)
from .longdimod import HomLongDimodule, validate_long_dimodule
from .report import AxiomReport, matrices_equal_report


class ZeroDiagonal(Exception):
    """A diagonal structure map needs nonzero diagonal entries."""


class SearchSpaceTooLarge(Exception):
    def __init__(self, cardinality):
        super().__init__("search grid has %d candidates" % cardinality)
        self.cardinality = cardinality


@dataclass(frozen=True)
class OperatorOnTensorSquare:
    carrier_dim: int
    matrix: Matrix         # endomorphism of M (x) M, lexicographic basis
    structure_map: Matrix  # mu, invertible

    def __post_init__(self):
        n = self.carrier_dim
        if self.matrix.rows != n * n or self.matrix.cols != n * n:
            raise DimensionMismatch("operator matrix is %dx%d for carrier dim %d"
                                    % (self.matrix.rows, self.matrix.cols, n))
        if self.structure_map.rows != n or self.structure_map.cols != n:
            raise DimensionMismatch("structure map is %dx%d for carrier dim %d"
                                    % (self.structure_map.rows, self.structure_map.cols, n))


@dataclass(frozen=True)
class DiagonalSolution(OperatorOnTensorSquare):
    classical: bool = False


def leg12(op_matrix, mu):
    return kron(op_matrix, mu)


def leg23(op_matrix, mu):
    return kron(mu, op_matrix)


def leg13(op_matrix, mu):
    n = mu.rows
    move = kron(Matrix.identity(n), flip_matrix(n, n))
    return move * kron(op_matrix, mu) * move


def cycle3(n):
    """x (x) y (x) z -> z (x) x (x) y."""
    return perm_matrix([n, n, n], [2, 0, 1])


def check_long_equation(op):
    """(R x mu)(mu x R) = (mu x R)(R x mu), with a witness basis triple."""
    n = op.carrier_dim
    r12 = leg12(op.matrix, op.structure_map)
    r23 = leg23(op.matrix, op.structure_map)
    rep = AxiomReport()
    matrices_equal_report(rep, "hom-long-eq", r12 * r23, r23 * r12, (n, n, n))
    return rep


def check_invertible_iff(op):
    """Verdicts for R and R^-1 against the same structure map, plus the
    flag recording that they coincide."""
    if op.matrix.det() == 0:
        raise SingularMatrix("operator is not invertible")
    inv = OperatorOnTensorSquare(op.carrier_dim, op.matrix.inv(), op.structure_map)
    rep = AxiomReport()
    r_ok = check_long_equation(op).passed("hom-long-eq")
    i_ok = check_long_equation(inv).passed("hom-long-eq")
    rep.add("R-longeq", r_ok)
    rep.add("Rinv-longeq", i_ok)
    rep.set_flag("iff-consistent", r_ok == i_ok)
    return rep


def diagonal_solution(a, b):
    """R(m_i (x) m_j) = b_ij m_i (x) m_j over mu = diag(a); always a solution.
    With every a_i = 1 the result is flagged as a classical Long solution."""
    entries = [scalar(x) for x in (a.entries if isinstance(a, Vector) else a)]
    if any(x == 0 for x in entries):
        raise ZeroDiagonal("structure map entries must be nonzero")
    n = len(entries)
    if b.rows != n or b.cols != n:
        raise DimensionMismatch("coefficient matrix is %dx%d for dim %d"
                                % (b.rows, b.cols, n))
    mat = Matrix.from_function(n * n, n * n,
                               lambda r, c: b.data[r // n][r % n] if r == c else ZERO)
    return DiagonalSolution(n, mat, Matrix.diagonal(entries),
                            classical=all(x == 1 for x in entries))


# ---------------------------------------------------------------------------
# coordinate criterion

def coords_to_operator(x, z):
    """The operator m_k (x) m_l -> sum x[k][l][i][j] m_i (x) mu^-1(m_j)."""
    n = z.rows
    if z.det() == 0:
        raise SingularMatrix("structure map is singular")
    zi = z.inv()

    def entry(r, c):
        i, t = divmod(r, n)
        k, l = divmod(c, n)
        return sum((x[k][l][i][j] * zi.data[t][j] for j in range(n)), ZERO)

    return OperatorOnTensorSquare(n, Matrix.from_function(n * n, n * n, entry), z)


def operator_to_coords(op):
    """Inverse of coords_to_operator: x[k][l][i][j] with the mu^-1 leg undone."""
    n = op.carrier_dim
    z = op.structure_map
    m = op.matrix
    return [[[[sum((m.data[i * n + t][k * n + l] * z.data[j][t] for t in range(n)), ZERO)
               for j in range(n)] for i in range(n)]
             for l in range(n)] for k in range(n)]


def coordinate_criterion(x, y, z):
    """The index identity z_u^i x_vw^jk y_ij^pq = z_i^p x_jw^qk y_uv^ij
    against the operator identity S12 o R23 = R23 o S12 built from the same
    data; both verdicts are reported with an agreement flag, the operator
    verdict being the oracle.  The mu-equivariance of R and S (commutation
    with mu (x) mu^-1) is recorded as an observation."""
    n = z.rows
    if z.det() == 0:
        raise SingularMatrix("structure map is singular")
    x = [[[[scalar(x[k][l][i][j]) for j in range(n)] for i in range(n)]
          for l in range(n)] for k in range(n)]
    y = [[[[scalar(y[k][l][i][j]) for j in range(n)] for i in range(n)]
          for l in range(n)] for k in range(n)]
    rep = AxiomReport()

    idx_ok, idx_wit = True, None
    rng = range(n)
    for k, p, q, u, v, w in itertools.product(rng, repeat=6):
        lhs = sum((z.data[i][u] * x[v][w][j][k] * y[i][j][p][q]
                   for i in rng for j in rng), ZERO)
        rhs = sum((z.data[p][i] * x[j][w][q][k] * y[u][v][i][j]
                   for i in rng for j in rng), ZERO)
        if lhs != rhs:
            idx_ok, idx_wit = False, (k, p, q, u, v, w)
            break
    rep.add("index-identity", idx_ok, idx_wit)

    r_op = coords_to_operator(x, z)
    s_op = coords_to_operator(y, z)
    s12 = leg12(s_op.matrix, z)
    r23 = leg23(r_op.matrix, z)
    matrices_equal_report(rep, "operator-identity", s12 * r23, r23 * s12, (n, n, n))

    rep.set_flag("agreement", idx_ok == rep.passed("operator-identity"))
    rep.set_flag("self-case", x == y)
    conj = kron(z, z.inv())
    rep.set_flag("mu-equivariant", r_op.matrix * conj == conj * r_op.matrix
                 and s_op.matrix * conj == conj * s_op.matrix)
    return rep


# ---------------------------------------------------------------------------
# flip transforms

def tau_transforms(op):
    """The three flip transforms and their equations.

    U = tau o R satisfies U13 U23 = cycle o U13 U12 and T = R o tau satisfies
    T12 T13 = T23 T13 o cycle, each exactly when R solves the Hom-Long
    equation.  The double transform W = tau o R o tau solves the Hom-Long
    equation itself (conjugation by the order-reversing permutation), which
    is the W-equation checked here.
    """
    n = op.carrier_dim
    mu = op.structure_map
    t = flip_matrix(n, n)
    u = t * op.matrix
    tt = op.matrix * t
    w = t * op.matrix * t
    cyc = cycle3(n)
    rep = AxiomReport()

    base = check_long_equation(op).passed("hom-long-eq")
    rep.add("base-longeq", base)

    u13, u23, u12 = leg13(u, mu), leg23(u, mu), leg12(u, mu)
    rep.add("transform-U", u13 * u23 == cyc * u13 * u12)

    t12, t13, t23 = leg12(tt, mu), leg13(tt, mu), leg23(tt, mu)
    rep.add("transform-T", t12 * t13 == t23 * t13 * cyc)

    w_op = OperatorOnTensorSquare(n, w, mu)
    rep.add("transform-W", check_long_equation(w_op).passed("hom-long-eq"))

    verdicts = [c.passed for c in rep.checks]
    rep.set_flag("all-agree", len(set(verdicts)) == 1)
    transforms = {
        "U": OperatorOnTensorSquare(n, u, mu),
        "T": OperatorOnTensorSquare(n, tt, mu),
        "W": w_op,
    }
    return transforms, rep


# ---------------------------------------------------------------------------
# single-algebra Long dimodules

@dataclass(frozen=True)
class HAlphaLongDimodule:
    """Module and comodule over one Hom-bialgebra with
    rho(h.m) = a(m_-1) (x) a(h).m_0."""
    H: object
    dim: int
    action: Tensor3
    coaction: Tensor3
    mu: Matrix
    basis: tuple = None

    def __post_init__(self):
        if self.basis is None:
            object.__setattr__(self, "basis",
                               tuple("m%d" % i for i in range(self.dim)))

    def as_long_dimodule(self):
        return HomLongDimodule(self.H, self.H, self.dim, self.action,
                               self.coaction, self.mu, self.basis)


def validate_halpha_dimodule(d):
    """Module axioms, comodule axioms and the compatibility, with B := H."""
    return validate_long_dimodule(d.as_long_dimodule())


def module_extension(h, m):
    """H (x) M with h.(g (x) x) = a(g) (x) h.x and
    rho(g (x) x) = g1 (x) (g2 (x) mu(x)).

    The action does not touch x with mu first: the unit must act as the
    structure map a (x) mu, which forces h.(g (x) x) = a(g) (x) h.x.
    """
    nh, dm = h.dim, m.dim
    d = nh * dm
    p = m.action.flatten_in2_out1()
    al, cm, mu = h.gamma, h.comult, m.nu

    def act(hh, i, j):
        g, x = divmod(i, dm)
        a, jj = divmod(j, dm)
        return al.data[a][g] * p.data[jj][hh * dm + x]

    def coact(i, c, j):
        g, x = divmod(i, dm)
        a, jj = divmod(j, dm)
        return cm.data[g][c][a] * mu.data[jj][x]

    names = tuple("%s⊗%s" % (a, b) for a in h.basis for b in m.basis)
    return HAlphaLongDimodule(h, d,
                              Tensor3.from_function(nh, d, d, act),
                              Tensor3.from_function(d, nh, d, coact),
                              kron(al, mu), names)


def comodule_extension(h, m):
    """H (x) M with h.(g (x) x) = hg (x) mu(x) and
    rho(g (x) x) = x_-1 (x) (a(g) (x) x_0)."""
    nh, dm = h.dim, m.dim
    d = nh * dm
    al, mt, mu = h.gamma, h.mult, m.mu
    rho = m.coaction

    def act(hh, i, j):
        g, x = divmod(i, dm)
        a, jj = divmod(j, dm)
        return mt.data[hh][g][a] * mu.data[jj][x]

    def coact(i, c, j):
        g, x = divmod(i, dm)
        a, jj = divmod(j, dm)
        return rho.data[x][c][jj] * al.data[a][g]

    names = tuple("%s⊗%s" % (a, b) for a in h.basis for b in m.basis)
    return HAlphaLongDimodule(h, d,
                              Tensor3.from_function(nh, d, d, act),
                              Tensor3.from_function(d, nh, d, coact),
                              kron(al, mu), names)


def dimodule_solution(d):
    """The induced operator R(m (x) n) = n_-1 . m (x) n_0."""
    n = d.dim
    act, rho = d.action, d.coaction
    nh = d.H.dim

    def entry(r, c):
        ii, jj = divmod(r, n)
        i, j = divmod(c, n)
        return sum((rho.data[j][a][jj] * act.data[a][i][ii] for a in range(nh)), ZERO)

    return OperatorOnTensorSquare(n, Matrix.from_function(n * n, n * n, entry), d.mu)


# ---------------------------------------------------------------------------
# exhaustive search

SEARCH_CAP = 1 << 20


def search_solutions(mu, coefficient_set, shape):
    """Every operator on the coefficient grid that solves the Hom-Long
    equation for the given structure map; exhaustive, deterministic order.

    shape "diagonal" scans R(m_i (x) m_j) = b_ij m_i (x) m_j (|set|^(n^2)
    candidates, any n); shape "full" scans all n^2 x n^2 matrices
    (|set|^(n^4) candidates, capped at n = 2).
    """
    n = mu.rows
    if mu.det() == 0:
        raise SingularMatrix("structure map is singular")
    values = []
    for v in coefficient_set:
        s = scalar(v)
        if s not in values:
            values.append(s)
    if shape not in ("diagonal", "full"):
        raise ValueError("shape must be 'diagonal' or 'full'")
    slots = n * n if shape == "diagonal" else n ** 4
    cardinality = len(values) ** slots
    if shape == "full" and n > 2:
        raise SearchSpaceTooLarge(cardinality)
    if cardinality > SEARCH_CAP:
        raise SearchSpaceTooLarge(cardinality)
    if not values:
        return []

    z = [list(row) for row in mu.data]
    n2 = n * n
    out = []
    if shape == "diagonal":
        for combo in itertools.product(values, repeat=slots):
            rows = [[combo[r] if r == c else ZERO for c in range(n2)] for r in range(n2)]
            if _grid_passes(rows, z, n):
                out.append(OperatorOnTensorSquare(n, Matrix(rows), mu))
    else:
        for combo in itertools.product(values, repeat=slots):
            rows = [list(combo[r * n2:(r + 1) * n2]) for r in range(n2)]
            if _grid_passes(rows, z, n):
                out.append(OperatorOnTensorSquare(n, Matrix(rows), mu))
    return out


def _grid_passes(rm, z, n):
    """Column-wise Hom-Long check with early exit; rm is an n^2 x n^2 grid."""
    n2 = n * n
    n3 = n2 * n
    rng = range(n)
    for u in rng:
        zu = [(t, z[t][u]) for t in rng if z[t][u]]
        for v in rng:
            for w in rng:
                lhs = [ZERO] * n3
                cvw = v * n + w
                for t, zt in zu:
                    for jk in range(n2):
                        c1 = rm[jk][cvw]
                        if not c1:
                            continue
                        c1 = zt * c1
                        j, k = divmod(jk, n)
                        ctj = t * n + j
                        for pq in range(n2):
                            rv = rm[pq][ctj]
                            if rv:
                                base = pq * n
                                for r in rng:
                                    zr = z[r][k]
                                    if zr:
                                        lhs[base + r] += rv * zr * c1
                rhs = [ZERO] * n3
                cuv = u * n + v
                for ij in range(n2):
                    c1 = rm[ij][cuv]
                    if not c1:
                        continue
                    i, j = divmod(ij, n)
                    for s in rng:
                        zs = z[s][w]
                        if not zs:
                            continue
                        c2 = c1 * zs
                        cjs = j * n + s
                        for qr in range(n2):
                            rv = rm[qr][cjs]
                            if rv:
                                for p in rng:
                                    zp = z[p][i]
                                    if zp:
                                        rhs[p * n2 + qr] += zp * rv * c2
                if lhs != rhs:
                    return False
    return True
