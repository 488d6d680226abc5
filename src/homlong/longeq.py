"""The Hom-Long equation toolkit.

An operator R on M (x) M together with an invertible structure map mu is a
solution when (R (x) mu)(mu (x) R) = (mu (x) R)(R (x) mu).  This module
provides the checker, the diagonal solution family, the coordinate criterion
with its operator-level oracle, the flip-transform equivalences, the single-
algebra Long dimodules with their induced solutions, the two extension
constructions on H (x) M, and an exhaustive grid search.
"""

import itertools
import math
from dataclasses import dataclass

from .linalg import (Matrix, Tensor3, Vector, DimensionMismatch, SingularMatrix,
                     composite_matrix, first_differing_column, flip_columns, kron, scalar,
                     sparse_columns, ZERO)
from .longdimod import HomLongDimodule, validate_long_dimodule
from .report import AxiomReport


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


def check_long_equation(op):
    """(R x mu)(mu x R) = (mu x R)(R x mu), with a witness basis triple."""
    r = _sparse_columns(op.matrix)
    witness = _first_failing_column(r, r, _sparse_columns(op.structure_map), op.carrier_dim)
    return AxiomReport().add("hom-long-eq", witness is None, witness)


def _to_ints(values):
    """The Fractions in values times their common denominator, as ints.

    A Hom-Long side is linear in each of its two operators and quadratic in
    mu, so scaling an operand scales both sides by the same nonzero factor
    and leaves every column's verdict unchanged; the kernel then computes on
    ints.
    """
    d = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (d // x.denominator) for x in values]


def _sparse_columns(m):
    """m's columns, int-scaled (see _to_ints), as lists of (row, value) pairs
    with nonzero value."""
    return sparse_columns(m)[0]


def _first_failing_column(a_cols, b_cols, mu_cols, n):
    """The first input basis triple (u, v, w), in lexicographic order, on
    which (A (x) mu)(mu (x) B) and (mu (x) B)(A (x) mu) differ; None when
    they are equal.

    A and B act on M (x) M and mu on M (dim n); each is given by its sparse
    columns (lists of (row, value) pairs with nonzero value).  Both sides
    are applied to e_u (x) e_v (x) e_w without forming a Kronecker product,
    so the work per column is the product of the nonzero counts involved.
    """
    n2 = n * n
    for u in range(n):
        mu_u = mu_cols[u]
        for v in range(n):
            a_uv = a_cols[u * n + v]
            for w in range(n):
                # (A (x) mu)(mu (x) B): e_t (x) B e_vw, then A on (t, j), mu on k
                lhs = {}
                for jk, b in b_cols[v * n + w]:
                    j, k = divmod(jk, n)
                    mu_k = mu_cols[k]
                    for t, m in mu_u:
                        mb = m * b
                        for pq, a in a_cols[t * n + j]:
                            amb = a * mb
                            base = pq * n
                            for r, z in mu_k:
                                key = base + r
                                lhs[key] = lhs.get(key, 0) + z * amb
                # (mu (x) B)(A (x) mu): A e_uv (x) mu e_w, then mu on i, B on (j, s)
                rhs = {}
                mu_w = mu_cols[w]
                for ij, a in a_uv:
                    i, j = divmod(ij, n)
                    mu_i = mu_cols[i]
                    for s, m in mu_w:
                        am = a * m
                        for qr, b in b_cols[j * n + s]:
                            bam = b * am
                            for p, z in mu_i:
                                key = p * n2 + qr
                                rhs[key] = rhs.get(key, 0) + z * bam
                if lhs != rhs and ({key: x for key, x in lhs.items() if x}
                                   != {key: x for key, x in rhs.items() if x}):
                    return (u, v, w)
    return None


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

    # both sides are linear in x, y and z, so each is int-scaled once
    zs = _to_ints([e for row in z.data for e in row])
    xs, ys = _int_tensor4(x), _int_tensor4(y)
    rng = range(n)
    z_col = [[(i, zs[i * n + u]) for i in rng if zs[i * n + u]] for u in rng]
    z_row = [[(i, zs[p * n + i]) for i in rng if zs[p * n + i]] for p in rng]
    # x_vw^jk over j for the left side, x_jw^qk over j for the right side
    x_l = [[[[(j, xs[v][w][j][k]) for j in rng if xs[v][w][j][k]] for k in rng]
            for w in rng] for v in rng]
    x_r = [[[[(j, xs[j][w][q][k]) for j in rng if xs[j][w][q][k]] for k in rng]
            for q in rng] for w in rng]
    idx_ok, idx_wit = True, None
    for k, p, q, u, v, w in itertools.product(rng, repeat=6):
        lhs = sum(c * a * ys[i][j][p][q] for i, c in z_col[u] for j, a in x_l[v][w][k])
        rhs = sum(c * a * ys[u][v][i][j] for i, c in z_row[p] for j, a in x_r[w][q][k])
        if lhs != rhs:
            idx_ok, idx_wit = False, (k, p, q, u, v, w)
            break
    rep.add("index-identity", idx_ok, idx_wit)

    r_op = coords_to_operator(x, z)
    s_op = coords_to_operator(y, z)
    witness = _first_failing_column(_sparse_columns(s_op.matrix), _sparse_columns(r_op.matrix),
                                    _sparse_columns(z), n)
    rep.add("operator-identity", witness is None, witness)

    rep.set_flag("agreement", idx_ok == rep.passed("operator-identity"))
    rep.set_flag("self-case", x == y)
    conj = kron(z, z.inv())
    rep.set_flag("mu-equivariant", r_op.matrix * conj == conj * r_op.matrix
                 and s_op.matrix * conj == conj * s_op.matrix)
    return rep


def _int_tensor4(x):
    """x[k][l][i][j] times the common denominator of its entries, as ints."""
    d = math.lcm(*(e.denominator for a in x for b in a for c in b for e in c))
    return [[[[e.numerator * (d // e.denominator) for e in c] for c in b] for b in a]
            for a in x]


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
    flip, r = flip_columns(n, n), sparse_columns(op.matrix)
    u, tt, w = (composite_matrix(steps, (n, n)) for steps in (
        [(r, (0, 1), None), (flip, (0, 1), None)],
        [(flip, (0, 1), None), (r, (0, 1), None)],
        [(flip, (0, 1), None), (r, (0, 1), None), (flip, (0, 1), None)]))
    rep = AxiomReport()

    base = check_long_equation(op).passed("hom-long-eq")
    rep.add("base-longeq", base)

    # the legs of X in M (x) M (x) M as steps for first_differing_column;
    # X13 swaps the last two legs around X12, and the cycle
    # x (x) y (x) z -> z (x) x (x) y is a re-indexing
    m = sparse_columns(mu)
    n2 = n * n
    cyc = ([[((c % n) * n2 + c // n, 1)] for c in range(n2 * n)], 1)

    def x12(x):
        return [(x, (0, 1), None), (m, (2,), None)]

    def x23(x):
        return [(m, (0,), None), (x, (1, 2), None)]

    def x13(x):
        return [(flip, (1, 2), None)] + x12(x) + [(flip, (1, 2), None)]

    dims = (n, n, n)
    us, ts = sparse_columns(u), sparse_columns(tt)
    rep.add("transform-U", first_differing_column(
        x23(us) + x13(us), x12(us) + x13(us) + [(cyc, (0, 1, 2), None)], dims) is None)
    rep.add("transform-T", first_differing_column(
        x13(ts) + x12(ts), [(cyc, (0, 1, 2), None)] + x13(ts) + x23(ts), dims) is None)

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
    # act_nz[a]: the nonzero (i, ii, coefficient of m_ii in h_a . m_i)
    act_nz = [[(i, ii, x) for i, row in enumerate(plane) for ii, x in enumerate(row) if x]
              for plane in act.data]
    out = [[ZERO] * (n * n) for _ in range(n * n)]
    for j, planes in enumerate(rho.data):
        for a, row in enumerate(planes):
            for jj, y in enumerate(row):
                if y:
                    for i, ii, x in act_nz[a]:
                        out[ii * n + jj][i * n + j] += y * x
    return OperatorOnTensorSquare(n, Matrix.trusted(map(tuple, out), n * n, n * n), d.mu)


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

    # the grid is enumerated on int-scaled values and each solution is
    # mapped back to the given ones
    scaled = _to_ints(values)
    given = dict(zip(scaled, values))
    mu_cols = _sparse_columns(mu)
    n2 = n * n
    out = []
    for combo in itertools.product(scaled, repeat=slots):
        if shape == "diagonal":
            cols = [[(c, x)] if x else [] for c, x in enumerate(combo)]
        else:
            cols = [[(r, x) for r, x in enumerate(combo[c::n2]) if x] for c in range(n2)]
        if _first_failing_column(cols, cols, mu_cols, n) is None:
            rows = [[ZERO] * n2 for _ in range(n2)]
            for c, col in enumerate(cols):
                for r, x in col:
                    rows[r][c] = given[x]
            out.append(OperatorOnTensorSquare(n, Matrix.trusted(map(tuple, rows), n2, n2), mu))
    return out
