"""The Hom-Long equation toolkit.

An operator R on M (x) M together with an invertible structure map mu is a
solution when (R (x) mu)(mu (x) R) = (mu (x) R)(R (x) mu).  This module
provides the checker, the diagonal solution family, the coordinate criterion
with its operator-level oracle, the flip-transform equivalences, the single-
algebra Long dimodules with their induced solutions, the two extension
constructions on H (x) M, and an exact search over a coefficient grid that
prunes on the equation's quadratic constraints, read off the checker's
kernel.
"""

import itertools
import math
from dataclasses import dataclass

from .linalg import (Matrix, Tensor3, Vector, DimensionMismatch, SingularMatrix,
                     composite_columns, composite_matrix, coproduct_columns, coproduct_tensor,
                     first_differing_column, flip_columns, per_leg, per_leg_matrix,
                     product_columns, product_tensor, scalar, sparse_columns, ZERO)
from .homstruct import tensor_basis
from .longdimod import HomLongDimodule, h_tensor_parts, validate_long_dimodule
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
    """The Fractions in values times their common denominator, as ints, and
    that denominator.

    A Hom-Long side is linear in each of its two operators and quadratic in
    mu, so scaling an operand scales both sides by the same nonzero factor
    and leaves every column's verdict unchanged; the kernel then computes on
    ints.
    """
    d = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (d // x.denominator) for x in values], d


def _sparse_columns(m):
    """m's columns, int-scaled (see _to_ints), as lists of (row, value) pairs
    with nonzero value."""
    return sparse_columns(m)[0]


def _first_failing_column(a_cols, b_cols, mu_cols, n):
    """The first input basis triple (u, v, w), in lexicographic order, on
    which (A (x) mu)(mu (x) B) and (mu (x) B)(A (x) mu) differ; None when
    they are equal.

    A and B act on M (x) M and mu on M (dim n); each is given by its sparse
    columns (lists of (row, value) pairs with nonzero value).
    """
    for u in range(n):
        for v in range(n):
            for w in range(n):
                lhs, rhs = _column_sides(a_cols, b_cols, mu_cols, n, u, v, w)
                if lhs != rhs and ({key: x for key, x in lhs.items() if x}
                                   != {key: x for key, x in rhs.items() if x}):
                    return (u, v, w)
    return None


def _column_sides(a_cols, b_cols, mu_cols, n, u, v, w):
    """(A (x) mu)(mu (x) B) and (mu (x) B)(A (x) mu) applied to
    e_u (x) e_v (x) e_w, each as a dict from output index to coefficient
    (an entry may be 0 where terms cancel).

    Both sides are applied without forming a Kronecker product, so the work
    is the product of the nonzero counts involved; each side is bilinear in
    (A, B).
    """
    n2 = n * n
    mu_u = mu_cols[u]
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
    for ij, a in a_cols[u * n + v]:
        i, j = divmod(ij, n)
        mu_i = mu_cols[i]
        for s, m in mu_w:
            am = a * m
            for qr, b in b_cols[j * n + s]:
                bam = b * am
                for p, z in mu_i:
                    key = p * n2 + qr
                    rhs[key] = rhs.get(key, 0) + z * bam
    return lhs, rhs


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
    steps = _coords_steps(*_int_tensor4(x), _conj(z))
    return OperatorOnTensorSquare(n, composite_matrix(steps, (n, n)), z)


def _conj(z):
    """mu (x) mu^-1 as steps on M (x) M (per_leg), for an invertible mu."""
    try:
        return per_leg(z, z.inv())
    except SingularMatrix:
        raise SingularMatrix("structure map is singular") from None


def _coords_steps(xs, scale, conj):
    """The operator of the int-scaled coordinates xs / scale as two steps
    on M (x) M: X's columns m_k (x) m_l -> sum xs[k][l][i][j] m_i (x) m_j,
    then mu^-1 on the second leg (the second step of conj)."""
    n = len(xs)
    rng = range(n)
    cols = [[(i * n + j, xs[k][l][i][j]) for i in rng for j in rng if xs[k][l][i][j]]
            for k in rng for l in rng]
    return [((cols, scale), (0, 1), None), conj[1]]


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
    conj = _conj(z)
    x = [[[[scalar(x[k][l][i][j]) for j in range(n)] for i in range(n)]
          for l in range(n)] for k in range(n)]
    y = [[[[scalar(y[k][l][i][j]) for j in range(n)] for i in range(n)]
          for l in range(n)] for k in range(n)]
    rep = AxiomReport()

    # both sides are linear in x, y and z, so each is int-scaled once; z's
    # int columns are those of conj's first step
    (xs, x_scale), (ys, y_scale) = _int_tensor4(x), _int_tensor4(y)
    rng = range(n)
    z_col = conj[0][0][0]
    z_row = [[] for _ in rng]
    for u, col in enumerate(z_col):
        for i, c in col:
            z_row[i].append((u, c))
    # x_vw^jk over j for the left side, x_jw^qk over j for the right side
    x_l = [[[[(j, xs[v][w][j][k]) for j in rng if xs[v][w][j][k]] for k in rng]
            for w in rng] for v in rng]
    x_r = [[[[(j, xs[j][w][q][k]) for j in rng if xs[j][w][q][k]] for k in rng]
            for q in rng] for w in rng]
    # y_ij^pq over (p, q) and y_uv^ij over (u, v), for each (i, j)
    y_out = [[[(p, q, ys[i][j][p][q]) for p in rng for q in rng if ys[i][j][p][q]]
              for j in rng] for i in rng]
    y_in = [[[(u, v, ys[u][v][i][j]) for u in rng for v in rng if ys[u][v][i][j]]
             for j in rng] for i in rng]
    # both sides as sparse tables over (k, p, q, u, v, w): each product of
    # nonzero coefficients is added once
    lhs, rhs = {}, {}
    for k, u, v, w in itertools.product(rng, repeat=4):
        for i, c in z_col[u]:
            for j, a in x_l[v][w][k]:
                for p, q, e in y_out[i][j]:
                    key = (k, p, q, u, v, w)
                    lhs[key] = lhs.get(key, 0) + c * a * e
    for k, w, p, q in itertools.product(rng, repeat=4):
        for i, c in z_row[p]:
            for j, a in x_r[w][q][k]:
                for u, v, e in y_in[i][j]:
                    key = (k, p, q, u, v, w)
                    rhs[key] = rhs.get(key, 0) + c * a * e
    # the first failure in itertools.product order is the least key
    failing = [key for key in lhs.keys() | rhs.keys() if lhs.get(key, 0) != rhs.get(key, 0)]
    idx_ok, idx_wit = not failing, min(failing, default=None)
    rep.add("index-identity", idx_ok, idx_wit)

    # R and S as int columns: X's columns, then mu^-1 on the second leg
    self_case = x == y
    r = composite_columns(_coords_steps(xs, x_scale, conj), (n, n))
    s = r if self_case else composite_columns(_coords_steps(ys, y_scale, conj), (n, n))
    witness = _first_failing_column(s[0], r[0], z_col, n)
    rep.add("operator-identity", witness is None, witness)

    rep.set_flag("agreement", idx_ok == rep.passed("operator-identity"))
    rep.set_flag("self-case", self_case)
    rep.set_flag("mu-equivariant", all(
        first_differing_column(conj + [(t, (0, 1), None)], [(t, (0, 1), None)] + conj,
                               (n, n)) is None for t in ((r,) if self_case else (r, s))))
    return rep


def _int_tensor4(x):
    """x[k][l][i][j] times the common denominator of its entries, as ints,
    and that denominator."""
    d = math.lcm(*(e.denominator for a in x for b in a for c in b for e in c))
    return [[[[e.numerator * (d // e.denominator) for e in c] for c in b] for b in a]
            for a in x], d


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
    n2 = n * n
    # U, T and W re-index R by the swap (u, v) -> (v, u): U on its rows, T
    # on its columns, W on both
    sw = [(c % n) * n + c // n for c in range(n2)]
    r, scale = sparse_columns(op.matrix)
    us = [[(sw[i], x) for i, x in c] for c in r]
    u, tt, w = (Matrix.from_int_columns(cols, scale, n2) for cols in (
        us, [list(r[j]) for j in sw], [list(us[j]) for j in sw]))
    us, ts, ws = sparse_columns(u), sparse_columns(tt), sparse_columns(w)[0]
    m = sparse_columns(mu)
    rep = AxiomReport()

    base = _first_failing_column(r, r, m[0], n) is None
    rep.add("base-longeq", base)

    # X12, X13 and X23 on M (x) M (x) M, each run once into a 3-leg step;
    # X13 is X12 between two flips of the last two legs, and the cycle
    # x (x) y (x) z -> z (x) x (x) y is a re-indexing
    dims, flip = (n, n, n), flip_columns(n, n)
    cyc = ([[((c % n) * n2 + c // n, 1)] for c in range(n2 * n)], 1), (0, 1, 2), None

    def legs(x):
        x12 = [(x, (0, 1), None), (m, (2,), None)]
        x13 = [(flip, (1, 2), None)] + x12 + [(flip, (1, 2), None)]
        x23 = [(m, (0,), None), (x, (1, 2), None)]
        return [(composite_columns(steps, dims), (0, 1, 2), None) for steps in (x12, x13, x23)]

    (u12, u13, u23), (t12, t13, t23) = legs(us), legs(ts)
    rep.add("transform-U", first_differing_column([u23, u13], [u12, u13, cyc], dims) is None)
    rep.add("transform-T", first_differing_column([t13, t12], [cyc, t13, t23], dims) is None)
    rep.add("transform-W", _first_failing_column(ws, ws, m[0], n) is None)

    verdicts = [c.passed for c in rep.checks]
    rep.set_flag("all-agree", len(set(verdicts)) == 1)
    transforms = {
        "U": OperatorOnTensorSquare(n, u, mu),
        "T": OperatorOnTensorSquare(n, tt, mu),
        "W": OperatorOnTensorSquare(n, w, mu),
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
    # (h, g, x) -> (h, a(g), x) -> (a(g), h, x) -> (a(g), h.x)
    act = product_tensor([(sparse_columns(h.gamma), (1,), None),
                          (flip_columns(nh, nh), (0, 1), None),
                          (product_columns(m.action), (1, 2), (dm,))], (nh, nh, dm))
    co = coproduct_tensor([(coproduct_columns(h.comult), (0,), (nh, nh)),
                           (sparse_columns(m.nu), (2,), None)], (nh, dm), nh)
    return HAlphaLongDimodule(h, nh * dm, act, co, per_leg_matrix(h.gamma, m.nu),
                              tensor_basis(h.basis, m.basis))


def comodule_extension(h, m):
    """H (x) M with h.(g (x) x) = hg (x) mu(x) and
    rho(g (x) x) = x_-1 (x) (a(g) (x) x_0)."""
    return HAlphaLongDimodule(h, *h_tensor_parts(h, m.coaction, m.mu, m.basis))


def dimodule_solution(d):
    """The induced operator R(m (x) n) = n_-1 . m (x) n_0."""
    n, nh = d.dim, d.coaction.d1
    # (m, n) -> (m, n_-1, n_0) -> (n_-1, m, n_0) -> (n_-1 . m, n_0)
    steps = [(coproduct_columns(d.coaction), (1,), (nh, n)),
             (flip_columns(n, nh), (0, 1), (nh, n)),
             (product_columns(d.action), (0, 1), (n,))]
    return OperatorOnTensorSquare(n, composite_matrix(steps, (n, n)), d.mu)


# ---------------------------------------------------------------------------
# exact search

SEARCH_CAP = 1 << 20


def search_solutions(mu, coefficient_set, shape):
    """Every operator on the coefficient grid that solves the Hom-Long
    equation for the given structure map, in the grid's lexicographic order
    (row-major entries, values in the given order); exact and complete.

    shape "diagonal" searches R(m_i (x) m_j) = b_ij m_i (x) m_j (n^2
    unknowns, any n); shape "full" searches all n^2 x n^2 matrices (n^4
    unknowns, refused for n > 2).  The search assigns one entry at a time
    and tests each quadratic constraint of the equation as soon as its last
    entry is set; every solution is checked again by the column kernel.  A
    grid of at most SEARCH_CAP candidates is searched to the end.  A larger
    one is refused with SearchSpaceTooLarge once the work passes SEARCH_CAP:
    n^3 kernel evaluations per pair of unknowns for the derivation of the
    constraints (a bound: only the pairs whose columns a basis triple reads
    are evaluated), counted before it starts, plus the partial assignments
    visited.  A 0x0 structure map is refused with DimensionMismatch.
    """
    n = mu.rows
    if n == 0:
        raise DimensionMismatch("structure map is 0x0; the search needs a carrier")
    if mu.det() == 0:
        raise SingularMatrix("structure map is singular")
    values = []
    for v in coefficient_set:
        s = scalar(v)
        if s not in values:
            values.append(s)
    if shape not in ("diagonal", "full"):
        raise ValueError("shape must be 'diagonal' or 'full'")
    n2 = n * n
    count = n2 if shape == "diagonal" else n2 * n2
    cardinality = len(values) ** count
    if shape == "full" and n > 2:
        raise SearchSpaceTooLarge(cardinality)
    if not values:
        return []
    if shape == "diagonal":
        positions = [(c, c) for c in range(n2)]
    else:
        positions = [(r, c) for r in range(n2) for c in range(n2)]

    # the search runs on int-scaled values (the equation is homogeneous in
    # R), and each solution is the Matrix of their int columns over the scale
    scaled, scale = _to_ints(values)
    rank = {x: i for i, x in enumerate(scaled)}
    mu_cols = _sparse_columns(mu)
    # with a single value there is nothing to prune, so nothing is derived
    budget = SEARCH_CAP if cardinality > SEARCH_CAP else math.inf
    derivation = n ** 3 * count * count if len(values) > 1 else 0
    if derivation > budget:
        raise SearchSpaceTooLarge(cardinality)
    forms = _long_constraints(positions, mu_cols, n) if derivation else []
    found = _solve(forms, count, scaled, budget - derivation)
    if found is None:
        raise SearchSpaceTooLarge(cardinality)
    found.sort(key=lambda xs: [rank[x] for x in xs])
    out = []
    for xs in found:
        cols = [[] for _ in range(n2)]
        for (r, c), x in zip(positions, xs):
            if x:
                cols[c].append((r, x))
        if _first_failing_column(cols, cols, mu_cols, n) is None:
            out.append(OperatorOnTensorSquare(n, Matrix.from_int_columns(cols, scale, n2), mu))
    return out


def _long_constraints(positions, mu_cols, n):
    """The Hom-Long equation for R = sum_a x_a E_a, where E_a has a single 1
    at (row, col) = positions[a]: one quadratic form in the x_a per output
    coordinate of each basis triple, each as a tuple of ((a, b), coefficient)
    with a <= b, that must vanish.  Forms that vanish identically are
    dropped, and repeated ones kept once.

    Both sides of the equation are bilinear in (A, B), so the coefficient of
    x_a x_b is read off the kernel's sides at A = E_a, B = E_b plus those at
    A = E_b, B = E_a (polarisation).  At a triple (u, v, w) the kernel's
    left side reads B's column v n + w and then A's columns t n + j, for t
    in the support of mu(e_u) and e_j (x) e_k in that column of B; its right
    side reads A's column u n + v and then B's columns j n + s, for s in the
    support of mu(e_w) and e_i (x) e_j in that column of A.  Only the pairs
    (E_a, E_b) whose columns are read are evaluated: every other pair has
    both sides zero.
    """
    n2 = n * n
    units, by_col = [], [[] for _ in range(n2)]
    for a, (r, c) in enumerate(positions):
        cols = [[] for _ in range(n2)]
        cols[c] = [(r, 1)]
        units.append(cols)
        by_col[c].append(a)
    forms = set()
    for u, v, w in itertools.product(range(n), repeat=3):
        pairs = set()
        for b in by_col[v * n + w]:
            j = positions[b][0] // n
            pairs.update((a, b) for t, _ in mu_cols[u] for a in by_col[t * n + j])
        for a in by_col[u * n + v]:
            j = positions[a][0] % n
            pairs.update((a, b) for s, _ in mu_cols[w] for b in by_col[j * n + s])
        coords = {}
        for a, b in pairs:
            lhs, rhs = _column_sides(units[a], units[b], mu_cols, n, u, v, w)
            ab = (a, b) if a <= b else (b, a)
            for key, x in lhs.items():
                form = coords.setdefault(key, {})
                form[ab] = form.get(ab, 0) + x
            for key, x in rhs.items():
                form = coords.setdefault(key, {})
                form[ab] = form.get(ab, 0) - x
        for form in coords.values():
            terms = sorted((ab, x) for ab, x in form.items() if x)
            if terms:
                forms.add(tuple(terms))
    return sorted(forms)


def _solve(forms, count, values, budget):
    """Every assignment of values to x_0 .. x_{count-1} on which all the
    forms vanish, as tuples; None once more than budget partial assignments
    have been visited.

    A depth-first search: the next variable is the one that completes the
    most forms given those already set (ties to the lower index), each form
    is tested when its last variable is set, and the values of a variable
    are tried in the given order.  A form completed at depth d is
    c0 + c1 v + c2 v^2 in the value v set there, so on entering a node its
    coefficients are evaluated once and the values filtered by them.
    """
    order = _variable_order(forms, count)
    depth = {a: d for d, a in enumerate(order)}
    # tests[d]: the forms whose last variable is set at depth d, each as
    # its terms on earlier depths (c, p, q), its linear terms (c, p) and
    # the coefficient of the square of the variable at depth d
    tests = [[] for _ in range(count)]
    for form in forms:
        terms = [(x, depth[a], depth[b]) for (a, b), x in form]
        d = max(max(p, q) for _, p, q in terms)
        tests[d].append(([(c, p, q) for c, p, q in terms if p < d and q < d],
                         [(c, p + q - d) for c, p, q in terms if (p == d) != (q == d)],
                         sum(c for c, p, q in terms if p == q == d)))
    x = [0] * count

    def passing(d):
        """The values that keep every form completed at depth d zero."""
        out = values
        for fixed, linear, square in tests[d]:
            c0 = c1 = 0
            for c, p, q in fixed:
                c0 += c * x[p] * x[q]
            for c, p in linear:
                c1 += c * x[p]
            if c1 or square:
                out = [v for v in out if not c0 + v * (c1 + v * square)]
                if not out:
                    break
            elif c0:
                return []
        return out

    found = []
    nodes = 0
    d = 0
    candidates, tried = [passing(0)] + [None] * (count - 1), [0] * count
    while d >= 0:
        if tried[d] == len(candidates[d]):
            d -= 1
            continue
        x[d] = candidates[d][tried[d]]
        tried[d] += 1
        nodes += 1
        if nodes > budget:
            return None
        if d + 1 == count:
            found.append(tuple(x))
        else:
            d += 1
            candidates[d], tried[d] = passing(d), 0
    return [tuple(xs[depth[a]] for a in range(count)) for xs in found]


def _variable_order(forms, count):
    """Most constrained first: each next variable completes the most forms
    given the variables before it; ties go to the lower index."""
    pending = [{a for ab, _ in form for a in ab} for form in forms]
    order = []
    left = set(range(count))
    while left:
        completes = [0] * count
        for unset in pending:
            if len(unset) == 1:
                completes[next(iter(unset))] += 1
        best = min(left, key=lambda a: (-completes[a], a))
        order.append(best)
        left.remove(best)
        for unset in pending:
            unset.discard(best)
    return order
