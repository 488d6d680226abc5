"""The Hom-Long equation toolkit.

An operator R on M (x) M together with an invertible structure map mu is a
solution when (R (x) mu)(mu (x) R) = (mu (x) R)(R (x) mu).  This module
provides the checker, the diagonal solution family, the coordinate criterion
with its operator-level oracle, the flip-transform equivalences, the single-
algebra Long dimodules with their induced solutions, the two extension
constructions on H (x) M, and an exact search over a coefficient grid that
prunes on the equation's quadratic constraints, read off the checker's
kernel.

Every check of the equation goes through _first_failing_column, which has
two kernels chosen from the input alone.  _first_difference applies
LHS - RHS to one basis triple at a time as a table of coefficients; it
handles any number of terms and their cancellation, and the search derives
its constraints from it.  When both operators and mu have exactly one
nonzero entry in every column and n >= 4 (the induced operators of the
extensions of trivial modules, for example), each side of a triple is a
single term, and _first_single_term_difference compares the two terms
from tables built once per call.  Both return the same first failing
triple.  The flip transforms and the coordinate criterion's tables move
legs by move_legs; every other map is written on named legs, as a
report.Identity (the U- and T-equations, on R itself) or report.compose.

Each operator is decided once.  An OperatorOnTensorSquare keeps its first
failing triple (first_failing_triple), as a Matrix keeps its inverse:
check_long_equation, check_invertible_iff and tau_transforms' base check
read it, search_solutions returns its solutions decided by its re-check,
and tau_transforms returns W decided by its W-check.  What the coordinate
criterion derives from mu alone (mu^-1, mu read by row and mu (x) mu^-1
as int columns) is kept per structure map (_mu_steps), as move_legs keeps
its tables per shape.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .linalg import (Matrix, DimensionMismatch, SingularMatrix, int_columns, move_legs,
                     per_leg_matrix, scalar, sparse_columns, unflat_index, ZERO)
from .homstruct import tensor_basis
from .longdimod import HomLongDimodule, h_tensor_parts, validate_long_dimodule
from .report import AxiomReport, Identity, compose


class ZeroDiagonal(Exception):
    """A diagonal structure map needs nonzero diagonal entries."""


class SearchSpaceTooLarge(Exception):
    def __init__(self, cardinality):
        super().__init__("search grid has %d candidates" % cardinality)
        self.cardinality = cardinality


# what first_failing_triple reads before the verdict is decided; never kept
_UNDECIDED = object()


@dataclass(frozen=True)
class OperatorOnTensorSquare:
    """An operator R on M (x) M with the structure map mu of M.

    Immutable, so like a Matrix with its inverse it keeps the Hom-Long
    equation's verdict once decided (first_failing_triple).  The verdict is
    not a field: equality, hashing, repr and dataclasses.replace (which
    gives an undecided operator) read the fields alone, and a copy or a
    pickle carries a decided verdict.  Keeping it is idempotent: the
    verdict is a function of the fields."""

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

    def first_failing_triple(self):
        """The first basis triple (u, v, w) on which (R (x) mu)(mu (x) R) and
        (mu (x) R)(R (x) mu) differ, None when R solves the equation;
        decided by _first_failing_column once, then kept in the instance
        dict, outside the frozen fields."""
        kept = self.__dict__
        witness = kept.get("_witness", _UNDECIDED)
        if witness is _UNDECIDED:
            r = sparse_columns(self.matrix)[0]
            witness = kept["_witness"] = _first_failing_column(
                r, r, sparse_columns(self.structure_map)[0], self.carrier_dim)
        return witness


def check_long_equation(op):
    """(R x mu)(mu x R) = (mu x R)(R x mu), with a witness basis triple;
    an operator decided before is not decided again."""
    witness = op.first_failing_triple()
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


def _first_failing_column(a_cols, b_cols, mu_cols, n):
    """The first input basis triple (u, v, w), in lexicographic order, on
    which (A (x) mu)(mu (x) B) and (mu (x) B)(A (x) mu) differ; None when
    they are equal.

    A and B act on M (x) M and mu on M (dim n); each is given by its sparse
    columns (lists of (row, value) pairs with nonzero value).

    When A, B and mu each have exactly one entry in every column and
    n >= 4, _first_single_term_difference decides it; every other input
    goes to _first_difference.  At n <= 3 the test of the column lengths is
    a visible share of a check, and there is little to gain; A is tested
    first, as a search candidate with a zero column fails there.
    """
    if (n >= 4 and min(map(len, a_cols)) == 1 == max(map(len, a_cols))
            and min(map(len, b_cols)) == 1 == max(map(len, b_cols))
            and min(map(len, mu_cols)) == 1 == max(map(len, mu_cols))):
        return _first_single_term_difference(a_cols, b_cols, mu_cols, n)
    rng = range(n)
    found = _first_difference(a_cols, b_cols, mu_cols, n, rng, rng, rng)
    return None if found is None else found[0]


def _first_single_term_difference(a_cols, b_cols, mu_cols, n):
    """_first_failing_column for A, B and mu with exactly one entry in
    every column.

    Then each side of the equation on e_u (x) e_v (x) e_w is a single term
    with a nonzero value, and the sides differ exactly when their output
    indices or their values do; the first such triple is _first_difference's.
    B is tabulated once: for the left side, with B e_vw = b e_j (x) e_k and
    mu e_k = z e_r, left[v][w] = (j, r, b z); for the right side, with
    mu e_w = m e_s, right[j n + w] = (qr, b' m) for B e_js = b' e_qr.
    """
    n2 = n * n
    mu = [col[0] for col in mu_cols]
    left = []
    for ((jk, b),) in b_cols:
        r, z = mu[jk % n]
        left.append((jk // n, r, b * z))
    left = [left[vn:vn + n] for vn in range(0, n2, n)]
    right = []
    for jn in range(0, n2, n):
        for s, m in mu:
            ((qr, b),) = b_cols[jn + s]
            right.append((qr, b * m))
    for u in range(n):
        # (A (x) mu)(mu (x) B): mu e_u = m e_t, then A on (t, j), with output
        # index pq n + r and value a m (b z)
        t, m = mu[u]
        a_t = [(pq * n, a * m) for ((pq, a),) in a_cols[t * n:t * n + n]]
        for v in range(n):
            # (mu (x) B)(A (x) mu): A e_uv = a e_ij and mu e_i = z e_p, then
            # B on (j, s), with output index p n^2 + qr and value z a (b' m)
            ((ij, a),) = a_cols[u * n + v]
            p, z = mu[ij // n]
            za, pn2, jn = z * a, p * n2, ij % n * n
            for w, (j, r, bz) in enumerate(left[v]):
                pqn, am = a_t[j]
                qr, bm = right[jn + w]
                if pqn + r != pn2 + qr or am * bz != za * bm:
                    return (u, v, w)
    return None


def _first_difference(a_cols, b_cols, mu_cols, n, us, vs, ws):
    """The first basis triple (u, v, w) of us x vs x ws, in lexicographic
    order, on which (A (x) mu)(mu (x) B) - (mu (x) B)(A (x) mu) applied to
    e_u (x) e_v (x) e_w has a nonzero coefficient, with that difference as
    a dict from output index to coefficient (an entry may be 0 where terms
    cancel); None when there is no such triple.

    Operands as in _first_failing_column.  Both sides are applied without
    forming a Kronecker product, so the work is the product of the nonzero
    counts involved; the difference is bilinear in (A, B).
    """
    n2 = n * n
    for u in us:
        mu_u = mu_cols[u]
        for v in vs:
            a_uv = a_cols[u * n + v]
            for w in ws:
                diff = {}
                # (A (x) mu)(mu (x) B): e_t (x) B e_vw, then A on (t, j), mu on k
                for jk, b in b_cols[v * n + w]:
                    j, mu_k = jk // n, mu_cols[jk % n]
                    for t, m in mu_u:
                        mb = m * b
                        for pq, a in a_cols[t * n + j]:
                            amb = a * mb
                            base = pq * n
                            for r, z in mu_k:
                                key = base + r
                                diff[key] = diff.get(key, 0) + z * amb
                # minus (mu (x) B)(A (x) mu): A e_uv (x) mu e_w, then mu on i,
                # B on (j, s)
                mu_w = mu_cols[w]
                for ij, a in a_uv:
                    j, mu_i = ij % n, mu_cols[ij // n]
                    for s, m in mu_w:
                        am = a * m
                        for qr, b in b_cols[j * n + s]:
                            bam = b * am
                            for p, z in mu_i:
                                key = p * n2 + qr
                                diff[key] = diff.get(key, 0) - z * bam
                if any(diff.values()):
                    return (u, v, w), diff
    return None


def check_invertible_iff(op):
    """Verdicts for R and R^-1 against the same structure map, plus the
    flag recording that they coincide."""
    if op.matrix.det() == 0:
        raise SingularMatrix("operator is not invertible")
    inv = OperatorOnTensorSquare(op.carrier_dim, op.matrix.inv(), op.structure_map)
    rep = AxiomReport()
    r_ok = op.first_failing_triple() is None
    i_ok = inv.first_failing_triple() is None
    rep.add("R-longeq", r_ok)
    rep.add("Rinv-longeq", i_ok)
    rep.set_flag("iff-consistent", r_ok == i_ok)
    return rep


def diagonal_solution(a, b):
    """R(m_i (x) m_j) = b_ij m_i (x) m_j over mu = diag(a); always a solution,
    and a classical Long solution when every a_i = 1 (mu is the identity)."""
    entries = [scalar(x) for x in a]
    if any(x == 0 for x in entries):
        raise ZeroDiagonal("structure map entries must be nonzero")
    n = len(entries)
    if b.rows != n or b.cols != n:
        raise DimensionMismatch("coefficient matrix is %dx%d for dim %d"
                                % (b.rows, b.cols, n))
    # b_ij is entry (i, j) of b, in its column j, and lands in column i n + j
    cols, scale = sparse_columns(b)
    diag = [[] for _ in range(n * n)]
    for j, col in enumerate(cols):
        for i, x in col:
            diag[i * n + j].append((i * n + j, x))
    mat = Matrix.from_int_columns(diag, scale, n * n)
    return OperatorOnTensorSquare(n, mat, Matrix.diagonal(entries))


# ---------------------------------------------------------------------------
# coordinate criterion

def coords_to_operator(x, z):
    """The operator m_k (x) m_l -> sum x[k][l][i][j] m_i (x) mu^-1(m_j)."""
    n = z.rows
    r = _coords_operator(_coords_columns(x, n), _mu_steps(z)[0])
    return OperatorOnTensorSquare(n, r.matrix(), z)


# the most structure maps whose readings _mu_steps keeps; a search-grid cycle
# of the benchmark meets four
_STRUCTURE_MAPS = 64


@functools.lru_cache(maxsize=_STRUCTURE_MAPS)
def _mu_steps(z):
    """For an invertible mu: mu^-1, mu's int columns read by row (entry
    z_i^p over i in column p), and mu (x) mu^-1 as int columns on M (x) M.
    Kept per structure map (an immutable Matrix, equal maps sharing an
    entry) and shared, like move_legs' tables, so the lists are not to be
    changed."""
    try:
        zi = z.inv()
    except SingularMatrix:
        raise SingularMatrix("structure map is singular") from None
    n = z.rows
    z_row = move_legs(sparse_columns(z)[0], (n,), (n,), (1,), (0,))
    return zi, z_row, compose(dict(k=n, l=n), [(z, "k"), (zi, "l")], "k l").columns()


def _coords_columns(x, n):
    """The coordinates x[k][l][i][j] as the int columns (cols, scale) of
    X: m_k (x) m_l -> sum x[k][l][i][j] m_i (x) m_j, each entry read once
    by int_columns (ints, Fractions and "p/q" strings).  A tensor that is
    not n x n x n x n, ragged ones included, is refused with
    DimensionMismatch."""
    # the n^2 matrices x[k][l], in column order, when x has n rows of n
    blocks = [b for a in x if len(a) == n for b in a] if len(x) == n else ()
    if len(blocks) != n * n or any(len(b) != n or any(len(r) != n for r in b) for b in blocks):
        raise DimensionMismatch("coordinate tensor is not %dx%dx%dx%d" % ((n,) * 4))
    return int_columns([e for r in b for e in r] for b in blocks)


def _coords_operator(xs, zi):
    """The Composite of the coordinates, given as X's int columns xs, on
    M (x) M: X, then mu^-1 (zi) on the second leg."""
    return compose(dict(k=zi.rows, l=zi.rows), [(xs, "k l"), (zi, "l")], "k l")


def operator_to_coords(op):
    """Inverse of coords_to_operator: x[k][l][i][j] with the mu^-1 leg undone,
    as Fractions; x[k][l] is column k n + l of (id (x) mu) R."""
    n = op.carrier_dim
    rng = range(n)
    cols, scale = compose(dict(k=n, l=n), [(op.matrix, "k l"), (op.structure_map, "l")],
                          "k l").columns()
    x = [[[[ZERO] * n for _ in rng] for _ in rng] for _ in rng]
    for kl, col in enumerate(cols):
        k, l = divmod(kl, n)
        for ij, v in col:
            i, j = divmod(ij, n)
            x[k][l][i][j] = Fraction(v, scale)
    return x


def coordinate_criterion(x, y, z):
    """The index identity z_u^i x_vw^jk y_ij^pq = z_i^p x_jw^qk y_uv^ij
    against the operator identity S12 o R23 = R23 o S12 built from the same
    data; both verdicts are reported with an agreement flag, the operator
    verdict being the oracle.  The mu-equivariance of R and S (commutation
    with mu (x) mu^-1) is recorded as an observation.

    Each coordinate tensor is read once, y not at all when it is x; both
    sides are linear in x, y and z, so each works on their int-scaled
    columns (_coords_columns), and y equals x exactly when those do."""
    n = z.rows
    zi, z_row, both = _mu_steps(z)
    xs = _coords_columns(x, n)
    ys = xs if y is x else _coords_columns(y, n)
    self_case = ys == xs
    rep = AxiomReport()

    # z's int columns: z_u^i over i in column u, and z_i^p over i in
    # column p of z_row
    rng, n2, n3, sq = range(n), n * n, n ** 3, (n, n)
    z_col = sparse_columns(z)[0]
    # X's legs (v, w | j, k) moved to x_vw^jk over j in column (v, w, k) for
    # the left side and to x_jw^qk over j in column (w, q, k) for the right
    # side; Y's y_ij^pq over (p, q) in column (i, j), and y_uv^ij over (u, v)
    # in column (i, j) of y_in
    x_l = move_legs(xs[0], sq, sq, (0, 1, 3), (2,))
    x_r = move_legs(xs[0], sq, sq, (1, 2, 3), (0,))
    y_out, y_in = ys[0], move_legs(ys[0], sq, sq, (2, 3), (0, 1))
    # both sides as sparse tables over the flat index of (k, p, q, u, v, w),
    # read off X's nonempty columns only: each product of nonzero
    # coefficients is added once
    lhs, rhs = {}, {}
    for vwk, col in enumerate(x_l):
        if not col:
            continue
        vw, k = divmod(vwk, n)
        v, w = divmod(vw, n)
        for u in rng:
            base = k * n3 * n2 + u * n2 + v * n + w
            for i, c in z_col[u]:
                for j, a in col:
                    ca = c * a
                    for pq, e in y_out[i * n + j]:
                        key = base + pq * n3
                        lhs[key] = lhs.get(key, 0) + ca * e
    for wqk, col in enumerate(x_r):
        if not col:
            continue
        wq, k = divmod(wqk, n)
        w, q = divmod(wq, n)
        for p in rng:
            base = (k * n2 + p * n + q) * n3 + w
            for i, c in z_row[p]:
                for j, a in col:
                    ca = c * a
                    for uv, e in y_in[i * n + j]:
                        key = base + uv * n
                        rhs[key] = rhs.get(key, 0) + ca * e
    # the first failure in itertools.product order is the least key
    failing = [key for key in lhs.keys() | rhs.keys() if lhs.get(key, 0) != rhs.get(key, 0)]
    idx_ok = not failing
    idx_wit = None if idx_ok else unflat_index(min(failing), (n,) * 6)
    rep.add("index-identity", idx_ok, idx_wit)

    # R and S as int columns: X's columns, then mu^-1 on the second leg
    r = _coords_operator(xs, zi).columns()
    s = r if self_case else _coords_operator(ys, zi).columns()
    witness = _first_failing_column(s[0], r[0], z_col, n)
    rep.add("operator-identity", witness is None, witness)

    rep.set_flag("agreement", idx_ok == rep.passed("operator-identity"))
    rep.set_flag("self-case", self_case)
    # mu (x) mu^-1 as int columns, run once per structure map
    rep.set_flag("mu-equivariant", all(
        Identity("mu-equivariant", dict(k=n, l=n), [(both, "k l"), (t, "k l")],
                 [(t, "k l"), (both, "k l")]).decide().passed
        for t in ((r,) if self_case else (r, s))))
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

    The base check reads R's kept verdict, or decides it and keeps it
    (OperatorOnTensorSquare.first_failing_triple); the returned W keeps
    the verdict of the W-check.
    """
    n = op.carrier_dim
    mu = op.structure_map
    n2, sq = n * n, (n, n)
    # U, T and W are R with its output legs, its input legs or both swapped
    r, scale = sparse_columns(op.matrix)
    u, tt, w = (Matrix.from_int_columns(move_legs(r, sq, sq, ins, outs), scale, n2)
                for ins, outs in (((0, 1), (3, 2)), ((1, 0), (2, 3)), ((1, 0), (3, 2))))
    w_op = OperatorOnTensorSquare(n, w, mu)
    rep = AxiomReport()
    rep.add("base-longeq", op.first_failing_triple() is None)

    # both equations on R itself: U on the legs a b is (R, "a b -> b a"),
    # T is (R, "b a -> a b"), and the cycle x (x) y (x) z -> z (x) x (x) y
    # renames the legs x y z to y z x, through the free legs t and s
    legs = dict(x=n, y=n, z=n)
    rm = op.matrix
    for axiom, lhs, rhs in (
            # U13 U23 = cycle U13 U12
            ("transform-U", [(rm, "y z -> z y"), (mu, "x"), (rm, "x z -> z x"), (mu, "y")],
             [(rm, "x y -> y x"), (mu, "z -> t"), (mu, "y -> z"), (rm, "x t -> x y")]),
            # T12 T13 = T23 T13 cycle
            ("transform-T", [(rm, "z x -> x z"), (mu, "y"), (rm, "y x -> x y"), (mu, "z")],
             [(mu, "x -> s"), (rm, "y z -> x y"), (rm, "y s -> y z"), (mu, "x")])):
        rep.add(axiom, Identity(axiom, legs, lhs, rhs).decide().passed)
    rep.add("transform-W", w_op.first_failing_triple() is None)

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

class HAlphaLongDimodule(HomLongDimodule):
    """A Hom-Long dimodule over (H, H): module and comodule over one
    Hom-bialgebra with rho(h.m) = a(m_-1) (x) a(h).m_0.  It is written as
    the halpha-dimodule kind, with no B field; as a dataclass it equals only
    an HAlphaLongDimodule, and dataclasses.replace, which passes B, refuses
    it with a TypeError."""

    def __init__(self, H, dim, action, coaction, mu, basis=None):
        super().__init__(H, H, dim, action, coaction, mu, basis)


def validate_halpha_dimodule(d):
    """Module axioms, comodule axioms and the compatibility, with B := H."""
    return validate_long_dimodule(d)


def module_extension(h, m):
    """H (x) M with h.(g (x) x) = a(g) (x) h.x and
    rho(g (x) x) = g1 (x) (g2 (x) mu(x)).

    The action does not touch x with mu first: the unit must act as the
    structure map a (x) mu, which forces h.(g (x) x) = a(g) (x) h.x.
    """
    nh, dm = h.dim, m.dim
    act = compose(dict(h=nh, g=nh, x=dm), [(h.gamma, "g"), (m.action, "h x -> x")],
                  "g x").product()
    co = compose(dict(g=nh, x=dm), [(h.comult, "g -> c g"), (m.nu, "x")], "c g x").coproduct(nh)
    return HAlphaLongDimodule(h, nh * dm, act, co, per_leg_matrix(h.gamma, m.nu),
                              tensor_basis(h.basis, m.basis))


def comodule_extension(h, m):
    """H (x) M with h.(g (x) x) = hg (x) mu(x) and
    rho(g (x) x) = x_-1 (x) (a(g) (x) x_0)."""
    return HAlphaLongDimodule(h, *h_tensor_parts(h, m.coaction, m.mu, m.basis))


def dimodule_solution(d):
    """The induced operator R(m (x) n) = n_-1 . m (x) n_0."""
    n = d.dim
    r = compose(dict(m=n, n=n), [(d.coaction, "n -> c n"), (d.action, "c m -> m")], "m n")
    return OperatorOnTensorSquare(n, r.matrix(), d.mu)


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
    entry is set; every solution is checked again by the column kernel,
    and is returned holding that verdict, so checking it again
    (check_long_equation, tau_transforms) does not run the kernel.  A
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
    if not values:
        return []       # an empty grid has nothing to search, at any n
    n2 = n * n
    count = n2 if shape == "diagonal" else n2 * n2
    cardinality = len(values) ** count
    if shape == "full" and n > 2:
        raise SearchSpaceTooLarge(cardinality)
    if shape == "diagonal":
        positions = [(c, c) for c in range(n2)]
    else:
        positions = [(r, c) for r in range(n2) for c in range(n2)]

    # the search runs on int-scaled values (the equation is homogeneous in
    # R), and each solution is the Matrix of their int columns over the scale
    scaled, scale = _to_ints(values)
    rank = {x: i for i, x in enumerate(scaled)}
    mu_cols = sparse_columns(mu)[0]
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
            op = OperatorOnTensorSquare(n, Matrix.from_int_columns(cols, scale, n2), mu)
            op.__dict__["_witness"] = None      # the re-check's verdict, kept
            out.append(op)
    return out


def _long_constraints(positions, mu_cols, n):
    """The Hom-Long equation for R = sum_a x_a E_a, where E_a has a single 1
    at (row, col) = positions[a]: one quadratic form in the x_a per output
    coordinate of each basis triple, each as a tuple of ((a, b), coefficient)
    with a <= b, that must vanish.  Forms that vanish identically are
    dropped, and repeated ones kept once.

    The difference of the two sides is bilinear in (A, B), so the
    coefficient of x_a x_b is read off the kernel's difference at A = E_a,
    B = E_b plus that at A = E_b, B = E_a (polarisation).  At a triple
    (u, v, w) the kernel's left side reads B's column v n + w and then A's
    columns t n + j, for t in the support of mu(e_u) and e_j (x) e_k in that
    column of B; its right side reads A's column u n + v and then B's
    columns j n + s, for s in the support of mu(e_w) and e_i (x) e_j in that
    column of A.  Only the pairs (E_a, E_b) whose columns are read are
    evaluated: every other pair has both sides zero.
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
            found = _first_difference(units[a], units[b], mu_cols, n, (u,), (v,), (w,))
            if found is None:
                continue
            ab = (a, b) if a <= b else (b, a)
            for key, x in found[1].items():
                form = coords.setdefault(key, {})
                form[ab] = form.get(ab, 0) + x
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
