"""The Hom-Long equation toolkit.

An operator R on M (x) M together with an invertible structure map mu is a
solution when (R (x) mu)(mu (x) R) = (mu (x) R)(R (x) mu).  This module
provides the checker, the diagonal solution family, the coordinate criterion
with its operator-level oracle, the flip-transform equivalences, the
solutions induced by single-algebra Long dimodules, the two extension
constructions on H (x) M (each a repmod.Carrier of the halpha-dimodule
kind), and an exact search over a coefficient grid that
prunes on the equation's quadratic constraints, read off the checker's
kernel.

Every check of the equation goes through _first_failing_column, which has
two kernels chosen from the input alone.  _first_difference applies
LHS - RHS to one basis triple at a time as a table of coefficients; it
handles any number of terms and their cancellation, takes the map on the
last leg apart from the one on the first, and the search derives its
constraints from it.  When both operators and mu have exactly one nonzero
entry in every column and n >= 4 (the induced operators of the extensions of
trivial modules, for example), each side of a triple is a single term, and
_first_single_term_difference compares the two terms from tables built once
per call.  Both return the same first failing triple.  The coordinate
criterion's two identities are the same commutation on other operands:
_first_difference with z on the first leg and the identity on the last for
the index identity, _first_failing_column for the operator identity.  The
flip transforms move legs by move_legs; every other map is written on named
legs, as a report.Identity (the U- and T-equations, on R itself) or
report.compose.

Each operator is decided once.  An OperatorOnTensorSquare keeps its first
failing triple (first_failing_triple), as a Matrix keeps its inverse:
check_long_equation, check_invertible_iff and tau_transforms' base check
read it, search_solutions returns the solutions whose first_failing_triple
is None, and tau_transforms returns W decided by its W-check.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .linalg import (Matrix, DimensionMismatch, SingularMatrix, int_columns, move_legs,
                     per_leg_matrix, scalar, sparse_columns, ZERO)
from .homstruct import require_shape, tensor_basis
from .longdimod import h_tensor_parts, validate_long_dimodule
from .repmod import Carrier
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
        require_shape(self.matrix, (n * n, n * n), "operator matrix")
        require_shape(self.structure_map, (n, n), "structure map")

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


def _first_failing_column(a_cols, b_cols, mu_cols, n):
    """The first input basis triple (u, v, w), in lexicographic order, on
    which (A (x) mu)(mu (x) B) and (mu (x) B)(A (x) mu) differ; None when
    they are equal.

    A and B act on M (x) M and mu on M (dim n); each is given by its sparse
    columns (lists of (row, value) pairs with nonzero value).  mu is the map
    on both the first and the last leg (_first_difference).

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
    found = _first_difference(a_cols, b_cols, mu_cols, mu_cols, n, rng, rng, rng)
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


def _first_difference(a_cols, b_cols, mu_cols, last_cols, n, us, vs, ws):
    """The first basis triple (u, v, w) of us x vs x ws, in lexicographic
    order, on which (A (x) l)(mu (x) B) - (mu (x) B)(A (x) l) applied to
    e_u (x) e_v (x) e_w has a nonzero coefficient, with that difference as
    a dict from output index to coefficient (an entry may be 0 where terms
    cancel); None when there is no such triple.

    Operands as in _first_failing_column, with mu on the first leg and l,
    given by its columns last_cols, on the last: the Hom-Long equation takes
    l = mu, the coordinate criterion's index identity takes mu = z and
    l = id.  Both sides are applied without forming a Kronecker product, so
    the work is the product of the nonzero counts involved; the difference
    is bilinear in (A, B).
    """
    n2 = n * n
    for u in us:
        mu_u = mu_cols[u]
        for v in vs:
            a_uv = a_cols[u * n + v]
            for w in ws:
                diff = {}
                # (A (x) l)(mu (x) B): e_t (x) B e_vw, then A on (t, j), l on k
                for jk, b in b_cols[v * n + w]:
                    j, last_k = jk // n, last_cols[jk % n]
                    for t, m in mu_u:
                        mb = m * b
                        for pq, a in a_cols[t * n + j]:
                            amb = a * mb
                            base = pq * n
                            for r, z in last_k:
                                key = base + r
                                diff[key] = diff.get(key, 0) + z * amb
                # minus (mu (x) B)(A (x) l): A e_uv (x) l e_w, then mu on i,
                # B on (j, s)
                last_w = last_cols[w]
                for ij, a in a_uv:
                    j, mu_i = ij % n, mu_cols[ij // n]
                    for s, m in last_w:
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
    r_wit, i_wit = op.first_failing_triple(), inv.first_failing_triple()
    rep = AxiomReport().add("R-longeq", r_wit is None, r_wit)
    rep.add("Rinv-longeq", i_wit is None, i_wit)
    return rep.set_flag("iff-consistent", (r_wit is None) == (i_wit is None))


def diagonal_solution(a, b):
    """R(m_i (x) m_j) = b_ij m_i (x) m_j over mu = diag(a); always a solution,
    and a classical Long solution when every a_i = 1 (mu is the identity)."""
    entries = [scalar(x) for x in a]
    if any(x == 0 for x in entries):
        raise ZeroDiagonal("structure map entries must be nonzero")
    n = len(entries)
    require_shape(b, (n, n), "coefficient matrix")
    r = Matrix.diagonal([b[i, j] for i in range(n) for j in range(n)])
    return OperatorOnTensorSquare(n, r, Matrix.diagonal(entries))


# ---------------------------------------------------------------------------
# coordinate criterion

def coords_to_operator(x, z):
    """The operator m_k (x) m_l -> sum x[k][l][i][j] m_i (x) mu^-1(m_j)."""
    n = z.rows
    r = _coords_operator(_coords_columns(x, n), _structure_inverse(z))
    return OperatorOnTensorSquare(n, r.matrix(), z)


def _structure_inverse(z):
    """mu^-1, kept by the Matrix; a mu that is not square or is singular is
    refused as a structure map."""
    require_shape(z, (z.rows, z.rows), "structure map")
    try:
        return z.inv()
    except SingularMatrix:
        raise SingularMatrix("structure map is singular") from None


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

    Both identities are the Hom-Long kernel's commutation on other operands.
    The index identity is (Y (x) id)(z (x) X) = (z (x) X)(Y (x) id): at
    e_u (x) e_v (x) e_w its sides are the two sums at e_p (x) e_q (x) e_k,
    and its witness is the least failing (k, p, q, u, v, w).  The operator
    identity is the kernel's on (S, R) with mu on both legs.  Each
    coordinate tensor is read once, y not at all when it is x; both sides
    are linear in x, y and z, so each works on their int-scaled columns
    (_coords_columns), and y equals x exactly when those do."""
    n = z.rows
    zi = _structure_inverse(z)
    xs = _coords_columns(x, n)
    ys = xs if y is x else _coords_columns(y, n)
    self_case = ys == xs
    rep = AxiomReport()

    z_col = sparse_columns(z)[0]
    ident = [[(i, 1)] for i in range(n)]
    # each nonzero output p n^2 + q n + k of LHS - RHS, as (k, p, q, u, v, w)
    failing = []
    for u, v, w in itertools.product(range(n), repeat=3):
        found = _first_difference(ys[0], xs[0], z_col, ident, n, (u,), (v,), (w,))
        if found is not None:
            failing += [(pqk % n, pqk // (n * n), pqk // n % n, u, v, w)
                        for pqk, c in found[1].items() if c]
    idx_wit = min(failing, default=None)
    rep.add("index-identity", idx_wit is None, idx_wit)

    # R and S as int columns: X's columns, then mu^-1 on the second leg
    r = _coords_operator(xs, zi).columns()
    s = r if self_case else _coords_operator(ys, zi).columns()
    witness = _first_failing_column(s[0], r[0], z_col, n)
    rep.add("operator-identity", witness is None, witness)

    rep.set_flag("agreement", (idx_wit is None) == rep.passed("operator-identity"))
    rep.set_flag("self-case", self_case)
    rep.set_flag("mu-equivariant", all(
        Identity("mu-equivariant", dict(k=n, l=n), [(z, "k"), (zi, "l"), (t, "k l")],
                 [(t, "k l"), (z, "k"), (zi, "l")]).decide().passed
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
    the verdict of the W-check.  Each failing check names the first basis
    triple (u, v, w) on which its equation fails.
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
    base = op.first_failing_triple()
    rep.add("base-longeq", base is None, base)

    # both equations on R itself: U on the legs a b is (R, "a b -> b a"),
    # T is (R, "b a -> a b"), and the cycle x (x) y (x) z -> z (x) x (x) y
    # renames the legs x y z to y z x, through the free legs t and s
    legs = dict(x=range(n), y=range(n), z=range(n))
    rm = op.matrix
    for axiom, lhs, rhs in (
            # U13 U23 = cycle U13 U12
            ("transform-U", [(rm, "y z -> z y"), (mu, "x"), (rm, "x z -> z x"), (mu, "y")],
             [(rm, "x y -> y x"), (mu, "z -> t"), (mu, "y -> z"), (rm, "x t -> x y")]),
            # T12 T13 = T23 T13 cycle
            ("transform-T", [(rm, "z x -> x z"), (mu, "y"), (rm, "y x -> x y"), (mu, "z")],
             [(mu, "x -> s"), (rm, "y z -> x y"), (rm, "y s -> y z"), (mu, "x")])):
        rep.record(Identity(axiom, legs, lhs, rhs))
    witness = w_op.first_failing_triple()
    rep.add("transform-W", witness is None, witness)

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

def validate_halpha_dimodule(d):
    """validate_long_dimodule(d), as bench/workloads.py calls it."""
    return validate_long_dimodule(d)


def module_extension(h, m):
    """H (x) M with h.(g (x) x) = a(g) (x) h.x and
    rho(g (x) x) = g1 (x) (g2 (x) mu(x)).

    The action does not touch x with mu first: the unit must act as the
    structure map a (x) mu, which forces h.(g (x) x) = a(g) (x) h.x.
    """
    nh, dm = h.dim, m.dim
    act = compose(dict(h=nh, g=nh, x=dm), [(h.gamma, "g"), (m.action, "h x -> x")],
                  "g x").matrix()
    co = compose(dict(g=nh, x=dm), [(h.comult, "g -> c g"), (m.mu, "x")], "c g x").coproduct(nh)
    return Carrier(h, h, nh * dm, act, co, per_leg_matrix(h.gamma, m.mu),
                   tensor_basis(h.basis, m.basis), kind="halpha-dimodule")


def comodule_extension(h, m):
    """H (x) M with h.(g (x) x) = hg (x) mu(x) and
    rho(g (x) x) = x_-1 (x) (a(g) (x) x_0)."""
    return Carrier(h, h, *h_tensor_parts(h, m.B, m.coaction, m.mu, m.basis), kind="halpha-dimodule")


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
    require_shape(mu, (n, n), "structure map")
    if n == 0:
        raise DimensionMismatch("structure map is 0x0; the search needs a carrier")
    if mu.det() == 0:
        raise SingularMatrix("structure map is singular")
    # the search runs on the grid's values times their common denominator,
    # as ints, each once in the given order: each side is linear in each
    # operator, so scaling R keeps every verdict, and each solution is the
    # Matrix of its int columns over the scale
    grid = list(coefficient_set)
    (col,), scale = int_columns([grid])
    held = dict(col)
    values = list(dict.fromkeys(held.get(i, 0) for i in range(len(grid))))
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

    rank = {x: i for i, x in enumerate(values)}
    mu_cols = sparse_columns(mu)[0]
    # with a single value there is nothing to prune, so nothing is derived
    budget = SEARCH_CAP if cardinality > SEARCH_CAP else math.inf
    derivation = n ** 3 * count * count if len(values) > 1 else 0
    if derivation > budget:
        raise SearchSpaceTooLarge(cardinality)
    forms = _long_constraints(positions, mu_cols, n) if derivation else []
    found = _solve(forms, count, values, budget - derivation)
    if found is None:
        raise SearchSpaceTooLarge(cardinality)
    found.sort(key=lambda xs: [rank[x] for x in xs])
    out = []
    for xs in found:
        cols = [[] for _ in range(n2)]
        for (r, c), x in zip(positions, xs):
            if x:
                cols[c].append((r, x))
        op = OperatorOnTensorSquare(n, Matrix.from_int_columns(cols, scale, n2), mu)
        if op.first_failing_triple() is None:
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
            found = _first_difference(units[a], units[b], mu_cols, mu_cols, n,
                                      (u,), (v,), (w,))
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
