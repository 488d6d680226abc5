"""Hom-algebra tower by structure constants.

Hom-algebras, Hom-coalgebras, Hom-bialgebras and Hom-Hopf algebras, their
duals, opposites and tensor products, the twist construction that turns a
classical (bi/Hopf) algebra plus an automorphism into a Hom-structure, and
(co)quasitriangular data with triangularity decided by R R21 = 1 (x) 1.

Each axiom is a pair of composites of leg steps (see linalg), compared on
batches of basis columns, and each construction's structure maps are
composites of the same steps; R enters as an element inserted on new legs
and a form as a covector pairing two legs away.  Failing checks carry the first
offending basis tuple: an input tuple for an identity between maps, an
output coordinate for an identity between elements.
"""

from dataclasses import dataclass, field

from .linalg import (Matrix, Tensor3, Vector, DimensionMismatch, composite_columns,
                     composite_matrix, coproduct_columns, coproduct_tensor,
                     first_differing_column, flip_columns, insert_columns, pair_columns,
                     per_leg_matrix, product_columns, product_tensor, solve_exact,
                     sparse_columns)
from .report import AxiomReport, composites_equal_report, elements_equal_report


class NotAutomorphism(Exception):
    """The supplied map fails one of the automorphism identities."""


def default_basis(n, prefix="e"):
    return tuple("%s%d" % (prefix, i) for i in range(n))


@dataclass(frozen=True)
class HomAlgebra:
    dim: int
    mult: Tensor3          # mult[i][j][k] = coeff of e_k in e_i e_j
    unit: Vector           # coordinates of the unit element
    alpha: Matrix          # the structure automorphism
    basis: tuple = None

    def __post_init__(self):
        n = self.dim
        if self.mult.dims != (n, n, n):
            raise DimensionMismatch("mult tensor %r for dim %d" % (self.mult.dims, n))
        if self.unit.dim != n or self.alpha.rows != n or self.alpha.cols != n:
            raise DimensionMismatch("unit/alpha shapes do not match dim %d" % n)
        if self.basis is None:
            object.__setattr__(self, "basis", default_basis(n))
        elif len(self.basis) != n:
            raise DimensionMismatch("%d basis names for dim %d" % (len(self.basis), n))


@dataclass(frozen=True)
class HomCoalgebra:
    dim: int
    comult: Tensor3        # comult[i][j][k] = coeff of e_j (x) e_k in Delta(e_i)
    counit: Vector         # counit as a covector
    beta: Matrix
    basis: tuple = None

    def __post_init__(self):
        n = self.dim
        if self.comult.dims != (n, n, n):
            raise DimensionMismatch("comult tensor %r for dim %d" % (self.comult.dims, n))
        if self.counit.dim != n or self.beta.rows != n or self.beta.cols != n:
            raise DimensionMismatch("counit/beta shapes do not match dim %d" % n)
        if self.basis is None:
            object.__setattr__(self, "basis", default_basis(n))
        elif len(self.basis) != n:
            raise DimensionMismatch("%d basis names for dim %d" % (len(self.basis), n))


@dataclass(frozen=True)
class HomBialgebra:
    """A Hom-bialgebra; with an antipode set it is a Hom-Hopf algebra."""
    algebra: HomAlgebra
    coalgebra: HomCoalgebra
    antipode: Matrix = None

    def __post_init__(self):
        if self.algebra.dim != self.coalgebra.dim:
            raise DimensionMismatch("algebra dim %d vs coalgebra dim %d"
                                    % (self.algebra.dim, self.coalgebra.dim))
        if self.algebra.alpha != self.coalgebra.beta:
            raise DimensionMismatch("algebra and coalgebra parts carry different twists")
        if self.algebra.basis != self.coalgebra.basis:
            raise DimensionMismatch("algebra and coalgebra basis names differ")
        s, n = self.antipode, self.algebra.dim
        if s is not None and (s.rows != n or s.cols != n):
            raise DimensionMismatch("antipode is %dx%d for dim %d" % (s.rows, s.cols, n))

    @property
    def kind(self):
        return "hom-bialgebra" if self.antipode is None else "hom-hopf"

    @property
    def dim(self):
        return self.algebra.dim

    @property
    def basis(self):
        return self.algebra.basis

    @property
    def gamma(self):
        return self.algebra.alpha

    @property
    def mult(self):
        return self.algebra.mult

    @property
    def comult(self):
        return self.coalgebra.comult

    @property
    def unit(self):
        return self.algebra.unit

    @property
    def counit(self):
        return self.coalgebra.counit


@dataclass(frozen=True)
class QuasiTriangularStructure:
    owner: HomBialgebra
    R: Matrix              # R[i][j] = coeff of e_i (x) e_j
    triangular: bool
    report: AxiomReport = field(compare=False)


@dataclass(frozen=True)
class CoQuasiTriangularStructure:
    owner: HomBialgebra
    form: Matrix           # form[i][j] = <e_i | e_j>
    cotriangular: bool
    report: AxiomReport = field(compare=False)


# ---------------------------------------------------------------------------
# validators

def _first_side(rep, axiom, sides, dims, names):
    """Record that the two composites of every (label, lhs, rhs) in sides
    agree on the legs dims; on failure witness the label of the first pair
    that differs, with the name of its first differing basis vector."""
    for label, lhs, rhs in sides:
        idxs = first_differing_column(lhs, rhs, dims)
        if idxs is not None:
            return rep.add(axiom, False, (label, names[idxs[0]]))
    return rep.add(axiom, True)


def validate_hom_algebra(a):
    """Check alpha-invertible, HA1 (twist is multiplicative, fixes the unit)
    and HA2 (Hom-associativity and the twisted unit law), column by column."""
    n, names = a.dim, a.basis
    rep = AxiomReport()
    rep.add("alpha-invertible", a.alpha.det() != 0)
    mult, al, put_u = product_columns(a.mult), sparse_columns(a.alpha), insert_columns(a.unit, n)
    to_h = (n,)
    composites_equal_report(rep, "HA1-mult", [(mult, (0, 1), to_h), (al, (0,), None)],
                            [(al, (0,), None), (al, (1,), None), (mult, (0, 1), to_h)],
                            (n, n), (names, names))
    twisted = a.alpha * a.unit
    fixed = twisted == a.unit
    rep.add("HA1-unit", fixed, None if fixed else
            (next(nm for nm, x, y in zip(names, twisted, a.unit) if x != y),))
    composites_equal_report(rep, "HA2-assoc",
                            [(mult, (1, 2), to_h), (al, (0,), None), (mult, (0, 1), to_h)],
                            [(mult, (0, 1), to_h), (al, (1,), None), (mult, (0, 1), to_h)],
                            (n, n, n), (names, names, names))
    # 1 a and a 1, each against alpha(a)
    left = [(put_u, (0,), (n, n)), (mult, (0, 1), to_h)]
    right = [(put_u, (0,), (n, n)), (flip_columns(n, n), (0, 1), None), (mult, (0, 1), to_h)]
    twist = [(al, (0,), None)]
    return _first_side(rep, "HA2-unit", (("1*a", left, twist), ("a*1", right, twist)),
                       to_h, names)


def validate_hom_coalgebra(c):
    """Check beta-invertible, HC1 (twist is comultiplicative, preserves the
    counit) and HC2 (Hom-coassociativity and the twisted counit law), column
    by column."""
    n, names = c.dim, c.basis
    rep = AxiomReport()
    rep.add("beta-invertible", c.beta.det() != 0)
    co, be, eps = coproduct_columns(c.comult), sparse_columns(c.beta), pair_columns(c.counit)
    to_hh, twist = (n, n), [(be, (0,), None)]
    _first_side(rep, "HC1", (
        ("delta", twist + [(co, (0,), to_hh)],
         [(co, (0,), to_hh), (be, (0,), None), (be, (1,), None)]),
        ("counit", twist + [(eps, (0,), ())], [(eps, (0,), ())])), (n,), names)
    composites_equal_report(rep, "HC2-coassoc",
                            [(co, (0,), to_hh), (co, (1,), to_hh), (be, (0,), None)],
                            [(co, (0,), to_hh), (co, (0,), to_hh), (be, (2,), None)],
                            (n,), (names,))
    left = [(co, (0,), to_hh), (eps, (0,), ())]
    right = [(co, (0,), to_hh), (eps, (1,), ())]
    return _first_side(rep, "HC2-counit", (("eps(c1)c2", left, twist),
                                           ("c1 eps(c2)", right, twist)), (n,), names)


def validate_hom_bialgebra(h):
    """Check that the comultiplication and counit are Hom-algebra morphisms,
    column by column."""
    n, names = h.dim, h.basis
    rep = AxiomReport()
    mult, co, eps = product_columns(h.mult), coproduct_columns(h.comult), pair_columns(h.counit)
    put_u = insert_columns(h.unit, 1)
    to_h, to_hh = (n,), (n, n)
    # (ab)1 (x) (ab)2 against a1 b1 (x) a2 b2
    composites_equal_report(rep, "delta-mult", [(mult, (0, 1), to_h), (co, (0,), to_hh)],
                            [(co, (1,), to_hh), (co, (0,), to_hh),
                             (flip_columns(n, n), (1, 2), None),
                             (mult, (0, 1), to_h), (mult, (1, 2), to_h)],
                            (n, n), (names, names))
    elements_equal_report(rep, "delta-unit", [(put_u, (0,), (n, 1)), (co, (0,), to_hh)],
                          [(put_u, (0,), (n, 1)), (put_u, (1,), (n, 1))], to_hh, (names, names))
    composites_equal_report(rep, "counit-mult", [(mult, (0, 1), to_h), (eps, (0,), ())],
                            [(eps, (0,), ()), (eps, (0,), ())], (n, n), (names, names))
    counital = sum(e * u for e, u in zip(h.counit, h.unit)) == 1
    rep.add("counit-unit", counital, None if counital else ("eps(1)",))
    return rep


def validate_hom_hopf(h):
    """Check the antipode identities, S-twist commutation and invertibility,
    column by column."""
    n, names = h.dim, (h.basis,)
    rep = AxiomReport()
    mult, co, s = product_columns(h.mult), coproduct_columns(h.comult), sparse_columns(h.antipode)
    ga, to_h = sparse_columns(h.gamma), (n,)
    # eps(a) 1
    target = [(insert_columns(h.unit, n), (0,), (n, n)), (pair_columns(h.counit), (1,), ())]
    for axiom, leg in (("antipode-left", 0), ("antipode-right", 1)):
        composites_equal_report(rep, axiom, [(co, (0,), (n, n)), (s, (leg,), None),
                                             (mult, (0, 1), to_h)], target, to_h, names)
    composites_equal_report(rep, "S-gamma-commute", [(ga, (0,), None), (s, (0,), None)],
                            [(s, (0,), None), (ga, (0,), None)], to_h, names)
    s_inv = h.antipode.det() != 0
    rep.add("S-invertible", s_inv)
    rep.set_flag("antipode-invertible", s_inv)
    return rep


def validate_all(h):
    """Full tower report for a bialgebra or Hopf algebra."""
    rep = AxiomReport()
    rep.extend(validate_hom_algebra(h.algebra), "algebra:")
    rep.extend(validate_hom_coalgebra(h.coalgebra), "coalgebra:")
    rep.extend(validate_hom_bialgebra(h), "bialgebra:")
    if h.antipode is not None:
        rep.extend(validate_hom_hopf(h), "hopf:")
    return rep


# ---------------------------------------------------------------------------
# constructions

def yau_twist(h, phi):
    """Twist a classical bialgebra/Hopf algebra (identity structure map) by a
    (bi/Hopf) automorphism phi: new product phi o mult, new coproduct
    comult o phi, new twist phi, antipode unchanged."""
    n = h.dim
    if not h.gamma.is_identity():
        raise NotAutomorphism("twist base must carry the identity structure map")
    if phi.rows != n or phi.cols != n:
        raise DimensionMismatch("phi is %dx%d for dim %d" % (phi.rows, phi.cols, n))
    if phi.det() == 0:
        raise NotAutomorphism("phi is not invertible")
    mult, co, ph = product_columns(h.mult), coproduct_columns(h.comult), sparse_columns(phi)
    phi_mult = [(mult, (0, 1), (n,)), (ph, (0,), None)]
    comult_phi = [(ph, (0,), None), (co, (0,), (n, n))]
    if first_differing_column(phi_mult, [(ph, (0,), None), (ph, (1,), None),
                                         (mult, (0, 1), (n,))], (n, n)) is not None:
        raise NotAutomorphism("phi o mult != mult o (phi x phi)")
    if first_differing_column([(co, (0,), (n, n)), (ph, (0,), None), (ph, (1,), None)],
                              comult_phi, (n,)) is not None:
        raise NotAutomorphism("(phi x phi) o comult != comult o phi")
    eps = pair_columns(h.counit)
    if first_differing_column([(ph, (0,), None), (eps, (0,), ())], [(eps, (0,), ())],
                              (n,)) is not None:
        raise NotAutomorphism("counit o phi != counit")
    if phi * h.unit != h.unit:
        raise NotAutomorphism("phi does not fix the unit")
    alg = HomAlgebra(n, product_tensor(phi_mult, (n, n)), h.unit, phi, h.basis)
    coa = HomCoalgebra(n, coproduct_tensor(comult_phi, (n,), n), h.counit, phi, h.basis)
    return HomBialgebra(alg, coa, h.antipode)


def dual_hopf(b):
    """The dual Hom-Hopf algebra on the coordinate dual basis:
    (f*g)(y) = f(b^-2(y1)) g(b^-2(y2)), Delta(f)(x(x)y) = f(b^-2(xy)),
    unit = counit, counit(f) = f(1), antipode = transpose, twist f -> f o b^-1.
    Its product and coproduct are the transposes of (b^-2 (x) b^-2) o Delta
    and b^-2 o mult."""
    n = b.dim
    b1i = b.gamma.inv()
    bi = sparse_columns(b1i)
    twice = [(bi, (0,), None)] * 2
    mult_d = composite_matrix([(coproduct_columns(b.comult), (0,), (n, n))] + twice
                              + [(bi, (1,), None)] * 2, (n,)).transpose()
    comult_d = composite_matrix([(product_columns(b.mult), (0, 1), (n,))] + twice,
                                (n, n)).transpose()
    names = tuple(x + "*" for x in b.basis)
    alg = HomAlgebra(n, Tensor3.from_in2_out1(mult_d, n, n), b.counit,
                     b1i.transpose(), names)
    coa = HomCoalgebra(n, Tensor3.from_in1_out2(comult_d, n, n), b.unit,
                       b1i.transpose(), names)
    s = b.antipode
    return HomBialgebra(alg, coa, None if s is None else s.transpose())


def tensor_algebra(a, c):
    """Componentwise tensor product Hom-algebra on the lexicographic basis:
    (x (x) y)(x' (x) y') = xx' (x) yy'."""
    na, nc = a.dim, c.dim
    mult = product_tensor([(flip_columns(nc, na), (1, 2), (na, nc)),
                           (product_columns(a.mult), (0, 1), (na,)),
                           (product_columns(c.mult), (1, 2), (nc,))], (na, nc, na, nc), 2)
    unit = per_leg_matrix(a.unit.as_column(), c.unit.as_column()).column(0)
    return HomAlgebra(na * nc, mult, unit, per_leg_matrix(a.alpha, c.alpha),
                      tensor_basis(a.basis, c.basis))


def tensor_basis(first, second):
    """The names of the lexicographic basis of a tensor product."""
    return tuple("%s⊗%s" % (x, y) for x in first for y in second)


def tensor_hopf(h, b):
    """Componentwise tensor product Hom-Hopf algebra on the lexicographic basis."""
    nh, nb = h.dim, b.dim
    comult = coproduct_tensor([(coproduct_columns(h.comult), (0,), (nh, nh)),
                               (coproduct_columns(b.comult), (2,), (nb, nb)),
                               (flip_columns(nh, nb), (1, 2), (nb, nh))], (nh, nb), nh * nb)
    coa = HomCoalgebra(nh * nb, comult,
                       per_leg_matrix(h.counit.as_row(), b.counit.as_row()).row(0),
                       per_leg_matrix(h.gamma, b.gamma), tensor_basis(h.basis, b.basis))
    s = (None if h.antipode is None or b.antipode is None
         else per_leg_matrix(h.antipode, b.antipode))
    return HomBialgebra(tensor_algebra(h.algebra, b.algebra), coa, s)


def opposite_algebra(a):
    """Reverse the multiplication, keeping unit and twist."""
    n = a.dim
    mult_op = product_tensor([(flip_columns(n, n), (0, 1), None),
                              (product_columns(a.mult), (0, 1), (n,))], (n, n))
    return HomAlgebra(n, mult_op, a.unit, a.alpha, a.basis)


# ---------------------------------------------------------------------------
# quasitriangular / coquasitriangular

def validate_quasitriangular(h, r):
    """QHA1-QHA5 plus the triangularity test, column by column.

    The triangular flag holds when R R21 = 1 (x) 1 for the flip R21 of R,
    decided as an element composite; the flip of H (x) H is an automorphism
    of the componentwise product, so R21 is then a two-sided inverse of R,
    which also makes R invertible there.  Only when it is not is
    invertibility decided, by an exact linear solve on the n^2 x n^2
    matrices of left and right multiplication by R; either way it is
    reported as the convolution-invertible flag.
    """
    n = h.dim
    if r.rows != n or r.cols != n:
        raise DimensionMismatch("R is %dx%d on a dim-%d algebra" % (r.rows, r.cols, n))
    rep = AxiomReport()
    names = h.basis
    mult, co, be = product_columns(h.mult), coproduct_columns(h.comult), sparse_columns(h.gamma)
    eps, flip = pair_columns(h.counit), flip_columns(n, n)
    to_h, to_hh = (n,), (n, n)

    def put_r(leg, d=1):
        """x -> R (x) x on the leg `leg` of dim d."""
        return (insert_columns(r, d), (leg,), (n, n, d))

    put_u = insert_columns(h.unit, 1)
    sides = [first_differing_column([put_r(0), (eps, (leg,), ())], [(put_u, (0,), (n, 1))],
                                    (1,)) is None for leg in (0, 1)]
    rep.add("QHA1", all(sides), None if all(sides) else
            ("eps(R1)R2" if not sides[0] else "R1eps(R2)",))

    names3 = (names, names, names)
    # (Delta (x) b)(R) against b(R1) (x) b(R'1) (x) R2 R'2
    elements_equal_report(rep, "QHA2", [put_r(0), (co, (0,), to_hh), (be, (2,), None)],
                          [put_r(0), put_r(2), (flip, (1, 2), None), (be, (0,), None),
                           (be, (1,), None), (mult, (2, 3), to_h)], (n, n, n), names3)
    # (b (x) Delta)(R) against R1 R'1 (x) b(R'2) (x) b(R2)
    elements_equal_report(rep, "QHA3", [put_r(0), (co, (1,), to_hh), (be, (0,), None)],
                          [put_r(0), put_r(2), (flip, (1, 2), None), (flip, (2, 3), None),
                           (mult, (0, 1), to_h), (be, (1,), None), (be, (2,), None)],
                          (n, n, n), names3)
    # h2 R1 (x) h1 R2 against R1 h1 (x) R2 h2
    twice = [(mult, (0, 1), to_h), (mult, (1, 2), to_h)]
    composites_equal_report(rep, "QHA4",
                            [(co, (0,), to_hh), (flip, (0, 1), None), put_r(1, n),
                             (flip, (2, 3), None)] + twice,
                            [(co, (0,), to_hh), put_r(0, n), (flip, (1, 2), None)] + twice,
                            to_h, (names,))
    elements_equal_report(rep, "QHA5", [put_r(0), (be, (0,), None), (be, (1,), None)],
                          [put_r(0)], to_hh, (names, names))

    # x -> R x and x -> x R on H (x) H; R R21 against 1 (x) 1, R21 R being
    # its image under the flip, an automorphism of the componentwise product
    lmul = [put_r(0, n), (flip, (1, 2), None)] + twice
    rmul = [put_r(1, n), (flip, (2, 3), None)] + twice
    unit2 = [(put_u, (0,), (n, 1)), (put_u, (1,), (n, 1))]
    triangular = first_differing_column([put_r(0), (flip, (0, 1), None)] + lmul, unit2,
                                        (1,)) is None
    # a two-sided inverse R21 solves the stacked system, so the system is
    # solved only when R21 is not one
    rep.set_flag("convolution-invertible", triangular or _stacked_solvable(
        composite_columns(lmul, to_hh), composite_columns(rmul, to_hh),
        composite_columns(unit2, (1,))))
    rep.set_flag("triangular", triangular)
    return rep


def _stacked_solvable(left, right, unit):
    """Whether x -> (left x, right x) = (unit, unit) has a solution, for the
    int columns of two maps and of an element on the same space."""
    (lcols, ls), (rcols, rs), ((ucol,), us) = left, right, unit
    nn = len(lcols)
    stacked = [[(i, x * rs) for i, x in lc] + [(nn + i, x * ls) for i, x in rc]
               for lc, rc in zip(lcols, rcols)]
    rhs = Vector.from_int_column(ucol + [(nn + i, x) for i, x in ucol], us, 2 * nn)
    return solve_exact(Matrix.from_int_columns(stacked, ls * rs, 2 * nn), rhs) is not None


def validate_coquasitriangular(b, form):
    """CHA1-CHA5 plus the cotriangularity test on a bilinear form, column by
    column."""
    n = b.dim
    if form.rows != n or form.cols != n:
        raise DimensionMismatch("form is %dx%d on a dim-%d algebra" % (form.rows, form.cols, n))
    rep = AxiomReport()
    names = b.basis
    mult, co, be = product_columns(b.mult), coproduct_columns(b.comult), sparse_columns(b.gamma)
    eps, flip = pair_columns(b.counit), flip_columns(n, n)
    pair = (pair_columns(form), (0, 1), ())
    to_h, to_hh = (n,), (n, n)
    names3 = (names, names, names)

    # CHA1: input (h,g,l); split l, twist h and g, pair as <bh|l2><bg|l1>.
    composites_equal_report(rep, "CHA1", [(mult, (0, 1), to_h), (be, (1,), None), pair],
                            [(co, (2,), to_hh), (be, (0,), None), (be, (1,), None),
                             (pair[0], (1, 2), ()), pair], (n, n, n), names3)
    # CHA2: split h, twist g and l, pair as <h1|bg><h2|bl>.
    composites_equal_report(rep, "CHA2", [(mult, (1, 2), to_h), (be, (0,), None), pair],
                            [(co, (0,), to_hh), (be, (2,), None), (be, (3,), None),
                             (flip, (1, 2), None), pair, pair], (n, n, n), names3)
    # CHA3: <h1|g1> g2 h2 against h1 g1 <h2|g2>
    expand = [(co, (1,), to_hh), (co, (0,), to_hh), (flip, (1, 2), None)]
    composites_equal_report(rep, "CHA3",
                            expand + [pair, (flip, (0, 1), None), (mult, (0, 1), to_h)],
                            expand + [(pair[0], (2, 3), ()), (mult, (0, 1), to_h)],
                            to_hh, (names, names))
    # <1|h> and <h|1>, each against eps(h)
    put_u = (insert_columns(b.unit, n), (0,), to_hh)
    sides = [first_differing_column(side, [(eps, (0,), ())], to_h) is None
             for side in ([put_u, pair], [put_u, (flip, (0, 1), None), pair])]
    rep.add("CHA4", all(sides), None if all(sides) else
            ("<1|h>" if not sides[0] else "<h|1>",))

    composites_equal_report(rep, "CHA5", [(be, (0,), None), (be, (1,), None), pair], [pair],
                            to_hh, (names, names))

    # <h1|g1><g2|h2> against eps(h) eps(g)
    rep.set_flag("cotriangular", first_differing_column(
        expand + [pair, (flip, (0, 1), None), pair], [(eps, (0,), ()), (eps, (0,), ())],
        to_hh) is None)
    return rep


def quasitriangular(h, r):
    """Validate and package an R element; raises on axiom failure."""
    rep = validate_quasitriangular(h, r)
    if not rep.ok:
        raise ValueError("not quasitriangular: %s" % ", ".join(
            c.axiom for c in rep.failed()))
    return QuasiTriangularStructure(h, r, rep.flags["triangular"], rep)


def coquasitriangular(b, form):
    """Validate and package a bilinear form; raises on axiom failure."""
    rep = validate_coquasitriangular(b, form)
    if not rep.ok:
        raise ValueError("not coquasitriangular: %s" % ", ".join(
            c.axiom for c in rep.failed()))
    return CoQuasiTriangularStructure(b, form, rep.flags["cotriangular"], rep)
