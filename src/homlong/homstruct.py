"""Hom-algebra tower by structure constants.

Hom-algebras, Hom-coalgebras, Hom-bialgebras and Hom-Hopf algebras, their
duals, opposites and tensor products, the twist construction that turns a
classical (bi/Hopf) algebra plus an automorphism into a Hom-structure, and
(co)quasitriangular data with triangularity decided by exact linear solve.

Each axiom is a pair of composites of leg steps (see linalg), compared one
basis column at a time; R enters as an element inserted on new legs and a
form as a covector pairing two legs away.  Failing checks carry the first
offending basis tuple: an input tuple for an identity between maps, an
output coordinate for an identity between elements.
"""

from dataclasses import dataclass, field

from .linalg import (Matrix, Tensor3, Vector, DimensionMismatch, composite_matrix,
                     coproduct_columns, first_differing_column, flip_columns, insert_columns,
                     kron, pair_columns, product_columns, solve_exact, sparse_columns, ZERO)
from .report import AxiomReport, composites_equal_report, matrices_equal_report


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

def _element(steps):
    """The coordinates of the element that a composite of steps makes on
    the one-dimensional leg (1,), its first step inserting an element, as a
    row whose columns are the output basis tuples, so matrices_equal_report
    witnesses an output coordinate."""
    return composite_matrix(steps, (1,)).transpose()


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
    fixed = a.alpha * a.unit == a.unit
    rep.add("HA1-unit", fixed, None if fixed else (names,))
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
    rep.add("delta-unit", _element([(put_u, (0,), (n, 1)), (co, (0,), to_hh)])
            == _element([(put_u, (0,), (n, 1)), (put_u, (1,), (n, 1))]))
    composites_equal_report(rep, "counit-mult", [(mult, (0, 1), to_h), (eps, (0,), ())],
                            [(eps, (0,), ()), (eps, (0,), ())], (n, n), (names, names))
    rep.add("counit-unit", sum(e * u for e, u in zip(h.counit, h.unit)) == 1)
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
    mult2 = Tensor3.from_in2_out1(composite_matrix(phi_mult, (n, n)), n, n)
    comult2 = Tensor3.from_in1_out2(composite_matrix(comult_phi, (n,)), n, n)
    alg = HomAlgebra(n, mult2, h.unit, phi, h.basis)
    coa = HomCoalgebra(n, comult2, h.counit, phi, h.basis)
    return HomBialgebra(alg, coa, h.antipode)


def dual_hopf(b):
    """The dual Hom-Hopf algebra on the coordinate dual basis:
    (f*g)(y) = f(b^-2(y1)) g(b^-2(y2)), Delta(f)(x(x)y) = f(b^-2(xy)),
    unit = counit, counit(f) = f(1), antipode = transpose, twist f -> f o b^-1."""
    n = b.dim
    b1i = b.gamma.inv()
    b2i = b1i * b1i
    cm, mt = b.comult, b.mult

    def mult_entry(i, j, k):
        s = ZERO
        for c in range(n):
            bic = b2i.data[i][c]
            if bic == 0:
                continue
            for d in range(n):
                x = cm.data[k][c][d]
                if x:
                    s += x * bic * b2i.data[j][d]
        return s

    def comult_entry(i, j, k):
        s = ZERO
        for e in range(n):
            x = mt.data[j][k][e]
            if x:
                s += x * b2i.data[i][e]
        return s

    mult_d = Tensor3.from_function(n, n, n, mult_entry)
    comult_d = Tensor3.from_function(n, n, n, comult_entry)
    unit_d = Vector(b.counit.entries)
    counit_d = Vector(b.unit.entries)
    names = tuple(x + "*" for x in b.basis)
    alg = HomAlgebra(n, mult_d, unit_d, b1i.transpose(), names)
    coa = HomCoalgebra(n, comult_d, counit_d, b1i.transpose(), names)
    s = b.antipode
    return HomBialgebra(alg, coa, None if s is None else s.transpose())


def tensor_hopf(h, b):
    """Componentwise tensor product Hom-Hopf algebra on the lexicographic basis."""
    nh, nb = h.dim, b.dim
    n = nh * nb
    mh, mb = h.mult, b.mult
    ch, cb = h.comult, b.comult

    def mult_entry(i, j, k):
        i0, i1 = divmod(i, nb)
        j0, j1 = divmod(j, nb)
        k0, k1 = divmod(k, nb)
        return mh.data[i0][j0][k0] * mb.data[i1][j1][k1]

    def comult_entry(i, j, k):
        i0, i1 = divmod(i, nb)
        j0, j1 = divmod(j, nb)
        k0, k1 = divmod(k, nb)
        return ch.data[i0][j0][k0] * cb.data[i1][j1][k1]

    names = tuple("%s⊗%s" % (x, y) for x in h.basis for y in b.basis)
    alg = HomAlgebra(n, Tensor3.from_function(n, n, n, mult_entry),
                     h.unit.kron(b.unit), kron(h.gamma, b.gamma), names)
    coa = HomCoalgebra(n, Tensor3.from_function(n, n, n, comult_entry),
                       h.counit.kron(b.counit), kron(h.gamma, b.gamma), names)
    s = (None if h.antipode is None or b.antipode is None
         else kron(h.antipode, b.antipode))
    return HomBialgebra(alg, coa, s)


def opposite_algebra(a):
    """Reverse the multiplication, keeping unit and twist."""
    mult_op = Tensor3.from_function(a.dim, a.dim, a.dim,
                                    lambda i, j, k: a.mult.data[j][i][k])
    return HomAlgebra(a.dim, mult_op, a.unit, a.alpha, a.basis)


# ---------------------------------------------------------------------------
# quasitriangular / coquasitriangular

def validate_quasitriangular(h, r):
    """QHA1-QHA5 plus the triangularity test, column by column.

    The triangular flag holds when the flip of R is a two-sided inverse of R
    in the tensor-square algebra; invertibility of R there is decided by an
    exact linear solve and reported as the convolution-invertible flag.
    """
    n = h.dim
    if r.rows != n or r.cols != n:
        raise DimensionMismatch("R is %dx%d on a dim-%d algebra" % (r.rows, r.cols, n))
    rep = AxiomReport()
    names = h.basis
    mult, co, be = product_columns(h.mult), coproduct_columns(h.comult), sparse_columns(h.gamma)
    eps, flip = pair_columns(h.counit), flip_columns(n, n)
    rc = [x for row in r.data for x in row]
    to_h, to_hh = (n,), (n, n)

    def put_r(leg, d=1):
        """x -> R (x) x on the leg `leg` of dim d."""
        return (insert_columns(rc, d), (leg,), (n, n, d))

    unit = _element([(insert_columns(h.unit, 1), (0,), (n, 1))])
    sides = [_element([put_r(0), (eps, (leg,), ())]) for leg in (0, 1)]
    rep.add("QHA1", sides == [unit, unit],
            None if sides == [unit, unit] else
            ("eps(R1)R2" if sides[0] != unit else "R1eps(R2)",))

    names3 = (names, names, names)
    # (Delta (x) b)(R) against b(R1) (x) b(R'1) (x) R2 R'2
    matrices_equal_report(rep, "QHA2",
                          _element([put_r(0), (co, (0,), to_hh), (be, (2,), None)]),
                          _element([put_r(0), put_r(2), (flip, (1, 2), None), (be, (0,), None),
                                    (be, (1,), None), (mult, (2, 3), to_h)]),
                          (n, n, n), names3)
    # (b (x) Delta)(R) against R1 R'1 (x) b(R'2) (x) b(R2)
    matrices_equal_report(rep, "QHA3",
                          _element([put_r(0), (co, (1,), to_hh), (be, (0,), None)]),
                          _element([put_r(0), put_r(2), (flip, (1, 2), None),
                                    (flip, (2, 3), None), (mult, (0, 1), to_h),
                                    (be, (1,), None), (be, (2,), None)]),
                          (n, n, n), names3)
    # h2 R1 (x) h1 R2 against R1 h1 (x) R2 h2
    twice = [(mult, (0, 1), to_h), (mult, (1, 2), to_h)]
    composites_equal_report(rep, "QHA4",
                            [(co, (0,), to_hh), (flip, (0, 1), None), put_r(1, n),
                             (flip, (2, 3), None)] + twice,
                            [(co, (0,), to_hh), put_r(0, n), (flip, (1, 2), None)] + twice,
                            to_h, (names,))
    rep.add("QHA5", _element([put_r(0), (be, (0,), None), (be, (1,), None)])
            == _element([put_r(0)]))

    # x -> R x and x -> x R on H (x) H, and the flip of R
    lmul = composite_matrix([put_r(0, n), (flip, (1, 2), None)] + twice, to_hh)
    rmul = composite_matrix([put_r(1, n), (flip, (2, 3), None)] + twice, to_hh)
    unit2 = composite_matrix([(insert_columns(h.unit, 1), (0,), (n, 1)),
                              (insert_columns(h.unit, 1), (1,), (n, 1))], (1,))
    r21 = composite_matrix([put_r(0), (flip, (0, 1), None)], (1,))
    stacked = Matrix(list(lmul.data) + list(rmul.data), rows=2 * n * n, cols=n * n)
    x = solve_exact(stacked, Vector(list(unit2.column(0)) * 2))
    rep.set_flag("convolution-invertible", x is not None)
    rep.set_flag("triangular", x is not None and lmul * r21 == unit2 and rmul * r21 == unit2)
    return rep


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
    pair = (pair_columns([x for row in form.data for x in row]), (0, 1), ())
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

    rep.add("CHA5", first_differing_column([(be, (0,), None), (be, (1,), None), pair],
                                           [pair], to_hh) is None)

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
