"""Hom-algebra tower by structure constants.

Hom-algebras, Hom-coalgebras, Hom-bialgebras and Hom-Hopf algebras, their
duals, opposites and tensor products, the twist construction that turns a
classical (bi/Hopf) algebra plus an automorphism into a Hom-structure, and
(co)quasitriangular data with triangularity decided by exact linear solve.

Axiom identities are verified as exact matrix identities on flattened
tensor-product bases; failing checks carry the first offending basis tuple.
"""

from dataclasses import dataclass, field

from .linalg import (Matrix, Tensor3, Vector, DimensionMismatch, apply3, kron,
                     kron_all, permute_input_legs, permute_output_legs,
                     flip_matrix, solve_exact, ZERO)
from .report import AxiomReport, matrices_equal_report


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

    @property
    def mult_map(self):
        return self.mult.flatten_in2_out1()

    @property
    def unit_col(self):
        return self.unit.as_column()


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

    @property
    def comult_map(self):
        return self.comult.flatten_in1_out2()

    @property
    def counit_row(self):
        return self.counit.as_row()


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

    @property
    def mult_map(self):
        return self.algebra.mult_map

    @property
    def comult_map(self):
        return self.coalgebra.comult_map

    @property
    def unit_col(self):
        return self.algebra.unit_col

    @property
    def counit_row(self):
        return self.coalgebra.counit_row


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

def validate_hom_algebra(a):
    """Check alpha-invertible, HA1 (twist is multiplicative, fixes the unit)
    and HA2 (Hom-associativity and the twisted unit law)."""
    n = a.dim
    rep = AxiomReport()
    rep.add("alpha-invertible", a.alpha.det() != 0)
    mm, al, u = a.mult_map, a.alpha, a.unit_col
    eye = Matrix.identity(n)
    names = a.basis
    matrices_equal_report(rep, "HA1-mult", al * mm, mm * kron(al, al),
                          (n, n), (names, names))
    rep.add("HA1-unit", al * u == u, None if al * u == u else (names,))
    matrices_equal_report(rep, "HA2-assoc",
                          mm * kron(al, mm), mm * kron(mm, al),
                          (n, n, n), (names, names, names))
    left = mm * kron(u, eye)
    right = mm * kron(eye, u)
    if left == al and right == al:
        rep.add("HA2-unit", True)
    else:
        side = "1*a" if left != al else "a*1"
        bad = left if left != al else right
        w = next((names[j] for j in range(n) if bad.column(j) != al.column(j)), None)
        rep.add("HA2-unit", False, (side, w))
    return rep


def validate_hom_coalgebra(c):
    """Check beta-invertible, HC1 (twist is comultiplicative, preserves the
    counit) and HC2 (Hom-coassociativity and the twisted counit law)."""
    n = c.dim
    rep = AxiomReport()
    rep.add("beta-invertible", c.beta.det() != 0)
    cm, be, eps = c.comult_map, c.beta, c.counit_row
    eye = Matrix.identity(n)
    names = c.basis
    lhs, rhs = cm * be, kron(be, be) * cm
    if lhs == rhs and eps * be == eps:
        rep.add("HC1", True)
    else:
        if lhs != rhs:
            w = next((("delta", names[j]) for j in range(n)
                      if lhs.column(j) != rhs.column(j)), None)
        else:
            w = ("counit", next(names[j] for j in range(n)
                                if (eps * be).data[0][j] != eps.data[0][j]))
        rep.add("HC1", False, w)
    matrices_equal_report(rep, "HC2-coassoc",
                          kron(be, cm) * cm, kron(cm, be) * cm, (n,), (names,))
    left = kron(eps, eye) * cm
    right = kron(eye, eps) * cm
    if left == be and right == be:
        rep.add("HC2-counit", True)
    else:
        side = "eps(c1)c2" if left != be else "c1 eps(c2)"
        bad = left if left != be else right
        w = next((names[j] for j in range(n) if bad.column(j) != be.column(j)), None)
        rep.add("HC2-counit", False, (side, w))
    return rep


def validate_hom_bialgebra(h):
    """Check that the comultiplication and counit are Hom-algebra morphisms."""
    n = h.dim
    rep = AxiomReport()
    mm, cm = h.mult_map, h.comult_map
    u, eps = h.unit_col, h.counit_row
    names = h.basis
    m2 = tensor_square_mult_map(h.algebra)
    matrices_equal_report(rep, "delta-mult", cm * mm, m2 * kron(cm, cm),
                          (n, n), (names, names))
    rep.add("delta-unit", cm * u == kron(u, u))
    matrices_equal_report(rep, "counit-mult", eps * mm, kron(eps, eps),
                          (n, n), (names, names))
    rep.add("counit-unit", (eps * u).data[0][0] == 1)
    return rep


def validate_hom_hopf(h):
    """Check the antipode identities, S-twist commutation and invertibility."""
    n = h.dim
    rep = AxiomReport()
    mm, cm, s = h.mult_map, h.comult_map, h.antipode
    names = h.basis
    eye = Matrix.identity(n)
    target = h.unit_col * h.counit_row
    matrices_equal_report(rep, "antipode-left", mm * kron(s, eye) * cm, target,
                          (n,), (names,))
    matrices_equal_report(rep, "antipode-right", mm * kron(eye, s) * cm, target,
                          (n,), (names,))
    matrices_equal_report(rep, "S-gamma-commute", s * h.gamma, h.gamma * s,
                          (n,), (names,))
    s_inv = s.det() != 0
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
    mm, cm = h.mult_map, h.comult_map
    if phi * mm != mm * kron(phi, phi):
        raise NotAutomorphism("phi o mult != mult o (phi x phi)")
    if kron(phi, phi) * cm != cm * phi:
        raise NotAutomorphism("(phi x phi) o comult != comult o phi")
    if h.counit_row * phi != h.counit_row:
        raise NotAutomorphism("counit o phi != counit")
    if phi * h.unit_col != h.unit_col:
        raise NotAutomorphism("phi does not fix the unit")
    mult2 = apply3(h.mult, 2, phi)
    comult2 = apply3(h.comult, 0, phi.transpose())
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
    return HomBialgebra(alg, coa, b.antipode.transpose())


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
    return HomBialgebra(alg, coa, kron(h.antipode, b.antipode))


def opposite_algebra(a):
    """Reverse the multiplication, keeping unit and twist."""
    mult_op = Tensor3.from_function(a.dim, a.dim, a.dim,
                                    lambda i, j, k: a.mult.data[j][i][k])
    return HomAlgebra(a.dim, mult_op, a.unit, a.alpha, a.basis)


def tensor_square_mult_map(a):
    """Multiplication of A (x) A as a map (A(x)A)(x)(A(x)A) -> A(x)A:
    (a(x)b)(c(x)d) = ac (x) bd."""
    n = a.dim
    mm = a.mult_map
    return permute_input_legs(kron(mm, mm), [n, n, n, n], [0, 2, 1, 3])


def element_col(r):
    """An element of X (x) Y given by the matrix r[i][j] as a flat column."""
    return Matrix([[x] for row in r.data for x in row], rows=r.rows * r.cols, cols=1)


def col_to_matrix(col, d0, d1):
    return Matrix.from_function(d0, d1, lambda i, j: col.data[i * d1 + j][0])


# ---------------------------------------------------------------------------
# quasitriangular / coquasitriangular

def validate_quasitriangular(h, r):
    """QHA1-QHA5 plus the triangularity test.

    The triangular flag holds when the flip of R is a two-sided inverse of R
    in the tensor-square algebra; invertibility of R there is decided by an
    exact linear solve and reported as the convolution-invertible flag.
    """
    n = h.dim
    if r.rows != n or r.cols != n:
        raise DimensionMismatch("R is %dx%d on a dim-%d algebra" % (r.rows, r.cols, n))
    rep = AxiomReport()
    names = h.basis
    eye = Matrix.identity(n)
    mm, cm, be = h.mult_map, h.comult_map, h.gamma
    eps, u = h.counit_row, h.unit_col
    rc = element_col(r)

    left = kron(eps, eye) * rc
    right = kron(eye, eps) * rc
    rep.add("QHA1", left == u and right == u,
            None if (left == u and right == u) else ("eps(R1)R2" if left != u else "R1eps(R2)",))

    dims3 = (n, n, n)
    rr = kron(rc, rc)
    lhs2 = kron(cm, be) * rc
    rhs2 = kron_all(be, be, mm) * permute_output_legs(rr, [n, n, n, n], [0, 2, 1, 3])
    matrices_equal_report(rep, "QHA2", lhs2.transpose(), rhs2.transpose(), dims3,
                          (names, names, names))

    lhs3 = kron(be, cm) * rc
    rhs3 = kron_all(mm, be, be) * permute_output_legs(rr, [n, n, n, n], [0, 2, 3, 1])
    matrices_equal_report(rep, "QHA3", lhs3.transpose(), rhs3.transpose(), dims3,
                          (names, names, names))

    m2 = tensor_square_mult_map(h.algebra)
    flip = flip_matrix(n, n)
    ok4, wit4 = True, None
    for hh in range(n):
        dh = cm.column(hh).as_column()
        dcop = flip * dh
        lhs = m2 * kron(dcop, rc)
        rhs = m2 * kron(rc, dh)
        if lhs != rhs:
            ok4, wit4 = False, (names[hh],)
            break
    rep.add("QHA4", ok4, wit4)

    rep.add("QHA5", kron(be, be) * rc == rc)

    unit2 = kron(u, u)
    lmul = m2 * kron(rc, Matrix.identity(n * n))
    rmul = m2 * kron(Matrix.identity(n * n), rc)
    stacked = Matrix(list(lmul.data) + list(rmul.data), rows=2 * n * n, cols=n * n)
    target = Vector(list(unit2.column(0)) + list(unit2.column(0)))
    x = solve_exact(stacked, target)
    rep.set_flag("convolution-invertible", x is not None)
    flip_r = flip * rc
    triangular = (x is not None
                  and m2 * kron(rc, flip_r) == unit2
                  and m2 * kron(flip_r, rc) == unit2)
    rep.set_flag("triangular", triangular)
    return rep


def validate_coquasitriangular(b, form):
    """CHA1-CHA5 plus the cotriangularity test on a bilinear form."""
    n = b.dim
    if form.rows != n or form.cols != n:
        raise DimensionMismatch("form is %dx%d on a dim-%d algebra" % (form.rows, form.cols, n))
    rep = AxiomReport()
    names = b.basis
    eye = Matrix.identity(n)
    mm, cm, be = b.mult_map, b.comult_map, b.gamma
    eps, u = b.counit_row, b.unit_col
    frow = element_col(form).transpose()
    dims3 = (n, n, n)

    # CHA1: input (h,g,l); split l, twist h and g, pair as <bh|l2><bg|l1>.
    lhs = frow * kron(mm, be)
    split_l = kron_all(be, be, eye, eye) * kron_all(eye, eye, cm)
    rhs = kron(frow, frow) * permute_output_legs(split_l, [n, n, n, n], [0, 3, 1, 2])
    matrices_equal_report(rep, "CHA1", lhs, rhs, dims3, (names, names, names))

    # CHA2: split h, twist g and l, pair as <h1|bg><h2|bl>.
    lhs = frow * kron(be, mm)
    split_h = kron_all(eye, eye, be, be) * kron_all(cm, eye, eye)
    rhs = kron(frow, frow) * permute_output_legs(split_h, [n, n, n, n], [0, 2, 1, 3])
    matrices_equal_report(rep, "CHA2", lhs, rhs, dims3, (names, names, names))

    dims2 = (n, n)
    expand = kron(cm, cm)  # (h,g) -> (h1,h2,g1,g2)
    lhs = kron(frow, mm) * permute_output_legs(expand, [n, n, n, n], [0, 2, 3, 1])
    rhs = kron(mm, frow) * permute_output_legs(expand, [n, n, n, n], [0, 2, 1, 3])
    matrices_equal_report(rep, "CHA3", lhs, rhs, dims2, (names, names))

    left = frow * kron(u, eye)
    right = frow * kron(eye, u)
    rep.add("CHA4", left == eps and right == eps,
            None if (left == eps and right == eps) else
            ("<1|h>" if left != eps else "<h|1>",))

    rep.add("CHA5", be.transpose() * form * be == form)

    cot = kron(frow, frow) * permute_output_legs(expand, [n, n, n, n], [0, 2, 3, 1])
    rep.set_flag("cotriangular", cot == kron(eps, eps))
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
