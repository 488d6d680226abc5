"""Hom-algebra tower by structure constants.

Hom-algebras, Hom-coalgebras, Hom-bialgebras and Hom-Hopf algebras as one
type, HomStructure, whose one structure map gamma twists whichever of the
product and the coproduct are set; their duals, opposites and tensor
products, the twist construction that turns a classical (bi/Hopf) algebra
plus an automorphism into a Hom-structure, and (co)quasitriangular data
with triangularity decided by R R21 = 1 (x) 1.

Each validator is a table of report.Identity values, whose steps name the
legs they read (a unit and R are elements inserted, a counit and a form
covectors paired away), and each construction a report.compose of such
steps.  A failure's witness is an input basis tuple for an identity
between maps, an output coordinate for one between elements.
require_shape is the one shape check of every map the library takes: a
map of the wrong shape or kind is refused where it enters, in the one text
"<name> is <got>, expected <shape>".
"""

from dataclasses import dataclass, replace

from .linalg import Matrix, Tensor3, DimensionMismatch, move_legs, per_leg_matrix, solve_exact
from .report import AxiomReport, Check, Identity, compose


class NotAutomorphism(Exception):
    """The supplied map fails one of the automorphism identities."""


def fit_basis(s, prefix="e"):
    """Name the basis of s (a frozen dataclass with dim and basis) prefix0,
    prefix1, ... if unnamed; refuse one that does not give dim names."""
    if s.basis is None:
        object.__setattr__(s, "basis", tuple("%s%d" % (prefix, i) for i in range(s.dim)))
    elif len(s.basis) != s.dim:
        raise DimensionMismatch("%d basis names for dim %d" % (len(s.basis), s.dim))


def require_shape(m, shape, name):
    """Refuse the map m, named name, unless it reads as shape: a Tensor3 by
    its dims, any other Matrix by (rows, cols), so that a map of the wrong
    kind is refused too."""
    got = m.dims if isinstance(m, Tensor3) else (m.rows, m.cols)
    if got != shape:
        raise DimensionMismatch("%s is %s, expected %s"
                                % (name, "x".join(map(str, got)), "x".join(map(str, shape))))


@dataclass(frozen=True)
class HomStructure:
    """A Hom-algebra, Hom-coalgebra, Hom-bialgebra or Hom-Hopf algebra: one
    carrier whose single structure map gamma twists the product and the
    coproduct alike.  Its kind follows from which parts are set."""
    dim: int
    gamma: Matrix              # the structure map
    mult: Tensor3 = None       # mult[i][j][k] = coeff of e_k in e_i e_j
    unit: Matrix = None        # n x 1: coordinates of the unit element
    comult: Tensor3 = None     # comult[i][j][k] = coeff of e_j (x) e_k in Delta(e_i)
    counit: Matrix = None      # n x 1: the counit's values on the basis
    antipode: Matrix = None
    basis: tuple = None

    def __post_init__(self):
        n, has_alg, has_coalg = self.dim, self.mult is not None, self.comult is not None
        if has_alg != (self.unit is not None) or has_coalg != (self.counit is not None):
            raise DimensionMismatch("mult needs unit and comult needs counit")
        if self.gamma is None or not (has_alg or has_coalg):
            raise DimensionMismatch("a structure needs gamma, and mult or comult")
        if self.antipode is not None and not (has_alg and has_coalg):
            raise DimensionMismatch("an antipode needs both mult and comult")
        for name, shape in (("mult", (n, n, n)), ("comult", (n, n, n)), ("unit", (n, 1)),
                            ("counit", (n, 1)), ("gamma", (n, n)), ("antipode", (n, n))):
            if getattr(self, name) is not None:
                require_shape(getattr(self, name), shape, name)
        fit_basis(self)

    @property
    def kind(self):
        if self.comult is None:
            return "hom-algebra"
        if self.mult is None:
            return "hom-coalgebra"
        return "hom-bialgebra" if self.antipode is None else "hom-hopf"

    @property
    def algebra(self):
        """The algebra part: this structure without comult, counit or antipode."""
        return replace(self, comult=None, counit=None, antipode=None)

    @property
    def coalgebra(self):
        """The coalgebra part: this structure without mult, unit or antipode."""
        return replace(self, mult=None, unit=None, antipode=None)


# ---------------------------------------------------------------------------
# validators

def validate_hom_algebra(a):
    """Check alpha-invertible, HA1 (twist is multiplicative, fixes the unit)
    and HA2 (Hom-associativity and the twisted unit law), column by column."""
    mult, al, u, names = a.mult, a.gamma, a.unit, a.basis
    return AxiomReport().record(
        Check("alpha-invertible", a.gamma.det() != 0),
        Identity("HA1-mult", dict(a=names, b=names), [(mult, "a b -> x"), (al, "x")],
                 [(al, "a"), (al, "b"), (mult, "a b -> x")]),
        Identity("HA1-unit", (), [(u, "-> x"), (al, "x")], [(u, "-> x")], dict(x=names)),
        Identity("HA2-assoc", dict(a=names, b=names, c=names),
                 [(mult, "b c -> x"), (al, "a"), (mult, "a x -> x")],
                 [(mult, "a b -> x"), (al, "c"), (mult, "x c -> x")]),
        Identity("HA2-unit", dict(a=names), {"1*a": [(u, "-> u"), (mult, "u a -> a")],
                                             "a*1": [(u, "-> u"), (mult, "a u -> a")]},
                 [(al, "a")]))


def validate_hom_coalgebra(c):
    """Check beta-invertible, HC1 (twist is comultiplicative, preserves the
    counit) and HC2 (Hom-coassociativity and the twisted counit law), column
    by column."""
    co, be, eps, names = c.comult, c.gamma, c.counit, c.basis
    return AxiomReport().record(
        Check("beta-invertible", c.gamma.det() != 0),
        Identity("HC1", dict(a=names),
                 {"delta": [(be, "a"), (co, "a -> x y")], "counit": [(be, "a"), (eps, "a ->")]},
                 {"delta": [(co, "a -> x y"), (be, "x"), (be, "y")], "counit": [(eps, "a ->")]}),
        Identity("HC2-coassoc", dict(a=names), [(co, "a -> x y"), (co, "y -> y z"), (be, "x")],
                 [(co, "a -> x z"), (co, "x -> x y"), (be, "z")]),
        Identity("HC2-counit", dict(a=names), {"eps(c1)c2": [(co, "a -> x a"), (eps, "x ->")],
                                               "c1 eps(c2)": [(co, "a -> a x"), (eps, "x ->")]},
                 [(be, "a")]))


def validate_hom_bialgebra(h):
    """Check that the comultiplication and counit are Hom-algebra morphisms,
    column by column."""
    mult, co, eps, u, names = h.mult, h.comult, h.counit, h.unit, h.basis
    return AxiomReport().record(
        # (ab)1 (x) (ab)2 against a1 b1 (x) a2 b2
        Identity("delta-mult", dict(a=names, b=names), [(mult, "a b -> a"), (co, "a -> x y")],
                 [(co, "a -> a c"), (co, "b -> b d"), (mult, "a b -> x"), (mult, "c d -> y")]),
        Identity("delta-unit", (), [(u, "-> a"), (co, "a -> x y")], [(u, "-> x"), (u, "-> y")],
                 dict(x=names, y=names)),
        Identity("counit-mult", dict(a=names, b=names), [(mult, "a b -> a"), (eps, "a ->")],
                 [(eps, "a ->"), (eps, "b ->")]),
        Identity("counit-unit", (), {"eps(1)": [(u, "-> a"), (eps, "a ->")]}, []))


def validate_hom_hopf(h):
    """Check the antipode identities, S-twist commutation and invertibility,
    column by column."""
    mult, co, s, ga, names = h.mult, h.comult, h.antipode, h.gamma, dict(a=h.basis)
    eps_1 = [(h.unit, "-> x"), (h.counit, "a ->")]
    s_inv = h.antipode.det() != 0
    return AxiomReport().record(
        Identity("antipode-left", names, [(co, "a -> a b"), (s, "a"), (mult, "a b -> x")], eps_1),
        Identity("antipode-right", names, [(co, "a -> a b"), (s, "b"), (mult, "a b -> x")], eps_1),
        Identity("S-gamma-commute", names, [(ga, "a"), (s, "a")], [(s, "a"), (ga, "a")]),
        Check("S-invertible", s_inv)).set_flag("antipode-invertible", s_inv)


def validate_all(h):
    """Full tower report for a bialgebra or Hopf algebra."""
    rep = AxiomReport()
    rep.extend(validate_hom_algebra(h), "algebra:")
    rep.extend(validate_hom_coalgebra(h), "coalgebra:")
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
    require_shape(phi, (n, n), "phi")
    if phi.det() == 0:
        raise NotAutomorphism("phi is not invertible")
    mult, co, eps, u, legs = h.mult, h.comult, h.counit, h.unit, dict(a=n, b=n)
    phi_mult, comult_phi = [(mult, "a b -> a"), (phi, "a")], [(phi, "a"), (co, "a -> a b")]
    for identity in (
            Identity("phi o mult != mult o (phi x phi)", legs, phi_mult,
                     [(phi, "a"), (phi, "b"), (mult, "a b -> a")]),
            Identity("(phi x phi) o comult != comult o phi", dict(a=n),
                     [(co, "a -> a b"), (phi, "a"), (phi, "b")], comult_phi),
            Identity("counit o phi != counit", dict(a=n), [(phi, "a"), (eps, "a ->")],
                     [(eps, "a ->")]),
            Identity("phi does not fix the unit", (), [(u, "-> a"), (phi, "a")], [(u, "-> a")])):
        if not identity.decide().passed:
            raise NotAutomorphism(identity.axiom)
    return replace(h, gamma=phi, mult=compose(legs, phi_mult, "a").product(),
                   comult=compose(dict(a=n), comult_phi, "a b").coproduct(n))


def dual_hopf(b):
    """The dual Hom-Hopf algebra on the coordinate dual basis:
    (f*g)(y) = f(b^-2(y1)) g(b^-2(y2)), Delta(f)(x(x)y) = f(b^-2(xy)),
    unit = counit, counit(f) = f(1), antipode = transpose, twist f -> f o b^-1.
    Its product and coproduct are the transposes of (b^-2 (x) b^-2) o Delta
    and b^-2 o mult: each composite's columns with legs moved once."""
    n, bi = b.dim, b.gamma.inv()
    mult, ms = compose(dict(x=n), [(b.comult, "x -> y z")] + [(bi, "y"), (bi, "z")] * 2,
                       "y z").columns()
    comult, cs = compose(dict(x=n, y=n), [(b.mult, "x y -> z"), (bi, "z"), (bi, "z")],
                         "z").columns()
    # the dual product's legs (f, g | h) are those of Delta's (x | y, z)
    # moved to (y, z | x), and the dual coproduct's (f, g | h) those of
    # mult's (x, y | z) moved to (z, x | y)
    s = b.antipode
    return HomStructure(n, bi.transpose(),
                        Tensor3.from_int_columns(move_legs(mult, (n,), (n, n), (1, 2), (0,)),
                                                 ms, (n, n, n)), b.counit,
                        Tensor3.from_int_columns(move_legs(comult, (n, n), (n,), (2, 0), (1,)),
                                                 cs, (n, n, n)), b.unit,
                        None if s is None else s.transpose(),
                        tuple(x + "*" for x in b.basis))


def tensor_algebra(a, c):
    """Componentwise tensor product Hom-algebra of the algebra parts of a and
    c on the lexicographic basis: (x (x) y)(x' (x) y') = xx' (x) yy'."""
    mult = compose(dict(x=a.dim, y=c.dim, z=a.dim, w=c.dim),
                   [(a.mult, "x z -> x"), (c.mult, "y w -> y")], "x y").product(2)
    return HomStructure(a.dim * c.dim, per_leg_matrix(a.gamma, c.gamma), mult,
                        per_leg_matrix(a.unit, c.unit), basis=tensor_basis(a.basis, c.basis))


def tensor_basis(first, second):
    """The names of the lexicographic basis of a tensor product."""
    return tuple("%s⊗%s" % (x, y) for x in first for y in second)


def tensor_hopf(h, b):
    """Componentwise tensor product Hom-Hopf algebra on the lexicographic basis."""
    comult = compose(dict(x=h.dim, y=b.dim), [(h.comult, "x -> x z"), (b.comult, "y -> y w")],
                     "x y z w").coproduct(h.dim * b.dim)
    s = (None if h.antipode is None or b.antipode is None
         else per_leg_matrix(h.antipode, b.antipode))
    return replace(tensor_algebra(h, b), comult=comult, antipode=s,
                   counit=per_leg_matrix(h.counit, b.counit))


def opposite_algebra(a):
    """The algebra part of a with the multiplication reversed."""
    mult_op = compose(dict(x=a.dim, y=a.dim), [(a.mult, "y x -> x")], "x").product()
    return HomStructure(a.dim, a.gamma, mult_op, a.unit, basis=a.basis)


# ---------------------------------------------------------------------------
# quasitriangular / coquasitriangular

def validate_quasitriangular(h, r):
    """QHA1-QHA5 plus the triangularity test, column by column.

    The triangular flag holds when R R21 = 1 (x) 1 for the flip R21 of R,
    decided as an element identity; the flip of H (x) H is an automorphism
    of the componentwise product, so R21 is then a two-sided inverse of R,
    which also makes R invertible there.  Only when it is not is
    invertibility decided, by an exact linear solve on the n^2 x n^2
    matrices of left and right multiplication by R; either way it is
    reported as the convolution-invertible flag.
    """
    n = h.dim
    require_shape(r, (n, n), "R")
    mult, co, be, u, names = h.mult, h.comult, h.gamma, h.unit, h.basis
    rep = AxiomReport().record(
        Identity("QHA1", (), {"eps(R1)R2": [(r, "-> a b"), (h.counit, "a ->")],
                              "R1eps(R2)": [(r, "-> b a"), (h.counit, "a ->")]}, [(u, "-> b")]),
        # (Delta (x) b)(R) against b(R1) (x) b(R'1) (x) R2 R'2
        Identity("QHA2", (), [(r, "-> a c"), (co, "a -> a b"), (be, "c")],
                 [(r, "-> a x"), (r, "-> b y"), (be, "a"), (be, "b"), (mult, "x y -> c")],
                 dict(a=names, b=names, c=names)),
        # (b (x) Delta)(R) against R1 R'1 (x) b(R'2) (x) b(R2)
        Identity("QHA3", (), [(r, "-> a x"), (co, "x -> b c"), (be, "a")],
                 [(r, "-> x c"), (r, "-> y b"), (mult, "x y -> a"), (be, "b"), (be, "c")],
                 dict(a=names, b=names, c=names)),
        # h2 R1 (x) h1 R2 against R1 h1 (x) R2 h2
        Identity("QHA4", dict(h=names),
                 [(co, "h -> a b"), (r, "-> c d"), (mult, "b c -> x"), (mult, "a d -> y")],
                 [(co, "h -> a b"), (r, "-> c d"), (mult, "c a -> x"), (mult, "d b -> y")]),
        Identity("QHA5", (), [(r, "-> a b"), (be, "a"), (be, "b")], [(r, "-> a b")],
                 dict(a=names, b=names)))
    # R R21 against 1 (x) 1, with R' = d (x) c, so R21 = c (x) d
    triangular = Identity("triangular", (), [(r, "-> a b"), (r, "-> d c"), (mult, "a c -> x"),
                                             (mult, "b d -> y")],
                          [(u, "-> x"), (u, "-> y")]).decide().passed
    # x -> R x and x -> x R on H (x) H; a two-sided inverse R21 solves the
    # stacked system, so the system is solved only when R21 is not one
    lmul, rmul = ([(r, "-> r s"), (mult, left), (mult, right)] for left, right in
                  (("r x -> x", "s y -> y"), ("x r -> x", "y s -> y")))
    rep.set_flag("convolution-invertible", triangular or _stacked_solvable(
        compose(dict(x=n, y=n), lmul, "x y").columns(),
        compose(dict(x=n, y=n), rmul, "x y").columns(),
        compose((), [(u, "-> x"), (u, "-> y")], "x y").columns()))
    return rep.set_flag("triangular", triangular)


def _stacked_solvable(left, right, unit):
    """Whether x -> (left x, right x) = (unit, unit) has a solution, for the
    int columns of two maps and of an element on the same space."""
    (lcols, ls), (rcols, rs), ((ucol,), us) = left, right, unit
    nn = len(lcols)
    stacked = [[(i, x * rs) for i, x in lc] + [(nn + i, x * ls) for i, x in rc]
               for lc, rc in zip(lcols, rcols)]
    rhs = Matrix.from_int_columns([ucol + [(nn + i, x) for i, x in ucol]], us, 2 * nn)
    return solve_exact(Matrix.from_int_columns(stacked, ls * rs, 2 * nn), rhs) is not None


def validate_coquasitriangular(b, form):
    """CHA1-CHA5 plus the cotriangularity test on a bilinear form, column by
    column."""
    n = b.dim
    require_shape(form, (n, n), "form")
    mult, co, be, eps, names = b.mult, b.comult, b.gamma, b.counit, b.basis
    hg, hgl = dict(h=names, g=names), dict(h=names, g=names, l=names)
    return AxiomReport().record(
        # <hg|b(l)> against <b(h)|l2><b(g)|l1>
        Identity("CHA1", hgl, [(mult, "h g -> x"), (be, "l"), (form, "x l ->")],
                 [(co, "l -> a c"), (be, "h"), (be, "g"), (form, "g a ->"), (form, "h c ->")]),
        # <b(h)|gl> against <h1|b(g)><h2|b(l)>
        Identity("CHA2", hgl, [(mult, "g l -> x"), (be, "h"), (form, "h x ->")],
                 [(co, "h -> a c"), (be, "g"), (be, "l"), (form, "a g ->"), (form, "c l ->")]),
        # <h1|g1> g2 h2 against h1 g1 <h2|g2>
        Identity("CHA3", hg, [(co, "h -> a c"), (co, "g -> d e"), (form, "a d ->"),
                              (mult, "e c -> x")],
                 [(co, "h -> a c"), (co, "g -> d e"), (form, "c e ->"), (mult, "a d -> x")]),
        # <1|h> and <h|1>, each against eps(h)
        Identity("CHA4", dict(h=n), {"<1|h>": [(b.unit, "-> x"), (form, "x h ->")],
                                     "<h|1>": [(b.unit, "-> x"), (form, "h x ->")]},
                 [(eps, "h ->")]),
        Identity("CHA5", hg, [(be, "h"), (be, "g"), (form, "h g ->")], [(form, "h g ->")]),
    ).set_flag("cotriangular", Identity(  # <h1|g1><g2|h2> against eps(h) eps(g)
        "cotriangular", hg, [(co, "h -> a c"), (co, "g -> d e"), (form, "a d ->"),
                             (form, "e c ->")], [(eps, "h ->"), (eps, "g ->")]).decide().passed)
