"""Worked small instances shared by tests, demos and the CLI tour.

Group algebras of small cyclic groups, the 4-dimensional Hopf algebra with a
group-like g and a skew-primitive x, their twists by algebra automorphisms,
the standard triangular/cotriangular data on the order-2 group algebra, and
the little zoo of dimodules used throughout.
"""

from dataclasses import replace
from fractions import Fraction

from .linalg import Matrix, per_leg_matrix
from .homstruct import HomStructure, tensor_hopf, yau_twist
from .repmod import Carrier
from .longdimod import canonical_dimodule, counit_action, trivial_dimodule, unit_dimodule


def group_hopf(m, names=None):
    """Group algebra of the cyclic group of order m, identity twist."""
    mult = Matrix.from_tensor([[[int(k == (i + j) % m) for k in range(m)] for j in range(m)]
                               for i in range(m)])
    comult = Matrix.from_tensor([[[int(j == i == k) for k in range(m)] for j in range(m)]
                                 for i in range(m)])
    unit = Matrix([[1]] + [[0]] * (m - 1))
    counit = Matrix([[1]] * m)
    s = Matrix.from_function(m, m, lambda i, j: 1 if i == (-j) % m else 0)
    if names is None:
        names = tuple("1" if i == 0 else ("g" if i == 1 else "g%d" % i)
                      for i in range(m))
    return HomStructure(m, Matrix.identity(m), mult, unit, comult, counit, s, names)


def field_hopf():
    """The ground field as a one-dimensional Hopf algebra."""
    return group_hopf(1, names=("1",))


def kz2():
    return group_hopf(2)


def kz4():
    return group_hopf(4)


def kz4_twist_map():
    """The order-2 automorphism g -> g^3 of the order-4 group algebra."""
    return Matrix.from_function(4, 4, lambda i, j: 1 if i == (3 * j) % 4 else 0)


def kz4_twisted():
    return yau_twist(kz4(), kz4_twist_map())


def kz5_twist_map():
    """g -> g^2 on the order-5 group algebra; an automorphism of order 4."""
    return Matrix.from_function(5, 5, lambda i, j: 1 if i == (2 * j) % 5 else 0)


def kz5_twisted():
    return yau_twist(group_hopf(5), kz5_twist_map())


def klein_hopf():
    """Group algebra of Z2 x Z2; basis (1, b, a, ab)."""
    return replace(tensor_hopf(kz2(), kz2()), basis=("1", "b", "a", "ab"))


def klein_rmatrix():
    """(1x1 + 1xb + ax1 - axb)/2: quasitriangular but NOT triangular."""
    h = Fraction(1, 2)
    r = [[0] * 4 for _ in range(4)]
    r[0][0] = h
    r[0][1] = h
    r[2][0] = h
    r[2][1] = -h
    return Matrix(r)


def sweedler_hopf():
    """The 4-dimensional Hopf algebra k<g, x> with g^2 = 1, x^2 = 0,
    xg = -gx, g group-like and x skew-primitive; basis (1, g, x, gx)."""
    n = 4
    table = {
        (0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: 1},
        (1, 0): {1: 1}, (1, 1): {0: 1}, (1, 2): {3: 1}, (1, 3): {2: 1},
        (2, 0): {2: 1}, (2, 1): {3: -1}, (2, 2): {}, (2, 3): {},
        (3, 0): {3: 1}, (3, 1): {2: -1}, (3, 2): {}, (3, 3): {},
    }
    mult = Matrix.from_tensor([[[table[i, j].get(k, 0) for k in range(n)] for j in range(n)]
                               for i in range(n)])
    cop = {
        0: {(0, 0): 1},
        1: {(1, 1): 1},
        2: {(2, 0): 1, (1, 2): 1},
        3: {(3, 1): 1, (0, 3): 1},
    }
    comult = Matrix.from_tensor([[[cop[i].get((j, k), 0) for k in range(n)] for j in range(n)]
                                 for i in range(n)])
    unit = Matrix([[1], [0], [0], [0]])
    counit = Matrix([[1], [1], [0], [0]])
    s = Matrix.from_function(n, n, lambda i, j: {(0, 0): 1, (1, 1): 1,
                                                 (3, 2): -1, (2, 3): 1}.get((i, j), 0))
    names = ("1", "g", "x", "gx")
    return HomStructure(n, Matrix.identity(n), mult, unit, comult, counit, s, names)


def sweedler_twist_map():
    """The automorphism fixing 1, g and negating x, gx."""
    return Matrix.diagonal([1, 1, -1, -1])


def sweedler_twisted():
    return yau_twist(sweedler_hopf(), sweedler_twist_map())


def sweedler_scaled_twisted(c=2):
    """Twist by the automorphism scaling x (and gx) by c: for c not a root of
    unity the twist has infinite order, the hardest case for the negative
    twist powers."""
    return yau_twist(sweedler_hopf(), Matrix.diagonal([1, 1, c, c]))


# ---------------------------------------------------------------------------
# (co)quasitriangular data

def kz2_rmatrix():
    """The triangular element (1x1 + 1xg + gx1 - gxg)/2 on the order-2
    group algebra."""
    h = Fraction(1, 2)
    return Matrix([[h, h], [h, -h]])


def kz2_form():
    """The cotriangular form with <g|g> = -1, all other pairings 1."""
    return Matrix([[1, 1], [1, -1]])


def trivial_rmatrix(h):
    """R = 1 (x) 1, quasitriangular whenever the coproduct is cocommutative."""
    return per_leg_matrix(h.unit, h.unit.transpose())


def sweedler_rmatrix():
    """The group-block triangular element (1x1 + 1xg + gx1 - gxg)/2 on the
    4-dimensional algebra; valid for the classical base and all its twists."""
    h = Fraction(1, 2)
    return Matrix([[h, h, 0, 0], [h, -h, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])


def trivial_form(b):
    """<h|g> = eps(h) eps(g), coquasitriangular whenever mult is commutative."""
    return per_leg_matrix(b.counit, b.counit.transpose())


# ---------------------------------------------------------------------------
# modules and comodules over the order-2 group algebra

def sign_module(h=None, scale=1):
    """One-dimensional module with g.v = -c v and structure map c."""
    if h is None:
        h = kz2()
    c = Fraction(scale)
    action = Matrix.from_tensor([[[c]], [[-c]]])
    return Carrier(h.algebra, None, 1, action, None, Matrix([[c]]), ("v",))


def sign_comodule(b=None, scale=1):
    """One-dimensional comodule with rho(v) = c g (x) v and structure map c."""
    if b is None:
        b = kz2()
    c = Fraction(scale)
    coaction = Matrix.from_tensor([[[0], [c]]])
    return Carrier(None, b.coalgebra, 1, None, coaction, Matrix([[c]]), ("v",))


def regular_module(h):
    """The algebra acting on itself by multiplication."""
    return Carrier(h.algebra, None, h.dim, h.mult, None, h.gamma, h.basis)


def regular_comodule(b):
    """The coalgebra coacting on itself by comultiplication."""
    return Carrier(None, b.coalgebra, b.dim, None, b.comult, b.gamma, b.basis)


def trivial_module(h, mu=None):
    """h . m = eps(h) mu(m) on any carrier with invertible mu."""
    if mu is None:
        mu = Matrix.identity(1)
    return Carrier(h.algebra, None, mu.rows, counit_action(h, mu), None, mu)


# ---------------------------------------------------------------------------
# dimodules over the pair (kz2, kz2)

def sign_dimodule(h=None, b=None, scale=1):
    """One-dimensional dimodule: g.v = -c v, rho(v) = c g (x) v, mu = c."""
    if h is None:
        h = kz2()
    if b is None:
        b = kz2()
    c = Fraction(scale)
    action = Matrix.from_tensor([[[c]], [[-c]]])
    coaction = Matrix.from_tensor([[[0], [c]]])
    return Carrier(h, b, 1, action, coaction, Matrix([[c]]), ("v",))


def standard_dimodules(h=None, b=None):
    """The fixture roster used by the acceptance suite: trivial, sign and
    the canonical carrier H (x) B."""
    if h is None:
        h = kz2()
    if b is None:
        b = kz2()
    return {
        "trivial": trivial_dimodule(h, b),
        "sign": sign_dimodule(h, b),
        "canonical": canonical_dimodule(h, b),
    }


def scaled_dimodules(h=None, b=None):
    """Structure maps that are not involutions, to exercise the mu powers."""
    if h is None:
        h = kz2()
    if b is None:
        b = kz2()
    return {
        "trivial-x2": trivial_dimodule(h, b, Matrix([[Fraction(2)]])),
        "sign-x2": sign_dimodule(h, b, scale=2),
        "trivial-diag12": trivial_dimodule(h, b, Matrix.diagonal([1, 2])),
    }


__all__ = [
    "group_hopf", "field_hopf", "kz2", "kz4", "kz4_twist_map", "kz4_twisted",
    "kz5_twist_map", "kz5_twisted", "sweedler_hopf", "sweedler_twist_map",
    "sweedler_twisted", "sweedler_scaled_twisted", "klein_hopf",
    "klein_rmatrix", "kz2_rmatrix", "kz2_form", "trivial_rmatrix",
    "trivial_form", "sign_module", "sign_comodule", "regular_module",
    "regular_comodule", "trivial_module", "sign_dimodule",
    "standard_dimodules", "scaled_dimodules", "canonical_dimodule",
    "trivial_dimodule", "unit_dimodule",
]
