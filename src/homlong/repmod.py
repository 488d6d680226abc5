"""Hom-modules, Hom-comodules and Hom-Yetter-Drinfeld modules.

Each lives over a homstruct.HomStructure held as `over`: a module over one
with a product, a comodule over one with a coproduct, a Yetter-Drinfeld
module over one with both.  The validators read only the part they need,
so a module's algebra may be passed as a whole Hom-bialgebra.

Carriers are described by structure constants: action[h][i][j] is the
coefficient of m_j in e_h . m_i, coaction[i][a][j] the coefficient of
b_a (x) m_j in rho(m_i).  The compatibility condition and its Hopf-case
reformulation are both checked; the reformulation is a cross-check only.
Every identity is a pair of composites of leg steps (see linalg, where the
step helpers live), compared on batches of basis columns.
"""

from dataclasses import dataclass

from .linalg import (Matrix, Tensor3, Composite, DimensionMismatch, coproduct_columns,
                     flip_columns, insert_columns, pair_columns, sparse_columns)
from .homstruct import HomStructure, default_basis
from .report import AxiomReport, composites_equal_report


@dataclass(frozen=True)
class HomModule:
    over: HomStructure
    dim: int
    action: Tensor3        # action[h][i][j] = coeff of m_j in e_h . m_i
    nu: Matrix
    basis: tuple = None

    def __post_init__(self):
        if self.action.dims != (self.over.dim, self.dim, self.dim):
            raise DimensionMismatch("action tensor %r for algebra dim %d, module dim %d"
                                    % (self.action.dims, self.over.dim, self.dim))
        if self.nu.rows != self.dim or self.nu.cols != self.dim:
            raise DimensionMismatch("structure map is %dx%d on a dim-%d module"
                                    % (self.nu.rows, self.nu.cols, self.dim))
        if self.basis is None:
            object.__setattr__(self, "basis", default_basis(self.dim, "m"))


@dataclass(frozen=True)
class HomComodule:
    over: HomStructure
    dim: int
    coaction: Tensor3      # coaction[i][a][j] = coeff of b_a (x) m_j in rho(m_i)
    mu: Matrix
    basis: tuple = None

    def __post_init__(self):
        if self.coaction.dims != (self.dim, self.over.dim, self.dim):
            raise DimensionMismatch("coaction tensor %r for coalgebra dim %d, module dim %d"
                                    % (self.coaction.dims, self.over.dim, self.dim))
        if self.mu.rows != self.dim or self.mu.cols != self.dim:
            raise DimensionMismatch("structure map is %dx%d on a dim-%d comodule"
                                    % (self.mu.rows, self.mu.cols, self.dim))
        if self.basis is None:
            object.__setattr__(self, "basis", default_basis(self.dim, "m"))


@dataclass(frozen=True)
class YetterDrinfeldModule:
    """A module and comodule over one Hom-bialgebra sharing a structure map."""
    over: HomStructure
    dim: int
    action: Tensor3
    coaction: Tensor3
    structure_map: Matrix
    basis: tuple = None

    def __post_init__(self):
        check_carrier_shapes(self.over.dim, self.over.dim, self.dim, self.action,
                             self.coaction, self.structure_map)
        if self.basis is None:
            object.__setattr__(self, "basis", default_basis(self.dim, "m"))

    def module_part(self):
        return HomModule(self.over.algebra, self.dim, self.action,
                         self.structure_map, self.basis)

    def comodule_part(self):
        return HomComodule(self.over.coalgebra, self.dim, self.coaction,
                           self.structure_map, self.basis)


def check_carrier_shapes(nh, nb, dim, action, coaction, mu):
    """Refuse an action, coaction or structure map that does not fit a
    carrier of dim dim acted on by an H of dim nh and coacted on by a B of
    dim nb."""
    if action.dims != (nh, dim, dim):
        raise DimensionMismatch("action dims %r for H dim %d, carrier dim %d"
                                % (action.dims, nh, dim))
    if coaction.dims != (dim, nb, dim):
        raise DimensionMismatch("coaction dims %r for B dim %d, carrier dim %d"
                                % (coaction.dims, nb, dim))
    if mu.rows != dim or mu.cols != dim:
        raise DimensionMismatch("structure map is %dx%d on a dim-%d carrier"
                                % (mu.rows, mu.cols, dim))


def validate_hom_module(a, m):
    """Check nu-invertible, HM1 (nu(h.m) = alpha(h).nu(m)) and HM2
    (twisted associativity and the unit acting as nu), column by column."""
    if m.action.dims != (a.dim, m.dim, m.dim):
        raise DimensionMismatch("module over dim-%d algebra has action dims %r"
                                % (a.dim, m.action.dims))
    rep = AxiomReport()
    rep.add("nu-invertible", m.nu.det() != 0)
    act, nu, al = sparse_columns(m.action), sparse_columns(m.nu), sparse_columns(a.gamma)
    to_m, hn, mn = (m.dim,), a.basis, m.basis
    composites_equal_report(rep, "HM1", [(act, (0, 1), to_m), (nu, (0,), None)],
                            [(al, (0,), None), (nu, (1,), None), (act, (0, 1), to_m)],
                            (hn, mn))
    composites_equal_report(rep, "HM2-assoc",
                            [(act, (1, 2), to_m), (al, (0,), None), (act, (0, 1), to_m)],
                            [(sparse_columns(a.mult), (0, 1), (a.dim,)), (nu, (1,), None),
                             (act, (0, 1), to_m)],
                            (hn, hn, mn))
    composites_equal_report(rep, "HM2-unit",
                            [(insert_columns(a.unit, m.dim), (0,), (a.dim, m.dim)),
                             (act, (0, 1), to_m)],
                            [(nu, (0,), None)], (mn,))
    return rep


def validate_hom_comodule(c, m):
    """Check mu-invertible, HCM1 (mu-compatibility and counit law) and HCM2
    (twisted coassociativity of the coaction), column by column."""
    if m.coaction.dims != (m.dim, c.dim, m.dim):
        raise DimensionMismatch("comodule over dim-%d coalgebra has coaction dims %r"
                                % (c.dim, m.coaction.dims))
    rep = AxiomReport()
    rep.add("mu-invertible", m.mu.det() != 0)
    co, mu, be = coproduct_columns(m.coaction), sparse_columns(m.mu), sparse_columns(c.gamma)
    to_cm, names = (c.dim, m.dim), (m.basis,)
    composites_equal_report(rep, "HCM1-a", [(mu, (0,), None), (co, (0,), to_cm)],
                            [(co, (0,), to_cm), (be, (0,), None), (mu, (1,), None)],
                            names)
    composites_equal_report(rep, "HCM1-b",
                            [(co, (0,), to_cm), (pair_columns(c.counit), (0,), ())],
                            [(mu, (0,), None)], names)
    composites_equal_report(rep, "HCM2",
                            [(co, (0,), to_cm), (be, (0,), None), (co, (1,), to_cm)],
                            [(co, (0,), to_cm),
                             (coproduct_columns(c.comult), (0,), (c.dim, c.dim)),
                             (mu, (2,), None)],
                            names)
    return rep


def check_yd(h, m):
    """Compatibility of action and coaction over one Hom-bialgebra, column
    by column: (HYD); with an antipode also the reformulation (HYD)' and a
    flag recording that both verdicts agree."""
    n, d, rep = h.dim, m.dim, AxiomReport()
    act, co = sparse_columns(m.action), coproduct_columns(m.coaction)
    mult, comult = sparse_columns(h.mult), coproduct_columns(h.comult)
    # b^k on a leg as the step b k times
    be = sparse_columns(h.gamma)
    to_h, to_m, to_hh, to_hm = (n,), (d,), (n, n), (n, d)

    # h1 b(m-1) (x) b^3(h2) . m0: split h and m, bring m-1 next to h1
    lhs = [(comult, (0,), to_hh), (co, (2,), to_hm), (flip_columns(n, n), (1, 2), None),
           (be, (1,), None), (mult, (0, 1), to_h), *[(be, (1,), None)] * 3, (act, (1, 2), to_m)]
    # w = b^2(h1) . m ; w-1 h2 (x) w0
    rhs = [(comult, (0,), to_hh), (flip_columns(n, d), (1, 2), (d, n)), *[(be, (0,), None)] * 2,
           (act, (0, 1), to_m), (co, (0,), to_hm), (flip_columns(d, n), (1, 2), (n, d)),
           (mult, (0, 1), to_h)]
    composites_equal_report(rep, "HYD", lhs, rhs, (h.basis, m.basis))

    if h.antipode is not None:
        # co(b^4(h) . m) against (b^-2(h11 b(m-1)) S(h2)) (x) b^3(h12) . m0
        lhs2 = [(be, (0,), None)] * 4 + [(act, (0, 1), to_m), (co, (0,), to_hm)]
        # b^-2 as b's inverse twice
        bi = (sparse_columns(h.gamma.inv()), (0,), None)
        rhs2 = [(comult, (0,), to_hh), (flip_columns(n, d), (1, 2), (d, n)),
                (co, (1,), to_hm), (comult, (0,), to_hh), (flip_columns(n, n), (1, 2), None),
                *[(be, (2,), None)] * 3, (act, (2, 3), to_m),
                (flip_columns(d, n), (2, 3), (n, d)), (be, (1,), None), (mult, (0, 1), to_h),
                bi, bi, (sparse_columns(h.antipode), (1,), None), (mult, (0, 1), to_h)]
        composites_equal_report(rep, "HYD-prime", lhs2, rhs2, (h.basis, m.basis))
        rep.set_flag("hyd-consistent", rep.passed("HYD") == rep.passed("HYD-prime"))
    return rep


def yd_prebraiding(m, n):
    """Matrix of the pre-braiding M (x) N -> N (x) M,
    m (x) n -> b^2(m-1) . nu^-1(n) (x) mu^-1(m0), a batch of columns at a time."""
    if m.over != n.over:
        raise DimensionMismatch("pre-braiding of modules over different bialgebras")
    nh = m.over.dim
    steps = [(coproduct_columns(m.coaction), (0,), (nh, m.dim)),
             (flip_columns(m.dim, n.dim), (1, 2), (n.dim, m.dim)),
             *[(sparse_columns(m.over.gamma), (0,), None)] * 2,
             (sparse_columns(n.structure_map.inv()), (1,), None),
             (sparse_columns(n.action), (0, 1), (n.dim,)),
             (sparse_columns(m.structure_map.inv()), (1,), None)]
    return Composite(steps, (m.dim, n.dim)).matrix()
