"""Hom-modules, Hom-comodules and Hom-Yetter-Drinfeld modules.

Carriers are described by structure constants: action[h][i][j] is the
coefficient of m_j in e_h . m_i, coaction[i][a][j] the coefficient of
b_a (x) m_j in rho(m_i).  The compatibility condition and its Hopf-case
reformulation are both checked; the reformulation is a cross-check only.
"""

from dataclasses import dataclass

from .linalg import Matrix, Tensor3, DimensionMismatch, kron, permute_output_legs
from .homstruct import HomAlgebra, HomCoalgebra, HomBialgebra
from .report import AxiomReport, matrices_equal_report


@dataclass(frozen=True)
class HomModule:
    over: HomAlgebra
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
            object.__setattr__(self, "basis",
                               tuple("m%d" % i for i in range(self.dim)))

    @property
    def action_map(self):
        """Matrix of the action H (x) M -> M."""
        return self.action.flatten_in2_out1()


@dataclass(frozen=True)
class HomComodule:
    over: HomCoalgebra
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
            object.__setattr__(self, "basis",
                               tuple("m%d" % i for i in range(self.dim)))

    @property
    def coaction_map(self):
        """Matrix of the coaction M -> C (x) M."""
        return self.coaction.flatten_in1_out2()


@dataclass(frozen=True)
class YetterDrinfeldModule:
    """A module and comodule over one Hom-bialgebra sharing a structure map."""
    over: HomBialgebra
    dim: int
    action: Tensor3
    coaction: Tensor3
    structure_map: Matrix
    basis: tuple = None

    def __post_init__(self):
        if self.basis is None:
            object.__setattr__(self, "basis",
                               tuple("m%d" % i for i in range(self.dim)))

    def module_part(self):
        return HomModule(self.over.algebra, self.dim, self.action,
                         self.structure_map, self.basis)

    def comodule_part(self):
        return HomComodule(self.over.coalgebra, self.dim, self.coaction,
                           self.structure_map, self.basis)


def validate_hom_module(a, m):
    """Check nu-invertible, HM1 (nu(h.m) = alpha(h).nu(m)) and HM2
    (twisted associativity and the unit acting as nu)."""
    if m.action.dims != (a.dim, m.dim, m.dim):
        raise DimensionMismatch("module over dim-%d algebra has action dims %r"
                                % (a.dim, m.action.dims))
    rep = AxiomReport()
    rep.add("nu-invertible", m.nu.det() != 0)
    am, nu, al, mm = m.action_map, m.nu, a.alpha, a.mult_map
    eye_m = Matrix.identity(m.dim)
    hn, mn = a.basis, m.basis
    matrices_equal_report(rep, "HM1", nu * am, am * kron(al, nu),
                          (a.dim, m.dim), (hn, mn))
    matrices_equal_report(rep, "HM2-assoc",
                          am * kron(al, am), am * kron(mm, nu),
                          (a.dim, a.dim, m.dim), (hn, hn, mn))
    matrices_equal_report(rep, "HM2-unit", am * kron(a.unit_col, eye_m), nu,
                          (m.dim,), (mn,))
    return rep


def validate_hom_comodule(c, m):
    """Check mu-invertible, HCM1 (mu-compatibility and counit law) and HCM2
    (twisted coassociativity of the coaction)."""
    if m.coaction.dims != (m.dim, c.dim, m.dim):
        raise DimensionMismatch("comodule over dim-%d coalgebra has coaction dims %r"
                                % (c.dim, m.coaction.dims))
    rep = AxiomReport()
    rep.add("mu-invertible", m.mu.det() != 0)
    co, mu, be, cm = m.coaction_map, m.mu, c.beta, c.comult_map
    eye_m = Matrix.identity(m.dim)
    mn = m.basis
    matrices_equal_report(rep, "HCM1-a", co * mu, kron(be, mu) * co,
                          (m.dim,), (mn,))
    matrices_equal_report(rep, "HCM1-b", kron(c.counit_row, eye_m) * co, mu,
                          (m.dim,), (mn,))
    matrices_equal_report(rep, "HCM2",
                          kron(be, co) * co, kron(cm, mu) * co,
                          (m.dim,), (mn,))
    return rep


def check_yd(h, m):
    """Compatibility of action and coaction over one Hom-bialgebra.

    Checks (HYD); with an antipode available also the reformulation (HYD)'
    and a consistency flag recording that both verdicts agree.
    """
    n = h.dim
    d = m.dim
    am = m.action.flatten_in2_out1()
    co = m.coaction.flatten_in1_out2()
    nu = m.structure_map
    be = h.gamma
    mm, cm = h.mult_map, h.comult_map
    eye_h, eye_m = Matrix.identity(n), Matrix.identity(d)
    rep = AxiomReport()

    be2 = be * be
    be3 = be2 * be

    # h1 b(m-1) (x) b^3(h2) . m0
    lhs = (kron(mm * kron(eye_h, be), am * kron(be3, eye_m))
           * permute_output_legs(kron(cm, co), [n, n, n, d], [0, 2, 1, 3]))
    # w = b^2(h1) . m ; w-1 h2 (x) w0
    act_b2 = am * kron(be2, eye_m)
    step = kron(act_b2, eye_h) * permute_output_legs(kron(cm, eye_m), [n, n, d], [0, 2, 1])
    rhs = (kron(mm, eye_m)
           * permute_output_legs(kron(co, eye_h) * step, [n, d, n], [0, 2, 1]))
    matrices_equal_report(rep, "HYD", lhs, rhs, (n, d), (h.basis, m.basis))

    if h.antipode is not None:
        s = h.antipode
        be4 = be3 * be
        b2i = (be * be).inv()
        lhs2 = co * am * kron(be4, eye_m)
        split = kron(kron(cm, eye_h) * cm, co)       # [h11, h12, h2, m-1, m0]
        g1 = mm * kron(b2i * mm * kron(eye_h, be), s)  # [h11, m-1, h2] -> H
        g2 = am * kron(be3, eye_m)                     # [h12, m0] -> M
        rhs2 = kron(g1, g2) * permute_output_legs(split, [n, n, n, n, d], [0, 3, 2, 1, 4])
        matrices_equal_report(rep, "HYD-prime", lhs2, rhs2, (n, d), (h.basis, m.basis))
        rep.set_flag("hyd-consistent", rep.passed("HYD") == rep.passed("HYD-prime"))
    return rep


def yd_prebraiding(m, n):
    """Matrix of the pre-braiding M (x) N -> N (x) M,
    m (x) n -> b^2(m-1) . nu^-1(n) (x) mu^-1(m0), on lexicographic bases."""
    if m.over != n.over:
        raise DimensionMismatch("pre-braiding of modules over different bialgebras")
    hb = m.over
    nh = hb.dim
    be2 = hb.gamma * hb.gamma
    act_n = n.action.flatten_in2_out1()
    g = act_n * kron(be2, n.structure_map.inv())
    return (kron(g, m.structure_map.inv())
            * permute_output_legs(kron(m.coaction.flatten_in1_out2(),
                                       Matrix.identity(n.dim)),
                                  [nh, m.dim, n.dim], [0, 2, 1]))
