"""Hom-modules, Hom-comodules and Hom-Yetter-Drinfeld modules.

Each lives over a homstruct.HomStructure held as `over`: a module over one
with a product, a comodule over one with a coproduct, a Yetter-Drinfeld
module over one with both.  The validators read only the part they need,
so a module's algebra may be passed as a whole Hom-bialgebra.

Carriers are described by structure constants: action[h][i][j] is the
coefficient of m_j in e_h . m_i, coaction[i][a][j] the coefficient of
b_a (x) m_j in rho(m_i).  The compatibility condition and its Hopf-case
reformulation are both checked; the reformulation is a cross-check only.
Every axiom is a report.Identity on named legs.
"""

from dataclasses import dataclass

from .linalg import Matrix, Tensor3, DimensionMismatch
from .homstruct import HomStructure, default_basis
from .report import AxiomReport, Check, Identity, compose


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
    act, nu, al, hn = m.action, m.nu, a.gamma, a.basis
    return AxiomReport().record(
        Check("nu-invertible", m.nu.det() != 0),
        Identity("HM1", dict(h=hn, m=m.basis), [(act, "h m -> m"), (nu, "m")],
                 [(al, "h"), (nu, "m"), (act, "h m -> m")]),
        Identity("HM2-assoc", dict(h=hn, g=hn, m=m.basis),
                 [(act, "g m -> m"), (al, "h"), (act, "h m -> m")],
                 [(a.mult, "h g -> h"), (nu, "m"), (act, "h m -> m")]),
        Identity("HM2-unit", dict(m=m.basis), [(a.unit, "-> h"), (act, "h m -> m")], [(nu, "m")]))


def validate_hom_comodule(c, m):
    """Check mu-invertible, HCM1 (mu-compatibility and counit law) and HCM2
    (twisted coassociativity of the coaction), column by column."""
    if m.coaction.dims != (m.dim, c.dim, m.dim):
        raise DimensionMismatch("comodule over dim-%d coalgebra has coaction dims %r"
                                % (c.dim, m.coaction.dims))
    co, mu, be, names = m.coaction, m.mu, c.gamma, dict(m=m.basis)
    return AxiomReport().record(
        Check("mu-invertible", m.mu.det() != 0),
        Identity("HCM1-a", names, [(mu, "m"), (co, "m -> b m")],
                 [(co, "m -> b m"), (be, "b"), (mu, "m")]),
        Identity("HCM1-b", names, [(co, "m -> b m"), (c.counit, "b ->")], [(mu, "m")]),
        Identity("HCM2", names, [(co, "m -> b m"), (be, "b"), (co, "m -> c m")],
                 [(co, "m -> b m"), (c.comult, "b -> b c"), (mu, "m")]))


def check_yd(h, m):
    """Compatibility of action and coaction over one Hom-bialgebra, column
    by column: (HYD); with an antipode also the reformulation (HYD)' and a
    flag recording that both verdicts agree."""
    act, co, mult, comult, be = m.action, m.coaction, h.mult, h.comult, h.gamma
    names = dict(h=h.basis, m=m.basis)
    # h1 b(m-1) (x) b^3(h2) . m0 against w-1 h2 (x) w0 for w = b^2(h1) . m
    rep = AxiomReport().record(Identity(
        "HYD", names, [(comult, "h -> h g"), (co, "m -> b m"), (be, "b"), (mult, "h b -> b"),
                       *[(be, "g")] * 3, (act, "g m -> m")],
        [(comult, "h -> h g"), (be, "h"), (be, "h"), (act, "h m -> m"), (co, "m -> b m"),
         (mult, "b g -> b")]))
    if h.antipode is not None:
        # co(b^4(h) . m) against (b^-2(h11 b(m-1)) S(h2)) (x) b^3(h12) . m0
        bi = (h.gamma.inv(), "b")
        rep.record(Identity(
            "HYD-prime", names, [*[(be, "h")] * 4, (act, "h m -> m"), (co, "m -> b m")],
            [(comult, "h -> h s"), (co, "m -> b m"), (comult, "h -> h g"), *[(be, "g")] * 3,
             (act, "g m -> m"), (be, "b"), (mult, "h b -> b"), bi, bi, (h.antipode, "s"),
             (mult, "b s -> b")]))
        rep.set_flag("hyd-consistent", rep.passed("HYD") == rep.passed("HYD-prime"))
    return rep


def yd_prebraiding(m, n):
    """Matrix of the pre-braiding M (x) N -> N (x) M,
    m (x) n -> b^2(m-1) . nu^-1(n) (x) mu^-1(m0)."""
    if m.over != n.over:
        raise DimensionMismatch("pre-braiding of modules over different bialgebras")
    be = (m.over.gamma, "p")
    return compose(dict(x=m.dim, y=n.dim), [
        (m.coaction, "x -> p x"), be, be, (n.structure_map.inv(), "y"),
        (n.action, "p y -> y"), (m.structure_map.inv(), "x")], "y x").matrix()
