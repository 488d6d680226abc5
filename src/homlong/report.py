"""Axiom reports: per-check verdicts with counterexample witnesses, and the
identities they decide.

A report is a list of (axiom id, pass/fail, witness) entries plus a dict of
verified flags (triangular, cotriangular, ...).  Witnesses name the basis
tuple on which an identity first failed, so a failing report doubles as a
debugging instrument.  An entry is a Check, a named tuple: immutable,
hashable, equal to any Check with the same fields and printed as
Check(axiom=..., passed=..., witness=...).

Every axiom is an Identity lhs = rhs, each side a list of steps (map,
"a b -> x") naming the tensor legs the map reads and the legs it leaves; a
validator is a table of Checks and Identities that AxiomReport.record
decides in order.  A side is compiled once per text into positional leg
moves: the compiler places the flips and the legs of the elements a side
inserts, so the text reads as the formula.  Each shape of its maps adds a
small table of ints, checked against the dims once: the permutations'
columns and linalg.layout of the steps.  _plan builds a side's Composite
from that layout and the side's maps, leaving out each map that is the
identity on its block, with no second layout: a decision compares its two
sides' Composites by linalg.first_key, and compose returns one to be read
as a map.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .linalg import (Composite, DimensionMismatch, Matrix, _is_identity, first_key, layout,
                     move_legs, moved_columns, sparse_columns, unflat_index)


class Check(NamedTuple):
    axiom: str
    passed: bool
    witness: tuple = None

    def as_tuple(self):
        return (self.axiom, "pass" if self.passed else "fail", self.witness)


@dataclass
class AxiomReport:
    checks: list = field(default_factory=list)
    flags: dict = field(default_factory=dict)

    def add(self, axiom, passed, witness=None):
        self.checks.append(Check(axiom, bool(passed), witness))
        return self

    def record(self, *items):
        """Append each item's check: a Check as it is, an Identity decided."""
        self.checks += [i.decide() if isinstance(i, Identity) else i for i in items]
        return self

    def set_flag(self, name, value):
        self.flags[name] = value
        return self

    def extend(self, other, prefix=""):
        for c in other.checks:
            self.checks.append(Check(prefix + c.axiom, c.passed, c.witness))
        for k, v in other.flags.items():
            self.flags[prefix + k] = v
        return self

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def failed(self):
        return [c for c in self.checks if not c.passed]

    def check(self, axiom):
        for c in self.checks:
            if c.axiom == axiom:
                return c
        raise KeyError(axiom)

    def passed(self, axiom):
        return self.check(axiom).passed

    def __iter__(self):
        return iter(self.checks)

    def __len__(self):
        return len(self.checks)

    def lines(self):
        out = []
        for c in self.checks:
            line = "%-28s %s" % (c.axiom, "pass" if c.passed else "FAIL")
            if c.witness is not None and not c.passed:
                line += "  witness=%r" % (c.witness,)
            out.append(line)
        for k in sorted(self.flags):
            out.append("%-28s %s" % ("[flag] " + k, self.flags[k]))
        return out

    def __str__(self):
        return "\n".join(self.lines())


class Identity(NamedTuple):
    """The axiom lhs = rhs between composites of maps on named tensor legs,
    decided column by column.

    A side is a list of steps (map, text); "a b -> x" reads the legs a and
    b, in that order, and leaves the leg x, and "a" is "a -> a".  A Matrix
    with no input legs is an element inserted and one with no output legs a
    covector paired away, by the flat coordinates i * cols + j (a unit, R, a
    counit, a form), and otherwise the map from its columns to its rows,
    split by the legs' dims; a step from one leg of dim d onto two legs not
    all named yet ("x -> a b") reads the Matrix of d * e columns of a
    product-like map (a comultiplication, a coaction) as its coproduct, onto
    dims (e, rows).  Int columns (cols, scale) from Composite.columns land
    on legs whose names give their dims.

    names_in maps each input leg to its basis names (range(n) names each
    basis vector by its index); a failure's witness names the first
    differing input basis tuple.  A leg given by its dim is left out of the
    witness, and several legs under one key ("x y z") take a tuple of bases
    and are named together, x⊗y⊗z.  An element identity is the case
    names_in = (): its witness is the first differing output coordinate,
    named by names_out, which also orders the output legs (else the rhs
    ends in the lhs's order).  A side may be a dict of labelled sides, the
    rhs one side for all or a dict by the same labels: the first label
    whose pair differs leads the witness."""

    axiom: str
    names_in: object
    lhs: object
    rhs: object
    names_out: object = ()

    def decide(self):
        """The Check of this identity."""
        symbols, dims = _legs(self.names_in)
        outs = _legs(self.names_out)[0] if self.names_out else None
        shapes = None if type(self.rhs) is dict else _shapes(self.rhs)
        for label in self.lhs if type(self.lhs) is dict else (None,):
            left = self.lhs if label is None else self.lhs[label]
            right = self.rhs if shapes is not None else self.rhs[label]
            compiled = _compiled(symbols, dims, _shapes(left), outs)
            other = _compiled(symbols, dims, shapes or _shapes(right), outs or compiled[1])
            key = first_key(_plan(compiled, left, dims), _plan(other, right, dims))
            if key is not None:
                digits = unflat_index(key, dims + compiled[2])
                named = (_named(digits, self.names_in) if symbols
                         else _named(digits[1:], self.names_out))
                return Check(self.axiom, False, named if label is None else (label,) + named)
        return Check(self.axiom, True)


def compose(legs, steps, outs):
    """The Composite of steps read as an Identity's side, from the legs legs
    (a dict from leg to dim) to the legs outs ("x y"); both ends carry a
    last unit leg of dim 1."""
    symbols, dims = _legs(legs)
    return _plan(_compiled(symbols, dims, _shapes(steps), tuple(outs.split())), steps, dims)


def _legs(names):
    """The legs and their dims, then the unit leg's, of names (Identity)."""
    symbols, dims = [], []
    for key, value in names.items() if type(names) is dict else names:
        if " " in key:
            symbols += key.split()
            dims += map(len, value)
        else:
            symbols.append(key)
            dims.append(value if type(value) is int else len(value))
    dims.append(1)
    return tuple(symbols), tuple(dims)


def _named(digits, names):
    """The witness of the basis tuple digits over the legs of names."""
    out = []
    for key, value in names.items() if type(names) is dict else names:
        legs = len(key.split())
        if type(value) is not int:
            out.append(value[digits[0]] if legs == 1 else
                       "⊗".join(b[i] for b, i in zip(value, digits)))
        digits = digits[legs:]
    return tuple(out)


def _shapes(side):
    """A side's texts with its maps' shapes: a Matrix's (rows, cols), int
    columns' column count."""
    return tuple([(text, (m.rows, m.cols) if isinstance(m, Matrix) else len(m[0]))
                  for m, text in side])


def _plan(compiled, side, dims):
    """The Composite of a compiled side on the maps of side, from the legs
    dims: each step's map, then its span, as linalg.layout laid it out.  A
    Matrix is read by its step's leg move (moved_columns), or as it is
    (sparse_columns) when the step has none; int columns are read as they
    are.  A map that is the identity on its block's dims (kz2's alpha,
    mu = id, mu^-2 of an involutive mu) leaves the plan with its scale, so
    it makes no pass."""
    plan, scale = [], 1
    for step in compiled[0]:
        k, move = step[0], step[1]
        m = move if k is None else side[k][0]
        if isinstance(m, Matrix):
            m = sparse_columns(m) if move is None else moved_columns(m, move)
        if step[2] and _is_identity(m):
            continue
        plan.append((m,) + step[3:])
        scale *= m[1]
    return Composite((plan, compiled[2], scale), dims)


@functools.lru_cache(maxsize=1024)
def _compiled(symbols, dims, side, target):
    """A side (texts and map shapes) on the legs symbols of dims dims, the
    last the unit leg, ending on target when given, as its moves (_arranged,
    once per text) read for one shape: (steps, the legs it leaves, their
    dims).  A step is (map index, leg move, whether a map keeps its block's
    dims), then its span from linalg.layout, in one tuple; a permutation
    has index None and its columns for move.  A block with a leg of dim 0
    has no column for its map to run on, so the map is not checked
    against it, and the step reads no map: index None, empty columns."""
    moves, ends = _arranged(symbols, tuple([text for text, _ in side]), target)
    table, d, steps, counted = dict(zip(symbols, dims)), dims, [], []
    for k, p, stop, legs, ins, outs in moves:
        block = d[p:stop]
        zero = 0 in block
        if k is None:
            move, want, out = _permutation(block, outs), block, tuple([block[i] for i in outs])
        else:
            shape = side[k][1]
            move, want, out = _reading(shape, ins, outs, table)
            if not ins:
                out += (1,)     # the unit leg, which an element reads
            elif want is not None and block != want and not zero:
                raise DimensionMismatch("map on legs of dims %r, given %r -> %r of dims %r"
                                        % (want, ins, outs, block))
            table.update(zip(outs, out))
        steps.append((None, ([], 1), False) if zero else (k, move, k is not None and block == out))
        counted.append((0 if zero else shape if want is None else math.prod(want), legs, out))
        d = d[:p] + out + d[stop:]
    plan, out_dims, _ = layout(dims, counted)
    return tuple([step + planned[1:] for step, planned in zip(steps, plan)]), ends, out_dims


@functools.lru_cache(maxsize=1024)
def _arranged(symbols, texts, target):
    """The leg moves of the side texts from the legs symbols, then the unit
    leg None, and the legs it leaves.  A move (k, p, stop, places, ins,
    outs) has step k read the places p to stop - 1, the legs ins of its
    text, and leave its legs outs there; an element inserted lands last,
    before the unit leg, which it reads; a permutation (k None) has for
    outs the places in ins of the legs it leaves.  Where a step's input legs
    are not together, one permutation brings them together, in order, at
    the first of them.  The side ends on target."""
    state, moves = list(symbols) + [None], []
    for k, text in enumerate(texts):
        ins, arrow, outs = text.partition("->")
        ins, outs = tuple(ins.split()), tuple((outs if arrow else ins).split())
        p, n = len(state) - 1, 1
        if ins:
            pos = [state.index(s) for s in ins]
            p, n = min(pos), len(ins)
            _move(moves, state, p, list(ins) + [s for s in state[p:max(pos) + 1]
                                                if s not in ins])
        moves.append((k, p, p + n, tuple(range(p, p + n)), ins, outs))
        state[p:p + n] = outs if ins else outs + (None,)
    if target is not None:
        if sorted(state[:-1]) != sorted(target):
            raise DimensionMismatch("legs %r land where %r should" % (state[:-1], tuple(target)))
        _move(moves, state, 0, list(target))
    return tuple(moves), tuple(state[:-1])


def _reading(shape, ins, outs, dims):
    """How a step reads its map: (its leg move for moved_columns, None to
    read it as it is; its input dims or None; its output dims)."""
    if type(shape) is int:
        if any(s not in dims for s in outs):
            raise DimensionMismatch("int columns onto new legs %r" % (outs,))
        return None, None, tuple(dims[s] for s in outs)
    rows, cols = shape
    if not ins:     # an element's flat coordinates i * cols + j, inserted
        return ((cols,), (rows,), (), (1, 0)), (), _split(rows * cols, outs, dims, shape)
    if not outs:    # a covector's, paired away
        return ((cols,), (rows,), (1, 0), ()), _split(rows * cols, ins, dims, shape), ()
    if len(ins) == 1 and len(outs) == 2 and not all(s in dims for s in outs):
        # a coproduct: d * e product-like columns, e read as 0 for d = 0,
        # whose block has no column to read
        d = dims[ins[0]]
        if not d:
            return None, (0,), (0, rows)
        if cols % d:
            raise DimensionMismatch("%d columns on a leg of dim %d, given %r -> %r"
                                    % (cols, d, ins, outs))
        return ((d, cols // d), (rows,), (0,), (1, 2)), (d,), (cols // d, rows)
    return None, _split(cols, ins, dims), _split(rows, outs, dims)


def _split(total, legs, dims, square=None):
    """The dims of legs sharing total basis vectors: total on one leg, else
    their dims, else an element's (rows, cols) on two.  Legs with no basis
    vector take any map: a leg of dim 0 has no column to run on."""
    if len(legs) == 1:
        return (total,)
    got = (tuple(dims[s] for s in legs) if all(s in dims for s in legs)
           else square if square and len(legs) == 2 else None)
    if got is None or math.prod(got) not in (total, 0):
        raise DimensionMismatch("%d basis vectors on legs %r" % (total, legs))
    return got


def _move(moves, state, lo, new):
    """Order the legs state[lo:] as new by one permutation of those that move."""
    old, a, b = state[lo:lo + len(new)], 0, len(new)
    while a < b and old[a] == new[a]:
        a += 1
    while b > a and old[b - 1] == new[b - 1]:
        b -= 1
    if a < b:
        moves.append((None, lo + a, lo + b, tuple(range(lo + a, lo + b)), tuple(old[a:b]),
                      tuple([old.index(s, a) - a for s in new[a:b]])))
        state[lo:lo + len(new)] = new


@functools.lru_cache(maxsize=256)
def _permutation(dims, order):
    """The int columns taking legs of dims to the order order (the places
    of the legs it leaves): the identity with its output legs moved."""
    k = len(dims)
    return move_legs([[(j, 1)] for j in range(math.prod(dims))], dims, dims,
                     tuple(range(k)), tuple(k + i for i in order)), 1
