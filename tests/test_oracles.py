"""Independent evaluators cross-checking the library's fast paths.

The elementwise oracles recompute the library's operators by summing over
structure constants with explicit loops, so a bookkeeping error in either
route would make them disagree.  The library builds the braidings and the
tensor-product dimodules on batches of basis columns on tensor legs, and
checks categorical identities, the module, comodule, Yetter-Drinfeld and
dimodule axioms, the Hom-algebra tower, R-elements, forms and the twist the
same way; the dense oracles build the same maps from Kronecker products and
leg permutations and compose the identities as whole matrices, associators
and their inverses included, with their own column-by-column product mul,
which runs nothing of the library's composite engine.  The batched runs
themselves are checked against one run per basis column and per step,
and the search's constraints against their derivation from every pair of
unit operators.
"""

import functools
import gc
import itertools
import json
import math
import os
import random
import sys
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from homlong import fixtures as fx, io as hio, linalg, longeq
from homlong.cli import main as cli_main
from homlong.braidcat import (BraidingContext, DimoduleMorphism, NotAMorphism,
                              check_hexagons, check_naturality, check_qybe,
                              check_symmetry, comodule_as_dimodule, hb_yd_structure,
                              long_braiding, long_braiding_inverse, module_as_dimodule)
from homlong.homstruct import (HomStructure, NotAutomorphism,
                               dual_hopf, opposite_algebra, tensor_hopf,
                               validate_all, validate_coquasitriangular,
                               validate_hom_algebra, validate_hom_bialgebra,
                               validate_hom_coalgebra, validate_hom_hopf,
                               validate_quasitriangular, yau_twist)
from homlong.linalg import (Matrix, Composite, ZERO, ONE, DimensionMismatch,
                            SingularMatrix, first_key, layout, move_legs, moved_columns, scalar,
                            solve_exact, sparse_columns, unflat_index)
from homlong.longdimod import (DualityData, canonical_dimodule,
                               check_coherence, check_snake, dimodule_morphism_report,
                               from_smash_module, left_dual, right_dual,
                               smash_product_algebra, tensor_dimodule, to_smash_module,
                               trivial_dimodule, unit_dimodule, validate_long_dimodule)
from homlong.longeq import (OperatorOnTensorSquare, check_invertible_iff,
                            check_long_equation, comodule_extension, coordinate_criterion,
                            diagonal_solution, dimodule_solution, module_extension,
                            operator_to_coords, search_solutions, tau_transforms)
from homlong.report import AxiomReport, Check, Identity, compose
from homlong.repmod import (Carrier, check_yd, validate_hom_comodule, validate_hom_module,
                            yd_prebraiding)


# ---------------------------------------------------------------------------
# dense leg machinery: Kronecker products, products and leg permutations of
# whole matrices, which the library does not build

def dense_entries(m):
    """The oracles' one reader of a Matrix: its rows as lists of
    Fractions, read off the int columns sparse_columns gives, fresh on every
    call."""
    cols, scale = sparse_columns(m)
    columns = [[ZERO] * m.rows for _ in cols]
    for column, col in zip(columns, cols):
        for i, x in col:
            column[i] = Fraction(x, scale)
    return [list(row) for row in zip(*columns)] if columns else [[] for _ in range(m.rows)]


def zeros(r, c):
    """The r x c zero Matrix, read from its dense rows."""
    return Matrix([[0] * c for _ in range(r)], rows=r, cols=c)


def dense_nested(m, d0, d1):
    """A three-leg map, the product-like Matrix m of T[i][j][k] with i below
    d0 and j below d1, as the nested lists of Fractions T."""
    columns = [list(c) for c in dense_columns(m)]
    return [columns[i * d1:(i + 1) * d1] for i in range(d0)]


def dense_part(s, part):
    """The three-leg map s.part of a structure (mult, comult) or of a
    carrier (action, coaction) as the nested lists T[i][j][k] of
    dense_nested."""
    if part in ("mult", "comult"):
        return dense_nested(getattr(s, part), s.dim, s.dim)
    return dense_nested(getattr(s, part), *((s.H.dim, s.dim) if part == "action"
                                            else (s.dim, s.B.dim)))


def tensor(d0, d1, d2, f):
    """The product-like Matrix of the three-leg map T[i][j][k] = f(i, j, k),
    read by Matrix.from_tensor."""
    return Matrix.from_tensor([[[f(i, j, k) for k in range(d2)] for j in range(d1)]
                               for i in range(d0)], (d0, d1, d2))


def json_scalar(x):
    """A Fraction as a definition file writes it: an int when it is whole,
    otherwise a "p/q" string."""
    return x.numerator if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


def flat_index(idxs, dims):
    """Lexicographic index of a tuple in the tensor basis with the given dims."""
    i = 0
    for idx, d in zip(idxs, dims):
        i = i * d + idx
    return i


def kron(a, b):
    """Kronecker product realizing f (x) g on lexicographic tensor bases, of
    two matrices: of two elements when both have one column."""
    rb, cb = b.rows, b.cols
    out = [[ZERO] * (a.cols * cb) for _ in range(a.rows * rb)]
    arows, brows = dense_entries(a), dense_entries(b)
    for i in range(a.rows):
        arow = arows[i]
        for j in range(a.cols):
            x = arow[j]
            if x == 0:
                continue
            for p in range(rb):
                brow = brows[p]
                orow = out[i * rb + p]
                base = j * cb
                for q in range(cb):
                    if brow[q]:
                        orow[base + q] = x * brow[q]
    return Matrix(map(tuple, out), a.rows * rb, a.cols * cb)


def kron_all(*ms):
    out = ms[0]
    for m in ms[1:]:
        out = kron(out, m)
    return out


def mul(*maps):
    """The composite maps[0] o maps[1] o ... of Matrices, the last of which
    may be an element (one column), one product at a time from the left:
    column j of a o b sums b's entries (k, y) times a's column k, on the int
    columns sparse_columns gives, so no step of the library's composite
    engine runs."""
    out = maps[0]
    for b in maps[1:]:
        if out.cols != b.rows:
            raise DimensionMismatch("compose %dx%d with %dx%d"
                                    % (out.rows, out.cols, b.rows, b.cols))
        (acols, s), (bcols, t) = sparse_columns(out), sparse_columns(b)
        cols = []
        for col in bcols:
            acc = {}
            for k, y in col:
                for i, x in acols[k]:
                    acc[i] = acc.get(i, 0) + x * y
            cols.append([(i, x) for i, x in acc.items() if x])
        out = Matrix.from_int_columns(cols, s * t, out.rows)
    return out


def power(m, k):
    """m composed with itself k times, or its inverse -k times; the identity
    for k = 0."""
    base = m if k >= 0 else m.inv()
    return mul(*[base] * abs(k)) if k else Matrix.identity(m.rows)


def scaled(m, c):
    """The Matrix c m for a rational c."""
    c = Fraction(c)
    cols, s = sparse_columns(m)
    return Matrix.from_int_columns([[(i, x * c.numerator) for i, x in col if c] for col in cols],
                                   s * c.denominator, m.rows)


def matrices_equal_report(report, axiom, lhs, rhs, dims_in, names_in=None):
    """Record lhs == rhs; on failure witness the first differing input basis
    tuple, named by names_in when given."""
    if (lhs.rows, lhs.cols) != (rhs.rows, rhs.cols):
        return report.add(axiom, False, ("shape", (lhs.rows, lhs.cols), (rhs.rows, rhs.cols)))
    (lcols, ls), (rcols, rs) = sparse_columns(lhs), sparse_columns(rhs)
    for c, (lc, rc) in enumerate(zip(lcols, rcols)):
        if [(i, x * rs) for i, x in lc] != [(i, y * ls) for i, y in rc]:
            idxs = unflat_index(c, dims_in)
            if names_in is not None:
                idxs = tuple(names[i] for names, i in zip(names_in, idxs))
            return report.add(axiom, False, idxs)
    return report.add(axiom, True)


def coproduct_map(t, d0):
    """The Matrix of a comultiplication or a coaction X -> Y (x) Z, given
    by the product-like Matrix t of T[i][j][k] with X of dim d0: column i
    holding T[i][j][k] in row (j, k), read entry by entry from its dense
    reading."""
    d1, d2 = t.cols // d0 if d0 else 0, t.rows
    t = dense_nested(t, d0, d1)
    return Matrix([[t[i][r // d2][r % d2] for i in range(d0)] for r in range(d1 * d2)],
                  d1 * d2, d0)


def column_of(entries):
    """The n x 1 Matrix with the given entries: an element or a covector."""
    return Matrix([[x] for x in entries], cols=1)


def entries_of(v):
    """The entries of the n x 1 Matrix v, read off its dense reading."""
    return [row[0] for row in dense_entries(v)]


def row_matrix(v):
    """The 1 x n Matrix of the covector with the entries of the n x 1 v."""
    return Matrix([entries_of(v)], 1, v.rows)


def dense_columns(m):
    """The columns of the Matrix m as tuples of Fractions."""
    return list(zip(*dense_entries(m))) if m.rows else [()] * m.cols


# ---------------------------------------------------------------------------
# Fraction Gauss-Jordan elimination, dense Bareiss elimination and the
# Fraction-coercing loader, which the library replaced by one sparse
# fraction-free elimination and by reading entries straight into int columns

def fraction_det(m):
    """The determinant by Gaussian elimination over Fractions."""
    n = m.rows
    a = dense_entries(m)
    det = ONE
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return ZERO
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = ONE / a[c][c]
        for r in range(c + 1, n):
            if a[r][c]:
                f = a[r][c] * inv
                for cc in range(c, n):
                    a[r][cc] -= f * a[c][cc]
    return det


def fraction_inv(m):
    """The inverse by Gauss-Jordan elimination of [m | I] over Fractions;
    None when m is singular."""
    n = m.rows
    a = [list(row) + [ONE if i == j else ZERO for j in range(n)]
         for i, row in enumerate(dense_entries(m))]
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return None
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
        inv = ONE / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return Matrix([row[n:] for row in a], n, n)


def fraction_solve(a, b):
    """One solution of a x = b by Gauss-Jordan elimination over Fractions,
    the free unknowns 0; None when the system is inconsistent."""
    rows = [list(r) + [bv] for r, bv in zip(dense_entries(a), entries_of(b))]
    n = a.cols
    pivots = []
    r = 0
    for c in range(n):
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if any(rows[i][n] != 0 for i in range(r, len(rows))):
        return None
    x = [ZERO] * n
    for i, c in enumerate(pivots):
        x[c] = rows[i][n]
    return column_of(x)


def bareiss(rows, width):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of dense int rows, in
    place, with pivots in the first width columns: (pivot columns, sign of
    the row swaps, last pivot d).  Each pivot is the first nonzero entry at
    or below its row, and every row is rewritten at every pivot; after k
    pivots every entry is the k-th leading pivot minor times that of the
    reduced row echelon form, so every division is exact."""
    pivots, sign, prev, m = [], 1, 1, len(rows)
    for c in range(width):
        r = len(pivots)
        if r == m:
            break
        p = next((i for i in range(r, m) if rows[i][c]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        top = rows[r]
        piv = top[c]
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[c]
            if f:
                rows[i] = [(piv * x - f * y) // prev for x, y in zip(row, top)]
            elif piv != prev:
                rows[i] = [piv * x // prev for x in row]
        pivots.append(c)
        prev = piv
    return pivots, sign, prev


def _dense_int_rows(cols, rows, width):
    out = [[0] * width for _ in range(rows)]
    for j, col in enumerate(cols):
        for i, x in col:
            out[i][j] = x
    return out


def bareiss_det_inv(m):
    """(det, inverse or None) of a square Matrix by dense Bareiss
    elimination of [C | I] for m = C / scale."""
    n = m.rows
    cols, scale = sparse_columns(m)
    rows = _dense_int_rows(cols, n, n + n)
    for i in range(n):
        rows[i][n + i] = 1
    pivots, sign, d = bareiss(rows, n)
    if len(pivots) < n:
        return ZERO, None
    return Fraction(sign * d, scale ** n), Matrix(
        [[Fraction(x * scale, d) for x in row[n:]] for row in rows], n, n)


def bareiss_solve(a, b):
    """One solution of a x = b by dense Bareiss elimination of [C | c], the
    free unknowns 0; None when the system is inconsistent."""
    n = a.cols
    cols, s = sparse_columns(a)
    (col,), t = sparse_columns(b)
    rows = _dense_int_rows(cols + [col], a.rows, n + 1)
    pivots, _, d = bareiss(rows, n)
    if any(row[n] for row in rows[len(pivots):]):
        return None
    x = [ZERO] * n
    for row, c in zip(rows, pivots):
        x[c] = Fraction(row[n] * s, d * t)
    return column_of(x)


@st.composite
def elimination_matrices(draw, rows, cols):
    """An m x n matrix of one kind: monomial (at most one nonzero in each
    row and column), sparse (at most two nonzeros a row), or dense with int
    or rational entries."""
    kind = draw(st.sampled_from(["monomial", "sparse", "dense-int", "dense-rational"]))
    if kind == "dense-int":
        entries = st.integers(-9, 9)
    elif kind == "dense-rational":
        entries = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    else:
        entries = st.sampled_from([1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-2, 3)])
    out = [[0] * cols for _ in range(rows)]
    if kind == "monomial":
        targets = draw(st.permutations(range(max(rows, cols))))
        for i in range(rows):
            if targets[i] < cols:
                out[i][targets[i]] = draw(entries)
    elif kind == "sparse":
        for row in out:
            for j in draw(st.lists(st.integers(0, cols - 1), max_size=2)) if cols else ():
                row[j] = draw(entries)
    else:
        out = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    return out


@st.composite
def elimination_squares(draw, most=16):
    """A square Matrix for det and inv, n = 0 .. most, of a kind that
    elimination_matrices draws; some are made singular (a row replaced by a
    combination of two others) and some have two rows swapped, which flips
    the sign of the determinant."""
    n = draw(st.integers(0, most))
    rows = draw(elimination_matrices(n, n))
    if n >= 2 and draw(st.integers(0, 3)) == 0:
        a, b = draw(st.sampled_from([0, 1, -2])), draw(st.sampled_from([1, 3]))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        rows[i], rows[j] = rows[j], rows[i]
    return Matrix(rows, n, n)


@st.composite
def elimination_systems(draw, most=16):
    """A rectangular system (A, b), A m x n with m, n = 0 .. most of a kind
    that elimination_matrices draws, often rank-deficient (rows repeated as
    combinations of others); b is A x0 (consistent) or drawn freely (often
    not)."""
    m, n = draw(st.integers(0, most)), draw(st.integers(0, most))
    rows = draw(elimination_matrices(m, n))
    for i in draw(st.lists(st.integers(0, m - 1), max_size=m // 2)) if m >= 2 else ():
        k = draw(st.integers(0, m - 1))
        rows[i] = [x + 2 * y for x, y in zip(rows[k], rows[(k + 1) % m])]
    a = Matrix(rows, m, n)
    if draw(st.booleans()):
        x0 = [draw(st.sampled_from([0, 1, -1, Fraction(3, 2)])) for _ in range(n)]
        entries = dense_entries(a)
        b = [sum((entries[i][j] * x0[j] for j in range(n)), ZERO) for i in range(m)]
    else:
        b = [draw(st.sampled_from([0, 1, -2, Fraction(1, 3)])) for _ in range(m)]
    return a, column_of(b)


def fraction_int_columns(columns):
    """Dense columns of Fractions as (cols, scale), the values ints."""
    cols = [[(r, x) for r, x in enumerate(c) if x] for c in columns]
    scale = math.lcm(*(x.denominator for c in cols for _, x in c))
    return [[(r, x.numerator * (scale // x.denominator)) for r, x in c] for c in cols], scale


def fraction_load_matrix(rows):
    """A matrix field of a definition file read the old way: every entry,
    zeros included, coerced to a Fraction, then the dense columns
    converted."""
    data = [[scalar(x) for x in row] for row in rows]
    columns = list(zip(*data)) if data else []
    return Matrix._of(len(data), len(columns), fraction_int_columns(columns))


def fraction_load_tensor(data):
    """A tensor field read the old way, as its product-like columns."""
    data = [[[scalar(x) for x in row] for row in plane] for plane in data]
    rows = [row for plane in data for row in plane]
    return Matrix._of(len(rows[0]) if rows else 0, len(rows), fraction_int_columns(rows))


def perm_matrix(dims, perm):
    """Permutation of tensor legs.

    dims are the input leg dimensions; output slot t receives input leg
    perm[t], i.e. e_{(i_0,...,i_{k-1})} maps to e_{(i_{perm[0]},...,i_{perm[k-1]})}.
    """
    if sorted(perm) != list(range(len(dims))):
        raise DimensionMismatch("perm %r is not a permutation of %d legs" % (perm, len(dims)))
    n = 1
    for d in dims:
        n *= d
    out_dims = [dims[p] for p in perm]
    m = [[ZERO] * n for _ in range(n)]
    for src in range(n):
        idxs = unflat_index(src, dims)
        dst = flat_index([idxs[p] for p in perm], out_dims)
        m[dst][src] = ONE
    return Matrix(m, rows=n, cols=n)


def flip_matrix(d0, d1):
    """The swap X (x) Y -> Y (x) X on lexicographic bases."""
    return perm_matrix([d0, d1], [1, 0])


def permute_output_legs(m, dims, perm):
    """perm_matrix(dims, perm) * m without materializing the permutation.

    m's rows are indexed by the tensor basis with the given dims; the result
    moves input leg perm[t] into output slot t (a pure row reordering).
    """
    total = 1
    for d in dims:
        total *= d
    if m.rows != total:
        raise DimensionMismatch("matrix has %d rows for legs %r" % (m.rows, dims))
    out_dims = [dims[p] for p in perm]
    rows, old = [None] * total, dense_entries(m)
    for src in range(total):
        idx = unflat_index(src, dims)
        dst = flat_index([idx[p] for p in perm], out_dims)
        rows[dst] = old[src]
    return Matrix(rows, m.rows, m.cols)


def permute_input_legs(m, dims, perm):
    """m * perm_matrix(dims, perm) without materializing the permutation.

    m's columns are indexed by the permuted tensor basis; the result reads
    input slot t of the permutation's source ordering (a column reordering).
    """
    total = 1
    for d in dims:
        total *= d
    if m.cols != total:
        raise DimensionMismatch("matrix has %d cols for legs %r" % (m.cols, dims))
    out_dims = [dims[p] for p in perm]
    colmap = [0] * total
    for src in range(total):
        idx = unflat_index(src, dims)
        colmap[src] = flat_index([idx[p] for p in perm], out_dims)
    return Matrix((tuple(row[colmap[c]] for c in range(total)) for row in dense_entries(m)),
                          m.rows, m.cols)


def apply3(t, d0, mode, m):
    """Contract a matrix into one leg of the three-leg map whose
    product-like Matrix is t and whose first leg has dim d0.

    The leg indexed by `mode` is transformed as an output coordinate:
    result[.., a, ..] = sum_p m[a][p] * t[.., p, ..].  To pre-compose an
    input leg with a map f, pass f's transpose.
    """
    if mode not in (0, 1, 2):
        raise DimensionMismatch("mode must be 0, 1 or 2")
    dims = [d0, t.cols // d0, t.rows]
    d = dims[mode]
    if m.cols != d:
        raise DimensionMismatch("matrix with %d columns against leg of dim %d" % (m.cols, d))
    dims[mode] = m.rows
    m_rows, t_entries = dense_entries(m), dense_nested(t, d0, t.cols // d0)

    def entry(i, j, k):
        idx = [i, j, k]
        a = idx[mode]
        s = ZERO
        for p in range(d):
            c = m_rows[a][p]
            if c:
                idx[mode] = p
                s += c * t_entries[idx[0]][idx[1]][idx[2]]
        return s

    return tensor(dims[0], dims[1], dims[2], entry)


def element_col(r):
    """An element of X (x) Y given by the matrix r[i][j] as a flat column."""
    return Matrix([[x] for row in dense_entries(r) for x in row], rows=r.rows * r.cols, cols=1)


def col_to_matrix(col, d0, d1):
    x = entries_of(col)
    return Matrix([x[i * d1:(i + 1) * d1] for i in range(d0)], rows=d0, cols=d1)


def tensor_square_mult_map(a):
    """Multiplication of A (x) A as a map (A(x)A)(x)(A(x)A) -> A(x)A:
    (a(x)b)(c(x)d) = ac (x) bd."""
    n = a.dim
    mm = a.mult
    return permute_input_legs(kron(mm, mm), [n, n, n, n], [0, 2, 1, 3])


def dense_associator(u, v, w):
    """(u (x) v) (x) w -> mu^-1(u) (x) (v (x) omega(w)) as a Kronecker product."""
    return kron_all(u.mu.inv(), Matrix.identity(v.dim), w.mu)


def braiding_elementwise(ctx, m, n):
    """C(m (x) n) = <m_-1|n_-1> R2.nu^-2(n_0) (x) R1.mu^-2(m_0), by loops."""
    nh, nb = ctx.H.dim, ctx.B.dim
    dm, dn = m.dim, n.dim
    f, r = ctx.form, ctx.R
    mu2i = mul(m.mu, m.mu).inv()
    nu2i = mul(n.mu, n.mu).inv()
    rho_m, rho_n = dense_nested(m.coaction, dm, nb), dense_nested(n.coaction, dn, nb)
    act_m, act_n = dense_nested(m.action, nh, dm), dense_nested(n.action, nh, dn)
    out = [[ZERO] * (dm * dn) for _ in range(dn * dm)]
    for mi in range(dm):
        for ni in range(dn):
            col = mi * dn + ni
            for a in range(nb):
                for m0 in range(dm):
                    cm = rho_m[mi][a][m0]
                    if not cm:
                        continue
                    for b in range(nb):
                        for n0 in range(dn):
                            cn = rho_n[ni][b][n0]
                            if not cn:
                                continue
                            pair = f[a, b]
                            if not pair:
                                continue
                            base = cm * cn * pair
                            for i in range(nh):
                                for j in range(nh):
                                    rij = r[i, j]
                                    if not rij:
                                        continue
                                    # e_j . nu^-2(n_0) (x) e_i . mu^-2(m_0)
                                    for p in range(dn):
                                        zn = nu2i[p, n0]
                                        if not zn:
                                            continue
                                        for q in range(dn):
                                            an = act_n[j][p][q]
                                            if not an:
                                                continue
                                            for s in range(dm):
                                                zm = mu2i[s, m0]
                                                if not zm:
                                                    continue
                                                for t in range(dm):
                                                    am = act_m[i][s][t]
                                                    if am:
                                                        out[q * dm + t][col] += (
                                                            base * rij * zn * an * zm * am)
    return Matrix(out)


def test_braiding_matches_elementwise_standard():
    kz2 = fx.kz2()
    ctx = BraidingContext(kz2, fx.kz2_rmatrix(), kz2, fx.kz2_form())
    dims = fx.standard_dimodules()
    dims["sign-x2"] = fx.scaled_dimodules()["sign-x2"]
    for nm, m in dims.items():
        for nn, n in dims.items():
            assert long_braiding(ctx, m, n).matrix == braiding_elementwise(ctx, m, n), (nm, nn)


def test_braiding_matches_elementwise_twisted():
    kz2, kz4t = fx.kz2(), fx.kz4_twisted()
    ctx = BraidingContext(kz4t, fx.trivial_rmatrix(kz4t), kz2, fx.kz2_form())
    can8 = canonical_dimodule(kz4t, kz2)
    tr = trivial_dimodule(kz4t, kz2, Matrix.diagonal([1, 2]))
    for m in (can8, tr):
        for n in (can8, tr):
            assert long_braiding(ctx, m, n).matrix == braiding_elementwise(ctx, m, n)


def hyd_elementwise(h, yd):
    """Both sides of the compatibility identity evaluated per basis pair."""
    hb = h
    n, d = hb.dim, yd.dim
    be = hb.gamma
    be3 = mul(be, be, be)
    be2 = mul(be, be)
    mult, com = dense_nested(hb.mult, n, n), dense_nested(hb.comult, n, n)
    act, rho = dense_nested(yd.action, n, d), dense_nested(yd.coaction, d, n)
    for hh in range(n):
        for mm in range(d):
            lhs = [[ZERO] * d for _ in range(n)]
            rhs = [[ZERO] * d for _ in range(n)]
            for h1 in range(n):
                for h2 in range(n):
                    ch = com[hh][h1][h2]
                    if not ch:
                        continue
                    # lhs: h1 b(m_-1) (x) b^3(h2) . m0
                    for a in range(n):
                        for m0 in range(d):
                            cr = rho[mm][a][m0]
                            if not cr:
                                continue
                            for ab in range(n):
                                cb = be[ab, a]
                                if not cb:
                                    continue
                                for out_h in range(n):
                                    cm2 = mult[h1][ab][out_h]
                                    if not cm2:
                                        continue
                                    for hb3 in range(n):
                                        c3 = be3[hb3, h2]
                                        if not c3:
                                            continue
                                        for out_m in range(d):
                                            ca = act[hb3][m0][out_m]
                                            if ca:
                                                lhs[out_h][out_m] += ch * cr * cb * cm2 * c3 * ca
                    # rhs: w = b^2(h1).m ; w_-1 h2 (x) w_0
                    for hb2 in range(n):
                        c2 = be2[hb2, h1]
                        if not c2:
                            continue
                        for w in range(d):
                            cw = act[hb2][mm][w]
                            if not cw:
                                continue
                            for a in range(n):
                                for w0 in range(d):
                                    cr = rho[w][a][w0]
                                    if not cr:
                                        continue
                                    for out_h in range(n):
                                        cm2 = mult[a][h2][out_h]
                                        if cm2:
                                            rhs[out_h][w0] += ch * c2 * cw * cr * cm2
            if lhs != rhs:
                return False
    return True


def test_hyd_matches_elementwise():
    kz2 = fx.kz2()
    good = yd_module(kz2, 1, Matrix.from_tensor([[[1]], [[-1]]]),
                     Matrix.from_tensor([[[0], [1]]]), Matrix.identity(1), ("v",))
    assert check_yd(good).passed("HYD") == hyd_elementwise(kz2, good)
    sw = fx.sweedler_hopf()
    bad = yd_module(sw, 4, sw.mult, sw.comult, Matrix.identity(4), sw.basis)
    assert check_yd(bad).passed("HYD") == hyd_elementwise(sw, bad) == False
    swt = fx.sweedler_twisted()
    bad_t = yd_module(swt, 4, swt.mult, swt.comult, Matrix.identity(4), swt.basis)
    assert check_yd(bad_t).passed("HYD") == hyd_elementwise(swt, bad_t)


def test_inverse_braiding_against_solver():
    # the displayed inverse equals the matrix inverse on a twisted pair too
    kz2, kz4t = fx.kz2(), fx.kz4_twisted()
    ctx = BraidingContext(kz2, fx.kz2_rmatrix(), kz4t, fx.trivial_form(kz4t))
    can = canonical_dimodule(kz2, kz4t)
    c = long_braiding(ctx, can, can)
    assert long_braiding_inverse(ctx, can, can).matrix == c.matrix.inv()


# ---------------------------------------------------------------------------
# the Hom-Long equation

def longeq_column_sides(a, b, mu, last, u, v, w):
    """(A (x) l)(mu (x) B) and (mu (x) B)(A (x) l) applied to
    e_u (x) e_v (x) e_w, as dense n x n x n arrays filled by the index sums
      lhs[p][q][r] = sum_{t,j,k} A[pq, tj] l[r, k] mu[t, u] B[jk, vw],
      rhs[p][q][r] = sum_{i,j,s} mu[p, i] B[qr, js] A[ij, uv] l[s, w].

    a and b are n^2 x n^2, and mu and the last-leg map l (last) are n x n,
    as lists of rows; the Hom-Long equation is the case l = mu.
    """
    n = len(mu)
    rng = range(n)
    lhs = [[[0] * n for _ in rng] for _ in rng]
    rhs = [[[0] * n for _ in rng] for _ in rng]
    for t, j, k in itertools.product(rng, repeat=3):
        c = mu[t][u] * b[j * n + k][v * n + w]
        if not c:
            continue
        for p, q in itertools.product(rng, repeat=2):
            x = a[p * n + q][t * n + j] * c
            if x:
                for r in rng:
                    lhs[p][q][r] += last[r][k] * x
    for i, j, s in itertools.product(rng, repeat=3):
        c = a[i * n + j][u * n + v] * last[s][w]
        if not c:
            continue
        for q, r in itertools.product(rng, repeat=2):
            x = b[q * n + r][j * n + s] * c
            if x:
                for p in rng:
                    rhs[p][q][r] += mu[p][i] * x
    return lhs, rhs


def longeq_first_failing_column(a, b, mu):
    """First basis triple (u, v, w), in lexicographic order, on which
    (A (x) mu)(mu (x) B) and (mu (x) B)(A (x) mu) differ (longeq_column_sides);
    None when equal."""
    for u, v, w in itertools.product(range(len(mu)), repeat=3):
        lhs, rhs = longeq_column_sides(a, b, mu, mu, u, v, w)
        if lhs != rhs:
            return (u, v, w)
    return None


def test_longeq_oracle_by_hand():
    ident, mu = [[1, 0], [0, 1]], [[1, 0], [0, 2]]
    scalar = [[3 if r == c else 0 for c in range(4)] for r in range(4)]
    assert longeq_first_failing_column(scalar, scalar, mu) is None
    # e0 e0 e0 is fixed by both sides; on e0 e0 e1 the flip gives
    # t12 t23: e0 e1 e0 -> e1 e0 e0 but t23 t12: e0 e0 e1 -> e0 e1 e0
    flip = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    assert longeq_first_failing_column(flip, flip, ident) == (0, 0, 1)


# small rationals in +/- pairs, with zeros, so that index sums often cancel
SMALL = [Fraction(x) for x in (0, 0, 0, 1, -1, 2, -2, "1/2", "-1/2", "3/2")]


@st.composite
def structure_maps(draw, n):
    """A diagonal, unipotent or dense invertible n x n map."""
    kind = draw(st.sampled_from(("diagonal", "unipotent", "dense")))
    entry = st.sampled_from(SMALL)
    if kind == "diagonal":
        return [[draw(entry.filter(bool)) if i == j else 0 for j in range(n)]
                for i in range(n)]
    if kind == "unipotent":
        return [[1 if i == j else (draw(entry) if j > i else 0) for j in range(n)]
                for i in range(n)]
    mu = [[draw(entry) for _ in range(n)] for _ in range(n)]
    assume(sympy.Matrix(mu).det() != 0)
    return mu


@st.composite
def operators(draw, n, mu):
    """A solution or a sparse grid operator, with up to two entries changed.

    The solutions are a scalar, mu (x) mu and N (x) N for a nilpotent
    N = a b^T with b^T a = 0: both sides of the equation for N (x) N vanish
    only through cancelling sums.
    """
    n2 = n * n
    kind = draw(st.sampled_from(("scalar", "mu-mu", "nilpotent", "sparse")))
    c = draw(st.sampled_from(SMALL))
    if kind == "scalar":
        rows = [[c if r == col else 0 for col in range(n2)] for r in range(n2)]
    elif kind == "mu-mu":
        rows = [[mu[i][k] * mu[j][l] for k in range(n) for l in range(n)]
                for i in range(n) for j in range(n)]
    elif kind == "nilpotent":
        rows = _nilpotent_square(draw, n, c)
    else:
        rows = [[draw(st.sampled_from(SMALL)) for _ in range(n2)] for _ in range(n2)]
    for _ in range(draw(st.integers(0, 2))):
        r, col = draw(st.integers(0, n2 - 1)), draw(st.integers(0, n2 - 1))
        rows[r][col] += draw(st.sampled_from(SMALL))
    return rows


def _nilpotent_square(draw, n, c):
    """N (x) N, as rows, for N = a b^T with b^T a = 0 (b has at most two
    nonzero entries, c a_j and -c a_i)."""
    a = [draw(st.sampled_from(SMALL)) for _ in range(n)]
    b = [0] * n
    if n > 1:
        i, j = draw(st.permutations(range(n)))[:2]
        b[i], b[j] = c * a[j], -c * a[i]
    return [[a[i] * b[k] * a[j] * b[l] for k in range(n) for l in range(n)]
            for i in range(n) for j in range(n)]


@st.composite
def kernel_operators(draw, n, mu):
    """Entries from {-1, 0, 1}, arbitrary Fractions (zeros among them), an
    N (x) N as in operators (terms of one side cancel at a key), perhaps
    with one entry changed, or any of operators."""
    n2 = n * n
    kind = draw(st.sampled_from(("signs", "fractions", "cancelling", "operators")))
    if kind == "operators":
        return draw(operators(n, mu))
    if kind == "cancelling":
        rows = _nilpotent_square(draw, n, draw(st.sampled_from(SMALL).filter(bool)))
        if draw(st.booleans()):
            r, col = draw(st.integers(0, n2 - 1)), draw(st.integers(0, n2 - 1))
            rows[r][col] += draw(st.sampled_from(SMALL))
        return rows
    entry = (st.sampled_from((-1, 0, 1)) if kind == "signs" else
             st.one_of(st.just(0), st.fractions(min_value=-5, max_value=5, max_denominator=7)))
    return [[draw(entry) for _ in range(n2)] for _ in range(n2)]


def test_longeq_cancelling_solution():
    # N = a b^T with b^T a = 0; on e0 e0 e2 both sides of the equation for
    # N (x) N vanish, through sums that cancel on different basis tuples
    a, b = (1, 1, 0), (1, -1, 0)
    rows = [[a[i] * b[k] * a[j] * b[l] for k in range(3) for l in range(3)]
            for i in range(3) for j in range(3)]
    mu = [[1, 0, 0], [0, 1, 1], [0, 0, 1]]
    assert longeq_first_failing_column(rows, rows, mu) is None
    assert check_long_equation(OperatorOnTensorSquare(3, Matrix(rows), Matrix(mu))).ok


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_check_long_equation_matches_oracle(data):
    n = data.draw(st.sampled_from((1, 2, 3)))
    mu = data.draw(structure_maps(n))
    rows = data.draw(kernel_operators(n, mu))
    expected = longeq_first_failing_column(rows, rows, mu)
    rep = check_long_equation(OperatorOnTensorSquare(n, Matrix(rows), Matrix(mu)))
    assert rep.ok == (expected is None)
    assert rep.check("hom-long-eq").witness == expected


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_every_entry_point_matches_the_oracle(data):
    # check_long_equation, tau_transforms' base check, check_invertible_iff
    # and first_failing_triple, in any order on one operator, each give the
    # oracle's verdict and witness
    n = data.draw(st.sampled_from((1, 2, 3)))
    mu = data.draw(structure_maps(n))
    rows = data.draw(kernel_operators(n, mu))
    expected = longeq_first_failing_column(rows, rows, mu)
    op = OperatorOnTensorSquare(n, Matrix(rows), Matrix(mu))
    invertible = op.matrix.det() != 0

    def witness(name):
        if name == "check":
            rep = check_long_equation(op)
            assert rep.ok == (expected is None)
            return rep.check("hom-long-eq").witness
        if name == "tau":
            assert tau_transforms(op)[1].passed("base-longeq") == (expected is None)
        elif name == "iff" and invertible:
            assert check_invertible_iff(op).passed("R-longeq") == (expected is None)
        return op.first_failing_triple()

    for name in data.draw(st.permutations(("check", "tau", "iff", "triple"))):
        assert witness(name) == expected, name


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_first_difference_matches_dense_oracle(data):
    # at one triple, for A and B (often A itself) and a last-leg map that is
    # mu (the Hom-Long equation), the identity (the coordinate criterion's
    # index identity) or another structure map: the kernel's difference,
    # zeros dropped and the int scaling undone, is the dense LHS - RHS
    # there, and the triple is reported exactly when that is nonzero
    n = data.draw(st.sampled_from((1, 2, 3)))
    mu = data.draw(structure_maps(n))
    rows = data.draw(kernel_operators(n, mu))
    other = rows if data.draw(st.booleans()) else data.draw(kernel_operators(n, mu))
    last = data.draw(st.one_of(
        st.just(mu), st.just([[int(i == j) for j in range(n)] for i in range(n)]),
        structure_maps(n)))
    u, v, w = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    lhs, rhs = longeq_column_sides(rows, other, mu, last, u, v, w)
    dense = {(p * n + q) * n + r: lhs[p][q][r] - rhs[p][q][r]
             for p, q, r in itertools.product(range(n), repeat=3)
             if lhs[p][q][r] != rhs[p][q][r]}
    (a_cols, a_scale), (b_cols, b_scale), (mu_cols, mu_scale), (last_cols, last_scale) = (
        linalg.sparse_columns(Matrix(m)) for m in (rows, other, mu, last))
    found = longeq._first_difference(a_cols, b_cols, mu_cols, last_cols, n, (u,), (v,), (w,))
    assert (found is None) == (not dense)
    if found is not None:
        triple, diff = found
        scale = a_scale * b_scale * mu_scale * last_scale
        assert triple == (u, v, w)
        assert {key: Fraction(x, scale) for key, x in diff.items() if x} == dense


# operators with exactly one nonzero entry in every column, at n = 4 and 5,
# where the checker runs its single-term kernel

ONE_ENTRY_VALUES = {"ints": st.integers(-3, 3).filter(bool),
                    "fractions": st.fractions(min_value=-5, max_value=5,
                                              max_denominator=7).filter(bool)}


@st.composite
def one_entry_maps(draw, d, entry, injective):
    """A d x d map, as rows, with one nonzero entry in every column: a
    permutation with values, or, when not injective, rows drawn freely
    (so two columns often share a row, and a square one is singular)."""
    targets = (draw(st.permutations(range(d))) if injective
               else [draw(st.integers(0, d - 1)) for _ in range(d)])
    rows = [[0] * d for _ in range(d)]
    for c, r in enumerate(targets):
        rows[r][c] = draw(entry)
    return rows


@st.composite
def graded_solutions(draw, n, entry):
    """(R, mu) for the induced operator R(e_x (x) e_y) = c g^|y|.e_x (x) e_y
    of a Z/2-graded carrier with basis e_0 .. e_{n-1}, on which the
    generator g acts by a signed involution of the basis that keeps
    degrees; mu is diagonal and constant on the orbits of g, perhaps
    followed by g, so it keeps degrees and commutes with g.  Then both sides
    send e_x (x) e_y (x) e_z to c^2 g^|y| mu e_x (x) g^|z| e_y (x) mu e_z."""
    deg = [draw(st.integers(0, 1)) for _ in range(n)]
    sigma, open_ = list(range(n)), {}
    for i in draw(st.permutations(range(n))):
        j = open_.get(deg[i])
        if j is not None and draw(st.booleans()):
            sigma[i], sigma[j] = j, i
            del open_[deg[i]]
        else:
            open_[deg[i]] = i
    orbit = [min(i, sigma[i]) for i in range(n)]
    sign = {o: draw(st.sampled_from((1, -1))) for o in sorted(set(orbit))}
    scale = {o: draw(entry) for o in sorted(set(orbit))}
    g = [[sign[orbit[c]] if r == sigma[c] else 0 for c in range(n)] for r in range(n)]
    shift = draw(st.booleans())
    mu = [[scale[orbit[c]] * (g[r][c] if shift else int(r == c)) for c in range(n)]
          for r in range(n)]
    c = draw(entry)
    rows = [[0] * (n * n) for _ in range(n * n)]
    for x, y in itertools.product(range(n), repeat=2):
        gx, s = (sigma[x], sign[orbit[x]]) if deg[y] else (x, 1)
        rows[gx * n + y][x * n + y] = c * s
    return rows, mu


@st.composite
def single_term_cases(draw):
    """(n, mu, A, B), each map with one nonzero entry in every column: an
    induced solution (a graded carrier, or a kz2 extension at n = 4), mu (x)
    mu, a scalar, a diagonal operator over a diagonal mu, or a drawn map over
    a drawn mu (perhaps singular); B is A itself, a multiple of it, A with
    a value changed or another drawn map; then up to two values of A
    changed, in B too when B is A, and perhaps one of mu."""
    n = draw(st.sampled_from((4, 5)))
    n2 = n * n
    entry = ONE_ENTRY_VALUES[draw(st.sampled_from(sorted(ONE_ENTRY_VALUES)))]
    kind = draw(st.sampled_from(("graded", "extension", "mu-mu", "scalar", "diagonal",
                                 "drawn")))
    if kind == "extension":
        n, n2 = 4, 16
        kz2 = fx.kz2()
        which = draw(st.sampled_from(("regular module", "regular comodule", "trivial module")))
        if which == "regular module":
            d = module_extension(kz2, fx.regular_module(kz2))
        elif which == "regular comodule":
            d = comodule_extension(kz2, fx.regular_comodule(kz2))
        else:
            mu = Matrix.diagonal([draw(entry), draw(entry)])
            d = module_extension(kz2, fx.trivial_module(kz2, mu))
        op = dimodule_solution(d)
        a, mu = op.matrix.to_lists(), op.structure_map.to_lists()
    elif kind == "graded":
        a, mu = draw(graded_solutions(n, entry))
    else:
        if kind == "diagonal":
            mu = [[draw(entry) if r == c else 0 for c in range(n)] for r in range(n)]
        else:
            mu = draw(one_entry_maps(n, entry, injective=draw(st.booleans())))
        if kind == "mu-mu":
            c = draw(entry)
            a = [[c * mu[i][k] * mu[j][l] for k in range(n) for l in range(n)]
                 for i in range(n) for j in range(n)]
        elif kind == "scalar":
            c = draw(entry)
            a = [[c if r == col else 0 for col in range(n2)] for r in range(n2)]
        elif kind == "diagonal":
            a = [[draw(entry) if r == col else 0 for col in range(n2)] for r in range(n2)]
        else:
            a = draw(one_entry_maps(n2, entry, injective=draw(st.booleans())))
    other = draw(st.sampled_from(("same", "multiple", "changed", "drawn")))
    if other == "same":
        b = a
    elif other == "multiple":
        c = draw(entry)
        b = [[c * x for x in row] for row in a]
    elif other == "changed":
        b = [list(row) for row in a]
        _change_a_value(draw, b, entry)
    else:
        b = draw(one_entry_maps(n2, entry, injective=draw(st.booleans())))
    for _ in range(draw(st.integers(0, 2))):
        _change_a_value(draw, a, entry)
    if draw(st.booleans()):
        _change_a_value(draw, mu, entry)
    return n, mu, a, b


def _change_a_value(draw, rows, entry):
    """Give the one nonzero entry of a drawn column another nonzero value."""
    c = draw(st.integers(0, len(rows) - 1))
    r = next(r for r, row in enumerate(rows) if row[c])
    rows[r][c] = draw(entry.filter(lambda x: x != rows[r][c]))


# every column of mu and A on row 0: mu is singular
_ROW_0 = [[1] * 16] + [[0] * 16] * 15


@settings(max_examples=80, deadline=None)
@given(single_term_cases())
@example((4, [[1] * 4] + [[0] * 4] * 3, _ROW_0, _ROW_0))
def test_single_term_kernel_matches_oracle(case):
    # the kernel decides these without _first_difference, and its witness is
    # the dense oracle's and _first_difference's over the full ranges, for
    # A = B as check_long_equation calls it and A != B as
    # coordinate_criterion does
    n, mu, a, b = case
    a_cols, mu_cols = (sparse_columns(Matrix(m))[0] for m in (a, mu))
    b_cols = a_cols if b is a else sparse_columns(Matrix(b))[0]
    assert all(len(col) == 1 for cols in (a_cols, b_cols, mu_cols) for col in cols)
    with mock.patch.object(longeq, "_first_difference",
                           side_effect=AssertionError("generic kernel")):
        witness = longeq._first_failing_column(a_cols, b_cols, mu_cols, n)
    assert witness == longeq_first_failing_column(a, b, mu)
    rng = range(n)
    found = longeq._first_difference(a_cols, b_cols, mu_cols, mu_cols, n, rng, rng, rng)
    assert witness == (None if found is None else found[0])
    if b is a and sympy.Matrix(mu).det() == 0:
        # an operator refuses a singular mu where it is built
        with pytest.raises(SingularMatrix, match="structure map is singular"):
            OperatorOnTensorSquare(n, Matrix(a), Matrix(mu))
    elif b is a:
        rep = check_long_equation(OperatorOnTensorSquare(n, Matrix(a), Matrix(mu)))
        assert rep.check("hom-long-eq").witness == witness


def _coords_to_rows(x, mu):
    """R[(i, t), (k, l)] = sum_j x[k][l][i][j] mu^-1[t, j], mu^-1 from sympy."""
    n = len(mu)
    inv = [[Fraction(int(e.p), int(e.q)) for e in row]
           for row in sympy.Matrix(mu).inv().tolist()]
    return [[sum(x[k][l][i][j] * inv[t][j] for j in range(n))
             for k in range(n) for l in range(n)]
            for i in range(n) for t in range(n)]


def _rows_to_coords(rows, mu):
    """x[k][l][i][j] = sum_t R[(i, t), (k, l)] mu[j, t]."""
    n = len(mu)
    return [[[[sum(rows[i * n + t][k * n + l] * mu[j][t] for t in range(n))
               for j in range(n)] for i in range(n)]
             for l in range(n)] for k in range(n)]


@st.composite
def coordinates(draw, n, mu):
    """The coordinates of a drawn operator R."""
    return _rows_to_coords(draw(operators(n, mu)), mu)


def _conj_sympy(mu):
    """mu (x) mu^-1 as sympy's kronecker_product."""
    z = sympy.Matrix(mu)
    return sympy.kronecker_product(z, z.inv())


@st.composite
def equivariant_coordinates(draw, n, mu):
    """The coordinates of a + b C + c C^2 for C = mu (x) mu^-1, which
    commutes with C."""
    conj = _conj_sympy(mu)
    a, b, c = (sympy.Rational(str(draw(st.sampled_from(SMALL)))) for _ in range(3))
    r = a * sympy.eye(n * n) + b * conj + c * conj * conj
    rows = [[Fraction(int(e.p), int(e.q)) for e in row] for row in r.tolist()]
    return _rows_to_coords(rows, mu)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_operator_identity_matches_oracle(data):
    # S12 o R23 = R23 o S12 is the Hom-Long form with A = S and B = R
    n = data.draw(st.sampled_from((1, 2, 3)))
    mu = data.draw(structure_maps(n))
    x = data.draw(coordinates(n, mu))
    y = x if data.draw(st.booleans()) else data.draw(coordinates(n, mu))
    expected = longeq_first_failing_column(_coords_to_rows(y, mu), _coords_to_rows(x, mu), mu)
    rep = coordinate_criterion(x, y, Matrix(mu))
    assert rep.passed("operator-identity") == (expected is None)
    assert rep.check("operator-identity").witness == expected


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mu_equivariance_flag_matches_sympy(data):
    # R and S commute with mu (x) mu^-1, computed by sympy, on equivariant
    # draws and on arbitrary operators; both orders of (x, y), so that a
    # pair with one equivariant side is checked with it as R and as S
    n = data.draw(st.sampled_from((1, 2, 3)))
    mu = data.draw(structure_maps(n))
    conj = _conj_sympy(mu)
    kinds = {"equivariant": equivariant_coordinates, "arbitrary": coordinates}

    def commutes(x):
        r = sympy.Matrix(_coords_to_rows(x, mu))
        return r * conj == conj * r

    x = data.draw(kinds[data.draw(st.sampled_from(sorted(kinds)))](n, mu))
    y_kind = data.draw(st.sampled_from(("same",) + tuple(sorted(kinds))))
    y = x if y_kind == "same" else data.draw(kinds[y_kind](n, mu))
    for r, s in ((x, y), (y, x)):
        rep = coordinate_criterion(r, s, Matrix(mu))
        assert rep.flags["self-case"] == (r == s)
        assert rep.flags["mu-equivariant"] == (commutes(r) and commutes(s))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_operator_to_coords_matches_index_sums(data):
    # x[k][l][i][j] = sum_t R[(i, t), (k, l)] mu[j][t], every entry a Fraction
    n = data.draw(st.sampled_from((1, 2, 3)))
    mu = data.draw(structure_maps(n))
    rows = data.draw(operators(n, mu))
    x = operator_to_coords(OperatorOnTensorSquare(n, Matrix(rows), Matrix(mu)))
    assert x == _rows_to_coords(rows, mu)
    assert all(type(e) is Fraction for a in x for b in a for c in b for e in c)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_diagonal_solution_matches_index_sums(data):
    # R[(i, j), (i, j)] = b[i][j] and zero off the diagonal, over mu = diag(a)
    n = data.draw(st.sampled_from((1, 2, 3)))
    a = [data.draw(st.sampled_from(SMALL).filter(bool)) for _ in range(n)]
    b = [[data.draw(st.sampled_from(SMALL)) for _ in range(n)] for _ in range(n)]
    op = diagonal_solution(a, Matrix(b))
    assert op.matrix == Matrix([[b[r // n][r % n] if r == c else 0 for c in range(n * n)]
                                for r in range(n * n)])
    assert op.structure_map == Matrix.diagonal(a)


def index_identity_first_failure(x, y, z):
    """The first (k, p, q, u, v, w), in that scan order, where
    sum_ij z[i][u] x[v][w][j][k] y[i][j][p][q] differs from
    sum_ij z[p][i] x[j][w][q][k] y[u][v][i][j]; None when none does."""
    rng = range(len(z))
    for k, p, q, u, v, w in itertools.product(rng, repeat=6):
        lhs = sum(z[i][u] * x[v][w][j][k] * y[i][j][p][q] for i in rng for j in rng)
        rhs = sum(z[p][i] * x[j][w][q][k] * y[u][v][i][j] for i in rng for j in rng)
        if lhs != rhs:
            return (k, p, q, u, v, w)
    return None


@st.composite
def sparse_coordinates(draw, n):
    """Coordinates x[v][w][j][k] with at most two of X's n^3 (v, w, k)
    columns over j nonempty, each holding one or more nonzero entries."""
    x = [[[[ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    rng = st.integers(0, n - 1)
    for v, w, k in draw(st.sets(st.tuples(rng, rng, rng), max_size=2)):
        for j in draw(st.sets(rng, min_size=1)):
            x[v][w][j][k] = draw(st.sampled_from([c for c in SMALL if c]))
    return x


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_index_identity_matches_oracle(data):
    # the coordinates of drawn operators, and sparse coordinates, whose
    # tables are read off few nonempty columns of X: y != x, over a mu with
    # two entries in column 1
    n = data.draw(st.sampled_from((1, 2, 3)))
    if n > 1 and data.draw(st.booleans()):
        entry = st.sampled_from(SMALL)
        mu = [[1 if i == j else (data.draw(entry) if j > i else 0) for j in range(n)]
              for i in range(n)]
        mu[0][1] = data.draw(st.sampled_from([c for c in SMALL if c]))
        x = data.draw(sparse_coordinates(n))
        y = data.draw(sparse_coordinates(n).filter(lambda y: y != x))
    else:
        mu = data.draw(structure_maps(n))
        x = data.draw(coordinates(n, mu))
        y = x if data.draw(st.booleans()) else data.draw(coordinates(n, mu))
    expected = index_identity_first_failure(x, y, mu)
    rep = coordinate_criterion(x, y, Matrix(mu))
    assert rep.passed("index-identity") == (expected is None)
    assert rep.check("index-identity").witness == expected
    assert rep.flags["agreement"] == (rep.passed("operator-identity") == (expected is None))


def grid_search_oracle(mu, values, shape):
    """Every operator on the grid that solves the Hom-Long equation, in grid
    order: the unknowns (the n^2 diagonal entries, or all n^4 entries) in
    row-major order run over the distinct values in the given order, as
    itertools.product runs, and each candidate is decided by the elementwise
    evaluator.  The evaluator runs on integers: the equation is homogeneous
    in R and in mu, so clearing the denominators of the values and of mu
    keeps every verdict.  Returns lists of rows holding the given values.
    """
    n = len(mu)
    n2 = n * n
    distinct = list(dict.fromkeys(Fraction(v) for v in values))
    d = math.lcm(*(v.denominator for v in distinct))
    e = math.lcm(*(Fraction(x).denominator for row in mu for x in row))
    ints = [int(v * d) for v in distinct]
    mu_int = [[int(Fraction(x) * e) for x in row] for row in mu]
    if shape == "diagonal":
        positions = [(c, c) for c in range(n2)]
    else:
        positions = [(r, c) for r in range(n2) for c in range(n2)]
    out = []
    for combo in itertools.product(ints, repeat=len(positions)):
        rows = [[0] * n2 for _ in range(n2)]
        for (r, c), x in zip(positions, combo):
            rows[r][c] = x
        if longeq_first_failing_column(rows, rows, mu_int) is None:
            out.append([[Fraction(x, d) for x in row] for row in rows])
    return out


# coefficient values: SMALL plus duplicates written another way
VALUES = SMALL + ["2/2", "-4/2", 1, "0"]


def solve_value_by_value(forms, count, values):
    """The depth-first search of longeq._solve with no budget, testing every
    form completed at a node once per value: (solutions, nodes visited)."""
    order = longeq._variable_order(forms, count)
    depth = {a: d for d, a in enumerate(order)}
    tests = [[] for _ in range(count)]
    for form in forms:
        terms = [(x, depth[a], depth[b]) for (a, b), x in form]
        tests[max(max(p, q) for _, p, q in terms)].append(terms)
    x, tried, found, nodes, d = [0] * count, [0] * count, [], 0, 0
    while d >= 0:
        if tried[d] == len(values):
            tried[d] = 0
            d -= 1
            continue
        x[d] = values[tried[d]]
        tried[d] += 1
        if any(sum(c * x[p] * x[q] for c, p, q in terms) for terms in tests[d]):
            continue
        nodes += 1
        if d + 1 == count:
            found.append(tuple(x))
        else:
            d += 1
    return [tuple(xs[depth[a]] for a in range(count)) for xs in found], nodes


@st.composite
def quadratic_forms(draw):
    """Forms in x_0 .. x_{count-1} as longeq._long_constraints gives them:
    sorted tuples of ((a, b), c) with a <= b and c != 0."""
    count = draw(st.integers(1, 6))
    pairs = st.tuples(st.integers(0, count - 1), st.integers(0, count - 1)).map(
        lambda ab: tuple(sorted(ab)))
    form = st.dictionaries(pairs, st.integers(-3, 3).filter(bool), min_size=1, max_size=3)
    forms = draw(st.lists(form, max_size=8))
    values = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3, unique=True))
    return sorted({tuple(sorted(f.items())) for f in forms}), count, values


def _assert_same_search(forms, count, values):
    found, nodes = solve_value_by_value(forms, count, values)
    # the same solutions in the same order, and the budget refuses at the
    # same node
    assert longeq._solve(forms, count, values, nodes) == found
    if nodes:
        assert longeq._solve(forms, count, values, nodes - 1) is None


@settings(max_examples=150, deadline=None)
@given(quadratic_forms())
def test_solve_matches_the_value_by_value_search(case):
    _assert_same_search(*case)


def test_solve_matches_the_value_by_value_search_on_long_constraints():
    unipotent3 = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    for n, entries in ((2, [[1, 1], [0, 1]]), (2, [[1, 0], [0, 2]]), (3, unipotent3)):
        mu_cols = linalg.sparse_columns(Matrix(entries))[0]
        positions = [(c, c) for c in range(n * n)]
        forms = longeq._long_constraints(positions, mu_cols, n)
        _assert_same_search(forms, n * n, [0, 1])
        _assert_same_search(forms, n * n, [1, 0, -1])


@st.composite
def value_lists(draw, most):
    """A list of coefficient values with at most `most` distinct ones, some
    repeated as "p/q" strings, in any order."""
    distinct = draw(st.lists(st.sampled_from(VALUES), min_size=1, max_size=most,
                             unique_by=Fraction))
    repeats = [str(Fraction(v)) for v in draw(st.lists(st.sampled_from(distinct), max_size=2))]
    return draw(st.permutations(distinct + repeats))


def _assert_search_matches_grid(mu, values, shape):
    expected = grid_search_oracle(mu, values, shape)
    found = search_solutions(Matrix(mu), values, shape)
    assert [s.matrix.to_lists() for s in found] == expected


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_diagonal_search_matches_oracle(data):
    # at most 2 distinct values for n = 3 keeps the oracle fast; three are
    # pinned below
    n = data.draw(st.sampled_from((2, 3)))
    values = data.draw(value_lists(4 if n == 2 else 2))
    _assert_search_matches_grid(data.draw(structure_maps(n)), values, "diagonal")


def test_diagonal_search_n3_three_values_matches_oracle():
    # 3^9 candidates, values out of ascending order and one duplicate
    _assert_search_matches_grid([[1, 1, 0], [0, 1, 2], [0, 0, 1]], [2, 0, 1, "2/2"],
                                "diagonal")


@settings(max_examples=6, deadline=None)
@given(structure_maps(2), value_lists(2))
def test_full_search_matches_oracle(mu, values):
    # two distinct values are the most the cap admits (3^16 > 2^20)
    _assert_search_matches_grid(mu, values, "full")


def all_pairs_long_constraints(positions, mu_cols, n):
    """The search's quadratic forms as first derived: the kernel's difference
    for every ordered pair of unit operators at every basis triple."""
    n2 = n * n
    units = []
    for r, c in positions:
        cols = [[] for _ in range(n2)]
        cols[c] = [(r, 1)]
        units.append(cols)
    forms = set()
    for u, v, w in itertools.product(range(n), repeat=3):
        coords = {}
        for a, ea in enumerate(units):
            for b, eb in enumerate(units):
                found = longeq._first_difference(ea, eb, mu_cols, mu_cols, n,
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


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_long_constraints_match_the_all_pairs_derivation(data):
    shape = data.draw(st.sampled_from(("diagonal", "full")))
    n = data.draw(st.sampled_from((1, 2, 3) if shape == "diagonal" else (1, 2)))
    n2 = n * n
    positions = ([(c, c) for c in range(n2)] if shape == "diagonal"
                 else [(r, c) for r in range(n2) for c in range(n2)])
    mu_cols = linalg.sparse_columns(Matrix(data.draw(structure_maps(n))))[0]
    assert (longeq._long_constraints(positions, mu_cols, n)
            == all_pairs_long_constraints(positions, mu_cols, n))


def test_longeq_witness_on_perturbed_n16_extension():
    # a 4096-column check; the witness must be the oracle's first failing column
    kz4t = fx.kz4_twisted()
    op = dimodule_solution(module_extension(kz4t, fx.regular_module(kz4t)))
    rows, mu = op.matrix.to_lists(), op.structure_map.to_lists()
    rows[200][77] += 1
    expected = longeq_first_failing_column(rows, rows, mu)
    assert expected is not None
    rep = check_long_equation(OperatorOnTensorSquare(16, Matrix(rows), op.structure_map))
    assert rep.check("hom-long-eq").witness == expected


def test_longeq_witness_on_value_perturbed_n16_extension():
    # the same operator with the value of one nonzero entry doubled keeps
    # one entry in every column, so the single-term kernel decides it
    kz4t = fx.kz4_twisted()
    op = dimodule_solution(module_extension(kz4t, fx.regular_module(kz4t)))
    rows, mu = op.matrix.to_lists(), op.structure_map.to_lists()
    r = next(r for r, row in enumerate(rows) if row[77])
    rows[r][77] *= 2
    expected = longeq_first_failing_column(rows, rows, mu)
    assert expected is not None
    bent = OperatorOnTensorSquare(16, Matrix(rows), op.structure_map)
    assert all(len(col) == 1 for col in sparse_columns(bent.matrix)[0])
    with mock.patch.object(longeq, "_first_difference",
                           side_effect=AssertionError("generic kernel")):
        rep = check_long_equation(bent)
    assert rep.check("hom-long-eq").witness == expected


def _longeq_carrier_solutions():
    """The distinct induced operators of the longeq-carriers benchmark: for
    kz4-twisted, Klein and Sweedler-scaled, the module extension of the
    trivial module over diag(1, 2, 3) (n = 12), and the module and comodule
    extensions of the trivial module and comodule (rho(m) = 1 (x) mu(m))
    over diag(1, 2) and diag(2, 1) (n = 8)."""
    ops = []
    for h in (fx.kz4_twisted(), fx.klein_hopf(), fx.sweedler_scaled_twisted(2)):
        exts = [module_extension(h, fx.trivial_module(h, Matrix.diagonal([1, 2, 3])))]
        for mu in (Matrix.diagonal([1, 2]), Matrix.diagonal([2, 1])):
            d = mu.rows
            coaction = tensor(d, h.dim, d, lambda i, a, j: h.unit[a] * mu[j, i])
            exts += [module_extension(h, fx.trivial_module(h, mu)),
                     comodule_extension(h, Carrier(None, h.coalgebra, d, None, coaction, mu))]
        for ext in exts:
            op = dimodule_solution(ext)
            if op not in ops:
                ops.append(op)
    return ops


def _unimodular_block_map(n):
    """P and P^-1 (from sympy) for the unimodular P with the dense block
    [[2, 1], [1, 1]] on each pair of indices 2b, 2b + 1."""
    p = sympy.zeros(n, n)
    for b in range(0, n, 2):
        p[b, b], p[b, b + 1], p[b + 1, b], p[b + 1, b + 1] = 2, 1, 1, 1
    assert p.det() == 1
    return tuple(Matrix([[int(x) for x in row] for row in m.tolist()]) for m in (p, p.inv()))


def test_longeq_verdict_is_kept_by_a_change_of_basis():
    # R -> (P (x) P) R (P (x) P)^-1 and mu -> P mu P^-1 conjugate both sides
    # of the equation by P (x) P (x) P, so the verdict stays.  Each carrier
    # operator and a copy with one value doubled (which fails for kz4-twisted
    # and still solves for the diagonal Klein and Sweedler ones) is decided
    # by the single-term kernel, the transported one by _first_difference.
    # A P dense in every row would make every column of R dense, and the
    # generic kernel would take some 0.07 s a triple at n = 8; 2 x 2 blocks
    # keep the whole test under a second
    verdicts = set()
    for op in _longeq_carrier_solutions():
        n = op.carrier_dim
        rows = op.matrix.to_lists()
        c = 5 * n + 3
        r = next(r for r, row in enumerate(rows) if row[c])
        rows[r][c] *= 2
        p, p_inv = _unimodular_block_map(n)
        pp, pp_inv = kron(p, p), kron(p_inv, p_inv)
        for x in (op, OperatorOnTensorSquare(n, Matrix(rows), op.structure_map)):
            assert all(len(col) == 1 for col in sparse_columns(x.matrix)[0])
            moved = OperatorOnTensorSquare(n, mul(pp, x.matrix, pp_inv),
                                           mul(p, x.structure_map, p_inv))
            assert max(map(len, sparse_columns(moved.matrix)[0])) > 1
            verdict = check_long_equation(x).ok
            assert check_long_equation(moved).ok == verdict
            verdicts.add((x is op, verdict))
    assert verdicts == {(True, True), (False, True), (False, False)}


# ---------------------------------------------------------------------------
# dense constructions: legs, braidings and tensor-product dimodules

def leg12(op_matrix, mu):
    return kron(op_matrix, mu)


def leg23(op_matrix, mu):
    return kron(mu, op_matrix)


def dense_braiding(ctx, m, n):
    """m (x) n -> <m_-1|n_-1> R2 . nu^-2(n_0) (x) R1 . mu^-2(m_0)."""
    nh, nb = ctx.H.dim, ctx.B.dim
    dm, dn = m.dim, n.dim
    frow = element_col(ctx.form).transpose()
    rc = element_col(ctx.R)
    paired = mul(kron(frow, kron(mul(m.mu, m.mu).inv(), mul(n.mu, n.mu).inv())),
                 permute_output_legs(kron(coproduct_map(m.coaction, m.dim),
                                          coproduct_map(n.coaction, n.dim)),
                                     [nb, dm, nb, dn], [0, 2, 1, 3]))
    with_r = mul(kron(rc, Matrix.identity(dm * dn)), paired)
    return mul(kron(n.action, m.action),
               permute_output_legs(with_r, [nh, nh, dm, dn], [1, 3, 0, 2]))


def dense_braiding_inverse(ctx, m, n):
    """n (x) m -> <S_B^-1(m_-1)|n_-1> S_H(R1) . mu^-2(m_0) (x) R2 . nu^-2(n_0)."""
    nh, nb = ctx.H.dim, ctx.B.dim
    dm, dn = m.dim, n.dim
    frow = mul(element_col(ctx.form).transpose(),
               kron(ctx.B.antipode.inv(), Matrix.identity(nb)))
    rc = element_col(ctx.R)
    paired = mul(kron(frow, kron(mul(n.mu, n.mu).inv(), mul(m.mu, m.mu).inv())),
                 permute_output_legs(kron(coproduct_map(n.coaction, n.dim),
                                          coproduct_map(m.coaction, m.dim)),
                                     [nb, dn, nb, dm], [2, 0, 1, 3]))
    with_r = mul(kron(rc, Matrix.identity(dn * dm)), paired)
    return mul(kron(mul(m.action, kron(ctx.H.antipode, Matrix.identity(dm))),
                    n.action),
               permute_output_legs(with_r, [nh, nh, dn, dm], [0, 3, 1, 2]))


def dense_module_family_braiding(ctx, m, n):
    """m (x) n -> R2 . nu^-1(n) (x) R1 . mu^-1(m)."""
    nh = ctx.H.dim
    rc = element_col(ctx.R)
    return mul(kron(mul(n.action, kron(Matrix.identity(nh), n.mu.inv())),
                    mul(m.action, kron(Matrix.identity(nh), m.mu.inv()))),
               permute_output_legs(kron(rc, Matrix.identity(m.dim * n.dim)),
                                   [nh, nh, m.dim, n.dim], [1, 3, 0, 2]))


def dense_comodule_family_braiding(ctx, m, n):
    """m (x) n -> <m_-1|n_-1> nu^-1(n_0) (x) mu^-1(m_0)."""
    nb = ctx.B.dim
    frow = element_col(ctx.form).transpose()
    return mul(kron(frow, kron(n.mu.inv(), m.mu.inv())),
               permute_output_legs(kron(coproduct_map(m.coaction, m.dim),
                                        coproduct_map(n.coaction, n.dim)),
                                   [nb, m.dim, nb, n.dim], [0, 2, 3, 1]))


def dense_tensor_dimodule(m, n):
    """(action, coaction, mu, basis) of m (x) n, with h.(m (x) n) = h1.m (x) h2.n
    and rho(m (x) n) = b^-2(m_-1 n_-1) (x) m_0 (x) n_0."""
    h, b = m.H, n.B
    nh, nb = h.dim, b.dim
    d = m.dim * n.dim
    eye = Matrix.identity(d)
    act_mat = mul(kron(m.action, n.action),
                  permute_output_legs(kron(coproduct_map(h.comult, h.dim), eye),
                                      [nh, nh, m.dim, n.dim], [0, 2, 1, 3]))
    co_mat = mul(kron(mul(mul(b.gamma, b.gamma).inv(), b.mult), eye),
                 permute_output_legs(kron(coproduct_map(m.coaction, m.dim),
                                          coproduct_map(n.coaction, n.dim)),
                                     [nb, m.dim, nb, n.dim], [0, 2, 1, 3]))
    names = tuple("%s⊗%s" % (x, y) for x in m.basis for y in n.basis)
    return (tensor(nh, d, d, lambda i, j, k: act_mat[k, i * d + j]),
            tensor(d, nb, d, lambda i, j, k: co_mat[j * d + k, i]),
            kron(m.mu, n.mu), names)


# ---------------------------------------------------------------------------
# dense composites of the categorical identities

def dense_morphism_report(m, n, f):
    """H-linearity, B-colinearity and structure-map commutation of f: m -> n."""
    rep = AxiomReport()
    h, b = m.H, m.B
    matrices_equal_report(rep, "H-linear", mul(f, m.action),
                          mul(n.action, kron(Matrix.identity(h.dim), f)),
                          (h.dim, m.dim), (h.basis, m.basis))
    matrices_equal_report(rep, "B-colinear", mul(coproduct_map(n.coaction, n.dim), f),
                          mul(kron(Matrix.identity(b.dim), f), coproduct_map(m.coaction, m.dim)),
                          (m.dim,), (m.basis,))
    matrices_equal_report(rep, "structure-commute", mul(n.mu, f), mul(f, m.mu),
                          (m.dim,), (m.basis,))
    return rep


def dense_tensor(m, n):
    """dense_tensor_dimodule(m, n) as a dimodule."""
    return Carrier(m.H, m.B, m.dim * n.dim, *dense_tensor_dimodule(m, n))


def dense_naturality(ctx, f, g):
    for mor in (f, g):
        if not dense_morphism_report(mor.source, mor.target, mor.matrix).ok:
            raise NotAMorphism("not a morphism")
    c_src = dense_braiding(ctx, f.source, g.source)
    c_tgt = dense_braiding(ctx, f.target, g.target)
    lhs = mul(kron(g.matrix, f.matrix), c_src)
    rhs = mul(c_tgt, kron(f.matrix, g.matrix))
    return matrices_equal_report(AxiomReport(), "naturality", lhs, rhs,
                                 (f.source.dim, g.source.dim),
                                 (f.source.basis, g.source.basis))


def dense_hexagons(ctx, u, v, w):
    rep = AxiomReport()
    uv = dense_tensor(u, v)
    vw = dense_tensor(v, w)
    c_uv = dense_braiding(ctx, u, v)
    c_uw = dense_braiding(ctx, u, w)
    c_vw = dense_braiding(ctx, v, w)
    eye_u, eye_v, eye_w = (Matrix.identity(t.dim) for t in (u, v, w))
    lhs1 = mul(dense_associator(v, w, u), dense_braiding(ctx, u, vw), dense_associator(u, v, w))
    rhs1 = mul(kron(eye_v, c_uw), dense_associator(v, u, w), kron(c_uv, eye_w))
    matrices_equal_report(rep, "H1", lhs1, rhs1, (u.dim, v.dim, w.dim),
                          (u.basis, v.basis, w.basis))
    lhs2 = mul(dense_associator(w, u, v).inv(),
               dense_braiding(ctx, uv, w),
               dense_associator(u, v, w).inv())
    rhs2 = mul(kron(c_uw, eye_v), dense_associator(u, w, v).inv(), kron(eye_u, c_vw))
    matrices_equal_report(rep, "H2", lhs2, rhs2, (u.dim, v.dim, w.dim),
                          (u.basis, v.basis, w.basis))
    return rep


def dense_qybe(ctx, u, v, w):
    c_uv = dense_braiding(ctx, u, v)
    c_uw = dense_braiding(ctx, u, w)
    c_vw = dense_braiding(ctx, v, w)
    eye_u, eye_v, eye_w = (Matrix.identity(t.dim) for t in (u, v, w))
    lhs = mul(kron(eye_w, c_uv), dense_associator(w, u, v), kron(c_uw, eye_v),
              dense_associator(u, w, v).inv(), kron(eye_u, c_vw), dense_associator(u, v, w))
    rhs = mul(dense_associator(w, v, u), kron(c_vw, eye_u), dense_associator(v, w, u).inv(),
              kron(eye_v, c_uw), dense_associator(v, u, w), kron(c_uv, eye_w))
    return matrices_equal_report(AxiomReport(), "QYBE", lhs, rhs, (u.dim, v.dim, w.dim),
                                 (u.basis, v.basis, w.basis))


def dense_symmetry(ctx, m, n):
    back = dense_braiding(ctx, n, m)
    forth = dense_braiding(ctx, m, n)
    return matrices_equal_report(AxiomReport(), "symmetry", mul(back, forth),
                                 Matrix.identity(m.dim * n.dim),
                                 (m.dim, n.dim), (m.basis, n.basis))


def dense_coherence(u, v, w, x):
    """check_coherence's report with every identity composed densely."""
    rep = AxiomReport()
    if all(dense_morphism_report(t, t, t.mu).ok for t in (u, v, w)):
        f, g, h = u.mu, v.mu, w.mu
        rep.set_flag("naturality-morphisms", "structure-maps")
    else:
        f, g, h = (Matrix.identity(t.dim) for t in (u, v, w))
        rep.set_flag("naturality-morphisms", "identity")
    a_uvw = dense_associator(u, v, w)
    fgh = kron_all(f, g, h)
    matrices_equal_report(rep, "naturality-a", mul(a_uvw, fgh), mul(fgh, a_uvw),
                          (u.dim, v.dim, w.dim), (u.basis, v.basis, w.basis))
    uv, vw, wx = dense_tensor(u, v), dense_tensor(v, w), dense_tensor(w, x)
    path1 = mul(dense_associator(u, v, wx), dense_associator(uv, w, x))
    path2 = mul(kron(Matrix.identity(u.dim), dense_associator(v, w, x)),
                dense_associator(u, vw, x),
                kron(a_uvw, Matrix.identity(x.dim)))
    matrices_equal_report(rep, "pentagon", path1, path2, (u.dim, v.dim, w.dim, x.dim),
                          (u.basis, v.basis, w.basis, x.basis))
    lhs = mul(kron(Matrix.identity(u.dim), v.mu), kron(u.mu.inv(), v.mu))
    rhs = kron(u.mu, Matrix.identity(v.dim))
    matrices_equal_report(rep, "triangle", lhs, rhs, (u.dim, v.dim), (u.basis, v.basis))
    unit = unit_dimodule(u.H, u.B)
    for prefix, src, tgt, mor in (
            ("assoc-", dense_tensor(uv, w), dense_tensor(u, vw), a_uvw),
            ("left-unit-", dense_tensor(unit, v), v, v.mu),
            ("right-unit-", dense_tensor(v, unit), v, v.mu)):
        sub = dense_morphism_report(src, tgt, mor)
        for axiom in ("H-linear", "B-colinear"):
            rep.add(prefix + axiom, sub.passed(axiom), sub.check(axiom).witness)
    return rep


def dense_snake(m, duality):
    d = m.dim
    star = duality.dual
    eye = Matrix.identity(d)
    rep = AxiomReport()
    if duality.side == "left":
        zig = mul(m.mu, kron(eye, duality.ev), kron_all(m.mu.inv(), eye, m.mu),
                  kron(duality.coev, eye), m.mu.inv())
        zag = mul(star.mu, kron(duality.ev, eye), kron_all(star.mu, eye, star.mu.inv()),
                  kron(eye, duality.coev), star.mu.inv())
    else:
        zig = mul(m.mu, kron(duality.ev, eye), kron_all(m.mu, eye, m.mu.inv()),
                  kron(eye, duality.coev), m.mu.inv())
        zag = mul(star.mu, kron(eye, duality.ev), kron_all(star.mu.inv(), eye, star.mu),
                  kron(duality.coev, eye), star.mu.inv())
    matrices_equal_report(rep, "snake-object", zig, eye, (d,), (m.basis,))
    matrices_equal_report(rep, "snake-dual", zag, eye, (d,), (star.basis,))
    return rep


def dense_tau_witnesses(op):
    """The first basis triple on which the U-equation fails, then the
    T-equation's, None where it holds, with the legs and the cycle as
    n^3 x n^3 matrices."""
    n, mu = op.carrier_dim, op.structure_map
    t = flip_matrix(n, n)
    move = kron(Matrix.identity(n), t)
    cyc = perm_matrix([n, n, n], [2, 0, 1])

    def legs(x):
        return kron(x, mu), mul(move, kron(x, mu), move), kron(mu, x)

    def first_column(a, b):
        a, b = a.to_lists(), b.to_lists()
        for j in range(n ** 3):
            if any(row_a[j] != row_b[j] for row_a, row_b in zip(a, b)):
                return unflat_index(j, (n, n, n))
        return None

    u12, u13, u23 = legs(mul(t, op.matrix))
    t12, t13, t23 = legs(mul(op.matrix, t))
    return (first_column(mul(u13, u23), mul(cyc, u13, u12)),
            first_column(mul(t12, t13), mul(t23, t13, cyc)))


# ---------------------------------------------------------------------------
# dense validators: modules, comodules, Yetter-Drinfeld modules, dimodules

def dense_validate_hom_module(a, m):
    """nu-invertible, HM1 and HM2 with every composite a full matrix."""
    rep = AxiomReport()
    rep.add("nu-invertible", m.mu.det() != 0)
    am, nu, al, mm = m.action, m.mu, a.gamma, a.mult
    eye_m = Matrix.identity(m.dim)
    hn, mn = a.basis, m.basis
    matrices_equal_report(rep, "HM1", mul(nu, am), mul(am, kron(al, nu)),
                          (a.dim, m.dim), (hn, mn))
    matrices_equal_report(rep, "HM2-assoc",
                          mul(am, kron(al, am)), mul(am, kron(mm, nu)),
                          (a.dim, a.dim, m.dim), (hn, hn, mn))
    matrices_equal_report(rep, "HM2-unit", mul(am, kron(a.unit, eye_m)), nu,
                          (m.dim,), (mn,))
    return rep


def dense_validate_hom_comodule(c, m):
    """mu-invertible, HCM1 and HCM2 with every composite a full matrix."""
    rep = AxiomReport()
    rep.add("mu-invertible", m.mu.det() != 0)
    co, mu, be = coproduct_map(m.coaction, m.dim), m.mu, c.gamma
    cm = coproduct_map(c.comult, c.dim)
    eye_m = Matrix.identity(m.dim)
    mn = m.basis
    matrices_equal_report(rep, "HCM1-a", mul(co, mu), mul(kron(be, mu), co),
                          (m.dim,), (mn,))
    matrices_equal_report(rep, "HCM1-b", mul(kron(row_matrix(c.counit), eye_m), co), mu,
                          (m.dim,), (mn,))
    matrices_equal_report(rep, "HCM2",
                          mul(kron(be, co), co), mul(kron(cm, mu), co),
                          (m.dim,), (mn,))
    return rep


def dense_validate_long_dimodule(d):
    """Both parts and rho(h.m) = b(m_-1) (x) a(h).m_0 as full matrices."""
    h, b = d.H, d.B
    rep = AxiomReport()
    rep.extend(dense_validate_hom_module(h.algebra, d), "module:")
    rep.extend(dense_validate_hom_comodule(b.coalgebra, d), "comodule:")
    am, co = d.action, coproduct_map(d.coaction, d.dim)
    lhs = mul(co, am)
    rhs = mul(kron(b.gamma, mul(am, kron(h.gamma, Matrix.identity(d.dim)))),
              permute_output_legs(kron(Matrix.identity(h.dim), co),
                                  [h.dim, b.dim, d.dim], [1, 0, 2]))
    matrices_equal_report(rep, "compat-2.1", lhs, rhs, (h.dim, d.dim),
                          (h.basis, d.basis))
    return rep


def dense_check_yd(h, m):
    """(HYD), and with an antipode (HYD)' and the consistency flag, as full
    matrices."""
    n = h.dim
    d = m.dim
    am = m.action
    co = coproduct_map(m.coaction, m.dim)
    be = h.gamma
    mm, cm = h.mult, coproduct_map(h.comult, h.dim)
    eye_h, eye_m = Matrix.identity(n), Matrix.identity(d)
    rep = AxiomReport()

    be2 = mul(be, be)
    be3 = mul(be2, be)

    # h1 b(m-1) (x) b^3(h2) . m0
    lhs = mul(kron(mul(mm, kron(eye_h, be)), mul(am, kron(be3, eye_m))),
              permute_output_legs(kron(cm, co), [n, n, n, d], [0, 2, 1, 3]))
    # w = b^2(h1) . m ; w-1 h2 (x) w0
    act_b2 = mul(am, kron(be2, eye_m))
    step = mul(kron(act_b2, eye_h), permute_output_legs(kron(cm, eye_m), [n, n, d], [0, 2, 1]))
    rhs = mul(kron(mm, eye_m),
              permute_output_legs(mul(kron(co, eye_h), step), [n, d, n], [0, 2, 1]))
    matrices_equal_report(rep, "HYD", lhs, rhs, (n, d), (h.basis, m.basis))

    if h.antipode is not None:
        s = h.antipode
        be4 = mul(be3, be)
        b2i = mul(be, be).inv()
        lhs2 = mul(co, am, kron(be4, eye_m))
        split = kron(mul(kron(cm, eye_h), cm), co)            # [h11, h12, h2, m-1, m0]
        g1 = mul(mm, kron(mul(b2i, mm, kron(eye_h, be)), s))  # [h11, m-1, h2] -> H
        g2 = mul(am, kron(be3, eye_m))                        # [h12, m0] -> M
        rhs2 = mul(kron(g1, g2), permute_output_legs(split, [n, n, n, n, d], [0, 3, 2, 1, 4]))
        matrices_equal_report(rep, "HYD-prime", lhs2, rhs2, (n, d), (h.basis, m.basis))
        rep.set_flag("hyd-consistent", rep.passed("HYD") == rep.passed("HYD-prime"))
    return rep


def dense_yd_prebraiding(m, n):
    """m (x) n -> b^2(m-1) . nu^-1(n) (x) mu^-1(m0) as a product of full matrices."""
    hb = m.H
    nh = hb.dim
    be2 = mul(hb.gamma, hb.gamma)
    act_n = n.action
    g = mul(act_n, kron(be2, n.mu.inv()))
    return mul(kron(g, m.mu.inv()),
               permute_output_legs(kron(coproduct_map(m.coaction, m.dim),
                                        Matrix.identity(n.dim)),
                                   [nh, m.dim, n.dim], [0, 2, 1]))


# ---------------------------------------------------------------------------
# dense validators: the Hom-algebra tower, R-elements, forms and the twist

def dense_validate_hom_algebra(a):
    """Check alpha-invertible, HA1 (twist is multiplicative, fixes the unit)
    and HA2 (Hom-associativity and the twisted unit law)."""
    n = a.dim
    rep = AxiomReport()
    rep.add("alpha-invertible", a.gamma.det() != 0)
    mm, al, u = a.mult, a.gamma, a.unit
    eye = Matrix.identity(n)
    names = a.basis
    matrices_equal_report(rep, "HA1-mult", mul(al, mm), mul(mm, kron(al, al)),
                          (n, n), (names, names))
    au, entries = mul(al, u), entries_of(u)
    rep.add("HA1-unit", au == u, None if au == u else
            (next(names[i] for i, x in enumerate(entries_of(au)) if x != entries[i]),))
    matrices_equal_report(rep, "HA2-assoc",
                          mul(mm, kron(al, mm)), mul(mm, kron(mm, al)),
                          (n, n, n), (names, names, names))
    left = mul(mm, kron(u, eye))
    right = mul(mm, kron(eye, u))
    if left == al and right == al:
        rep.add("HA2-unit", True)
    else:
        side = "1*a" if left != al else "a*1"
        bad = left if left != al else right
        w = next((names[j] for j, (x, y) in enumerate(zip(dense_columns(bad), dense_columns(al)))
                  if x != y), None)
        rep.add("HA2-unit", False, (side, w))
    return rep


def dense_validate_hom_coalgebra(c):
    """Check beta-invertible, HC1 (twist is comultiplicative, preserves the
    counit) and HC2 (Hom-coassociativity and the twisted counit law)."""
    n = c.dim
    rep = AxiomReport()
    rep.add("beta-invertible", c.gamma.det() != 0)
    cm, be, eps = coproduct_map(c.comult, c.dim), c.gamma, row_matrix(c.counit)
    eye = Matrix.identity(n)
    names = c.basis
    lhs, rhs = mul(cm, be), mul(kron(be, be), cm)
    if lhs == rhs and mul(eps, be) == eps:
        rep.add("HC1", True)
    else:
        if lhs != rhs:
            w = next((("delta", names[j]) for j in range(n)
                      if dense_columns(lhs)[j] != dense_columns(rhs)[j]), None)
        else:
            eb, e = dense_entries(mul(eps, be))[0], dense_entries(eps)[0]
            w = ("counit", next(names[j] for j in range(n) if eb[j] != e[j]))
        rep.add("HC1", False, w)
    matrices_equal_report(rep, "HC2-coassoc",
                          mul(kron(be, cm), cm), mul(kron(cm, be), cm), (n,), (names,))
    left = mul(kron(eps, eye), cm)
    right = mul(kron(eye, eps), cm)
    if left == be and right == be:
        rep.add("HC2-counit", True)
    else:
        side = "eps(c1)c2" if left != be else "c1 eps(c2)"
        bad = left if left != be else right
        w = next((names[j] for j, (x, y) in enumerate(zip(dense_columns(bad), dense_columns(be)))
                  if x != y), None)
        rep.add("HC2-counit", False, (side, w))
    return rep


def dense_validate_hom_bialgebra(h):
    """Check that the comultiplication and counit are Hom-algebra morphisms."""
    n = h.dim
    rep = AxiomReport()
    mm, cm = h.mult, coproduct_map(h.comult, h.dim)
    u, eps = h.unit, row_matrix(h.counit)
    names = h.basis
    m2 = tensor_square_mult_map(h.algebra)
    matrices_equal_report(rep, "delta-mult", mul(cm, mm), mul(m2, kron(cm, cm)),
                          (n, n), (names, names))
    matrices_equal_report(rep, "delta-unit", mul(cm, u).transpose(), kron(u, u).transpose(),
                          (n, n), (names, names))
    matrices_equal_report(rep, "counit-mult", mul(eps, mm), kron(eps, eps),
                          (n, n), (names, names))
    counital = dense_entries(mul(eps, u))[0][0] == 1
    rep.add("counit-unit", counital, None if counital else ("eps(1)",))
    return rep


def dense_validate_hom_hopf(h):
    """Check the antipode identities, S-twist commutation and invertibility."""
    n = h.dim
    rep = AxiomReport()
    mm, cm, s = h.mult, coproduct_map(h.comult, h.dim), h.antipode
    names = h.basis
    eye = Matrix.identity(n)
    target = mul(h.unit, row_matrix(h.counit))
    matrices_equal_report(rep, "antipode-left", mul(mm, kron(s, eye), cm), target,
                          (n,), (names,))
    matrices_equal_report(rep, "antipode-right", mul(mm, kron(eye, s), cm), target,
                          (n,), (names,))
    matrices_equal_report(rep, "S-gamma-commute", mul(s, h.gamma), mul(h.gamma, s),
                          (n,), (names,))
    s_inv = s.det() != 0
    rep.add("S-invertible", s_inv)
    rep.set_flag("antipode-invertible", s_inv)
    return rep


def dense_validate_quasitriangular(h, r):
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
    mm, cm, be = h.mult, coproduct_map(h.comult, h.dim), h.gamma
    eps, u = row_matrix(h.counit), h.unit
    rc = element_col(r)

    left = mul(kron(eps, eye), rc)
    right = mul(kron(eye, eps), rc)
    rep.add("QHA1", left == u and right == u,
            None if (left == u and right == u) else ("eps(R1)R2" if left != u else "R1eps(R2)",))

    dims3 = (n, n, n)
    rr = kron(rc, rc)
    lhs2 = mul(kron(cm, be), rc)
    rhs2 = mul(kron_all(be, be, mm), permute_output_legs(rr, [n, n, n, n], [0, 2, 1, 3]))
    matrices_equal_report(rep, "QHA2", lhs2.transpose(), rhs2.transpose(), dims3,
                          (names, names, names))

    lhs3 = mul(kron(be, cm), rc)
    rhs3 = mul(kron_all(mm, be, be), permute_output_legs(rr, [n, n, n, n], [0, 2, 3, 1]))
    matrices_equal_report(rep, "QHA3", lhs3.transpose(), rhs3.transpose(), dims3,
                          (names, names, names))

    m2 = tensor_square_mult_map(h.algebra)
    flip = flip_matrix(n, n)
    ok4, wit4 = True, None
    for hh in range(n):
        dh = column_of(dense_columns(cm)[hh])
        dcop = mul(flip, dh)
        lhs = mul(m2, kron(dcop, rc))
        rhs = mul(m2, kron(rc, dh))
        if lhs != rhs:
            ok4, wit4 = False, (names[hh],)
            break
    rep.add("QHA4", ok4, wit4)

    matrices_equal_report(rep, "QHA5", mul(kron(be, be), rc).transpose(), rc.transpose(),
                          (n, n), (names, names))

    unit2 = kron(u, u)
    lmul = mul(m2, kron(rc, Matrix.identity(n * n)))
    rmul = mul(m2, kron(Matrix.identity(n * n), rc))
    stacked = Matrix(dense_entries(lmul) + dense_entries(rmul), rows=2 * n * n, cols=n * n)
    target = column_of(entries_of(unit2) * 2)
    x = solve_exact(stacked, target)
    rep.set_flag("convolution-invertible", x is not None)
    flip_r = mul(flip, rc)
    triangular = (x is not None
                  and mul(m2, kron(rc, flip_r)) == unit2
                  and mul(m2, kron(flip_r, rc)) == unit2)
    rep.set_flag("triangular", triangular)
    return rep


def dense_validate_coquasitriangular(b, form):
    """CHA1-CHA5 plus the cotriangularity test on a bilinear form."""
    n = b.dim
    if form.rows != n or form.cols != n:
        raise DimensionMismatch("form is %dx%d on a dim-%d algebra" % (form.rows, form.cols, n))
    rep = AxiomReport()
    names = b.basis
    eye = Matrix.identity(n)
    mm, cm, be = b.mult, coproduct_map(b.comult, b.dim), b.gamma
    eps, u = row_matrix(b.counit), b.unit
    frow = element_col(form).transpose()
    dims3 = (n, n, n)

    # CHA1: input (h,g,l); split l, twist h and g, pair as <bh|l2><bg|l1>.
    lhs = mul(frow, kron(mm, be))
    split_l = mul(kron_all(be, be, eye, eye), kron_all(eye, eye, cm))
    rhs = mul(kron(frow, frow), permute_output_legs(split_l, [n, n, n, n], [0, 3, 1, 2]))
    matrices_equal_report(rep, "CHA1", lhs, rhs, dims3, (names, names, names))

    # CHA2: split h, twist g and l, pair as <h1|bg><h2|bl>.
    lhs = mul(frow, kron(be, mm))
    split_h = mul(kron_all(eye, eye, be, be), kron_all(cm, eye, eye))
    rhs = mul(kron(frow, frow), permute_output_legs(split_h, [n, n, n, n], [0, 2, 1, 3]))
    matrices_equal_report(rep, "CHA2", lhs, rhs, dims3, (names, names, names))

    dims2 = (n, n)
    expand = kron(cm, cm)  # (h,g) -> (h1,h2,g1,g2)
    lhs = mul(kron(frow, mm), permute_output_legs(expand, [n, n, n, n], [0, 2, 3, 1]))
    rhs = mul(kron(mm, frow), permute_output_legs(expand, [n, n, n, n], [0, 2, 1, 3]))
    matrices_equal_report(rep, "CHA3", lhs, rhs, dims2, (names, names))

    left = mul(frow, kron(u, eye))
    right = mul(frow, kron(eye, u))
    rep.add("CHA4", left == eps and right == eps,
            None if (left == eps and right == eps) else
            ("<1|h>" if left != eps else "<h|1>",))

    matrices_equal_report(rep, "CHA5", element_col(mul(be.transpose(), form, be)).transpose(),
                          frow, (n, n), (names, names))

    cot = mul(kron(frow, frow), permute_output_legs(expand, [n, n, n, n], [0, 2, 3, 1]))
    rep.set_flag("cotriangular", cot == kron(eps, eps))
    return rep


def dense_yau_twist(h, phi):
    """yau_twist with the automorphism identities as full matrices and the
    twisted structure maps contracted by apply3."""
    n = h.dim
    if not h.gamma.is_identity():
        raise NotAutomorphism("twist base must carry the identity structure map")
    if phi.rows != n or phi.cols != n:
        raise DimensionMismatch("phi is %dx%d for dim %d" % (phi.rows, phi.cols, n))
    if phi.det() == 0:
        raise NotAutomorphism("phi is not invertible")
    mm, cm = h.mult, coproduct_map(h.comult, h.dim)
    if mul(phi, mm) != mul(mm, kron(phi, phi)):
        raise NotAutomorphism("phi o mult != mult o (phi x phi)")
    if mul(kron(phi, phi), cm) != mul(cm, phi):
        raise NotAutomorphism("(phi x phi) o comult != comult o phi")
    if mul(row_matrix(h.counit), phi) != row_matrix(h.counit):
        raise NotAutomorphism("counit o phi != counit")
    if mul(phi, h.unit) != h.unit:
        raise NotAutomorphism("phi does not fix the unit")
    mult2 = apply3(h.mult, n, 2, phi)
    comult2 = apply3(h.comult, n, 0, phi.transpose())
    return HomStructure(n, phi, mult2, h.unit, comult2, h.counit, h.antipode, h.basis)


def _tuples(rep):
    return [c.as_tuple() for c in rep], rep.flags


@functools.lru_cache(maxsize=None)
def _context(tag):
    """The kz2 (x) kz2 or the Sweedler-scaled (x) kz2 context with its carriers."""
    kz2 = fx.kz2()
    h, r = (kz2, fx.kz2_rmatrix()) if tag == "kk" else (fx.sweedler_scaled_twisted(2),
                                                        fx.sweedler_rmatrix())
    ctx = BraidingContext(h, r, kz2, fx.kz2_form())
    carriers = [canonical_dimodule(h, kz2), trivial_dimodule(h, kz2, Matrix.diagonal([1, 3])),
                trivial_dimodule(h, kz2, Matrix.diagonal([1, 2]))]
    if tag == "kk":
        carriers.append(fx.sign_dimodule(kz2, kz2))
    return ctx, carriers


NONZERO = [x for x in SMALL if x]


def _bumped(draw, rows):
    """rows (a list of lists) with one entry changed by a nonzero amount."""
    rows = [list(r) for r in rows]
    rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, len(rows[0]) - 1))] += (
        draw(st.sampled_from(NONZERO)))
    return rows


@st.composite
def perturbed(draw, d):
    """d, or d with one entry of its action, coaction or mu changed (mu kept
    invertible), so that the identities built on it fail."""
    part = draw(st.sampled_from((None, "action", "coaction", "mu")))
    if part == "action":
        planes = dense_part(d, "action")
        h = draw(st.integers(0, d.H.dim - 1))
        planes[h] = _bumped(draw, planes[h])
        return replace(d, action=Matrix.from_tensor(planes))
    if part == "coaction":
        planes = dense_part(d, "coaction")
        i = draw(st.integers(0, d.dim - 1))
        planes[i] = _bumped(draw, planes[i])
        return replace(d, coaction=Matrix.from_tensor(planes))
    if part == "mu":
        mu = Matrix(_bumped(draw, dense_entries(d.mu)))
        assume(mu.det() != 0)
        return replace(d, mu=mu)
    return d


@st.composite
def triples(draw):
    """A context and three carriers, one of them perturbed; the dim-8
    canonical carrier of the Sweedler context fills at most one slot."""
    ctx, carriers = _context(draw(st.sampled_from(("kk", "sk"))))
    objs = [draw(st.sampled_from(carriers)) for _ in range(3)]
    assume(sum(t.dim == 8 for t in objs) <= 1)
    k = draw(st.integers(0, 2))
    objs[k] = draw(perturbed(objs[k]))
    return ctx, objs


@st.composite
def pairs(draw):
    """A context and two of its carriers, each perhaps perturbed."""
    ctx, carriers = _context(draw(st.sampled_from(("kk", "sk"))))
    return ctx, [draw(perturbed(draw(st.sampled_from(carriers)))) for _ in range(2)]


def _assert_braidings_and_tensor_match_dense(ctx, m, n):
    assert long_braiding(ctx, m, n).matrix == dense_braiding(ctx, m, n)
    assert long_braiding_inverse(ctx, m, n).matrix == dense_braiding_inverse(ctx, m, n)
    t = tensor_dimodule(m, n)
    assert (t.action, t.coaction, t.mu, t.basis) == dense_tensor_dimodule(m, n)


@settings(max_examples=40, deadline=None)
@given(pairs())
def test_braidings_and_tensor_product_match_dense_oracle(case):
    ctx, (m, n) = case
    _assert_braidings_and_tensor_match_dense(ctx, m, n)


@st.composite
def family_pairs(draw):
    """A context, a family and two of its dimodules: the modules of perhaps
    perturbed carriers under the unit coaction, or their comodules under the
    counit action."""
    ctx, carriers = _context(draw(st.sampled_from(("kk", "sk"))))
    module = draw(st.booleans())

    def member():
        d = draw(perturbed(draw(st.sampled_from(carriers))))
        if module:
            return module_as_dimodule(ctx.H, module_of(d), ctx.B)
        return comodule_as_dimodule(ctx.B, comodule_of(d), ctx.H)

    return ctx, module, member(), member()


@settings(max_examples=40, deadline=None)
@given(family_pairs())
def test_braiding_on_a_family_matches_the_family_oracle(case):
    # on unit-coaction dimodules the braiding is R2 . nu^-1(n) (x) R1 . mu^-1(m),
    # on counit-action ones <m_-1|n_-1> nu^-1(n_0) (x) mu^-1(m_0)
    ctx, module, m, n = case
    oracle = dense_module_family_braiding if module else dense_comodule_family_braiding
    assert long_braiding(ctx, m, n).matrix == oracle(ctx, m, n)


def test_family_formulas_differ_from_the_braiding_off_their_family():
    # the canonical and sign dimodules are in neither family, and there both
    # family formulas differ from the braiding: the reduction needs its family
    ctx, carriers = _context("kk")
    can, sign = carriers[0], carriers[3]
    for m, n in ((can, can), (sign, sign), (can, sign)):
        c = long_braiding(ctx, m, n).matrix
        assert dense_module_family_braiding(ctx, m, n) != c
        assert dense_comodule_family_braiding(ctx, m, n) != c


@functools.lru_cache(maxsize=None)
def _sweedler_pair():
    """Sweedler's algebra twisted by x -> -x on both sides, with a triangular
    R and a cotriangular form that are nonzero on x (x) x: R is not
    symmetric, and S_H (x) id moves R and S_B^-1 moves the form, which the
    kz2 and group-block contexts cannot show."""
    sw = fx.sweedler_twisted()
    h = Fraction(1, 2)
    r = Matrix([[h, h, 0, 0], [h, -h, 0, 0], [0, 0, h, -h], [0, 0, h, h]])
    form = Matrix([[1, 1, 0, 0], [1, -1, 0, 0], [0, 0, 1, -1], [0, 0, 1, 1]])
    ctx = BraidingContext(sw, r, sw, form)
    assert ctx.valid
    return ctx


@st.composite
def raw_carriers(draw, h, b):
    """Dimension 1 or 2 with arbitrary small action, coaction and invertible
    mu over (h, b): not a dimodule in general, which the constructions do
    not need."""
    d = draw(st.integers(1, 2))
    entry = st.sampled_from(SMALL)
    act = [[[draw(entry) for _ in range(d)] for _ in range(d)] for _ in range(h.dim)]
    coact = [[[draw(entry) for _ in range(d)] for _ in range(b.dim)] for _ in range(d)]
    return Carrier(h, b, d, Matrix.from_tensor(act), Matrix.from_tensor(coact),
                   Matrix(draw(structure_maps(d))))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_braidings_and_tensor_product_on_raw_carriers_match_dense_oracle(data):
    ctx = _sweedler_pair()
    m, n = (data.draw(raw_carriers(ctx.H, ctx.B)) for _ in range(2))
    _assert_braidings_and_tensor_match_dense(ctx, m, n)
    # b^-2 in the tensor coaction needs beta^2 != id: the scaled twist
    sst = fx.sweedler_scaled_twisted(2)
    m, n = (data.draw(raw_carriers(sst, sst)) for _ in range(2))
    t = tensor_dimodule(m, n)
    assert (t.action, t.coaction, t.mu, t.basis) == dense_tensor_dimodule(m, n)


@settings(max_examples=40, deadline=None)
@given(triples())
def test_braid_identities_match_dense_oracle(case):
    ctx, (u, v, w) = case
    assert _tuples(check_qybe(ctx, u, v, w)) == _tuples(dense_qybe(ctx, u, v, w))
    assert _tuples(check_hexagons(ctx, u, v, w)) == _tuples(dense_hexagons(ctx, u, v, w))
    rep = check_symmetry(ctx, u, v, diagnose=True)
    assert rep.check("symmetry") == dense_symmetry(ctx, u, v).check("symmetry")


@pytest.mark.parametrize("tag", ["kk", "sk"])
def test_dense_oracles_run_without_the_composite_engine(monkeypatch, tag):
    # the library builds the carriers and its own verdicts first; with the
    # planner and the runner refused, the oracles still reach the same
    # values, so one fault in the engine cannot reach both sides
    ctx, carriers = _context(tag)
    u, v, w = carriers[:3]
    expected = (long_braiding(ctx, u, v).matrix, long_braiding_inverse(ctx, u, v).matrix,
                _tuples(check_qybe(ctx, u, v, w)), _tuples(check_hexagons(ctx, u, v, w)))

    def refuse(*args):
        raise AssertionError("the composite engine ran")

    monkeypatch.setattr(linalg, "layout", refuse)
    monkeypatch.setattr(linalg, "_run", refuse)
    assert (dense_braiding(ctx, u, v), dense_braiding_inverse(ctx, u, v),
            _tuples(dense_qybe(ctx, u, v, w)), _tuples(dense_hexagons(ctx, u, v, w))) == expected


@settings(max_examples=40, deadline=None)
@given(triples(), st.booleans())
def test_coherence_matches_dense_oracle(case, x_is_u):
    _, (u, v, w) = case
    x = u if x_is_u else w
    assert _tuples(check_coherence(u, v, w, x)) == _tuples(dense_coherence(u, v, w, x))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_morphism_report_and_naturality_match_dense_oracle(data):
    ctx, carriers = _context(data.draw(st.sampled_from(("kk", "sk"))))
    m = data.draw(perturbed(data.draw(st.sampled_from(carriers))))
    f = data.draw(st.sampled_from((m.mu, Matrix.identity(m.dim), scaled(m.mu, 2))))
    if data.draw(st.booleans()):
        f = Matrix(_bumped(data.draw, dense_entries(f)))
    assert _tuples(dimodule_morphism_report(m, m, f)) == _tuples(dense_morphism_report(m, m, f))
    n = data.draw(st.sampled_from(carriers))
    pair = (DimoduleMorphism(m, m, f), DimoduleMorphism(n, n, n.mu))
    try:
        expected = _tuples(dense_naturality(ctx, *pair))
    except NotAMorphism:
        with pytest.raises(NotAMorphism):
            check_naturality(ctx, *pair)
    else:
        assert _tuples(check_naturality(ctx, *pair)) == expected


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_snake_matches_dense_oracle(data):
    _, carriers = _context(data.draw(st.sampled_from(("kk", "sk"))))
    m = data.draw(st.sampled_from(carriers))
    duality = (left_dual if data.draw(st.booleans()) else right_dual)(m)
    # a change to the object or to one of ev and coev breaks the zig-zags
    m = data.draw(perturbed(m))
    which = data.draw(st.sampled_from((None, "ev", "coev")))
    if which:
        pairing = Matrix(_bumped(data.draw, dense_entries(getattr(duality, which))))
        duality = replace(duality, **{which: pairing})
    assert _tuples(check_snake(m, duality)) == _tuples(dense_snake(m, duality))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_tau_transforms_match_dense_oracle(data):
    n = data.draw(st.sampled_from((1, 2, 3)))
    mu = data.draw(structure_maps(n))
    op = OperatorOnTensorSquare(n, Matrix(data.draw(operators(n, mu))), Matrix(mu))
    transforms, rep = tau_transforms(op)
    for axiom, witness in zip(("transform-U", "transform-T"), dense_tau_witnesses(op)):
        assert rep.check(axiom) == Check(axiom, witness is None, witness)
    flip = flip_matrix(n, n)
    assert transforms["U"].matrix == mul(flip, op.matrix)
    assert transforms["T"].matrix == mul(op.matrix, flip)
    assert transforms["W"].matrix == mul(flip, op.matrix, flip)
    for axiom, m in (("base-longeq", op.matrix), ("transform-W", transforms["W"].matrix)):
        rows = m.to_lists()
        witness = longeq_first_failing_column(rows, rows, mu)
        assert rep.check(axiom) == Check(axiom, witness is None, witness)


def test_readme_triangle_finding_matches_dense_oracle():
    d = fx.scaled_dimodules()["trivial-diag12"]
    rep = check_coherence(d, d, d)
    assert rep.check("triangle").witness == ("m0", "m1")
    assert _tuples(rep) == _tuples(dense_coherence(d, d, d, d))


def test_qybe_witness_with_perturbed_coaction_on_sweedler_cube():
    # a one-entry change of the middle carrier's coaction on the 512-column
    # check; the witness is the first differing column of dense_qybe, which
    # takes seconds here, so its value is written out
    ctx, (can, _, _) = _context("sk")
    t = dense_part(can, "coaction")
    t[1][0][1] += 1
    rep = check_qybe(ctx, can, replace(can, coaction=Matrix.from_tensor(t)), can)
    assert rep.check("QYBE") == Check("QYBE", False, ("1⊗1", "1⊗g", "1⊗1"))
    assert check_qybe(ctx, can, can, can).ok


def test_hexagons_and_coherence_on_sweedler_cube():
    # the 512-column hexagons, with C_{U,V(x)W} and C_{U(x)V,W} as 512 x 512
    # braidings, and the coherence report on (U(x)V)(x)W, once as given and
    # once with a one-entry change of the last carrier's mu; the expected
    # reports are those of dense_hexagons and dense_coherence on dense
    # braidings and tensor products, written out because those runs take
    # 10-50 s each here
    ctx, (can, _, _) = _context("sk")
    mu = dense_entries(can.mu)
    mu[0][1] += 1
    bumped = replace(can, mu=Matrix(mu))
    passed = [("H1", "pass", None), ("H2", "pass", None)]
    assert _tuples(check_hexagons(ctx, can, can, can)) == (passed, {})
    assert _tuples(check_hexagons(ctx, can, can, bumped)) == (
        [("H1", "pass", None), ("H2", "fail", ("1⊗1", "1⊗1", "1⊗g"))], {})
    # the README triangle finding: mu = alpha (x) beta is not an involution
    # (the twist scales x by 2), so the triangle fails, while the pentagon
    # and the associator's morphism checks hold
    expected = [("naturality-a", "pass", None), ("pentagon", "pass", None),
                ("triangle", "fail", ("1⊗1", "x⊗1")),
                ("assoc-H-linear", "pass", None), ("assoc-B-colinear", "pass", None),
                ("left-unit-H-linear", "fail", ("x", "1⊗1⊗1")),
                ("left-unit-B-colinear", "pass", None),
                ("right-unit-H-linear", "fail", ("x", "1⊗1⊗1")),
                ("right-unit-B-colinear", "pass", None)]
    flags = {"naturality-morphisms": "identity"}
    assert _tuples(check_coherence(can, can, can)) == (expected, flags)
    expected[3:5] = [("assoc-H-linear", "fail", ("g", "1⊗1⊗1⊗1⊗1⊗g")),
                     ("assoc-B-colinear", "fail", ("1⊗1⊗1⊗1⊗1⊗g",))]
    assert _tuples(check_coherence(can, can, bumped)) == (expected, flags)


# ---------------------------------------------------------------------------
# module, comodule, Yetter-Drinfeld and dimodule validation against the
# dense validators

@functools.lru_cache(maxsize=None)
def _validation_carriers():
    """Dimodules over kz2, kz4-twisted and Sweedler-scaled, with
    Sweedler-scaled as B where it fits: its comultiplication is not
    cocommutative, so a swapped leg in HCM2 or compat-2.1 shows there."""
    kz2, kz4t, sst = fx.kz2(), fx.kz4_twisted(), fx.sweedler_scaled_twisted(2)
    ext = module_extension(kz4t, fx.trivial_module(kz4t, Matrix.diagonal([1, 2])))
    return (canonical_dimodule(kz2, kz2), canonical_dimodule(kz4t, kz2),
            canonical_dimodule(kz2, sst), canonical_dimodule(sst, sst),
            trivial_dimodule(kz4t, sst, Matrix.diagonal([1, 2])),
            fx.sign_dimodule(kz2, kz2),
            Carrier(ext.H, ext.B, ext.dim, ext.action, ext.coaction, ext.mu, ext.basis))


def _bumped_tensor(draw, s, part):
    """The three-leg map s.part with one entry changed by a nonzero
    amount."""
    planes = dense_part(s, part)
    i = draw(st.integers(0, len(planes) - 1))
    planes[i] = _bumped(draw, planes[i])
    return Matrix.from_tensor(planes)


@st.composite
def perturbed_bialgebra(draw, h):
    """h, or h with one entry of its mult, comult or twist changed (the twist
    kept invertible, and shared by the algebra and coalgebra parts)."""
    part = draw(st.sampled_from((None, "mult", "comult", "twist")))
    if part == "mult":
        return replace(h, mult=_bumped_tensor(draw, h, "mult"))
    if part == "comult":
        return replace(h, comult=_bumped_tensor(draw, h, "comult"))
    if part == "twist":
        g = Matrix(_bumped(draw, dense_entries(h.gamma)))
        assume(g.det() != 0)
        return replace(h, gamma=g)
    return h


@st.composite
def perturbed_dimodules(draw):
    """A validation carrier with one of its action, coaction, mu or a part
    of H or of B changed, or as it is."""
    d = draw(st.sampled_from(_validation_carriers()))
    part = draw(st.sampled_from(("carrier", "H", "B")))
    if part == "carrier":
        return draw(perturbed(d))
    return replace(d, **{part: draw(perturbed_bialgebra(getattr(d, part)))})


@settings(max_examples=80, deadline=None)
@given(perturbed_dimodules())
def test_module_comodule_and_dimodule_reports_match_dense_oracle(d):
    assert _tuples(validate_long_dimodule(d)) == _tuples(dense_validate_long_dimodule(d))
    alg, coalg = d.H.algebra, d.B.coalgebra
    assert _tuples(validate_hom_module(d)) == _tuples(dense_validate_hom_module(alg, d))
    assert _tuples(validate_hom_comodule(d)) == _tuples(dense_validate_hom_comodule(coalg, d))


def test_perturbed_validation_carriers_fail_with_the_dense_witness():
    # every carrier passes as given; a one-entry change of its action,
    # coaction or mu fails with the dense validator's report
    for d in _validation_carriers():
        assert validate_long_dimodule(d).ok, d.basis
        for part in ("action", "coaction"):
            t = dense_part(d, part)
            t[-1][-1][-1] += 1
            bad = replace(d, **{part: Matrix.from_tensor(t)})
            rep = validate_long_dimodule(bad)
            assert not rep.ok
            assert _tuples(rep) == _tuples(dense_validate_long_dimodule(bad))


def yd_module(h, dim, action, coaction, mu, basis=None):
    """The yd-module over h."""
    return Carrier(h, h, dim, action, coaction, mu, basis, "yd-module")


def _trivial_yd(h, mu):
    """h . m = eps(h) mu(m) and rho(m) = 1 (x) mu(m) over h."""
    d, rows = mu.rows, dense_entries(mu)
    return yd_module(
        h, d, tensor(h.dim, d, d, lambda i, j, k: h.counit[i] * rows[k][j]),
        tensor(d, h.dim, d, lambda j, a, k: h.unit[a] * rows[k][j]), mu)


@functools.lru_cache(maxsize=None)
def _yd_cases():
    """(Hom-Hopf algebra, Yetter-Drinfeld modules over it): trivial ones over
    kz2, kz4-twisted and Sweedler-scaled, the sign module over kz2, the
    regular non-example over Sweedler, and the structures a kz2 (x) kz2
    context induces on its carriers."""
    kz2, kz4t, sst, sw = (fx.kz2(), fx.kz4_twisted(), fx.sweedler_scaled_twisted(2),
                          fx.sweedler_hopf())
    diag = Matrix.diagonal([1, 2])
    sign = yd_module(kz2, 1, Matrix.from_tensor([[[1]], [[-1]]]), Matrix.from_tensor([[[0], [1]]]),
                     Matrix.identity(1), ("v",))
    regular = yd_module(sw, 4, sw.mult, sw.comult, Matrix.identity(4), sw.basis)
    ctx, carriers = _context("kk")
    induced = [hb_yd_structure(ctx, m) for m in carriers if m.dim <= 2]
    return ((kz2, (_trivial_yd(kz2, diag), sign)), (kz4t, (_trivial_yd(kz4t, diag),)),
            (sst, (_trivial_yd(sst, diag), _trivial_yd(sst, Matrix.identity(1)))),
            (sw, (regular,)), (tensor_hopf(ctx.H, ctx.B), tuple(induced)))


@st.composite
def perturbed_yd(draw, m):
    """m, or m with one entry of its action, coaction or structure map
    changed (kept invertible)."""
    part = draw(st.sampled_from((None, "action", "coaction", "mu")))
    if part == "mu":
        mu = Matrix(_bumped(draw, dense_entries(m.mu)))
        assume(mu.det() != 0)
        return replace(m, mu=mu)
    if part:
        return replace(m, **{part: _bumped_tensor(draw, m, part)})
    return m


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_yd_reports_and_prebraiding_match_dense_oracle(data):
    h, mods = data.draw(st.sampled_from(_yd_cases()))
    h = data.draw(perturbed_bialgebra(h))
    m = replace(data.draw(perturbed_yd(data.draw(st.sampled_from(mods)))), H=h, B=h)
    assert _tuples(check_yd(m)) == _tuples(dense_check_yd(h, m))
    # the pre-braiding reads the twist of the modules' common bialgebra
    n = data.draw(perturbed_yd(replace(data.draw(st.sampled_from(mods)), H=h, B=h)))
    assert yd_prebraiding(m, n) == dense_yd_prebraiding(m, n)


# ---------------------------------------------------------------------------
# the Hom-algebra tower, R-elements, forms and the twist against the dense
# validators

@functools.lru_cache(maxsize=None)
def _hopf_carriers():
    """kz2, kz4-twisted, Sweedler, Sweedler-scaled and kz2 (x) kz2."""
    return (fx.kz2(), fx.kz4_twisted(), fx.sweedler_hopf(), fx.sweedler_scaled_twisted(2),
            tensor_hopf(fx.kz2(), fx.kz2()))


def _bumped_matrix(draw, m):
    return Matrix(_bumped(draw, dense_entries(m)))


@st.composite
def perturbed_hopf(draw, h):
    """h, or h with one entry of its mult, comult, unit, counit, twist or
    antipode changed (the twist may become singular)."""
    part = draw(st.sampled_from((None, "mult", "comult", "unit", "counit", "twist",
                                 "antipode")))
    if part in ("unit", "counit"):
        v = column_of(_bumped(draw, [entries_of(getattr(h, part))])[0])
        return replace(h, **{part: v})
    if part == "twist":
        return replace(h, gamma=_bumped_matrix(draw, h.gamma))
    if part == "antipode":
        return replace(h, antipode=_bumped_matrix(draw, h.antipode))
    if part == "mult":
        return replace(h, mult=_bumped_tensor(draw, h, "mult"))
    if part == "comult":
        return replace(h, comult=_bumped_tensor(draw, h, "comult"))
    return h


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_tower_reports_match_dense_oracle(data):
    h = data.draw(perturbed_hopf(data.draw(st.sampled_from(_hopf_carriers()))))
    for part, validate, dense in (
            (h.algebra, validate_hom_algebra, dense_validate_hom_algebra),
            (h.coalgebra, validate_hom_coalgebra, dense_validate_hom_coalgebra),
            (h, validate_hom_bialgebra, dense_validate_hom_bialgebra),
            (h, validate_hom_hopf, dense_validate_hom_hopf)):
        assert _tuples(validate(part)) == _tuples(dense(part))


@functools.lru_cache(maxsize=None)
def _r_cases():
    """(algebra, R): kz2's triangular R, 1 (x) 1 on every carrier, the
    group-block R on Sweedler-scaled and the R of the Sweedler pair, which
    is nonzero on x (x) x and not symmetric."""
    kz2, sst = fx.kz2(), fx.sweedler_scaled_twisted(2)
    pair = _sweedler_pair()
    return ((kz2, fx.kz2_rmatrix()), (sst, fx.sweedler_rmatrix()), (pair.H, pair.R)) + tuple(
        (h, fx.trivial_rmatrix(h)) for h in _hopf_carriers())


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_quasitriangular_reports_match_dense_oracle(data):
    h, r = data.draw(st.sampled_from(_r_cases()))
    if data.draw(st.booleans()):
        r = _bumped_matrix(data.draw, r)
    else:
        h = data.draw(perturbed_hopf(h))
    assert _tuples(validate_quasitriangular(h, r)) == _tuples(dense_validate_quasitriangular(h, r))


@st.composite
def form_cases(draw):
    """(bialgebra, form): kz2's cotriangular form, eps (x) eps on every
    carrier, the form of the Sweedler pair, or a drawn form on a Sweedler
    algebra, which is not symmetric in general."""
    kind = draw(st.sampled_from(("kz2", "trivial", "pair", "drawn")))
    if kind == "kz2":
        return fx.kz2(), fx.kz2_form()
    if kind == "trivial":
        b = draw(st.sampled_from(_hopf_carriers()))
        return b, fx.trivial_form(b)
    if kind == "pair":
        return _sweedler_pair().B, _sweedler_pair().form
    b = draw(st.sampled_from((fx.sweedler_hopf(), _sweedler_pair().B,
                              fx.sweedler_scaled_twisted(2))))
    return b, Matrix([[draw(st.sampled_from(SMALL)) for _ in range(4)] for _ in range(4)])


@settings(max_examples=80, deadline=None)
@given(form_cases(), st.data())
def test_coquasitriangular_reports_match_dense_oracle(case, data):
    b, form = case
    if data.draw(st.booleans()):
        form = _bumped_matrix(data.draw, form)
    else:
        b = data.draw(perturbed_hopf(b))
    assert (_tuples(validate_coquasitriangular(b, form))
            == _tuples(dense_validate_coquasitriangular(b, form)))


def _twist_outcome(twist, h, phi):
    try:
        return twist(h, phi)
    except NotAutomorphism as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_yau_twist_matches_dense_oracle(data):
    # classical bases with an automorphism; one entry of phi or of the base
    # changed makes most of them fail one of the automorphism identities
    h, phi = data.draw(st.sampled_from((
        (fx.kz4(), fx.kz4_twist_map()), (fx.group_hopf(5), fx.kz5_twist_map()),
        (fx.sweedler_hopf(), fx.sweedler_twist_map()),
        (fx.sweedler_hopf(), Matrix.diagonal([1, 1, 2, 2])),
        (fx.klein_hopf(), Matrix.identity(4)))))
    if data.draw(st.booleans()):
        phi = _bumped_matrix(data.draw, phi)
    else:
        h = data.draw(perturbed_hopf(h))
    assert _twist_outcome(yau_twist, h, phi) == _twist_outcome(dense_yau_twist, h, phi)


def test_perturbed_sweedler_pair_fails_with_the_dense_witness():
    # the Sweedler pair's R and form pass as given; swapping their legs (the
    # flip of R, the transpose of the form) breaks them, with the dense
    # validators' reports
    pair = _sweedler_pair()
    for r in (pair.R, pair.R.transpose()):
        assert (_tuples(validate_quasitriangular(pair.H, r))
                == _tuples(dense_validate_quasitriangular(pair.H, r)))
    for form in (pair.form, pair.form.transpose()):
        assert (_tuples(validate_coquasitriangular(pair.B, form))
                == _tuples(dense_validate_coquasitriangular(pair.B, form)))
    assert validate_quasitriangular(pair.H, pair.R).ok
    assert not validate_quasitriangular(pair.H, pair.R.transpose()).ok
    assert validate_coquasitriangular(pair.B, pair.form).ok
    assert not validate_coquasitriangular(pair.B, pair.form.transpose()).ok


def _one_sided_kz2():
    """kz2 with 1 g = 2 g: its product is not Hom-associative, and kz2's R
    has a convolution inverse on one side only."""
    kz2 = fx.kz2()
    planes = dense_part(kz2, "mult")
    planes[0][1][1] += 1
    return replace(kz2, mult=Matrix.from_tensor(planes))


def test_one_sided_convolution_inverse_matches_dense_oracle():
    # the flag needs both sides
    h = _one_sided_kz2()
    rep = validate_quasitriangular(h, fx.kz2_rmatrix())
    assert _tuples(rep) == _tuples(dense_validate_quasitriangular(h, fx.kz2_rmatrix()))
    assert rep.flags == {"convolution-invertible": False, "triangular": False}


def test_triangular_r_skips_the_convolution_solve(monkeypatch):
    # when the flip of R is a two-sided inverse it solves the stacked system,
    # so no elimination runs; otherwise exactly one does
    import homlong.homstruct as homstruct
    calls = []

    def counted(*args):
        calls.append(args)
        return solve_exact(*args)

    monkeypatch.setattr(homstruct, "solve_exact", counted)
    cases = ([(fx.kz2(), fx.kz2_rmatrix(), 0),
              (fx.sweedler_scaled_twisted(2), fx.sweedler_rmatrix(), 0)]
             + [(h, fx.trivial_rmatrix(h), 0) for h in _hopf_carriers()]
             + [(fx.klein_hopf(), fx.klein_rmatrix(), 1), (_one_sided_kz2(), fx.kz2_rmatrix(), 1)])
    for h, r, solves in cases:
        del calls[:]
        rep = validate_quasitriangular(h, r)
        assert len(calls) == solves
        assert rep.flags == dense_validate_quasitriangular(h, r).flags
        assert rep.flags["triangular"] == (solves == 0)


# ---------------------------------------------------------------------------
# the constructors against index sums over structure constants

def tensor_hopf_elementwise(h, b):
    nh, nb = h.dim, b.dim
    n = nh * nb
    mh, mb = dense_part(h, "mult"), dense_part(b, "mult")
    ch, cb = dense_part(h, "comult"), dense_part(b, "comult")

    def mult_entry(i, j, k):
        i0, i1 = divmod(i, nb)
        j0, j1 = divmod(j, nb)
        k0, k1 = divmod(k, nb)
        return mh[i0][j0][k0] * mb[i1][j1][k1]

    def comult_entry(i, j, k):
        i0, i1 = divmod(i, nb)
        j0, j1 = divmod(j, nb)
        k0, k1 = divmod(k, nb)
        return ch[i0][j0][k0] * cb[i1][j1][k1]

    names = tuple("%s⊗%s" % (x, y) for x in h.basis for y in b.basis)
    s = (None if h.antipode is None or b.antipode is None
         else kron(h.antipode, b.antipode))
    return HomStructure(n, kron(h.gamma, b.gamma), tensor(n, n, n, mult_entry),
                        kron(h.unit, b.unit), tensor(n, n, n, comult_entry),
                        kron(h.counit, b.counit), s, names)


def dual_hopf_elementwise(b):
    """(f*g)(y) = f(b^-2(y1)) g(b^-2(y2)), Delta(f)(x(x)y) = f(b^-2(xy))."""
    n = b.dim
    b1i = b.gamma.inv()
    b2i = dense_entries(mul(b1i, b1i))
    cm, mt = dense_part(b, "comult"), dense_part(b, "mult")

    def mult_entry(i, j, k):
        s = ZERO
        for c in range(n):
            for d in range(n):
                s += cm[k][c][d] * b2i[i][c] * b2i[j][d]
        return s

    def comult_entry(i, j, k):
        return sum((mt[j][k][e] * b2i[i][e] for e in range(n)), ZERO)

    names = tuple(x + "*" for x in b.basis)
    s = b.antipode
    return HomStructure(n, b1i.transpose(), tensor(n, n, n, mult_entry),
                        b.counit, tensor(n, n, n, comult_entry),
                        b.unit, None if s is None else s.transpose(), names)


def opposite_algebra_elementwise(a):
    mult = dense_part(a, "mult")
    mult_op = tensor(a.dim, a.dim, a.dim, lambda i, j, k: mult[j][i][k])
    return HomStructure(a.dim, a.gamma, mult_op, a.unit, basis=a.basis)


def canonical_dimodule_elementwise(h, b):
    """h.(g (x) x) = hg (x) b(x) and rho(g (x) x) = x1 (x) (a(g) (x) x2)."""
    nh, nb = h.dim, b.dim
    d = nh * nb
    h_mult, b_comult = dense_part(h, "mult"), dense_part(b, "comult")
    h_gamma, b_gamma = dense_entries(h.gamma), dense_entries(b.gamma)

    def act(hh, i, j):
        g, x = divmod(i, nb)
        a, y = divmod(j, nb)
        return h_mult[hh][g][a] * b_gamma[y][x]

    def coact(i, c, j):
        g, x = divmod(i, nb)
        a, y = divmod(j, nb)
        return b_comult[x][c][y] * h_gamma[a][g]

    names = tuple("%s⊗%s" % (x, y) for x in h.basis for y in b.basis)
    return Carrier(h, b, d, tensor(nh, d, d, act),
                   tensor(d, nb, d, coact), kron(h.gamma, b.gamma), names)


def trivial_dimodule_elementwise(h, b, mu):
    d, rows = mu.rows, dense_entries(mu)
    act = tensor(h.dim, d, d, lambda i, j, k: h.counit[i] * rows[k][j])
    coact = tensor(d, b.dim, d, lambda j, a, k: b.unit[a] * rows[k][j])
    return Carrier(h, b, d, act, coact, mu)


def unit_dimodule_elementwise(h, b):
    act = tensor(h.dim, 1, 1, lambda i, _j, _k: h.counit[i])
    coact = tensor(1, b.dim, 1, lambda _i, a, _k: b.unit[a])
    return Carrier(h, b, 1, act, coact, Matrix.identity(1), ("1",))


def dual_elementwise(m, side):
    """The left or right dual: (h.f)(x) = f(t_H(h) . mu^-2(x)) and
    f_-1 (x) f_0(x) = t_B(x_-1) (x) f(mu^-2(x_0)), with t_H = S_H a^-1 and
    t_B = S_B^-1 b^-1 on the left, t_H = S_H^-1 a^-1 and t_B = S_B b^-1 on
    the right."""
    h, b = m.H, m.B
    if side == "left":
        h_twist = mul(h.antipode, h.gamma.inv())
        b_twist = mul(b.antipode.inv(), b.gamma.inv())
    else:
        h_twist = mul(h.antipode.inv(), h.gamma.inv())
        b_twist = mul(b.antipode, b.gamma.inv())
    nh, nb, d = h.dim, b.dim, m.dim
    mu2i = mul(m.mu, m.mu).inv()
    # p[i][(h, j)] = coeff of m_i in (h_twist e_h).mu^-2(m_j)
    p = dense_entries(mul(m.action, kron(h_twist, mu2i)))
    act = tensor(nh, d, d, lambda hh, i, j: p[i][hh * d + j])
    rho, b_twist, mu2i = dense_part(m, "coaction"), dense_entries(b_twist), dense_entries(mu2i)

    def coact(i, a, l):
        s = ZERO
        for c in range(nb):
            for o in range(d):
                s += rho[l][c][o] * b_twist[a][c] * mu2i[i][o]
        return s

    dual = Carrier(h, b, d, act, tensor(d, nb, d, coact),
                   m.mu.inv().transpose(), tuple(x + "*" for x in m.basis))
    ev = Matrix([[ONE if c // d == c % d else ZERO for c in range(d * d)]], rows=1, cols=d * d)
    coev = Matrix([[ONE if r // d == r % d else ZERO] for r in range(d * d)], rows=d * d, cols=1)
    return DualityData(dual, ev, coev, side)


def element_move(m):
    """The leg move reading the Matrix m by its flat coordinates i * cols + j
    as an element inserted on new legs, as a step with no input leg reads
    it."""
    return (m.cols,), (m.rows,), (), (1, 0)


def covector_move(m):
    """The leg move reading the Matrix m by its flat coordinates as a
    covector paired away, as a step with no output leg reads it."""
    return (m.cols,), (m.rows,), (1, 0), ()


def coproduct_move(m, d):
    """The leg move reading the product-like Matrix m of a three-leg map with
    a first leg of dim d as its coproduct, as "x -> a b" reads it."""
    return (d, m.cols // d), (m.rows,), (0,), (1, 2)


def dual_by_copairing(m, side):
    """The left or right dual as a composite per map on M: the copairing
    sum_i e_i (x) e_i inserted beside the input basis vector f, the map
    applied, then f paired away, so that each map is ev(f, -) of a
    composite."""
    h, b = m.H, m.B
    if side == "left":
        h_twist, b_twist = (h.gamma.inv(), h.antipode), (b.gamma.inv(), b.antipode.inv())
    else:
        h_twist, b_twist = (h.gamma.inv(), h.antipode.inv()), (b.gamma.inv(), b.antipode)
    nb, d = b.dim, m.dim
    delta = Matrix.from_int_columns([[(i * d + i, 1) for i in range(d)]], 1, d * d)
    mui = sparse_columns(m.mu.inv())
    # the copairing is inserted on a last leg of dim 1, then f moves past it:
    # (h, f) -> (h, x, x', f) -> (h_twist(h) . mu^-2(x), x', f) -> f(h_twist(h) . mu^-2(x)) x'
    act = composite([(moved_columns(delta, element_move(delta)), (2,), (d, d, 1)),
                     (leg_flip(d, d * d), (1, 2, 3), (d, d, d))]
                    + [(sparse_columns(t), (0,), None) for t in h_twist]
                    + [(mui, (1,), None), (mui, (1,), None),
                       (sparse_columns(m.action), (0, 1), (d,)),
                       (leg_flip(d, d), (1, 2), None),
                       (moved_columns(delta, covector_move(delta)), (0, 1), ())],
                    (h.dim, d, 1)).matrix()
    # f -> (x, x', f) -> (b_twist(x_-1), mu^-2(x_0), x', f) -> b_twist(x_-1) f(mu^-2(x_0)) x';
    # on a leg of dim 0 the coaction has no column to read
    coaction = moved_columns(m.coaction, coproduct_move(m.coaction, d)) if d else ([], 1)
    co = composite([(moved_columns(delta, element_move(delta)), (1,), (d, d, 1)),
                    (leg_flip(d, d * d), (0, 1, 2), (d, d, d)),
                    (coaction, (0,), (nb, d))]
                   + [(sparse_columns(t), (0,), None) for t in b_twist]
                   + [(mui, (1,), None), (mui, (1,), None),
                      (leg_flip(d, d), (2, 3), None),
                      (moved_columns(delta, covector_move(delta)), (1, 2), ())],
                   (d, 1)).coproduct(nb)
    dual = Carrier(h, b, d, act, co, m.mu.inv().transpose(), tuple(x + "*" for x in m.basis))
    ev = Matrix.from_int_columns(*moved_columns(delta, covector_move(delta)), 1)
    return DualityData(dual, ev, ev.transpose(), side)


def smash_product_algebra_elementwise(b, h):
    dual_alg = opposite_algebra_elementwise(dual_hopf_elementwise(b).algebra)
    halg = h.algebra
    nd, nh = dual_alg.dim, halg.dim
    n = nd * nh
    dual_mult, h_mult = dense_part(dual_alg, "mult"), dense_part(halg, "mult")

    def mult_entry(i, j, k):
        i0, i1 = divmod(i, nh)
        j0, j1 = divmod(j, nh)
        k0, k1 = divmod(k, nh)
        return dual_mult[i0][j0][k0] * h_mult[i1][j1][k1]

    names = tuple("%s⊗%s" % (x, y) for x in dual_alg.basis for y in halg.basis)
    return HomStructure(n, kron(dual_alg.gamma, halg.gamma),
                        tensor(n, n, n, mult_entry),
                        kron(dual_alg.unit, halg.unit), basis=names)


def to_smash_module_elementwise(m):
    """(p (x) h) . x = p(x_-1) h . mu^-1(x_0)."""
    h, b = m.H, m.B
    nh, nb, d = h.dim, b.dim, m.dim
    p = dense_entries(mul(m.action, kron(Matrix.identity(nh), m.mu.inv())))
    rho = dense_part(m, "coaction")

    def act(ph, i, j):
        pp, hh = divmod(ph, nh)
        return sum((rho[i][pp][o] * p[j][hh * d + o] for o in range(d)), ZERO)

    return Carrier(smash_product_algebra_elementwise(b, h), None, d,
                   tensor(nb * nh, d, d, act), None, m.mu, m.basis)


def from_smash_module_elementwise(n, h, b):
    """h.m = (eps_B (x) h) . m and m_-1 (x) m_0 = sum_i b_i (x) (f^i (x) 1_H) . m."""
    nh, nb, d = h.dim, b.dim, n.dim
    actn = dense_part(n, "action")

    def act(hh, i, j):
        return sum((b.counit[a] * actn[a * nh + hh][i][j] for a in range(nb)), ZERO)

    def coact(i, a, j):
        return sum((h.unit[t] * actn[a * nh + t][i][j] for t in range(nh)), ZERO)

    return Carrier(h, b, d, tensor(nh, d, d, act),
                   tensor(d, nb, d, coact), n.mu, n.basis)


def hb_yd_structure_elementwise(ctx, m):
    """(h (x) x) . m = <x|m_-1> a^-3(h) . mu^-1(m_0) and
    rho(m) = R2 (x) b^-3(m_-1) (x) R1 . mu^-1(m_0)."""
    nh, nb, d = ctx.H.dim, ctx.B.dim, m.dim
    al3i, be3i, mui = power(ctx.H.gamma, 3).inv(), power(ctx.B.gamma, 3).inv(), m.mu.inv()
    f, r, be3i = map(dense_entries, (ctx.form, ctx.R, be3i))
    rho = dense_part(m, "coaction")
    p_act = dense_entries(mul(m.action, kron(al3i, mui)))
    p_id = dense_entries(mul(m.action, kron(Matrix.identity(nh), mui)))

    def act(hx, i, j):
        hh, x = divmod(hx, nb)
        return sum((f[x][a] * rho[i][a][o] * p_act[j][hh * d + o]
                    for a in range(nb) for o in range(d)), ZERO)

    def coact(i, hx, j):
        jq, bb = divmod(hx, nb)
        return sum((r[iq][jq] * be3i[bb][c] * rho[i][c][o]
                    * p_id[j][iq * d + o]
                    for iq in range(nh) for c in range(nb) for o in range(d)), ZERO)

    return yd_module(tensor_hopf_elementwise(ctx.H, ctx.B), d,
                     tensor(nh * nb, d, d, act),
                     tensor(d, nh * nb, d, coact), m.mu, m.basis)


def module_as_dimodule_elementwise(h, m, b):
    nu = dense_entries(m.mu)
    coact = tensor(m.dim, b.dim, m.dim, lambda i, a, j: b.unit[a] * nu[j][i])
    return Carrier(h, b, m.dim, m.action, coact, m.mu, m.basis)


def comodule_as_dimodule_elementwise(b, m, h):
    mu = dense_entries(m.mu)
    act = tensor(h.dim, m.dim, m.dim, lambda a, i, j: h.counit[a] * mu[j][i])
    return Carrier(h, b, m.dim, act, m.coaction, m.mu, m.basis)


def module_extension_elementwise(h, m):
    """h.(g (x) x) = a(g) (x) h.x and rho(g (x) x) = g1 (x) (g2 (x) mu(x))."""
    nh, dm = h.dim, m.dim
    d = nh * dm
    p, gamma, nu = map(dense_entries, (m.action, h.gamma, m.mu))
    comult = dense_part(h, "comult")

    def act(hh, i, j):
        g, x = divmod(i, dm)
        a, jj = divmod(j, dm)
        return gamma[a][g] * p[jj][hh * dm + x]

    def coact(i, c, j):
        g, x = divmod(i, dm)
        a, jj = divmod(j, dm)
        return comult[g][c][a] * nu[jj][x]

    names = tuple("%s⊗%s" % (a, b) for a in h.basis for b in m.basis)
    return Carrier(h, h, d, tensor(nh, d, d, act),
                   tensor(d, nh, d, coact), kron(h.gamma, m.mu), names,
                   "halpha-dimodule")


def comodule_extension_elementwise(h, m):
    """h.(g (x) x) = hg (x) mu(x) and rho(g (x) x) = x_-1 (x) (a(g) (x) x_0)."""
    nh, dm = h.dim, m.dim
    d = nh * dm
    gamma, mu = dense_entries(h.gamma), dense_entries(m.mu)
    mult, rho = dense_part(h, "mult"), dense_part(m, "coaction")

    def act(hh, i, j):
        g, x = divmod(i, dm)
        a, jj = divmod(j, dm)
        return mult[hh][g][a] * mu[jj][x]

    def coact(i, c, j):
        g, x = divmod(i, dm)
        a, jj = divmod(j, dm)
        return rho[x][c][jj] * gamma[a][g]

    names = tuple("%s⊗%s" % (a, b) for a in h.basis for b in m.basis)
    return Carrier(h, h, d, tensor(nh, d, d, act),
                   tensor(d, nh, d, coact), kron(h.gamma, m.mu), names,
                   "halpha-dimodule")


def dimodule_solution_elementwise(d):
    """R(m (x) n) = n_-1 . m (x) n_0."""
    n = d.dim
    out = [[ZERO] * (n * n) for _ in range(n * n)]
    rho, act = dense_part(d, "coaction"), dense_part(d, "action")
    for i, j, ii, jj in itertools.product(range(n), repeat=4):
        out[ii * n + jj][i * n + j] = sum(
            (rho[j][a][jj] * act[a][i][ii]
             for a in range(d.B.dim)), ZERO)
    return OperatorOnTensorSquare(n, Matrix(out), d.mu)


def _outcome(build, *args):
    """What build makes of args, or the class of the exception it raises."""
    try:
        return build(*args)
    except (SingularMatrix, DimensionMismatch) as exc:
        return type(exc)


@functools.lru_cache(maxsize=None)
def _small_hopf():
    """kz2, kz4-twisted and Sweedler-scaled: Hopf algebras whose tensor
    products, extensions and smash algebras stay small."""
    return fx.kz2(), fx.kz4_twisted(), fx.sweedler_scaled_twisted(2)


def module_of(d):
    """The action of d over the algebra part of its H, as a module."""
    return Carrier(d.H.algebra, None, d.dim, d.action, None, d.mu, d.basis)


def comodule_of(d):
    """The coaction of d over the coalgebra part of its B, as a comodule."""
    return Carrier(None, d.B.coalgebra, d.dim, None, d.coaction, d.mu, d.basis)


@st.composite
def small_modules(draw, h):
    """A module or a comodule of dim 1 or 2 over h: trivial, sign-like or
    regular over kz2, one entry of its structure perhaps changed."""
    comodule = draw(st.booleans())
    if h.dim == 2 and draw(st.booleans()):
        m = fx.regular_comodule(h) if comodule else fx.regular_module(h)
    else:
        mu = Matrix(draw(structure_maps(draw(st.integers(1, 2)))))
        t = trivial_dimodule(h, h, mu)
        m = comodule_of(t) if comodule else module_of(t)
    part = draw(st.sampled_from((None, "structure", "coaction" if comodule else "action")))
    if part == "structure":
        mu = _bumped_matrix(draw, m.mu)
        assume(mu.det() != 0)
        return replace(m, mu=mu)
    if part:
        return replace(m, **{part: _bumped_tensor(draw, m, part)})
    return m


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_algebra_constructors_match_index_sums(data):
    h, b = (data.draw(perturbed_hopf(data.draw(st.sampled_from(_small_hopf()))))
            for _ in range(2))
    assert tensor_hopf(h, b) == tensor_hopf_elementwise(h, b)
    assert _outcome(dual_hopf, b) == _outcome(dual_hopf_elementwise, b)
    assert opposite_algebra(h.algebra) == opposite_algebra_elementwise(h.algebra)
    assert (_outcome(smash_product_algebra, b, h)
            == _outcome(smash_product_algebra_elementwise, b, h))
    assert canonical_dimodule(h, b) == canonical_dimodule_elementwise(h, b)
    assert unit_dimodule(h, b) == unit_dimodule_elementwise(h, b)
    mu = Matrix(data.draw(structure_maps(data.draw(st.integers(1, 3)))))
    assert trivial_dimodule(h, b, mu) == trivial_dimodule_elementwise(h, b, mu)


# every Hopf algebra fixtures.py builds without arguments
HOPF_FIXTURES = [fx.field_hopf, fx.kz2, fx.kz4, fx.kz4_twisted, fx.kz5_twisted, fx.klein_hopf,
                 fx.sweedler_hopf, fx.sweedler_twisted, fx.sweedler_scaled_twisted]


@pytest.mark.parametrize("build", HOPF_FIXTURES, ids=lambda f: f.__name__)
def test_dual_hopf_of_every_fixture_matches_index_sums(build):
    # the dual's product and coproduct, each a composite's columns with legs
    # moved once, against the index sums; the coproduct-like reading of the
    # dual comultiplication against a fresh conversion of its data
    b = build()
    d = dual_hopf(b)
    assert d == dual_hopf_elementwise(b)
    assert (moved_columns(d.comult, coproduct_move(d.comult, d.dim))
            == _fresh_coproduct_columns(d.comult, d.dim))


def test_duals_match_the_copairing_construction(kz2, kz4t):
    # the duals' maps, read off one composite each by transposition, equal
    # the copairing construction on every fixture dimodule, both sides
    sst = fx.sweedler_scaled_twisted(2)
    dimodules = (list(fx.standard_dimodules(kz2, kz2).values())
                 + list(fx.scaled_dimodules(kz2, kz2).values())
                 + _context("kk")[1] + _context("sk")[1]
                 + [canonical_dimodule(kz4t, kz2), canonical_dimodule(kz2, sst),
                    trivial_dimodule(kz2, kz2, zeros(0, 0)),
                    module_extension(kz2, fx.sign_module()),
                    comodule_extension(kz2, fx.regular_comodule(kz2)),
                    tensor_dimodule(*[canonical_dimodule(sst, kz2)] * 2)])
    for m in dimodules:
        for side, dual in (("left", left_dual), ("right", right_dual)):
            assert dual(m) == dual_by_copairing(m, side)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dimodule_constructors_match_index_sums(data):
    ctx, carriers = _context(data.draw(st.sampled_from(("kk", "sk"))))
    m = data.draw(perturbed(data.draw(st.sampled_from(carriers))))
    for side, dual in (("left", left_dual), ("right", right_dual)):
        assert dual(m) == dual_elementwise(m, side)
    n = to_smash_module(m)
    assert n == to_smash_module_elementwise(m)
    n = replace(n, action=data.draw(st.sampled_from(
        (n.action, _bumped_tensor(data.draw, n, "action")))))
    assert from_smash_module(n, m.H, m.B) == from_smash_module_elementwise(n, m.H, m.B)
    assert hb_yd_structure(ctx, m) == hb_yd_structure_elementwise(ctx, m)
    mod, comod = module_of(m), comodule_of(m)
    assert (module_as_dimodule(m.H, mod, m.B)
            == module_as_dimodule_elementwise(m.H, mod, m.B))
    assert (comodule_as_dimodule(m.B, comod, m.H)
            == comodule_as_dimodule_elementwise(m.B, comod, m.H))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_extensions_and_induced_solution_match_index_sums(data):
    h = data.draw(perturbed_bialgebra(data.draw(st.sampled_from(_small_hopf()))))
    m = data.draw(small_modules(h))
    if m.kind == "hom-module":
        ext, oracle = module_extension(h, m), module_extension_elementwise(h, m)
    else:
        ext, oracle = comodule_extension(h, m), comodule_extension_elementwise(h, m)
    assert ext == oracle
    assert _tuples(validate_long_dimodule(ext)) == _tuples(validate_long_dimodule(oracle))
    sol = dimodule_solution(ext)
    assert sol == dimodule_solution_elementwise(oracle)
    assert _tuples(check_long_equation(sol)) == _tuples(
        check_long_equation(dimodule_solution_elementwise(oracle)))


def test_constructors_form_no_index_sums(monkeypatch):
    # every constructor is a composite of leg steps: none builds a map
    # entry by entry
    kz2, kz4t, sst = _small_hopf()
    ctx, carriers = _context("sk")
    can = carriers[0]
    mod, comod = fx.trivial_module(kz4t, Matrix.diagonal([1, 2])), fx.regular_comodule(kz2)

    def refuse(*args):
        raise AssertionError("index sum")

    monkeypatch.setattr(Matrix, "from_tensor", staticmethod(refuse))
    tensor_hopf(sst, kz4t)
    dual_hopf(sst)
    opposite_algebra(sst.algebra)
    smash_product_algebra(kz2, sst)
    for h, b in ((kz2, kz4t), (sst, kz2)):
        canonical_dimodule(h, b)
        unit_dimodule(h, b)
        trivial_dimodule(h, b, Matrix.diagonal([1, 2]))
    left_dual(can)
    right_dual(can)
    from_smash_module(to_smash_module(can), can.H, can.B)
    hb_yd_structure(ctx, can)
    module_as_dimodule(can.H, module_of(can), can.B)
    comodule_as_dimodule(can.B, comodule_of(can), can.H)
    dimodule_solution(module_extension(kz4t, mod))
    dimodule_solution(comodule_extension(kz2, comod))
    check_coherence(can, carriers[1], can)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_r_times_its_flip_decides_both_sides(data):
    # R R21 = 1 (x) 1 exactly when R21 R = 1 (x) 1: the flip of H (x) H maps
    # one product onto the other, also on perturbed, non-associative products
    h, r = data.draw(st.sampled_from(((fx.kz2(), fx.kz2_rmatrix()),
                                      (fx.sweedler_scaled_twisted(2), fx.sweedler_rmatrix()))))
    if data.draw(st.booleans()):
        r = _bumped_matrix(data.draw, r)
    else:
        h = data.draw(perturbed_hopf(h))
    n = h.dim
    mult, flip = tensor_square_mult_map(h.algebra), flip_matrix(n, n)
    r_col = element_col(r)
    r21 = mul(flip, r_col)
    one = kron(h.unit, h.unit)
    rr21, r21r = mul(mult, kron(r_col, r21)), mul(mult, kron(r21, r_col))
    assert r21r == mul(flip, rr21)
    both = rr21 == one and r21r == one
    assert (rr21 == one) == both
    assert validate_quasitriangular(h, r).flags["triangular"] == both


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_kron_matches_sympy(data):
    entry = st.sampled_from(SMALL)
    a, b = (Matrix([[data.draw(entry) for _ in range(cols)] for _ in range(rows)])
            for rows, cols in ((data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)))
                               for _ in range(2)))
    expected = sympy.kronecker_product(sympy.Matrix(a.to_lists()), sympy.Matrix(b.to_lists()))
    assert sympy.Matrix(kron(a, b).to_lists()) == expected
    u, v = column_of(dense_entries(a)[0]), column_of(dense_entries(b)[0])
    assert kron(u, v) == column_of(dense_entries(kron(row_matrix(u), row_matrix(v)))[0])


# ---------------------------------------------------------------------------
# batched composite runs against one run per basis column, and the per-object
# caches of converted and inverted maps

def run_by_steps(steps, dims, vec):
    """A sparse vector through a composite one step at a time, each entry's
    index split into its basis tuple and put back together with
    flat_index, so nothing of the library's planner or runner runs; zero
    values are dropped after each step and the steps' scales are left
    out."""
    d = tuple(dims)
    for (cols, _), legs, out in steps:
        first, stop = legs[0], legs[-1] + 1
        ins = d[first:stop]
        out = ins if out is None else tuple(out)
        image_dims = d[:first] + out + d[stop:]
        image = {}
        for idx, x in vec.items():
            t = unflat_index(idx, d)
            for r, y in cols[flat_index(t[first:stop], ins)]:
                key = flat_index(t[:first] + unflat_index(r, out) + t[stop:], image_dims)
                image[key] = image.get(key, 0) + x * y
        vec, d = {k: x for k, x in image.items() if x}, image_dims
    return vec


def steps_scale(steps):
    """The product of the scales of a composite's steps."""
    return math.prod(scale for (_, scale), _, _ in steps)


def leg_flip(d0, d1):
    """The swap X (x) Y -> Y (x) X of legs of dims d0, d1 as int columns
    (cols, scale), the identity with its output legs moved; as a step its
    out dims are (d1, d0)."""
    return move_legs([[(j, 1)] for j in range(d0 * d1)], (d0, d1), (d0, d1), (0, 1), (3, 2)), 1


def composite(steps, dims):
    """The Composite of positional steps (map, legs, out dims) on the legs
    dims: their linalg.layout, the one way to a Composite."""
    return Composite(layout(dims, steps), dims)


def first_difference(lhs, rhs, dims):
    """The first basis tuple of the legs dims, in lexicographic order, on
    which the composites of the steps lhs and rhs differ, or None: their
    Composites compared by linalg.first_key."""
    left = composite(lhs, dims)
    key = first_key(left, composite(rhs, dims))
    return None if key is None else unflat_index(key // math.prod(left.out_dims), dims)


def first_difference_by_column(lhs, rhs, dims):
    """first_difference run one basis column and one step at a time, with
    no plan."""
    lscale, rscale = steps_scale(lhs), steps_scale(rhs)
    for j in range(math.prod(dims)):
        if run_by_steps(lhs, dims, {j: rscale}) != run_by_steps(rhs, dims, {j: lscale}):
            return unflat_index(j, dims)
    return None


def columns_by_column(steps, dims):
    """Composite.columns run one basis column and one step at a time, with
    no plan and the product of all the steps' scales."""
    return ([list(run_by_steps(steps, dims, {j: 1}).items()) for j in range(math.prod(dims))],
            steps_scale(steps))


def same_columns(got, expected):
    """Whether two (cols, scale) are the same map with the same rows, in the
    same order, in every column: the planned composite drops the scales of a
    carried map that cancelled to the identity, so the ints may differ by
    that factor."""
    (gcols, gscale), (ecols, escale) = got, expected
    return ([[(r, x * escale) for r, x in c] for c in gcols]
            == [[(r, x * gscale) for r, x in c] for c in ecols])


@st.composite
def int_maps(draw, rows, cols):
    """A sparse int map with rows x cols entries as (cols, scale)."""
    entries = draw(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3]),
                            min_size=rows * cols, max_size=rows * cols))
    return ([[(r, x) for r, x in enumerate(entries[j * rows:(j + 1) * rows]) if x]
             for j in range(cols)], draw(st.sampled_from([1, 2, 3])))


def inverse_map(cols, scale):
    """The inverse of a map with exactly one entry per column, on distinct
    rows, as int columns (cols, scale)."""
    lcm = math.lcm(*(abs(x) for c in cols for _, x in c))
    out = [None] * len(cols)
    for j, ((r, x),) in enumerate(cols):
        out[r] = [(j, scale * lcm // x)]
    return out, lcm


@st.composite
def one_entry_steps(draw, first, ins):
    """Steps with at most one entry per column, on distinct rows, on the
    legs first, first + 1, ... of dims ins: a flip of two legs or a scaled
    permutation, with some columns left empty, or either followed by its
    inverse."""
    legs = tuple(range(first, first + len(ins)))
    if len(ins) == 2 and draw(st.booleans()):
        step = (leg_flip(*ins), legs, ins[::-1])
    else:
        blk = math.prod(ins)
        perm = draw(st.permutations(range(blk)))
        values = draw(st.lists(st.sampled_from([1, -1, 2, -3]), min_size=blk, max_size=blk))
        step = ([[(r, x)] for r, x in zip(perm, values)], draw(st.sampled_from([1, 2, 3]))), \
            legs, ins
    kind = draw(st.sampled_from(("map", "with empty columns", "and its inverse")))
    if kind == "and its inverse":
        return [step, (inverse_map(*step[0]), legs, ins)]
    if kind == "with empty columns":
        (cols, scale), _, out = step
        empty = draw(st.sets(st.integers(0, len(cols) - 1), min_size=1))
        step = ([[] if j in empty else c for j, c in enumerate(cols)], scale), legs, out
    return [step]


@st.composite
def composites(draw, leg_dims=st.integers(1, 3), one_entry=False):
    """Legs dims and a composite of up to four random steps on them, each on
    consecutive legs and landing in up to two legs.  With one_entry, the
    legs' dims multiply to at least 64, and up to six steps on one or two
    legs are drawn, about half of them by one_entry_steps."""
    if one_entry:
        dims = tuple(draw(st.lists(st.integers(2, 4), min_size=3, max_size=4).filter(
            lambda d: math.prod(d) >= 64)))
    else:
        dims = tuple(draw(st.lists(leg_dims, min_size=1, max_size=4)))
    steps, d = [], dims
    for _ in range(draw(st.integers(1, 6 if one_entry else 4))):
        if not d:
            break
        first = draw(st.integers(0, len(d) - 1))
        stop = draw(st.integers(first + 1, min(len(d), first + 2) if one_entry else len(d)))
        if one_entry and draw(st.booleans()):
            new = draw(one_entry_steps(first, d[first:stop]))
        else:
            out = tuple(draw(st.lists(st.integers(1, 3), max_size=2 if len(d) < 5 else 1)))
            new = [(draw(int_maps(math.prod(out), math.prod(d[first:stop]))),
                    tuple(range(first, stop)), out)]
        for step in new:
            steps.append(step)
            d = d[:first] + step[2] + d[stop:]
    return dims, steps


def _one_entry_changed(draw, steps):
    """steps with one entry of one step's map changed by a nonzero amount
    (or added where it was zero)."""
    k = draw(st.integers(0, len(steps) - 1))
    (cols, scale), legs, out = steps[k]
    rows = math.prod(out)
    if not rows or not cols:
        return steps
    j, r = draw(st.integers(0, len(cols) - 1)), draw(st.integers(0, rows - 1))
    col = dict(cols[j])
    col[r] = col.get(r, 0) + draw(st.sampled_from([1, -1, 2]))
    cols = cols[:j] + [[(i, x) for i, x in col.items() if x]] + cols[j + 1:]
    return steps[:k] + [((cols, scale), legs, out)] + steps[k + 1:]


def _counting_batches(counts):
    """linalg._batch, the runner of one batch that every reading uses,
    recording the number of basis columns of each batch it runs (_run starts
    from the first step's image of a batch, whose size is not that number)."""
    real = linalg._batch

    def batch(plan, d_in, x, start, stop):
        counts.append(stop - start)
        return real(plan, d_in, x, start, stop)
    return batch


@settings(max_examples=150, deadline=None)
@given(composites(), st.sampled_from([1, 2, 3, linalg.BATCH_COLUMNS]), st.data())
def test_batched_composites_match_one_column_at_a_time(case, batch, data):
    # the witness, every column's entries in order, and the columns run
    # before the witness: both sides run batches of `batch` columns from
    # column 0, so a witness at c runs the batches up to and including c's
    dims, lhs = case
    rhs = _one_entry_changed(data.draw, lhs)
    expected = first_difference_by_column(lhs, rhs, dims)
    counts = []
    with mock.patch.object(linalg, "BATCH_COLUMNS", batch), \
            mock.patch.object(linalg, "_batch", _counting_batches(counts)):
        assert first_difference(lhs, rhs, dims) == expected
    runs, d = sum(counts) // 2, math.prod(dims)
    if expected is None:
        assert runs == d
    else:
        assert runs == min(d, (flat_index(expected, dims) // batch + 1) * batch)
    assert first_difference_by_column(lhs, lhs, dims) is None
    with mock.patch.object(linalg, "BATCH_COLUMNS", batch):
        assert first_difference(lhs, lhs, dims) is None
        for steps in (lhs, rhs):
            # lists of (row, value) pairs: equal in their order too
            expected = columns_by_column(steps, dims)
            got = composite(steps, dims).columns()
            assert same_columns(got, expected)
            assert all(x for col in got[0] for _, x in col)


@settings(max_examples=100, deadline=None)
@given(composites(one_entry=True), st.data())
def test_large_one_entry_composites_match_one_step_at_a_time(case, data):
    # composites of at least 64 columns, about half their steps of one entry
    # per column: the witness, and every column's entries in order, as the
    # steps run one at a time
    dims, lhs = case
    rhs = _one_entry_changed(data.draw, lhs)
    for other in (lhs, rhs):
        assert first_difference(lhs, other, dims) == first_difference_by_column(lhs, other, dims)
    got, expected = composite(lhs, dims).columns(), columns_by_column(lhs, dims)
    assert same_columns(got, expected)
    assert all(x for col in got[0] for _, x in col)
    rows = math.prod(composite(lhs, dims).out_dims)
    assert composite(lhs, dims).matrix() == Matrix.from_int_columns(*expected, rows)


@settings(max_examples=40, deadline=None)
@given(composites(leg_dims=st.integers(0, 2)), st.data())
def test_batched_composites_on_zero_dimensional_legs(case, data):
    dims, lhs = case
    assume(0 in dims)
    rhs = _one_entry_changed(data.draw, lhs)
    assert first_difference(lhs, rhs, dims) is None
    assert first_difference_by_column(lhs, rhs, dims) is None
    assert composite(lhs, dims).columns() == columns_by_column(lhs, dims)
    assert composite(lhs, dims).columns()[0] == []
    assert composite(lhs, dims).matrix().cols == 0


def _fresh_coproduct_columns(t, d0):
    """The coproduct-like columns of the three-leg map whose product-like
    Matrix is t and whose first leg has dim d0, converted afresh."""
    return linalg.int_columns([x for row in plane for x in row]
                              for plane in dense_nested(t, d0, t.cols // d0))


def test_cached_columns_are_never_changed_by_their_users():
    # every check reads the shared, cached columns of a map; none may write
    # to them, so after all of these each cache equals a fresh conversion
    for h in _hopf_carriers():
        validate_all(h)
    for d in _validation_carriers():
        validate_long_dimodule(d)
    for tag in ("kk", "sk"):
        ctx, carriers = _context(tag)
        u, v, w = carriers[:3]
        check_hexagons(ctx, u, v, w)
        check_qybe(ctx, u, v, w)
        check_coherence(u, v, w)
    # the operator stays alive, so its caches are among those looked at
    op = dimodule_solution(_validation_carriers()[-1])
    tau_transforms(op)
    seen = 0
    for obj in gc.get_objects():
        if isinstance(obj, Matrix) and obj._sparse is not None:
            assert obj._sparse == linalg.int_columns(dense_columns(obj))
            seen += 1
            if obj._moved is not None:
                move, kept = obj._moved
                cols, scale = linalg.int_columns(dense_columns(obj))
                assert kept == (move_legs(cols, *move), scale)
                if move[2:] == ((0,), (1, 2)):
                    assert kept == _fresh_coproduct_columns(obj, move[0][0])
                seen += 1
    assert op.matrix._sparse is not None and seen > 50


def test_composite_built_maps_are_never_converted_again(monkeypatch):
    # a map built from a composite holds its int columns from the start, so
    # int_columns never runs on one: no dense round trip in the chain of the
    # longeq-carriers benchmark, nor in the hexagons on a tensor dimodule
    built, owners = [], []

    def recording(f):
        def wrapper(*args, **kwargs):
            built.append(f(*args, **kwargs))
            return built[-1]
        return wrapper

    for reading in ("matrix", "coproduct"):
        monkeypatch.setattr(Composite, reading, recording(getattr(Composite, reading)))
    int_columns = linalg.int_columns

    def watched(columns):
        # the Matrix whose columns are converted is a local of the caller
        # (Matrix.__init__, ...)
        owners.extend(v for v in sys._getframe(1).f_locals.values() if isinstance(v, Matrix))
        return int_columns(columns)

    monkeypatch.setattr(linalg, "int_columns", watched)
    kz4t = fx.kz4_twisted()
    ext = module_extension(kz4t, fx.trivial_module(kz4t, Matrix.diagonal([1, 2, 3])))
    assert ext.dim == 12 and validate_long_dimodule(ext).ok
    assert check_long_equation(dimodule_solution(ext)).ok
    ctx, carriers = _context("sk")
    can = carriers[0]
    assert check_hexagons(ctx, tensor_dimodule(can, can), can, can).ok
    assert built and owners
    assert not {id(m) for m in built} & {id(m) for m in owners}


# ---------------------------------------------------------------------------
# leg moves against a dense nested-list copy

@st.composite
def leg_moves(draw):
    """A map from 0-3 input legs to 0-3 output legs of dims 1-3, as sparse
    int columns, and any order of all its legs split into new inputs and new
    outputs."""
    dims_in = tuple(draw(st.lists(st.integers(1, 3), max_size=3)))
    dims_out = tuple(draw(st.lists(st.integers(1, 3), max_size=3)))
    legs = draw(st.permutations(range(len(dims_in) + len(dims_out))))
    k = draw(st.integers(0, len(legs)))
    rows = math.prod(dims_out)
    values = st.integers(-4, 4).filter(bool)
    cols = [sorted(draw(st.dictionaries(st.integers(0, rows - 1), values, max_size=3)).items())
            for _ in range(math.prod(dims_in))]
    return cols, dims_in, dims_out, tuple(legs[:k]), tuple(legs[k:])


def dense_move_legs(cols, dims_in, dims_out, ins, outs):
    """The dense columns of the map with its legs moved, read entry by entry
    off a dense nested-list copy of the map."""
    dense = [[0] * math.prod(dims_out) for _ in cols]
    for j, col in enumerate(cols):
        for r, x in col:
            dense[j][r] = x
    dims = dims_in + dims_out
    moved = [[0] * math.prod(dims[leg] for leg in outs)
             for _ in range(math.prod(dims[leg] for leg in ins))]
    for idx in itertools.product(*map(range, dims)):
        x = dense[flat_index(idx[:len(dims_in)], dims_in)][flat_index(idx[len(dims_in):],
                                                                     dims_out)]
        moved[flat_index([idx[leg] for leg in ins], [dims[leg] for leg in ins])][
            flat_index([idx[leg] for leg in outs], [dims[leg] for leg in outs])] = x
    return moved


@settings(max_examples=300, deadline=None)
@given(leg_moves())
def test_move_legs_matches_a_dense_copy(case):
    cols, dims_in, dims_out, ins, outs = case
    moved = linalg.move_legs(cols, dims_in, dims_out, ins, outs)
    expected = dense_move_legs(cols, dims_in, dims_out, ins, outs)
    assert len(moved) == len(expected)
    for col, dense in zip(moved, expected):
        rows = [r for r, _ in col]
        assert len(set(rows)) == len(rows) and all(x for _, x in col)
        assert [dense[r] for r in rows] == [x for _, x in col]
        assert sum(map(bool, dense)) == len(col)
        if list(outs) == sorted(outs):
            assert rows == sorted(rows)


# ---------------------------------------------------------------------------
# the fraction-free elimination against the Fraction oracle

@st.composite
def systems(draw):
    """A rational m x n matrix, often of low rank, and a right-hand side
    that is consistent about half the time."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entries = st.fractions(min_value=-9, max_value=9, max_denominator=7)
    rank = draw(st.integers(0, min(m, n)))
    left = [[draw(entries) for _ in range(rank)] for _ in range(m)]
    right = [[draw(entries) for _ in range(n)] for _ in range(rank)]
    a = Matrix([[sum((left[i][k] * right[k][j] for k in range(rank)), ZERO)
                 for j in range(n)] for i in range(m)], m, n)
    if draw(st.booleans()):
        x, rows = [draw(entries) for _ in range(n)], dense_entries(a)
        b = [sum((rows[i][j] * x[j] for j in range(n)), ZERO) for i in range(m)]
    else:
        b = [draw(entries) for _ in range(m)]
    return a, column_of(b)


@settings(max_examples=150, deadline=None)
@given(systems())
def test_fraction_free_elimination_matches_fraction_oracle(system):
    a, b = system
    assert solve_exact(a, b) == fraction_solve(a, b)
    square = Matrix([row[:a.rows] for row in dense_entries(a)], a.rows, min(a.rows, a.cols))
    if square.rows == square.cols:
        assert square.det() == fraction_det(square)
        inverse = fraction_inv(square)
        if inverse is None:
            with pytest.raises(SingularMatrix):
                square.inv()
        else:
            assert square.inv() == inverse


@settings(max_examples=150, deadline=None)
@given(elimination_squares(), elimination_systems())
@example(Matrix([], rows=0, cols=0), (Matrix([], rows=0, cols=0), column_of([])))
@example(Matrix([[0, 2], [3, 0]]), (Matrix([[0, 0, 2], [0, 0, 4]]), column_of([1, 2])))
def test_sparse_elimination_matches_dense_bareiss(square, system):
    # the same determinant and inverse, and the same solution with the free
    # unknowns 0, as the dense elimination the library used to run
    det, inverse = bareiss_det_inv(square)
    assert square.det() == det
    if inverse is None:
        with pytest.raises(SingularMatrix):
            square.inv()
    else:
        assert square.inv() == inverse
    a, b = system
    assert solve_exact(a, b) == bareiss_solve(a, b)


# ---------------------------------------------------------------------------
# the loader against the Fraction-coercing oracle

DEMO_FILES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "demos", "demo_files")
TENSOR_FIELDS = {"mult": False, "action": False, "comult": True, "coaction": True}


def _demo_fields():
    """(file, path, field, coproduct) of every matrix and tensor field of the
    demo files; coproduct is None for a matrix."""
    found = []

    def walk(obj, name, path):
        if isinstance(obj, dict):
            for key, value in obj.items():
                walk(value, name, path + (key,))
        elif path and path[-1] in TENSOR_FIELDS:
            found.append((name, path, obj, TENSOR_FIELDS[path[-1]]))
        elif path and path[-1] == "solutions":
            for i, m in enumerate(obj):
                found.append((name, path + (i,), m, None))
        elif isinstance(obj, list) and obj and isinstance(obj[0], list):
            found.append((name, path, obj, None))

    for name in sorted(os.listdir(DEMO_FILES)):
        with open(os.path.join(DEMO_FILES, name)) as fh:
            walk(json.load(fh), name, ())
    return found


DEMO_FIELDS = _demo_fields()


@st.composite
def mutated_fields(draw):
    """A field of a demo file with some entries rewritten: as ints, "p/q"
    strings, zeros and negatives."""
    name, path, field, coproduct = draw(st.sampled_from(DEMO_FIELDS))
    field = json.loads(json.dumps(field))
    rows = [row for plane in field for row in plane] if coproduct is not None else field
    cells = [(row, k) for row in rows for k in range(len(row))]
    for _ in range(draw(st.integers(0, 4)) if cells else 0):
        row, k = draw(st.sampled_from(cells))
        row[k] = draw(st.one_of(
            st.integers(-6, 6), st.just(0), st.just("0"), st.just("0/5"),
            st.builds(lambda p, q: "%d/%d" % (p, q), st.integers(-9, 9), st.integers(1, 9))))
    return name, path, field, coproduct


@settings(max_examples=200, deadline=None)
@given(mutated_fields())
def test_loader_matches_the_fraction_coercing_oracle(case):
    name, path, field, coproduct = case
    where = "%s.%s" % (name, ".".join(map(str, path)))
    if coproduct is None:
        new, old = hio.load_matrix(field, where), fraction_load_matrix(field)
    else:
        new = load_tensor_field(field, where)
        old = fraction_load_tensor(field)
        # the loader stores the product-like columns alone; a comult or
        # coaction gets its coproduct-like reading when it is first asked
        # for, equal to a fresh conversion
        assert new._moved is None
        d0, d1 = len(field), len(field[0])
        if coproduct:
            assert (moved_columns(new, coproduct_move(new, d0))
                    == _fresh_coproduct_columns(old, d0))
        # and it writes back the nesting it read
        assert hio.matrix_json(new, (d0, d1, len(field[0][0]))) == [
            _json_entries(x) for x in dense_nested(old, d0, d1)]
    assert new == old and old == new and hash(new) == hash(old)
    assert dense_entries(new) == dense_entries(old)
    assert new.to_json() == old.to_json() == [
        _json_entries(x) for x in dense_entries(old)]


def load_tensor_field(field, where="field"):
    """A tensor field read by the loader against its own nesting."""
    return hio.load_matrix(field, where, (len(field), len(field[0]), len(field[0][0])))


def _json_entries(x):
    return [_json_entries(y) for y in x] if isinstance(x, list) else json_scalar(x)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(0, 2 ** 16))
@example(1, 3, 2, 0)
@example(3, 1, 2, 1)
@example(1, 1, 3, 2)
def test_a_step_onto_new_legs_reads_the_coproduct(d0, d1, d2, seed):
    # the one reading that moves legs: "x -> a b" from a leg of dim d0 onto
    # legs not named yet reads the product-like Matrix of T (d0 * d1
    # columns) as i -> sum_jk T[i][j][k] e_j (x) e_k, against the index sums
    rnd = random.Random(seed)
    t = [[[rnd.randint(-2, 2) for _ in range(d2)] for _ in range(d1)] for _ in range(d0)]
    m = Matrix.from_tensor(t)
    dense = Matrix([[t[i][r // d2][r % d2] for i in range(d0)] for r in range(d1 * d2)],
                   d1 * d2, d0)
    assert compose(dict(x=d0), [(m, "x -> a b")], "a b").matrix() == dense
    # the step keeps its reading in the Matrix: the coproduct move and the
    # columns move_legs gives for it
    move = coproduct_move(m, d0)
    assert m._moved == (move, (move_legs(sparse_columns(m)[0], *move), sparse_columns(m)[1]))
    # each coordinate of the image, paired off by a basis covector, as an
    # identity decided column by column
    for r in range(d1 * d2):
        pick = Matrix([[int(j * d2 + k == r) for k in range(d2)] for j in range(d1)])
        coordinate = Matrix([[t[i][r // d2][r % d2] for i in range(d0)]])
        assert Identity("coproduct", dict(x=range(d0)), [(m, "x -> a b"), (pick, "a b ->")],
                        [(coordinate, "x ->")]).decide().passed
        bent = Matrix([[x + (i == 0) for i, x in enumerate(coordinate.to_lists()[0])]])
        assert Identity("coproduct", dict(x=range(d0)), [(m, "x -> a b"), (pick, "a b ->")],
                        [(bent, "x ->")]).decide() == Check("coproduct", False, (0,))
    # a column count that the input leg's dim does not divide is refused
    if d0 > 1:
        with pytest.raises(DimensionMismatch):
            compose(dict(x=d0), [(zeros(d2, d0 * d1 + 1), "x -> a b")], "a b")


def test_every_demo_structure_round_trips_through_io():
    # every structure file of the demos reads, writes back the same bytes
    # (an algebra file's R and form are beside the structure, not in it)
    # and reads back as an equal structure
    checked = []
    for name in sorted(os.listdir(DEMO_FILES)):
        raw = json.loads(open(os.path.join(DEMO_FILES, name)).read())
        if raw.get("kind") not in ("operator", *hio._KINDS):
            continue
        s = hio.load_structure(os.path.join(DEMO_FILES, name))
        written = hio.structure_to_json(s)
        assert hio.json_text(written) == hio.json_text(
            {k: v for k, v in raw.items() if k not in ("R", "form")}), name
        assert hio.structure_from_json(json.loads(hio.json_text(written))) == s, name
        checked.append(name)
    assert checked == ["canonical.json", "flip.json", "halpha.json", "kz2.json", "kz4.json",
                       "kz4_twisted.json", "rsol.json", "sign.json"]


def test_demo_files_load_unchanged():
    # every field of every demo file reads back to its own JSON
    for name, path, field, coproduct in DEMO_FIELDS:
        if coproduct is None:
            assert hio.load_matrix(field).to_json() == field, (name, path)
        else:
            dims = (len(field), len(field[0]), len(field[0][0]))
            assert hio.matrix_json(load_tensor_field(field), dims) == field, (name, path)
    # and the loader stores one reading of each tensor field, the
    # product-like columns; the coproduct-like reading of a comult or
    # coaction is made only when asked for, equal to a fresh conversion
    d = hio.load_structure(os.path.join(DEMO_FILES, "canonical.json"))
    for t in (d.action, d.H.mult, d.B.mult, d.coaction, d.H.comult, d.B.comult):
        assert t._moved is None
        assert sparse_columns(t) == linalg.int_columns(dense_columns(t))
    for t, d0 in ((d.coaction, d.dim), (d.H.comult, d.H.dim), (d.B.comult, d.B.dim)):
        assert moved_columns(t, coproduct_move(t, d0)) == _fresh_coproduct_columns(t, d0)
        assert t._moved is not None


def test_cli_checks_on_demo_files_read_no_dense_view(monkeypatch, capsys):
    # check ybe, hexagon and coherence run on the int columns the loader
    # read: no entry of a Matrix is read as a Fraction, by indexing or by
    # to_lists, and int_columns, the reader, runs only inside the loaders,
    # never in a check
    views, outside = [], []
    for name in ("to_lists", "__getitem__"):
        def read(self, *args, method=getattr(Matrix, name)):
            views.append(self)
            return method(self, *args)
        monkeypatch.setattr(Matrix, name, read)
    int_columns = linalg.int_columns
    loaders = {hio.load_structure.__code__, hio.load_context.__code__}

    def watched(columns):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in loaders:
            frame = frame.f_back
        if frame is None:
            outside.append(sys._getframe(1).f_code.co_name)
        return int_columns(columns)

    monkeypatch.setattr(linalg, "int_columns", watched)
    p = functools.partial(os.path.join, DEMO_FILES)
    for argv in (["check", "ybe", "--ctx", p("ctx.json"), "-U", p("sign.json"),
                  "-V", p("canonical.json"), "-W", p("canonical.json")],
                 ["check", "hexagon", "--ctx", p("ctx.json"), "-U", p("canonical.json"),
                  "-V", p("sign.json"), "-W", p("canonical.json")],
                 ["check", "coherence", "-U", p("sign.json"), "-V", p("canonical.json"),
                  "-W", p("canonical.json")]):
        assert cli_main(argv) == 0, argv
    capsys.readouterr()
    assert not views and not outside


# ---------------------------------------------------------------------------
# Identity's leg compiler against index sums over named legs

def named_entries(m, ins, outs, dims, idx):
    """(output index tuple, value) for the map m of a step reading the legs
    ins at the index tuple idx and leaving the legs outs, read as Identity
    documents it, by single entries m[i, j]; a step from one leg onto two
    new legs reads its map as a coproduct, i -> T[i][j][k] e_j (x) e_k for
    T[i][j][k] = m[k, i * e + j]."""
    out_dims = [dims[s] for s in outs]
    if isinstance(m, tuple):                       # int columns (cols, scale)
        cols, scale = m
        j = flat_index(idx, [dims[s] for s in ins])
        return [(unflat_index(r, out_dims), Fraction(x, scale)) for r, x in cols[j]]
    if len(ins) == 1 and len(outs) == 2:           # a coproduct
        e = m.cols // dims[ins[0]]
        return [((j, k), m[k, idx[0] * e + j]) for j in range(e) for k in range(m.rows)]
    if not ins:                                    # an element, by flat coordinates
        return [(unflat_index(f, out_dims), m[f // m.cols, f % m.cols])
                for f in range(m.rows * m.cols)]
    j = flat_index(idx, [dims[s] for s in ins])
    if not outs:                                   # a covector, by flat coordinates
        return [((), m[j // m.cols, j % m.cols])]
    return [(unflat_index(r, out_dims), m[r, j]) for r in range(m.rows)]


def flat_index(idx, dims):
    f = 0
    for i, d in zip(idx, dims):
        f = f * d + i
    return f


def named_image(side, start, dims):
    """The image of one basis vector, an assignment leg -> index, under the
    steps of side, as a dict from sorted assignments to nonzero values."""
    vec = {tuple(sorted(start.items())): Fraction(1)}
    for m, text in side:
        ins, _, outs = text.partition("->")
        ins, outs = ins.split(), (outs.split() if "->" in text else ins.split())
        new = {}
        for key, x in vec.items():
            a = dict(key)
            idx = tuple(a.pop(s) for s in ins)
            for o, y in named_entries(m, ins, outs, dims, idx):
                if y:
                    b = dict(a, **dict(zip(outs, o)))
                    k = tuple(sorted(b.items()))
                    new[k] = new.get(k, 0) + x * y
        vec = {k: v for k, v in new.items() if v}
    return vec


@st.composite
def named_identities(draw):
    """[(identity, expected Check)] for one drawn set of texts at two
    different sets of dims: a random composite of small int maps on 2-4
    named legs of dims 1-3, written twice with the legs of each map in
    random orders (and 2 -> 1 maps read from rows or from nested lists by
    Matrix.from_tensor), and in half
    the draws one entry of one map of the rhs moved by one.  A 2 -> 2 map
    leaves the legs it reads, as int columns or as a Matrix, so its text
    may name them in another order ("x z -> z x"), and a 1 -> 1 map may
    leave a leg named as one read earlier ("y -> z" after z was read).  An
    element identity (names_in = ()) first inserts its legs."""
    element = draw(st.integers(0, 3)) == 0
    k = 2 if element else draw(st.integers(2, 4))
    legs, fresh, steps = list("abcd"[:k]), iter("efghijklmnopqrstuvwxyz"), []
    live = list(legs)

    def new_leg():
        legs.append(next(fresh))
        return legs[-1]

    if element:
        steps.append(("insert", (), tuple(live)))
    for _ in range(draw(st.integers(1, 5))):
        kinds = ["map1", "insert"] if len(live) < 4 else ["map1"]
        if live:
            kinds += ["coproduct", "pair"]
        if len(live) >= 2:
            kinds += ["map2", "pair", "raw", "map22"]
        kind = draw(st.sampled_from(kinds))
        freed = [s for s in legs if s not in live]
        if kind == "insert":
            outs = tuple(new_leg() for _ in range(draw(st.integers(1, 2))))
            steps.append((kind, (), outs))
            live += outs
            continue
        width = (2 if kind in ("map2", "raw", "map22") else draw(st.integers(1, 2))
                 if kind == "pair" else 1)
        ins = tuple(draw(st.permutations(live))[:width])
        if kind in ("raw", "map22"):
            outs = ins
        elif kind == "map1" and freed and draw(st.booleans()):
            outs = (draw(st.sampled_from(freed)),)
        else:
            outs = tuple(new_leg() for _ in range({"coproduct": 2, "pair": 0}.get(kind, 1)))
        steps.append((kind, ins, outs))
        live = [s for s in live if s not in ins] + list(outs)
    # each step's legs in the order it is written (each side once), and
    # whether a 2 -> 1 map is read from nested lists: the same texts at
    # both dims
    written = [[(tuple(draw(st.permutations(ins))), tuple(draw(st.permutations(outs))),
                 draw(st.booleans())) for _, ins, outs in steps] for _ in "lr"]
    bent = draw(st.booleans()) and draw(st.integers(0, len(steps) - 1))
    outs = tuple(draw(st.permutations(live))) if element else ()
    first = {s: draw(st.integers(1, 3)) for s in legs}
    second = {s: draw(st.integers(1, 3)) for s in legs}
    if second == first:
        second[legs[0]] = first[legs[0]] % 3 + 1
    inputs = () if element else tuple("abcd"[:k])
    return [_identity_at(draw, dims, steps, written, bent, inputs, outs)
            for dims in (first, second)]


def _identity_at(draw, dims, steps, written, bent, inputs, outs):
    """(identity, expected Check) of named_identities' texts at dims."""
    small = st.integers(-2, 2)
    # each step's map as a function of its legs in the order drawn
    maps = []
    for kind, ins, outs_ in steps:
        shape = tuple(dims[s] for s in ins) + tuple(dims[s] for s in outs_)
        entries = draw(st.lists(small, min_size=math.prod(shape), max_size=math.prod(shape)))
        maps.append(dict(zip(itertools.product(*(range(d) for d in shape)), entries)))

    def write(kind, ins, outs, f, order, bend=None):
        """One step for f on the legs in the written orders, as the library reads it."""
        ins2, outs2, tensor = order
        din, dout = [dims[s] for s in ins2], [dims[s] for s in outs2]

        def value(i, o):
            a, b = dict(zip(ins2, i)), dict(zip(outs2, o))
            key = tuple(a[s] for s in ins) + tuple(b[s] for s in outs)
            return f[key] + (1 if key == bend else 0)

        text = " ".join(ins2) + " -> " + " ".join(outs2)
        ii = list(itertools.product(*(range(d) for d in din)))
        oo = list(itertools.product(*(range(d) for d in dout)))
        if kind == "coproduct":
            t = Matrix.from_tensor([[[value(i, (j, k)) for k in range(dout[1])]
                                     for j in range(dout[0])] for i in ii],
                                   dims=(din[0],) + tuple(dout))
            return t, text
        if kind == "map2" and tensor:
            t = Matrix.from_tensor([[[value((i, j), (k,)) for k in range(dout[0])]
                                     for j in range(din[1])] for i in range(din[0])],
                                   dims=tuple(din) + tuple(dout))
            return t, text
        if kind == "insert" or kind == "pair":
            legs, d = (oo, dout) if kind == "insert" else (ii, din)
            rows, cols = (d[0], d[1]) if len(d) == 2 else (d[0], 1)
            grid = [[0] * cols for _ in range(rows)]
            for t in legs:
                grid[t[0]][t[1] if len(t) == 2 else 0] = (value((), t) if kind == "insert"
                                                          else value(t, ()))
            return Matrix(grid, rows=rows, cols=cols), text
        m = Matrix([[value(i, o) for i in ii] for o in oo], rows=len(oo), cols=len(ii))
        return (sparse_columns(m) if kind == "raw" else m), text

    lhs = [write(*s, f, order) for s, f, order in zip(steps, maps, written[0])]
    rhs = []
    for n, (s, f, order) in enumerate(zip(steps, maps, written[1])):
        bend = draw(st.sampled_from(sorted(f))) if bent is not False and n == bent else None
        rhs.append(write(*s, f, order, bend))
    names = {s: tuple("%s%d" % (s, i) for i in range(dims[s])) for s in dims}
    identity = Identity("drawn", {s: names[s] for s in inputs}, lhs, rhs,
                        {s: names[s] for s in outs})
    # the expected Check: the first input basis tuple, or for an element
    # identity the first output coordinate, on which the sides differ
    for col in itertools.product(*(range(dims[s]) for s in inputs)):
        start = dict(zip(inputs, col))
        left, right = named_image(lhs, start, dims), named_image(rhs, start, dims)
        if left != right:
            if inputs:
                return identity, Check("drawn", False, tuple(names[s][i]
                                                             for s, i in zip(inputs, col)))
            for coord in itertools.product(*(range(dims[s]) for s in outs)):
                key = tuple(sorted(zip(outs, coord)))
                if left.get(key) != right.get(key):
                    return identity, Check("drawn", False, tuple(names[s][i]
                                                                 for s, i in zip(outs, coord)))
    return identity, Check("drawn", True)


@settings(max_examples=250, deadline=None)
@given(named_identities())
def test_identity_compiler_matches_index_sums(drawn):
    # the same texts at two sets of dims, decided one after the other in
    # this process: the second reuses the moves compiled for the first
    for identity, expected in drawn:
        assert identity.decide() == expected


# ---------------------------------------------------------------------------
# a decision's shortcuts against index sums: identity maps leave the plan,
# and elements and covectors are read through their kept flat readings, on
# sides of under 64 and of 64 or more columns

SHORTCUT_KINDS = ("identity", "scaled", "moved", "diagonal", "map", "bubble", "embed")


@st.composite
def shortcut_identities(draw):
    """(identity, expected Check) on the legs a b c, of under 64 or of at
    least 64 columns: each side a run of drawn steps on them.  An identity
    map (a Matrix on one or two legs, or int columns [(j, s)] over s) lands
    on each side or not; a near-identity (one column moved, or a diagonal
    with one 2) lands on the lhs, and on the rhs it or the identity; a map,
    an element inserted, mapped and paired with a covector (the same two
    Matrix objects each time, so they are read more than once), and an
    embedding into one more dimension and a map back land on both."""
    small = st.integers(-2, 2)
    big = draw(st.booleans())
    dims = {s: draw(st.integers(4, 5) if big else st.integers(1, 3)) for s in "abc"}
    dims.update(("z" + s, dims[s] + 1) for s in "abc")
    dims["e"] = draw(st.sampled_from((1, 2, 4)))

    def matrix(rows, cols):
        entries = draw(st.lists(small, min_size=rows * cols, max_size=rows * cols))
        return Matrix([entries[i * cols:(i + 1) * cols] for i in range(rows)], rows=rows,
                      cols=cols)

    def flat(n):
        rows = draw(st.sampled_from([r for r in (1, 2, 4) if n % r == 0]))
        return matrix(rows, n // rows)

    element, covector = flat(dims["e"]), flat(dims["e"])
    lhs, rhs = [], []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(SHORTCUT_KINDS))
        leg = draw(st.sampled_from("abc"))
        d = dims[leg]
        if kind in ("identity", "scaled"):
            if kind == "scaled":
                s = draw(st.integers(2, 3))
                step = ([[(j, s)] for j in range(d)], s), leg
            else:
                legs = draw(st.permutations("abc"))[:draw(st.integers(1, 2))]
                step = Matrix.identity(math.prod(dims[x] for x in legs)), " ".join(legs)
            for side in (lhs, rhs):
                if draw(st.booleans()):
                    side.append(step)
            continue
        if kind in ("moved", "diagonal"):
            j = draw(st.integers(0, d - 1))
            if kind == "moved":
                near = Matrix.from_int_columns([[((i + (i == j)) % d, 1)] for i in range(d)],
                                               1, d)
            else:
                near = Matrix.diagonal([2 if i == j else 1 for i in range(d)])
            lhs.append((near, leg))
            rhs.append((near if draw(st.booleans()) else Matrix.identity(d), leg))
            continue
        if kind == "map":
            steps = [(matrix(d, d), leg)]
        elif kind == "bubble":
            steps = [(element, "-> e"), (matrix(dims["e"], dims["e"]), "e"), (covector, "e ->")]
        else:
            z = "z" + leg
            steps = [(Matrix.from_int_columns([[(i, 1)] for i in range(d)], 1, d + 1),
                      "%s -> %s" % (leg, z)), (matrix(d, d + 1), "%s -> %s" % (z, leg))]
        lhs += steps
        rhs += steps
    names = {s: tuple("%s%d" % (s, i) for i in range(dims[s])) for s in "abc"}
    identity = Identity("shortcut", names, lhs, rhs)
    for col in itertools.product(*(range(dims[s]) for s in "abc")):
        start = dict(zip("abc", col))
        if named_image(lhs, start, dims) != named_image(rhs, start, dims):
            return identity, Check("shortcut", False, tuple(names[s][i]
                                                            for s, i in zip("abc", col)))
    return identity, Check("shortcut", True)


@settings(max_examples=200, deadline=None)
@given(shortcut_identities())
def test_decision_shortcuts_match_index_sums(drawn):
    # decided twice: the second decision reads the kept flat readings of
    # the element and the covector and the compiled tables
    identity, expected = drawn
    assert identity.decide() == expected
    assert identity.decide() == expected
