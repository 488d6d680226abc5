"""Exact linear algebra over the rationals, and maps applied to tensor legs.

Everything is exact, ints and Fractions; there is no floating point
anywhere.  Linear maps are column-convention: M[i][j] is the coefficient of
the i-th output basis vector in the image of the j-th input basis vector.
Matrix, the one class of maps, has no arithmetic: maps compose only as
steps on tensor legs (below).  Tensor-product bases are ordered
lexicographically, first factor major: (i, j) -> i * dim_second + j.

A Matrix is stored as its int-scaled sparse columns (cols, scale), in the
unique form int_columns gives: entries sorted by row within each column,
the scale the lcm of the reduced denominators, no zero stored.  Equality
and hashing read that form and the type, and it is all a Matrix keeps:
entries (m[i, j] by bisection), to_lists, to_json and __repr__ are read
off it.  int_columns is the one reader of scalars, for Matrix(rows),
Matrix.from_tensor(data) and the io loaders.  A unit, a counit or a
solution is an n x 1 Matrix, and a three-leg map (a multiplication,
action, comultiplication or coaction) the Matrix of its product-like map
(i, j) -> sum_k T[i][j][k] e_k; its split into legs is read where it is
used.  det, inv and solve_exact share one fraction-free elimination on
sparse int rows, which pays only for the nonzeros.

A step applies a small map, as int-scaled columns, to consecutive legs of
a sparse vector: a Matrix's own (sparse_columns), or its columns with legs
moved (moved_columns: an element's flat coordinates inserted, a covector's
paired away, the coproduct reading of a product-like map).
report.Identity and report.compose write steps on named legs and compile
them to these, placing every permutation of legs.  A map with legs moved
between its inputs and outputs (a transpose, a reading of moved_columns, a
permutation of legs) comes from one function, move_legs.  layout checks
a composite's steps against its legs and lays each out once: its map,
then its span, block and image.  A Composite runs that plan as given, on
batches of basis columns: the column index is one more leading leg, so a
single pass per step serves a batch.
report lays out an identity side once per shape of its maps and builds
its Composite per decision, with no second layout.  first_key compares two
Composites BATCH_COLUMNS columns at a time from column 0 up to the first
that differs; columns(), matrix() and coproduct() read one.
Every constructed structure map is such a composite, never an index sum
or a Kronecker product.

A Matrix is immutable, so it keeps what is derived from it once computed:
its determinant, its inverse, and its columns with legs moved by the last
move it was read with (moved_columns), so an identity that inserts R, pairs
a form or reads a coaction moves its legs once per Matrix, not once per
decision.  The stored and kept columns are shared by every caller and are
never changed.
"""

import bisect
import functools
import math
import re
import types
from fractions import Fraction


class LinalgError(Exception):
    pass


class DimensionMismatch(LinalgError):
    pass


class SingularMatrix(LinalgError):
    pass


def scalar(x):
    """Coerce an int, Fraction or "p/q" string to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, int):
        # the shared constants, so every to_lists holds one ZERO and one ONE
        return ZERO if x == 0 else ONE if x == 1 else Fraction(x)
    if isinstance(x, str):
        # not Fraction's decimals, underscores or exponents (1e9999 is 10**9999)
        if re.fullmatch(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*", x):
            return Fraction(x)
        raise ValueError("%r is not an int or a p/q string" % x)
    raise TypeError("cannot read %r as an exact rational" % (x,))


ZERO = Fraction(0)
ONE = Fraction(1)


def unflat_index(i, dims):
    """The basis tuple of the lexicographic index i in the tensor basis with
    the given dims."""
    out = []
    for d in reversed(dims):
        out.append(i % d)
        i //= d
    return tuple(reversed(out))


class Matrix:
    """Exact matrix, stored as its int-scaled sparse columns (cols, scale)
    in the form int_columns gives: the map is cols / scale, cols[j] lists the
    (row, value) pairs of column j with value != 0 in row order, and scale
    is the lcm of the entries' reduced denominators.  That form is unique,
    so hashing reads it, and equality it and the type.  It is the one form
    kept: entries are read off it when asked for.

    A Matrix is immutable, so it also keeps its determinant, its inverse
    and its columns with legs moved by the last move asked (moved_columns)
    once computed."""

    __slots__ = ("rows", "cols", "_sparse", "_det", "_inverse", "_moved")

    def __init__(self, rows_data, rows=None, cols=None):
        data = [r if isinstance(r, (list, tuple)) else tuple(r) for r in rows_data]
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        if len(data) != rows or any(len(r) != cols for r in data):
            int_columns(data)       # an unreadable entry is named before the shape
            raise DimensionMismatch("ragged or mis-shaped matrix data")
        self.rows, self.cols = rows, cols
        self._det = self._inverse = self._moved = None
        self._sparse = int_columns(zip(*data) if rows else [()] * cols)

    @classmethod
    def _of(cls, rows, cols, sparse):
        """An instance of cls over columns in the form int_columns gives."""
        m = cls.__new__(cls)
        m.rows, m.cols, m._sparse = rows, cols, sparse
        m._det = m._inverse = m._moved = None
        return m

    @classmethod
    def from_int_columns(cls, cols, scale, rows):
        """The Matrix cols / scale with the given number of rows, for lists
        of (row, int) pairs with nonzero value in any row order and a
        positive int scale, as Composite.columns gives them.  The lists are
        taken over: each is sorted by row, and the values and the scale are
        divided by their gcd (the canonical form)."""
        return cls._of(rows, len(cols), _canonical(cols, scale))

    @staticmethod
    def identity(n):
        return Matrix._of(n, n, ([[(j, 1)] for j in range(n)], 1))

    @staticmethod
    def zeros(r, c):
        return Matrix._of(r, c, ([[] for _ in range(c)], 1))

    @staticmethod
    def diagonal(entries):
        cols, scale = int_columns([x] for x in entries)
        n = len(cols)
        return Matrix._of(n, n, ([[(j, x) for _, x in c] for j, c in enumerate(cols)], scale))

    @staticmethod
    def from_function(rows, cols, f):
        return Matrix([[f(i, j) for j in range(cols)] for i in range(rows)],
                      rows=rows, cols=cols)

    @staticmethod
    def from_tensor(data, dims=None, name="tensor"):
        """The Matrix of the product-like map (i, j) -> sum_k T[i][j][k] e_k
        of nested data T[i][j][k]: d0 * d1 columns, (i, j) at i * d1 + j,
        and d2 rows.  The dims (d0, d1, d2) are read from the list lengths
        unless given, so a map with a 0-dimensional first or second leg
        reads back only when they are; data nested otherwise than given
        dims are refused as the map name."""
        data = [[r if isinstance(r, (list, tuple)) else tuple(r) for r in plane]
                for plane in data]
        rows = [r for plane in data for r in plane]
        got = (len(data), len(data[0]) if data else 0, len(rows[0]) if rows else 0)
        d0, d1, d2 = want = got if dims is None else tuple(dims)
        if len(data) != d0 or any(len(p) != d1 for p in data) or any(len(r) != d2 for r in rows):
            int_columns(rows)       # an unreadable entry is named before the nesting
            if any(len(p) != got[1] for p in data) or any(len(r) != got[2] for r in rows):
                raise DimensionMismatch("ragged tensor data")
            raise DimensionMismatch("%s is %s, expected %s"
                                    % (name, "x".join(map(str, got)), "x".join(map(str, want))))
        return Matrix._of(d2, d0 * d1, int_columns(rows))

    def __getitem__(self, ij):
        """m[i, j]; on a one-column matrix (a unit, a counit) also m[i].
        Any other index is refused."""
        if isinstance(ij, int) and self.cols == 1:
            ij = ij, 0
        elif type(ij) is not tuple or len(ij) != 2:
            raise TypeError("a %dx%d matrix takes an index pair" % (self.rows, self.cols))
        i, j = ij
        return self._entry(range(self.rows)[i], range(self.cols)[j])

    def _entry(self, i, j):
        """The entry in row i of column j, indices in range, by bisection."""
        col, scale = self._sparse[0][j], self._sparse[1]
        k = bisect.bisect_left(col, (i,))
        return Fraction(col[k][1], scale) if k < len(col) and col[k][0] == i else ZERO

    def __eq__(self, other):
        return (type(other) is type(self) and self.rows == other.rows
                and self.cols == other.cols and self._sparse == other._sparse)

    def __hash__(self):
        cols, scale = self._sparse
        return hash((self.rows, self.cols, scale, tuple(map(tuple, cols))))

    def transpose(self):
        cols, scale = self._sparse
        return Matrix._of(self.cols, self.rows,
                          (move_legs(cols, (self.cols,), (self.rows,), (1,), (0,)), scale))

    def is_identity(self):
        return self.rows == self.cols and _is_identity(self._sparse)

    def det(self):
        """The exact determinant, computed once."""
        if self._det is None:
            self._factor()
        return self._det

    def inv(self):
        """The exact inverse, computed once; raises SingularMatrix when the
        determinant vanishes."""
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a %dx%d matrix" % (self.rows, self.cols))
        if self._det is None:
            self._factor()
        if not self._det:
            raise SingularMatrix("matrix is singular")
        return self._inverse

    def _factor(self):
        """Fill the determinant and, when it is nonzero, the inverse, by one
        sparse fraction-free elimination (_eliminate) of the rows of [C | I]
        for self = C / scale: it ends at [d I | d C^-1] with the rows in
        pivot order and d = +-det C, so self^-1 = scale C^-1."""
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of a %dx%d matrix" % (self.rows, self.cols))
        n = self.rows
        cols, scale = self._sparse
        rows = _int_rows(cols, n)
        for i in range(n):
            rows[i][n + i] = 1
        pivots, sign, d = _eliminate(rows, n)
        if len(pivots) < n:
            self._det = ZERO
            return
        self._det = Fraction(sign * d, scale ** n)
        if d < 0:
            scale, d = -scale, -d
        inverse = [[] for _ in range(n)]
        for i, row in enumerate(rows):
            for j, x in row.items():
                if j >= n:
                    inverse[j - n].append((i, x * scale))
        self._inverse = Matrix.from_int_columns(inverse, d, n)

    def to_lists(self):
        """The rows as lists of Fractions, each entry Fraction(x, scale)
        straight from its int column; 0 is ZERO and a whole 1 is ONE.
        Matrix(rows) reads the shape back from the list lengths, so a map
        with 0 rows (an empty list) reads back only when its shape is given:
        Matrix(m.to_lists(), rows=m.rows, cols=m.cols) == m."""
        return self._dense(ZERO, _fraction)

    def to_json(self):
        """The rows as ints and "p/q" strings, written from the columns."""
        return self._dense(0, _json_scalar)

    def _dense(self, zero, read):
        """The rows, the entry x of an int column read as read(x, scale) and
        every other entry zero."""
        out = [[zero] * self.cols for _ in range(self.rows)]
        cols, scale = self._sparse
        for j, col in enumerate(cols):
            for i, x in col:
                out[i][j] = read(x, scale)
        return out

    def __repr__(self):
        if self.rows * self.cols > 64:
            return "Matrix(%dx%d)" % (self.rows, self.cols)
        return "Matrix(%s)" % "; ".join(" ".join(map(str, row)) for row in self.to_json())


def int_columns(columns):
    """The one reader of exact scalars: columns of ints, Fractions and "p/q"
    strings as (cols, scale), the map being cols / scale.  cols[j] lists the
    (row, value) pairs of column j with value != 0 in row order, every value
    an int, and scale is the lcm of the entries' reduced denominators, so the
    form is unique.  An int is taken as it is and a Fraction read by one
    as_integer_ratio call, not through scalar, a zero of either dropped at
    once; anything else is read once by scalar (with its errors), and zeros
    are never stored."""
    cols, scale = [], 1
    for c in columns:
        col = []
        for r, x in enumerate(c):
            t = type(x)
            if t is int:
                if x:
                    col.append((r, x))
                continue
            if t is not Fraction:
                x = scalar(x)
            n, q = x.as_integer_ratio()
            if not n:
                continue
            if q == 1:
                col.append((r, n))
            else:
                scale = math.lcm(scale, q)
                col.append((r, (n, q)))
        cols.append(col)
    if scale != 1:
        cols = [[(r, x * scale if type(x) is int else x[0] * (scale // x[1])) for r, x in c]
                for c in cols]
    return cols, scale


def _canonical(cols, scale):
    """Lists of (row, int) pairs with nonzero value in any row order, and a
    positive int scale, in the form int_columns gives: each list sorted by
    row, the values and the scale divided by their gcd."""
    g = math.gcd(scale, *(x for c in cols for _, x in c)) if scale != 1 else 1
    if g != 1:
        cols, scale = [[(r, x // g) for r, x in c] for c in cols], scale // g
    for c in cols:
        c.sort()
    return cols, scale


def _fraction(x, scale):
    """The entry x / scale as a Fraction, the shared ONE when it is 1."""
    return ONE if x == scale else Fraction(x, scale)


def _json_scalar(x, scale):
    """The entry x / scale as an int when it is whole, otherwise as a
    reduced "p/q" string."""
    if scale == 1:
        return x
    g = math.gcd(x, scale)
    return x // g if g == scale else "%d/%d" % (x // g, scale // g)


def _int_rows(cols, rows):
    """The int columns cols as sparse int rows, dicts column -> value."""
    out = [{} for _ in range(rows)]
    for j, col in enumerate(cols):
        for i, x in col:
            out[i][j] = x
    return out


def _eliminate(rows, width):
    """Fraction-free Gauss-Jordan elimination of sparse int rows (dicts
    column -> nonzero value), in place, with pivots in the first width
    columns: (pivot columns, sign of the row order, last pivot d).  Pivot
    columns go left to right, so the pivot columns are those of dense
    elimination; the pivot row is a row not yet a pivot row with an entry in
    the pivot column and the fewest entries (Markowitz), found through an
    index of the rows that hold each column.  Only the rows with an entry in
    the pivot column are rewritten: a row keeps the pivot it was last
    rewritten at, and its value is its stored ints times the current pivot
    over that one.  That value is what dense Bareiss elimination holds, the
    k-th leading pivot minor times the reduced row echelon form after k
    pivots, so every division is exact (Sylvester's identity).  At the end
    the rows hold their values, the pivot rows first in pivot order, each
    pivot entry d, the leading minor of the pivot rows and columns, and the
    sign is that of this reordering."""
    pivots, order, d, m = [], [], 1, len(rows)
    last, free = [1] * m, set(range(m))
    held = {}
    for i, row in enumerate(rows):
        for j in row:
            held.setdefault(j, set()).add(i)
    for c in range(width):
        if not free:
            break
        hits = [i for i in held.get(c, ()) if c in rows[i]]
        below = [i for i in hits if i in free]
        if not below:
            continue
        r = min(below, key=lambda i: len(rows[i]))
        free.remove(r)
        top, s = rows[r], last[r]
        if s != d:
            top = rows[r] = {j: x * d // s for j, x in top.items()}
        piv = last[r] = top[c]
        get = top.get
        for i in hits:
            if i == r:
                continue
            row, s = rows[i], last[i]
            f = row[c]
            # only an entry in both rows can cancel; column c always does
            new = {j: v for j, x in row.items() if (v := (piv * x - f * get(j, 0)) // s)}
            for j in top.keys() - row.keys():
                new[j] = -f * top[j] // s
                held.setdefault(j, set()).add(i)
            rows[i], last[i] = new, piv
        pivots.append(c)
        order.append(r)
        d = piv
    order += sorted(free)
    rows[:] = [rows[i] if last[i] == d else {j: x * d // last[i] for j, x in rows[i].items()}
               for i in order]
    return pivots, _sign(order), d


def _sign(perm):
    """The sign of a permutation of range(len(perm)): a cycle of length L
    gives (-1) ** (L - 1)."""
    sign, seen = 1, [False] * len(perm)
    for i in range(len(perm)):
        if not seen[i]:
            seen[i], j = True, perm[i]
            while j != i:
                seen[j], j, sign = True, perm[j], -sign
    return sign


def sparse_columns(m):
    """The columns of the Matrix m as int_columns gives them (of a three-leg
    map, the product-like columns (i, j) -> sum_k T[i][j][k] e_k): its
    stored form, shared, so the lists are not to be changed."""
    return m._sparse


# the most shapes whose index tables move_legs keeps; a run of a benchmark
# workload meets 8 to 34 leg-move shapes
_MOVE_TABLE_SHAPES = 256


def move_legs(cols, dims_in, dims_out, ins, outs):
    """The int columns of the map whose input legs are the legs ins, and
    whose output legs the legs outs, of the map given by its int columns
    cols from legs of dims dims_in (tuples, as are ins and outs) to legs of
    dims dims_out, legs numbered inputs first: a transpose, the other
    reading of a tensor, a flip conjugate.  One pass puts each entry at
    its new column and row, read off index tables kept per shape; a new
    column lists its entries in the order of the pass, so by row whenever
    outs is increasing."""
    count, col_in, row_in, col_out, row_out = _move_tables(dims_in, dims_out, ins, outs)
    if len(cols) != len(col_in):
        raise DimensionMismatch("%d columns on input legs %r" % (len(cols), dims_in))
    out = [[] for _ in range(count)]
    for col, c, r0 in zip(cols, col_in, row_in):
        for r, x in col:
            out[c + col_out[r]].append((r0 + row_out[r], x))
    return out


@functools.lru_cache(maxsize=_MOVE_TABLE_SHAPES)
def _move_tables(dims_in, dims_out, ins, outs):
    """move_legs' tables, shared by its calls and never changed: the number
    of new columns, then for each old column and for each old row its share
    of the new column and row indices."""
    dims = dims_in + dims_out
    if sorted(ins + outs) != list(range(len(dims))):
        raise DimensionMismatch("legs %r and %r are not the %d legs" % (ins, outs, len(dims)))
    wc, wr = [0] * len(dims), [0] * len(dims)
    for legs, weights in ((ins, wc), (outs, wr)):
        w = 1
        for leg in reversed(legs):
            weights[leg], w = w, w * dims[leg]

    def tables(legs):
        col, row = [0], [0]
        for leg in legs:
            digits = range(dims[leg])
            col = [c + a * wc[leg] for c in col for a in digits]
            row = [r + a * wr[leg] for r in row for a in digits]
        return col, row

    n_in = len(dims_in)
    return (math.prod(dims[leg] for leg in ins), *tables(range(n_in)),
            *tables(range(n_in, len(dims))))


def moved_columns(m, move):
    """The columns of the Matrix m with its legs moved by move = (dims_in,
    dims_out, ins, outs), as move_legs reads it, over m's scale: an
    element's flat coordinates on new legs, a covector's paired away, the
    coproduct of a product-like map.  They are kept for the last move asked
    and shared like sparse_columns."""
    kept = m._moved
    if kept is None or kept[0] != move:
        cols, scale = m._sparse
        kept = m._moved = move, (move_legs(cols, *move), scale)
    return kept[1]


# the most basis columns a composite runs in one batch, which bounds the
# sparse vectors a step holds
BATCH_COLUMNS = 256


def layout(dims, steps):
    """Check the steps of a composite on the legs dims and lay them out once:
    (plan, the dims they leave, the product of the maps' scales), as
    Composite takes it.  A step is (map, legs, out dims), the map (cols,
    scale) as sparse_columns gives it, or its column count, and out dims
    None keeping the legs' dims; a laid-out step is the map, or count, then
    its span (blk_in * suf, suf, blk_out * suf), for its block (the legs it
    reads), the legs after it and its image."""
    plan, d, scale = [], tuple(dims), 1
    for m, legs, out in steps:
        if type(m) is int:
            n = m
        else:
            n, scale = len(m[0]), scale * m[1]
        first, stop = legs[0], legs[-1] + 1
        ins = d[first:stop]
        blk_in = math.prod(ins)
        if tuple(legs) != tuple(range(first, stop)) or stop > len(d) or n != blk_in:
            raise DimensionMismatch("map with %d columns on legs %r of %r" % (n, legs, d))
        out = ins if out is None else tuple(out)
        suf = math.prod(d[stop:])
        plan.append((m, blk_in * suf, suf, math.prod(out) * suf))
        d = d[:first] + out + d[stop:]
    return plan, d, scale


def _is_identity(m):
    """Whether the int columns m = (cols, scale) are the identity: every
    column j is [(j, scale)]."""
    cols, scale = m
    for j, c in enumerate(cols):
        if len(c) != 1 or c[0] != (j, scale):
            return False
    return True


def _run(plan, vec):
    """The image of a sparse vector under a planned composite, with no zero
    value after any step: a step's output is kept as it is and rebuilt
    without its zeros only when the step cancelled an entry.  An entry's
    flat index is split into (p, k, s), its legs before the step's block,
    its block column and its legs after it, by // and -; a step on the last
    legs (suf 1) has no legs after it, so its loop splits off p alone."""
    for (cols, _), span, suf, span_out in plan:
        out = {}
        get = out.get
        if suf == 1:
            for idx, x in vec.items():
                p = idx // span
                base = p * span_out
                for r, y in cols[idx - p * span]:
                    key = base + r
                    out[key] = get(key, 0) + x * y
        else:
            for idx, x in vec.items():
                p = idx // span
                s = idx - p * span
                k = s // suf
                base = p * span_out + s - k * suf
                for r, y in cols[k]:
                    key = base + r * suf
                    out[key] = get(key, 0) + x * y
        vec = {key: x for key, x in out.items() if x} if 0 in out.values() else out
    return vec


class Composite:
    """A composite of steps on the tensor legs dims, built from the plan
    (plan, out_dims, scale) that layout gives, which has checked the steps.
    Each reading runs the plan afresh by _batches, with no Fraction on the
    way, changing no step's columns, and first_key compares two composites
    the same way."""

    __slots__ = ("dims", "out_dims", "_d_in", "_plan", "_scale")

    def __init__(self, planned, dims):
        self.dims = tuple(dims)
        self._d_in = math.prod(self.dims)
        self._plan, self.out_dims, self._scale = planned

    def columns(self):
        """The composite as (cols, scale), a step for a further composite:
        each column's entries in the order of its run, none of them zero,
        and the scale the unreduced product of the steps' scales;
        Matrix.from_int_columns sorts and reduces them to the canonical form
        int_columns gives."""
        rows = math.prod(self.out_dims)
        cols = [[] for _ in range(self._d_in)]
        for batch in _batches(self._plan, self._d_in, 1):
            for key, x in batch.items():
                j, r = divmod(key, rows)
                cols[j].append((r, x))
        return cols, self._scale

    def matrix(self):
        """The Matrix of the composite; of a multiplication or an action, its
        product-like map."""
        return Matrix.from_int_columns(*self.columns(), math.prod(self.out_dims))

    def coproduct(self, first_out):
        """The product-like Matrix of a comultiplication or a coaction whose
        first output has dim first_out: the columns with legs moved once."""
        rows = math.prod(self.out_dims)
        dims = (self._d_in, first_out, rows // first_out)
        if rows % first_out:
            raise DimensionMismatch("matrix has %d rows, expected %d"
                                    % (rows, first_out * dims[2]))
        cols, scale = self.columns()
        return Matrix.from_int_columns(move_legs(cols, dims[:1], dims[1:], (0, 1), (2,)),
                                       scale, dims[2])


def first_key(left, right):
    """The least key j * rows + r (column j of their input legs, row r) at
    which two Composites differ, or None: each runs on int columns scaled by
    the other's scale a batch (_batches) at a time from column 0, so a
    failure at column c runs that batch and those before."""
    if left.dims != right.dims:
        raise DimensionMismatch("composites on legs of dims %r and %r" % (left.dims, right.dims))
    rows, other_rows = math.prod(left.out_dims), math.prod(right.out_dims)
    if rows != other_rows:
        raise DimensionMismatch("composites land in dims %d and %d" % (rows, other_rows))
    for a, b in zip(_batches(left._plan, left._d_in, right._scale),
                    _batches(right._plan, right._d_in, left._scale)):
        if a != b:
            return min(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    return None


def _batch(plan, d_in, x, start, stop):
    """The image of x times the basis columns start to stop - 1 under a
    plan on d_in columns, as the one sparse vector sum_j x e_j (x) e_j: the
    column index j leads, so entry r of column j's image is at key j * rows
    + r, each column's entries in the order of its run.  The first step's
    image (an empty plan's, the identity's) is written straight from its
    columns, with no sums and no zero filter, since distinct basis columns
    land on distinct keys; _run takes the rest of the plan from there."""
    (cols, _), span, suf, span_out = plan[0] if plan else (([[(0, 1)]], 1), d_in, d_in, d_in)
    vec, step = {}, d_in + 1
    for idx in range(start * step, stop * step, step):
        p = idx // span
        s = idx - p * span
        k = s // suf
        base = p * span_out + s - k * suf
        for r, y in cols[k]:
            vec[base + r * suf] = x * y
    return _run(plan[1:], vec)


def _batches(plan, d_in, x):
    """The images of x times the basis columns in batches (_batch) of
    BATCH_COLUMNS from column 0: one run at once, or a generator of them."""
    if d_in <= BATCH_COLUMNS:
        return (_batch(plan, d_in, x, 0, d_in),)
    return (_batch(plan, d_in, x, start, min(start + BATCH_COLUMNS, d_in))
            for start in range(0, d_in, BATCH_COLUMNS))


def per_leg_matrix(*maps):
    """The Matrix of the tensor product of maps, maps[k] on leg k."""
    dims = tuple(f.cols for f in maps)
    return Composite(layout(dims, [(sparse_columns(f), (k,), (f.rows,))
                                   for k, f in enumerate(maps)]), dims).matrix()


def solve_exact(a, b):
    """Solve the (possibly rectangular) linear system a x = b exactly.

    Returns one solution as a one-column Matrix, the free unknowns 0, or
    None when the system is inconsistent; b must be one column.  For
    a = C / s and b = c / t on int columns the sparse fraction-free
    elimination (_eliminate) of the rows of [C | c] gives C y = c, and
    x = y s / t.  Its pivot columns are those of dense elimination, so the
    free unknowns, and the solution, are too.
    """
    if a.rows != b.rows:
        raise DimensionMismatch("system with %d rows and rhs of dim %d" % (a.rows, b.rows))
    if b.cols != 1:
        raise DimensionMismatch("rhs of shape %dx%d, expected a vector" % (b.rows, b.cols))
    n = a.cols
    cols, s = a._sparse
    (col,), t = b._sparse
    rows = _int_rows(cols + [col], a.rows)
    pivots, _, d = _eliminate(rows, n)
    if any(n in row for row in rows[len(pivots):]):
        return None
    x = [ZERO] * n
    for row, c in zip(rows, pivots):
        x[c] = Fraction(row.get(n, 0) * s, d * t)
    return Matrix([[v] for v in x], cols=1)


# bench/workloads.py builds its trivial comodules by Tensor3.from_function,
# the product-like Matrix of f(i, j, k) = T[i][j][k]; only that name is kept,
# for it alone, and it is no class of maps
Tensor3 = types.SimpleNamespace(from_function=lambda d0, d1, d2, f: Matrix.from_tensor(
    [[[f(i, j, k) for k in range(d2)] for j in range(d1)] for i in range(d0)], (d0, d1, d2)))
