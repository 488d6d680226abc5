"""Exact linear algebra over the rationals, and maps applied to tensor legs.

Everything is exact, ints and Fractions; there is no floating point
anywhere.  Linear maps are column-convention: M[i][j] is the coefficient of
the i-th output basis vector in the image of the j-th input basis vector, so
composition is matrix multiplication and matrices act on coordinate columns.
Tensor-product bases are ordered lexicographically, first factor major:
(i, j) -> i * dim_second + j.

A Matrix is stored as its int-scaled sparse columns (cols, scale), in the
unique form int_columns gives: entries sorted by row within each column and
the scale the lcm of the reduced denominators.  Equality and hashing read
that form.  int_columns is the one reader of scalars: Matrix(rows),
Tensor3(data), Vector(entries) and the io loaders read ints as they are and
"p/q" strings once, straight into that form, and never store a zero.  A
Tensor3 stores one reading, product-like (mult, action) or coproduct-like
(comult, coaction), and re-indexes the same ints for the other; equality
compares the columns.  det, inv and solve_exact share one fraction-free
(Bareiss) elimination on the int rows of the columns, and to_json writes
from the columns, so the dense rows of Fractions, data, are a view built
only when something reads it (to_lists, __getitem__, the oracles).

Identities between composites of maps on tensor legs are decided without
forming the composites.  A step applies a small map, as sparse int-scaled
columns (product_columns, coproduct_columns, per_leg, flip_columns,
insert_columns, pair_columns), to consecutive legs of a sparse vector.  A
composite is planned once, then run on batches of basis columns: the column
index j is one more leading leg, so a batch is the one sparse vector
sum_j e_j (x) e_j and a single pass per step serves all its columns; a
step's output is filtered for zeros only when the step cancelled an entry.
On a composite of at least FOLD_MIN_COLUMNS columns, a step that keeps its
leg count and has at most one entry per column, on distinct rows (mu, its
inverse, alpha, the associators' legs, a flip), makes no pass of its own:
the plan carries it past steps on other legs into the next step on its legs,
whose columns it re-indexes and scales, and drops it where it composes to
the identity, as mu^-1 and mu of consecutive associators do.
first_differing_column compares two composites on column 0, then on
batches of BATCH_COLUMNS columns, and stops at the first batch that
differs; composite_columns gives one composite as int columns, a step for
a further composite, and composite_matrix the Matrix over the same
columns, both run BATCH_COLUMNS columns at a time.  Every
constructed structure map is such a composite: per_leg_matrix gives a
tensor product of maps, and product_tensor and coproduct_tensor give a
multiplication, action, comultiplication or coaction, so no map is written
as an index sum over structure constants or as a Kronecker product.

Matrix and Tensor3 are immutable, so each keeps what is derived from it
once computed: a Matrix its data view, determinant and inverse, a Tensor3
its data and its other reading.  The stored and cached columns are
shared by every caller and are never changed.
"""

import math
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
        # the shared constants, which fill every data view
        return ZERO if x == 0 else ONE if x == 1 else Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError("cannot read %r as an exact rational" % (x,))


def scalar_to_json(x):
    """Render a Fraction as an int (q = 1) or a "p/q" string."""
    if x.denominator == 1:
        return int(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


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


class Vector:
    """Exact vector: its entries as Fractions and, read once at
    construction, the same entries as one int column (col, scale) in the form
    int_columns gives, which insert_columns and pair_columns take."""

    __slots__ = ("entries", "_column")

    def __init__(self, entries):
        entries = entries if isinstance(entries, (list, tuple)) else list(entries)
        (col,), scale = int_columns([entries])
        self._column = col, scale
        self.entries = tuple(_dense_columns(([col], scale), len(entries))[0])

    @staticmethod
    def from_int_column(col, scale, dim):
        """The Vector col / scale of dimension dim, for a list of (index, int)
        pairs with nonzero value in any order and a positive int scale, taken
        over and brought to the form int_columns gives, as
        Matrix.from_int_columns does."""
        (col,), scale = _canonical([col], scale)
        v = Vector.__new__(Vector)
        v._column = col, scale
        v.entries = tuple(_dense_columns(([col], scale), dim)[0])
        return v

    @property
    def dim(self):
        return len(self.entries)

    @staticmethod
    def zero(n):
        return Vector([ZERO] * n)

    @staticmethod
    def basis(n, i):
        return Vector([ONE if j == i else ZERO for j in range(n)])

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __eq__(self, other):
        return isinstance(other, Vector) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __add__(self, other):
        if self.dim != other.dim:
            raise DimensionMismatch("vector dims %d vs %d" % (self.dim, other.dim))
        return Vector([a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        if self.dim != other.dim:
            raise DimensionMismatch("vector dims %d vs %d" % (self.dim, other.dim))
        return Vector([a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self):
        return Vector([-a for a in self.entries])

    def scale(self, c):
        c = scalar(c)
        return Vector([c * a for a in self.entries])

    def is_zero(self):
        return all(a == 0 for a in self.entries)

    def as_column(self):
        return Matrix._of(self.dim, 1, ([self._column[0]], self._column[1]))

    def as_row(self):
        return Matrix._of(1, self.dim, pair_columns(self))

    def __repr__(self):
        return "Vector([%s])" % ", ".join(scalar_str(a) for a in self.entries)


def scalar_str(x):
    s = scalar_to_json(x)
    return str(s)


class Matrix:
    """Exact matrix, stored as its int-scaled sparse columns (cols, scale)
    in the form int_columns gives: the map is cols / scale, cols[j] lists the
    (row, value) pairs of column j with value != 0 in row order, and scale
    is the lcm of the entries' reduced denominators.  That form is unique,
    so equality and hashing read it.  data, the rows as tuples of Fractions,
    is a view built on first read.

    A Matrix is immutable, so it also keeps its determinant and its inverse
    once computed."""

    __slots__ = ("rows", "cols", "_sparse", "_data", "_det", "_inverse")

    def __init__(self, rows_data, rows=None, cols=None):
        data = [r if isinstance(r, (list, tuple)) else tuple(r) for r in rows_data]
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        if len(data) != rows or any(len(r) != cols for r in data):
            int_columns(data)       # an unreadable entry is named before the shape
            raise DimensionMismatch("ragged or mis-shaped matrix data")
        self.rows, self.cols, self._data, self._det, self._inverse = rows, cols, None, None, None
        self._sparse = int_columns(zip(*data) if rows else [()] * cols)

    @staticmethod
    def _of(rows, cols, sparse):
        """A Matrix over columns already in the form int_columns gives."""
        m = Matrix.__new__(Matrix)
        m.rows, m.cols, m._sparse = rows, cols, sparse
        m._data = m._det = m._inverse = None
        return m

    @staticmethod
    def from_int_columns(cols, scale, rows):
        """The Matrix cols / scale with the given number of rows, for lists of
        (row, int) pairs with nonzero value in any row order and a positive
        int scale, as composite_columns gives them.  The lists are taken
        over: each is sorted by row, and the values and the scale are divided
        by their gcd, so the Matrix stores the form int_columns gives."""
        return Matrix._of(rows, len(cols), _canonical(cols, scale))

    @property
    def data(self):
        """The rows as tuples of Fractions, built on first read."""
        if self._data is None:
            cols = _dense_columns(self._sparse, self.rows)
            self._data = tuple(zip(*cols)) if cols else ((),) * self.rows
        return self._data

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

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def row(self, i):
        return self.transpose().column(i)

    def column(self, j):
        cols, scale = self._sparse
        return Vector.from_int_column(list(cols[j]), scale, self.rows)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self._sparse == other._sparse)

    def __hash__(self):
        cols, scale = self._sparse
        return hash((self.rows, self.cols, scale, tuple(map(tuple, cols))))

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("add %dx%d with %dx%d"
                                    % (self.rows, self.cols, other.rows, other.cols))
        return Matrix([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
                      rows=self.rows, cols=self.cols)

    def __sub__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("sub %dx%d with %dx%d"
                                    % (self.rows, self.cols, other.rows, other.cols))
        return Matrix([[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
                      rows=self.rows, cols=self.cols)

    def __neg__(self):
        return Matrix([[-a for a in row] for row in self.data], rows=self.rows, cols=self.cols)

    def scale(self, c):
        c = scalar(c)
        return Matrix([[c * a for a in row] for row in self.data], rows=self.rows, cols=self.cols)

    def __mul__(self, other):
        """Composition self o other (also accepts a Vector on the right),
        the composite of the two maps' int columns."""
        if isinstance(other, Vector):
            return self.apply(other)
        if self.cols != other.rows:
            raise DimensionMismatch("compose %dx%d with %dx%d"
                                    % (self.rows, self.cols, other.rows, other.cols))
        return composite_matrix(per_leg(other) + per_leg(self), (other.cols,))

    def apply(self, v):
        if self.cols != v.dim:
            raise DimensionMismatch("apply %dx%d to dim-%d vector"
                                    % (self.rows, self.cols, v.dim))
        (vcol, t), (cols, s) = v._column, self._sparse
        out = {}
        for j, y in vcol:
            for i, x in cols[j]:
                out[i] = out.get(i, 0) + x * y
        return Vector.from_int_column([(i, x) for i, x in out.items() if x], s * t, self.rows)

    def transpose(self):
        cols, scale = self._sparse
        out = [[] for _ in range(self.rows)]
        for j, col in enumerate(cols):
            for r, x in col:
                out[r].append((j, x))
        return Matrix._of(self.cols, self.rows, (out, scale))

    def is_identity(self):
        return self == Matrix.identity(self.rows)

    def is_zero(self):
        return not any(self._sparse[0])

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
        fraction-free elimination of [C | I] for self = C / scale: it ends at
        [d I | d C^-1] with d = +-det C, so self^-1 = scale C^-1."""
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of a %dx%d matrix" % (self.rows, self.cols))
        n = self.rows
        cols, scale = self._sparse
        rows = _int_rows(cols, n, n + n)
        for i in range(n):
            rows[i][n + i] = 1
        pivots, sign, d = _eliminate(rows, n)
        if len(pivots) < n:
            self._det = ZERO
            return
        self._det = Fraction(sign * d, scale ** n)
        if d < 0:
            scale, d = -scale, -d
        inverse = [[(i, row[j] * scale) for i, row in enumerate(rows) if row[j]]
                   for j in range(n, n + n)]
        self._inverse = Matrix.from_int_columns(inverse, d, n)

    def __pow__(self, k):
        if self.rows != self.cols:
            raise DimensionMismatch("power of a non-square matrix")
        if k < 0:
            return self.inv() ** (-k)
        out = Matrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def to_lists(self):
        return [list(row) for row in self.data]

    def to_json(self):
        """The rows as ints and "p/q" strings, written from the columns."""
        out = [[0] * self.cols for _ in range(self.rows)]
        cols, scale = self._sparse
        for j, col in enumerate(cols):
            for i, x in col:
                out[i][j] = _json_scalar(x, scale)
        return out

    def __repr__(self):
        if self.rows * self.cols > 64:
            return "Matrix(%dx%d)" % (self.rows, self.cols)
        return "Matrix(%s)" % "; ".join(
            " ".join(scalar_str(x) for x in row) for row in self.data)


def _dense_columns(sparse, rows):
    """Columns (cols, scale), as int_columns gives them, as dense lists of
    Fractions of length rows."""
    cols, scale = sparse
    out = [[ZERO] * rows for _ in cols]
    for dense, col in zip(out, cols):
        for r, x in col:
            dense[r] = Fraction(x, scale)
    return out


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


def _json_scalar(x, scale):
    """The entry x / scale as an int or a "p/q" string, as scalar_to_json
    writes it."""
    if scale == 1:
        return x
    g = math.gcd(x, scale)
    return x // g if g == scale else "%d/%d" % (x // g, scale // g)


def _int_rows(cols, rows, width):
    """The int columns cols as dense int rows, padded with zeros to width."""
    out = [[0] * width for _ in range(rows)]
    for j, col in enumerate(cols):
        for i, x in col:
            out[i][j] = x
    return out


def _eliminate(rows, width):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of int rows, in
    place, with pivots in the first width columns: (pivot columns, sign of
    the row swaps, last pivot d).  Each pivot is the first nonzero entry at
    or below its row.  After k pivots every entry is the k-th leading pivot
    minor times that of the reduced row echelon form, so every division is
    exact (Sylvester's identity) and the entries stay ints; at the end each
    pivot entry is d, the leading minor of the pivot rows and columns."""
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


def sparse_columns(m):
    """The columns of the Matrix m as int_columns gives them: its stored
    form, shared, so the lists are not to be changed."""
    return m._sparse


def product_columns(t):
    """The columns (i, j) -> sum_k t[i][j][k] e_k of a product-like Tensor3
    (a multiplication or an action), as int_columns gives them; stored, or
    re-indexed once from the coproduct-like columns, and shared like
    sparse_columns."""
    if t._product is None:
        cols, scale = t._coproduct
        d1, d2 = t.d1, t.d2
        out = [[] for _ in range(t.d0 * d1)]
        for i, col in enumerate(cols):
            for r, x in col:
                j, k = divmod(r, d2)
                out[i * d1 + j].append((k, x))
        t._product = out, scale
    return t._product


def coproduct_columns(t):
    """The columns i -> sum_jk t[i][j][k] e_j (x) e_k of a coproduct-like
    Tensor3 (a comultiplication or a coaction), as int_columns gives them;
    stored, or re-indexed once from the product-like columns, and shared
    like sparse_columns."""
    if t._coproduct is None:
        cols, scale = t._product
        d1, d2 = t.d1, t.d2
        t._coproduct = [[(j * d2 + k, x) for j in range(d1) for k, x in cols[i * d1 + j]]
                        for i in range(t.d0)], scale
    return t._coproduct


def per_leg(*maps):
    """Steps applying maps[k] to leg k: the tensor product of the maps."""
    return [(sparse_columns(f), (k,), (f.rows,)) for k, f in enumerate(maps)]


def flip_columns(d0, d1):
    """The swap X (x) Y -> Y (x) X of legs of dims d0, d1; as a step its
    out_dims are (d1, d0)."""
    return [[(j * d0 + i, 1)] for i in range(d0) for j in range(d1)], 1


def _element_column(element):
    """The flat coordinates of an element, a Vector or a Matrix, as one int
    column (col, scale) in the form int_columns gives, and their number: a
    Vector's own column; for a Matrix (R, an element of a tensor square, or
    a bilinear form) entry [i][j] at i * cols + j, re-indexed from its
    columns."""
    if isinstance(element, Vector):
        return element._column, element.dim
    cols, scale = element._sparse
    n = element.cols
    return (sorted((i * n + j, x) for j, col in enumerate(cols) for i, x in col),
            scale), element.rows * n


def insert_columns(element, d):
    """x -> element (x) x on a leg of dim d, for an element given as a Vector
    (a unit) or by its flat coordinates in a Matrix (R); as a step its
    out_dims are the element's legs, then d."""
    (col, scale), _ = _element_column(element)
    return [[(k * d + o, x) for k, x in col] for o in range(d)], scale


def pair_columns(covector):
    """The pairing with a covector given as a Vector (a counit) or by its
    flat coordinates in a Matrix (a form); as a step its out_dims are ()."""
    (col, scale), size = _element_column(covector)
    out = [[] for _ in range(size)]
    for k, x in col:
        out[k].append((0, x))
    return out, scale


# the most basis columns a composite runs in one batch, which bounds the
# sparse vectors a step holds
BATCH_COLUMNS = 256

# the fewest input columns of a composite whose one-entry-per-column steps
# _plan folds away: a fold is a pass over the next step's columns at plan
# time, which the 4-27-column composites of the Hom-Long search do not win
# back; folded at every size, the search-grid benchmark ran 0.9x as many ops
# per reference time, its tail op 1.2x as costly (seven 8 s pairs, 2 vCPUs)
FOLD_MIN_COLUMNS = 64


def _plan(steps, dims):
    """Check a composite's legs and column counts on the legs dims once,
    exactly as the steps are given: (plan, out_dims, scale), a planned step
    being (cols, blk_in * suf, suf, blk_out * suf) for its block, the legs
    after it and its image.

    A composite of at least FOLD_MIN_COLUMNS input columns, with no
    0-dimensional leg, is then planned again without its steps that keep
    their leg count and have at most one entry per column, on distinct rows
    (mu, mu^-1, alpha, the associators' legs, flips): _fold carries each one
    forward into the next step on its legs, so _run makes no pass of its own
    for it.  A smaller composite keeps its one plan.  The composite's value
    is the same; scale is the product of the scales of the planned steps,
    which is the product of all the steps' scales unless a carried map
    cancelled to the identity (mu then mu^-1) and was dropped with its
    scales."""
    plan, shaped, d, scale = [], [], tuple(dims), 1
    for (cols, sc), legs, out in steps:
        first, stop = legs[0], legs[-1] + 1
        ins = d[first:stop]
        blk_in, suf = math.prod(ins), math.prod(d[stop:])
        if tuple(legs) != tuple(range(first, stop)) or stop > len(d) or len(cols) != blk_in:
            raise DimensionMismatch("map with %d columns on legs %r of %r" % (len(cols), legs, d))
        out = ins if out is None else tuple(out)
        plan.append((cols, blk_in * suf, suf, math.prod(out) * suf))
        shaped.append((cols, sc, first, ins, out))
        d, scale = d[:first] + out + d[stop:], scale * sc
    # every leg a step meets is an input leg or lands from a step, so none
    # is 0-dimensional when neither is
    if math.prod(dims) < FOLD_MIN_COLUMNS or any(0 in s[4] for s in shaped):
        return plan, d, scale
    plan, d, scale = [], tuple(dims), 1
    for cols, sc, first, ins, out in _fold(shaped):
        stop = first + len(ins)
        suf = math.prod(d[stop:])
        plan.append((cols, math.prod(ins) * suf, suf, math.prod(out) * suf))
        d, scale = d[:first] + out + d[stop:], scale * sc
    return plan, d, scale


def _fold(steps):
    """Steps (cols, scale, first leg, in dims, out dims) with the same
    composite, each one-entry-per-column step carried forward: past steps on
    other legs (its first leg shifted when they change the leg count), into
    the next step whose block holds its legs, and dropped when what it
    composed to is the identity; it is put back as a step of its own before
    a step that holds part of its legs, and at the end.  Carried steps lie on
    disjoint legs and commute with the steps they pass, and a map with one
    entry per column on distinct rows never cancels, so every column's image
    is the same, its entries in the same order, up to the scales of a
    dropped identity."""
    out, carried = [], []
    for step in steps:
        _, _, first, ins, outs = step
        stop = first + len(ins)
        foldable = len(outs) == len(ins) and _one_entry_per_column(step[0])
        held, folded = [], False
        for c in carried:
            c_first, c_stop = c[2], c[2] + len(c[3])
            if first <= c_first and c_stop <= stop:
                step, folded = _fold_into(c, step), True
            elif c_stop <= first:
                held.append(c)
            elif stop <= c_first:
                held.append(c[:2] + (c_first + len(outs) - len(ins),) + c[3:])
            else:
                out.append(c)
        carried = held
        if not foldable:
            out.append(step)
        elif not (folded and _is_identity(step)):
            carried.append(step)
    return out + carried


def _one_entry_per_column(cols):
    """Whether every column holds at most one entry, no two on one row."""
    rows = set()
    for c in cols:
        if len(c) > 1:
            return False
        if c:
            rows.add(c[0][0])
    return len(rows) == sum(map(bool, cols))


def _is_identity(step):
    """Whether a one-entry-per-column step composed by _fold is the
    identity: every column j is [(j, scale)] and it keeps its legs' dims."""
    cols, scale, _, ins, outs = step
    return ins == outs and all(c and c[0] == (j, scale) for j, c in enumerate(cols))


def _fold_into(carried, step):
    """The step `step` after the one-entry-per-column step `carried`, whose
    legs lie in its block, as one step: its columns re-indexed and scaled by
    carried's entries, the carried legs taking carried's input dims."""
    c_cols, c_scale, c_first, c_ins, c_outs = carried
    cols, scale, first, ins, outs = step
    k = c_first - first
    suf = math.prod(ins[k + len(c_ins):])
    span = math.prod(c_outs) * suf
    folded, empty = [], [[]] * suf
    for p in range(0, math.prod(ins[:k]) * span, span):
        for c in c_cols:
            if not c:
                folded += empty
                continue
            (r, x), = c
            block = cols[p + r * suf:p + (r + 1) * suf]
            folded += block if x == 1 else [[(i, x * y) for i, y in col] for col in block]
    return folded, c_scale * scale, first, ins[:k] + c_ins + ins[k + len(c_ins):], outs


def _run(plan, vec):
    """The image of a sparse vector under a planned composite, with no zero
    value after any step: a step's output is kept as it is and rebuilt
    without its zeros only when the step cancelled an entry.  An entry's
    flat index is split into (p, k, s), its legs before the step's block,
    its block column and its legs after it, by // and -."""
    for cols, span, suf, span_out in plan:
        out = {}
        get = out.get
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


def apply_on_legs(map_cols, legs, dims, vec, out_dims=None):
    """Apply a map, as int columns landing in the legs out_dims (by default
    its input legs), to the consecutive legs `legs` of a sparse vector (a
    dict from flat index on the legs dims to coefficient): the image on
    dims[:legs[0]] + out_dims + dims[legs[-1] + 1:], zero values dropped.
    The one step is planned alone, so no other step is folded into it."""
    plan, _, _ = _plan([((map_cols, 1), legs, out_dims)], dims)
    return _run(plan, vec)


def _run_batch(plan, start, stop, d_in, x):
    """The images of x times the basis columns start, ..., stop - 1 of the
    d_in input columns under a planned composite, run as one batch: the
    sparse vector sum_j x e_j (x) e_j, whose leading leg is the column index
    j, so entry r of column j's image is at key j * d_out + r.  Keys of two
    columns never meet, so each column's entries come in the order of its
    own run."""
    return _run(plan, {j * d_in + j: x for j in range(start, stop)})


def first_differing_column(lhs, rhs, dims):
    """The first basis tuple of the tensor legs dims, in lexicographic
    order, on which two composites differ; None when they are equal.

    A composite is a sequence of steps (map, legs, out_dims), applied in
    order; map is (cols, scale) as sparse_columns gives it.  Both are
    planned, and so checked, before any column is run.  A side run on int
    columns is its true value times its scales, so each side starts from
    the other side's product.  Both sides run column 0 alone, then
    BATCH_COLUMNS columns at a time, so a failure at column c runs
    min(d, 1 + ceil(c / BATCH_COLUMNS) * BATCH_COLUMNS) of the d columns a
    side, and the witness is the least differing column of that batch.  A
    failure at a column c from 1 to about 127 runs more columns than the
    2(c + 1) of batches doubling from one column, a pass far fewer runs."""
    (lplan, ld, lscale), (rplan, rd, rscale) = _plan(lhs, dims), _plan(rhs, dims)
    d_in, d_out = math.prod(dims), math.prod(ld)
    if d_out != math.prod(rd):
        raise DimensionMismatch("composites land in dims %d and %d" % (d_out, math.prod(rd)))
    start, stop = 0, 1
    while start < d_in:
        left = _run_batch(lplan, start, stop, d_in, rscale)
        right = _run_batch(rplan, start, stop, d_in, lscale)
        if left != right:
            key = min(k for k in left.keys() | right.keys() if left.get(k) != right.get(k))
            return unflat_index(key // d_out, dims)
        start, stop = stop, min(stop + BATCH_COLUMNS, d_in)
    return None


def _composite(steps, dims):
    """(cols, scale, rows) of a composite of steps on the legs dims, the
    columns in run order and the scale that of its plan (see _plan)."""
    plan, out_dims, scale = _plan(steps, dims)
    d_in, rows = math.prod(dims), math.prod(out_dims)
    cols = [[] for _ in range(d_in)]
    for start in range(0, d_in, BATCH_COLUMNS):
        for key, x in _run_batch(plan, start, min(start + BATCH_COLUMNS, d_in), d_in, 1).items():
            j, r = divmod(key, rows)
            cols[j].append((r, x))
    return cols, scale, rows


def composite_columns(steps, dims):
    """A composite of steps on the tensor legs dims, as first_differing_column
    takes them, as (cols, scale): a step for a further composite, with no
    Fraction on the way.  Each column's entries come in the order of its
    run, with no zero among them, and the scale is the unreduced product of
    the steps' scales, less those of a one-entry-per-column map that _plan
    found to cancel to the identity (mu then mu^-1) on a composite of at
    least FOLD_MIN_COLUMNS columns; Matrix.from_int_columns sorts and
    reduces them to the canonical form int_columns gives."""
    cols, scale, _ = _composite(steps, dims)
    return cols, scale


def composite_matrix(steps, dims):
    """The Matrix on the tensor legs dims of a composite of steps, as
    first_differing_column takes them: the int columns of the run, with no
    dense fill and no Fraction on the way."""
    return Matrix.from_int_columns(*_composite(steps, dims))


def per_leg_matrix(*maps):
    """The Matrix of the tensor product of maps, maps[k] on leg k."""
    return composite_matrix(per_leg(*maps), tuple(f.cols for f in maps))


def product_tensor(steps, dims, first=1):
    """The product-like Tensor3 (a multiplication or an action) of a
    composite of steps on the legs dims; its first input is the first
    `first` legs and its second the others."""
    return Tensor3.from_in2_out1(composite_matrix(steps, dims), math.prod(dims[:first]),
                                 math.prod(dims[first:]))


def coproduct_tensor(steps, dims, first_out):
    """The coproduct-like Tensor3 (a comultiplication or a coaction) of a
    composite of steps on the legs dims; its first output has dim first_out."""
    m = composite_matrix(steps, dims)
    return Tensor3.from_in1_out2(m, first_out, m.rows // first_out)


def solve_exact(a, b):
    """Solve the (possibly rectangular) linear system a x = b exactly.

    Returns one solution Vector, the free unknowns 0, or None when the
    system is inconsistent.  For a = C / s and b = c / t on int columns the
    fraction-free elimination of [C | c] gives C y = c, and x = y s / t.
    """
    if a.rows != b.dim:
        raise DimensionMismatch("system with %d rows and rhs of dim %d" % (a.rows, b.dim))
    n = a.cols
    cols, s = a._sparse
    col, t = b._column
    rows = _int_rows(cols + [col], a.rows, n + 1)
    pivots, _, d = _eliminate(rows, n)
    if any(row[n] for row in rows[len(pivots):]):
        return None
    x = [ZERO] * n
    for row, c in zip(rows, pivots):
        x[c] = Fraction(row[n] * s, d * t)
    return Vector(x)


class Tensor3:
    """Structure-constant tensor T[i][j][k] with three named legs.

    Two readings cover every use:
      * product-like (mult, action): inputs (i, j), output k;
      * coproduct-like (comult, coaction): input i, outputs (j, k).
    A Tensor3 stores one reading as int columns in the form int_columns
    gives (product_columns, or coproduct_columns when made with coproduct
    set), and derives the other from it by re-indexing the same ints.
    Equality and hashing read the columns.
    """

    __slots__ = ("d0", "d1", "d2", "_data", "_product", "_coproduct")

    def __init__(self, data, dims=None, coproduct=False):
        data = [[r if isinstance(r, (list, tuple)) else tuple(r) for r in plane]
                for plane in data]
        if dims is not None:
            d0, d1, d2 = dims
        else:
            d0 = len(data)
            d1 = len(data[0]) if d0 else 0
            d2 = len(data[0][0]) if d0 and d1 else 0
        if len(data) != d0 or any(len(p) != d1 for p in data) or any(
                len(r) != d2 for p in data for r in p):
            int_columns(r for p in data for r in p)     # entries are named first
            raise DimensionMismatch("ragged tensor data")
        self.d0, self.d1, self.d2 = d0, d1, d2
        self._data, self._product, self._coproduct = None, None, None
        if coproduct:
            self._coproduct = int_columns([x for r in p for x in r] for p in data)
        else:
            self._product = int_columns(r for p in data for r in p)

    @property
    def data(self):
        """T[i][j][k] as nested tuples of Fractions; built on first read for
        a tensor made from a Matrix's columns."""
        if self._data is None:
            d1, d2 = self.d1, self.d2
            if self._product is not None:
                cols = _dense_columns(self._product, d2)
                self._data = tuple(tuple(map(tuple, cols[i * d1:(i + 1) * d1]))
                                   for i in range(self.d0))
            else:
                self._data = tuple(tuple(tuple(c[j * d2:(j + 1) * d2]) for j in range(d1))
                                   for c in _dense_columns(self._coproduct, d1 * d2))
        return self._data

    @staticmethod
    def zeros(d0, d1, d2):
        return Tensor3._of((d0, d1, d2), product=([[] for _ in range(d0 * d1)], 1))

    @staticmethod
    def from_function(d0, d1, d2, f):
        return Tensor3([[[f(i, j, k) for k in range(d2)] for j in range(d1)]
                        for i in range(d0)], dims=(d0, d1, d2))

    def __getitem__(self, ijk):
        i, j, k = ijk
        return self.data[i][j][k]

    def __eq__(self, other):
        if not isinstance(other, Tensor3) or self.dims != other.dims:
            return False
        if self._coproduct is not None and other._coproduct is not None:
            return self._coproduct == other._coproduct
        return product_columns(self) == product_columns(other)

    def __hash__(self):
        cols, scale = product_columns(self)
        return hash((self.dims, scale, tuple(map(tuple, cols))))

    @property
    def dims(self):
        return (self.d0, self.d1, self.d2)

    def is_zero(self):
        return not any((self._product or self._coproduct)[0])

    def flatten_in2_out1(self):
        """Matrix of the map X (x) Y -> Z with T[i][j][k] = coeff of z_k in x_i y_j."""
        return Matrix._of(self.d2, self.d0 * self.d1, product_columns(self))

    def flatten_in1_out2(self):
        """Matrix of the map X -> Y (x) Z with T[i][j][k] = coeff of y_j z_k at x_i."""
        return Matrix._of(self.d1 * self.d2, self.d0, coproduct_columns(self))

    @staticmethod
    def from_in2_out1(m, d0, d1):
        """Inverse of flatten_in2_out1 for a matrix with d0*d1 columns: m's
        columns are the tensor's product_columns, and its data is built on
        first read."""
        if m.cols != d0 * d1:
            raise DimensionMismatch("matrix has %d columns, expected %d" % (m.cols, d0 * d1))
        return Tensor3._of((d0, d1, m.rows), product=sparse_columns(m))

    @staticmethod
    def from_in1_out2(m, d1, d2):
        """Inverse of flatten_in1_out2 for a matrix with d1*d2 rows: m's
        columns are the tensor's coproduct_columns, and its data is built on
        first read."""
        if m.rows != d1 * d2:
            raise DimensionMismatch("matrix has %d rows, expected %d" % (m.rows, d1 * d2))
        return Tensor3._of((m.cols, d1, d2), coproduct=sparse_columns(m))

    @staticmethod
    def _of(dims, product=None, coproduct=None):
        """A Tensor3 over the columns of its product-like or coproduct-like
        Matrix, in the form int_columns gives."""
        t = Tensor3.__new__(Tensor3)
        t.d0, t.d1, t.d2 = dims
        t._data, t._product, t._coproduct = None, product, coproduct
        return t

    def to_json(self):
        """T[i][j][k] as nested lists of ints and "p/q" strings, written from
        the stored columns."""
        d1, d2 = self.d1, self.d2
        out = [[[0] * d2 for _ in range(d1)] for _ in range(self.d0)]
        if self._product is not None:
            cols, scale = self._product
            for c, col in enumerate(cols):
                row = out[c // d1][c % d1]
                for k, x in col:
                    row[k] = _json_scalar(x, scale)
        else:
            cols, scale = self._coproduct
            for i, col in enumerate(cols):
                plane = out[i]
                for r, x in col:
                    plane[r // d2][r % d2] = _json_scalar(x, scale)
        return out

    def __repr__(self):
        return "Tensor3(%dx%dx%d)" % self.dims
