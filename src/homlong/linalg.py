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
that form.  Its dense rows of Fractions, data, are a view built only when
something reads them (io output, det, inv, solve_exact, to_lists).  A
Tensor3 built from a composite (product_tensor, coproduct_tensor) holds the
same columns as its product_columns or coproduct_columns and builds its data
on first read; a Tensor3 read from a file or a fixture is coerced from its
entries.

Identities between composites of maps on tensor legs are decided without
forming the composites.  A step applies a small map, as sparse int-scaled
columns (product_columns, coproduct_columns, per_leg, flip_columns,
insert_columns, pair_columns), to consecutive legs of a sparse vector.  A
composite is planned once, then run on batches of basis columns: the column
index j is one more leading leg, so a batch is the one sparse vector
sum_j e_j (x) e_j and a single pass per step serves all its columns.
first_differing_column compares two composites on batches of 1, 2, 4, ...
columns, up to BATCH_COLUMNS, so a failure at column c runs fewer than
2(c + 1) columns a side; composite_columns gives one composite as int
columns, a step for a further composite, and composite_matrix the Matrix
over the same columns, both run BATCH_COLUMNS columns at a time.  Every
constructed structure map is such a composite: per_leg_matrix gives a
tensor product of maps, and product_tensor and coproduct_tensor give a
multiplication, action, comultiplication or coaction, so no map is written
as an index sum over structure constants or as a Kronecker product.

Matrix and Tensor3 are immutable, so each keeps what is derived from it
once computed: a Matrix its data view and its inverse, a Tensor3 its data,
product_columns and coproduct_columns.  The stored and cached columns are
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
        # the shared constants; int_columns skips ZERO by identity
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
    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(scalar(x) for x in entries)

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
        return Matrix([[a] for a in self.entries], rows=self.dim, cols=1)

    def as_row(self):
        return Matrix([list(self.entries)], rows=1, cols=self.dim)

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
    is a view built on first read (kept from construction when the Matrix
    was made from rows).

    A Matrix is immutable, so it also keeps its inverse once computed."""

    __slots__ = ("rows", "cols", "_sparse", "_data", "_inverse")

    def __init__(self, rows_data, rows=None, cols=None):
        data = tuple(tuple(scalar(x) for x in row) for row in rows_data)
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        if len(data) != rows or any(len(r) != cols for r in data):
            raise DimensionMismatch("ragged or mis-shaped matrix data")
        self.rows, self.cols, self._data, self._inverse = rows, cols, data, None
        self._sparse = int_columns(_columns(self))

    @staticmethod
    def _of(rows, cols, sparse, data=None):
        """A Matrix over columns already in the form int_columns gives."""
        m = Matrix.__new__(Matrix)
        m.rows, m.cols, m._sparse, m._data, m._inverse = rows, cols, sparse, data, None
        return m

    @staticmethod
    def trusted(data, rows, cols):
        """A Matrix over row tuples of Fractions that the library computed
        itself: no coercion and no shape check."""
        m = Matrix._of(rows, cols, None, tuple(data))
        m._sparse = int_columns(_columns(m))
        return m

    @staticmethod
    def from_int_columns(cols, scale, rows):
        """The Matrix cols / scale with the given number of rows, for lists of
        (row, int) pairs with nonzero value in any row order and a positive
        int scale, as composite_columns gives them.  The lists are taken
        over: each is sorted by row, and the values and the scale are divided
        by their gcd, so the Matrix stores the form int_columns gives."""
        g = math.gcd(scale, *(x for c in cols for _, x in c)) if scale != 1 else 1
        if g != 1:
            cols, scale = [[(r, x // g) for r, x in c] for c in cols], scale // g
        for c in cols:
            c.sort()
        return Matrix._of(rows, len(cols), (cols, scale))

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
        entries = [scalar(x) for x in entries]
        n = len(entries)
        return Matrix([[entries[i] if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def from_function(rows, cols, f):
        return Matrix([[f(i, j) for j in range(cols)] for i in range(rows)],
                      rows=rows, cols=cols)

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def row(self, i):
        return Vector(self.data[i])

    def column(self, j):
        return Vector([self.data[i][j] for i in range(self.rows)])

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
        return Vector([sum((a * b for a, b in zip(row, v.entries)), ZERO) for row in self.data])

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
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of a %dx%d matrix" % (self.rows, self.cols))
        n = self.rows
        a = [list(row) for row in self.data]
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

    def inv(self):
        """Exact inverse, computed once; raises SingularMatrix when the
        determinant vanishes."""
        if self._inverse is not None:
            return self._inverse
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a %dx%d matrix" % (self.rows, self.cols))
        n = self.rows
        a = [list(row) + [ONE if i == j else ZERO for j in range(n)]
             for i, row in enumerate(self.data)]
        for c in range(n):
            piv = next((r for r in range(c, n) if a[r][c] != 0), None)
            if piv is None:
                raise SingularMatrix("matrix is singular")
            if piv != c:
                a[c], a[piv] = a[piv], a[c]
            inv = ONE / a[c][c]
            a[c] = [x * inv for x in a[c]]
            for r in range(n):
                if r != c and a[r][c]:
                    f = a[r][c]
                    a[r] = [x - f * y for x, y in zip(a[r], a[c])]
        self._inverse = Matrix.trusted((tuple(row[n:]) for row in a), n, n)
        return self._inverse

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
        return [[scalar_to_json(x) for x in row] for row in self.data]

    def __repr__(self):
        if self.rows * self.cols > 64:
            return "Matrix(%dx%d)" % (self.rows, self.cols)
        return "Matrix(%s)" % "; ".join(
            " ".join(scalar_str(x) for x in row) for row in self.data)


def _columns(m):
    """The columns of the Matrix m as tuples."""
    return list(zip(*m.data)) if m.rows else [()] * m.cols


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
    """Dense columns of rationals as (cols, scale): the map is cols / scale,
    where cols[j] lists the (row, value) pairs of column j with value != 0
    and every value is an int."""
    # the shared ZERO, which fills computed matrices, is skipped by identity
    # before the slower Fraction truth test
    cols = [[(r, x) for r, x in enumerate(c) if x is not ZERO and x] for c in columns]
    scale = math.lcm(*(x.denominator for c in cols for _, x in c))
    return [[(r, x.numerator * (scale // x.denominator)) for r, x in c] for c in cols], scale


def sparse_columns(m):
    """The columns of the Matrix m as int_columns gives them: its stored
    form, shared, so the lists are not to be changed."""
    return m._sparse


def product_columns(t):
    """The columns (i, j) -> sum_k t[i][j][k] e_k of a product-like Tensor3
    (a multiplication or an action), as int_columns; computed once and
    shared like sparse_columns."""
    if t._product is None:
        t._product = int_columns(row for plane in t.data for row in plane)
    return t._product


def coproduct_columns(t):
    """The columns i -> sum_jk t[i][j][k] e_j (x) e_k of a coproduct-like
    Tensor3 (a comultiplication or a coaction), as int_columns; computed once
    and shared like sparse_columns."""
    if t._coproduct is None:
        t._coproduct = int_columns([x for row in plane for x in row] for plane in t.data)
    return t._coproduct


def per_leg(*maps):
    """Steps applying maps[k] to leg k: the tensor product of the maps."""
    return [(sparse_columns(f), (k,), (f.rows,)) for k, f in enumerate(maps)]


def flip_columns(d0, d1):
    """The swap X (x) Y -> Y (x) X of legs of dims d0, d1; as a step its
    out_dims are (d1, d0)."""
    return [[(j * d0 + i, 1)] for i in range(d0) for j in range(d1)], 1


def insert_columns(element, d):
    """x -> element (x) x on a leg of dim d, for an element's flat coordinates
    (a unit, or R); as a step its out_dims are the element's legs, then d."""
    (col,), scale = int_columns([element])
    return [[(k * d + o, x) for k, x in col] for o in range(d)], scale


def pair_columns(covector):
    """The pairing with a covector given by its flat coordinates (a counit,
    or a form); as a step its out_dims are ()."""
    return int_columns([x] for x in covector)


# the most basis columns a composite runs in one batch, which bounds the
# sparse vectors a step holds
BATCH_COLUMNS = 256


def _plan(steps, dims):
    """Check a composite's legs and column counts on the legs dims once:
    (plan, out_dims, product of the scales), a planned step being (cols,
    blk_in * suf, suf, blk_out * suf) for its block, the legs after it and its image."""
    plan, d, scale = [], tuple(dims), 1
    for (cols, sc), legs, out in steps:
        first, stop = legs[0], legs[-1] + 1
        blk_in, suf = math.prod(d[first:stop]), math.prod(d[stop:])
        if tuple(legs) != tuple(range(first, stop)) or stop > len(d) or len(cols) != blk_in:
            raise DimensionMismatch("map with %d columns on legs %r of %r" % (len(cols), legs, d))
        out = d[first:stop] if out is None else tuple(out)
        plan.append((cols, blk_in * suf, suf, math.prod(out) * suf))
        d, scale = d[:first] + out + d[stop:], scale * sc
    return plan, d, scale


def _run(plan, vec):
    """The image of a sparse vector under a planned composite, with zero
    values dropped after every step."""
    for cols, span, suf, span_out in plan:
        out = {}
        get = out.get
        for idx, x in vec.items():
            p, rest = divmod(idx, span)
            k, s = divmod(rest, suf)
            base = p * span_out + s
            for r, y in cols[k]:
                key = base + r * suf
                out[key] = get(key, 0) + x * y
        vec = {key: x for key, x in out.items() if x}
    return vec


def apply_on_legs(map_cols, legs, dims, vec, out_dims=None):
    """Apply a map, as int columns landing in the legs out_dims (by default
    its input legs), to the consecutive legs `legs` of a sparse vector (a
    dict from flat index on the legs dims to coefficient): the image on
    dims[:legs[0]] + out_dims + dims[legs[-1] + 1:], zero values dropped."""
    plan, _, _ = _plan([((map_cols, 1), legs, out_dims)], dims)
    return _run(plan, vec)


def _run_columns(plan, start, stop, d_in, x):
    """The images of x times the basis columns start, ..., stop - 1 of the
    d_in input columns under a planned composite, run as one batch: the
    sparse vector sum_j x e_j (x) e_j, whose leading leg is the column index
    j, so entry r of column j's image is at key j * d_out + r.  Keys of two
    columns never meet, so each column's entries come in the order of its
    own run."""
    return _run(plan, {j * d_in + j: x for j in range(start, stop)})


def _entries(plan, d_in, d_out):
    """(j, r, x) for every entry x in row r of column j of a planned
    composite, the columns in order and run BATCH_COLUMNS at a time."""
    for start in range(0, d_in, BATCH_COLUMNS):
        batch = _run_columns(plan, start, min(start + BATCH_COLUMNS, d_in), d_in, 1)
        for key, x in batch.items():
            j, r = divmod(key, d_out)
            yield j, r, x


def first_differing_column(lhs, rhs, dims):
    """The first basis tuple of the tensor legs dims, in lexicographic
    order, on which two composites differ; None when they are equal.

    A composite is a sequence of steps (map, legs, out_dims), applied in
    order; map is (cols, scale) as sparse_columns gives it.  Both are
    planned, and so checked, before any column is run.  A side run on int
    columns is its true value times its scales, so each side starts from
    the other side's product.  The columns run in batches of 1, 2, 4, ...,
    up to BATCH_COLUMNS, so a failure at column c costs fewer than 2(c + 1)
    columns a side."""
    (lplan, ld, lscale), (rplan, rd, rscale) = _plan(lhs, dims), _plan(rhs, dims)
    d_in, d_out = math.prod(dims), math.prod(ld)
    if d_out != math.prod(rd):
        raise DimensionMismatch("composites land in dims %d and %d" % (d_out, math.prod(rd)))
    start, size = 0, 1
    while start < d_in:
        stop = min(start + size, d_in)
        left = _run_columns(lplan, start, stop, d_in, rscale)
        right = _run_columns(rplan, start, stop, d_in, lscale)
        if left != right:
            key = min(k for k in left.keys() | right.keys() if left.get(k) != right.get(k))
            return unflat_index(key // d_out, dims)
        start, size = stop, min(2 * size, BATCH_COLUMNS)
    return None


def _composite(steps, dims):
    """(cols, scale, rows) of a composite of steps on the legs dims, the
    columns in run order and the scale the product of the steps' scales."""
    plan, out_dims, scale = _plan(steps, dims)
    d_in, rows = math.prod(dims), math.prod(out_dims)
    cols = [[] for _ in range(d_in)]
    for j, r, x in _entries(plan, d_in, rows):
        cols[j].append((r, x))
    return cols, scale, rows


def composite_columns(steps, dims):
    """A composite of steps on the tensor legs dims, as first_differing_column
    takes them, as (cols, scale) in the form sparse_columns gives, the scale
    being the product of the steps' scales: a step for a further composite,
    with no Fraction on the way."""
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

    Returns one solution Vector, or None when the system is inconsistent.
    """
    if a.rows != b.dim:
        raise DimensionMismatch("system with %d rows and rhs of dim %d" % (a.rows, b.dim))
    rows = [list(r) + [bv] for r, bv in zip(a.data, b.entries)]
    n = a.cols
    pivots = []
    r = 0
    for c in range(n):
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
        if r == len(rows):
            break
    for i in range(r, len(rows)):
        if rows[i][n] != 0:
            return None
    x = [ZERO] * n
    for i, c in enumerate(pivots):
        x[c] = rows[i][n]
    return Vector(x)


class Tensor3:
    """Structure-constant tensor T[i][j][k] with three named legs.

    Two readings cover every use:
      * product-like (mult, action): inputs (i, j), output k;
      * coproduct-like (comult, coaction): input i, outputs (j, k).
    """

    __slots__ = ("d0", "d1", "d2", "_data", "_product", "_coproduct")

    def __init__(self, data, dims=None):
        data = tuple(tuple(tuple(scalar(x) for x in row) for row in plane)
                     for plane in data)
        if dims is not None:
            d0, d1, d2 = dims
        else:
            d0 = len(data)
            d1 = len(data[0]) if d0 else 0
            d2 = len(data[0][0]) if d0 and d1 else 0
        if len(data) != d0 or any(len(p) != d1 for p in data) or any(
                len(r) != d2 for p in data for r in p):
            raise DimensionMismatch("ragged tensor data")
        self.d0, self.d1, self.d2 = d0, d1, d2
        self._data, self._product, self._coproduct = data, None, None

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
        return Tensor3([[[ZERO] * d2 for _ in range(d1)] for _ in range(d0)],
                       dims=(d0, d1, d2))

    @staticmethod
    def from_function(d0, d1, d2, f):
        return Tensor3([[[f(i, j, k) for k in range(d2)] for j in range(d1)]
                        for i in range(d0)], dims=(d0, d1, d2))

    def __getitem__(self, ijk):
        i, j, k = ijk
        return self.data[i][j][k]

    def __eq__(self, other):
        return (isinstance(other, Tensor3) and (self.d0, self.d1, self.d2) ==
                (other.d0, other.d1, other.d2) and self.data == other.data)

    def __hash__(self):
        return hash((self.d0, self.d1, self.d2, self.data))

    @property
    def dims(self):
        return (self.d0, self.d1, self.d2)

    def is_zero(self):
        return all(x == 0 for p in self.data for r in p for x in r)

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
        return [[[scalar_to_json(x) for x in row] for row in plane] for plane in self.data]

    def __repr__(self):
        return "Tensor3(%dx%dx%d)" % self.dims
