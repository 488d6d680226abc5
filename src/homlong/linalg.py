"""Exact linear algebra over the rationals, and maps applied to tensor legs.

Everything is a Fraction; there is no floating point anywhere.  Linear maps
are stored column-convention: M[i][j] is the coefficient of the i-th output
basis vector in the image of the j-th input basis vector, so composition is
matrix multiplication and matrices act on coordinate columns.  Tensor-product
bases are ordered lexicographically, first factor major:
(i, j) -> i * dim_second + j.

Identities between composites of maps on tensor legs are decided without
forming the composites.  A step applies a small map, as sparse int-scaled
columns (product_columns, coproduct_columns, per_leg, flip_columns,
insert_columns, pair_columns), to consecutive legs of a sparse vector.  A
composite is planned once, then run one basis vector at a time:
first_differing_column compares two composites column by column and
composite_matrix builds the matrix of one, so no structure map is assembled
from Kronecker products of whole carriers.
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
        return Fraction(x)
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

    def kron(self, other):
        return Vector([a * b for a in self.entries for b in other.entries])

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
    """Dense exact matrix; data is a tuple of row tuples of Fractions."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows_data, rows=None, cols=None):
        data = tuple(tuple(scalar(x) for x in row) for row in rows_data)
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        if len(data) != rows or any(len(r) != cols for r in data):
            raise DimensionMismatch("ragged or mis-shaped matrix data")
        self.rows = rows
        self.cols = cols
        self.data = data

    @staticmethod
    def trusted(data, rows, cols):
        """A Matrix over row tuples of Fractions that the library computed
        itself: no coercion and no shape check."""
        m = Matrix.__new__(Matrix)
        m.rows, m.cols, m.data = rows, cols, tuple(data)
        return m

    @staticmethod
    def identity(n):
        return Matrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)],
                      rows=n, cols=n)

    @staticmethod
    def zeros(r, c):
        return Matrix([[ZERO] * c for _ in range(r)], rows=r, cols=c)

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
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

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
        """Composition self o other (also accepts a Vector on the right).

        Row-combination algorithm: skips zero coefficients, so products with
        permutation-like and kron-structured matrices stay cheap.
        """
        if isinstance(other, Vector):
            return self.apply(other)
        if self.cols != other.rows:
            raise DimensionMismatch("compose %dx%d with %dx%d"
                                    % (self.rows, self.cols, other.rows, other.cols))
        bd = other.data
        nc = other.cols
        out = []
        for ra in self.data:
            row = [ZERO] * nc
            for k, a in enumerate(ra):
                if not a:
                    continue
                bk = bd[k]
                if a == 1:
                    for j, b in enumerate(bk):
                        if b:
                            row[j] = row[j] + b
                else:
                    for j, b in enumerate(bk):
                        if b:
                            row[j] = row[j] + a * b
            out.append(tuple(row))
        return Matrix.trusted(out, self.rows, nc)

    def apply(self, v):
        if self.cols != v.dim:
            raise DimensionMismatch("apply %dx%d to dim-%d vector"
                                    % (self.rows, self.cols, v.dim))
        return Vector([sum((a * b for a, b in zip(row, v.entries)), ZERO) for row in self.data])

    def transpose(self):
        return Matrix(list(zip(*self.data)) if self.data else [[] for _ in range(self.cols)],
                      rows=self.cols, cols=self.rows)

    def is_identity(self):
        if self.rows != self.cols:
            return False
        return all(self.data[i][j] == (ONE if i == j else ZERO)
                   for i in range(self.rows) for j in range(self.cols))

    def is_zero(self):
        return all(a == 0 for row in self.data for a in row)

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
        """Exact inverse; raises SingularMatrix when the determinant vanishes."""
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
        return Matrix([row[n:] for row in a], rows=n, cols=n)

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

    def kron(self, other):
        return kron(self, other)

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


def kron(a, b):
    """Kronecker product realizing f (x) g on lexicographic tensor bases."""
    rb, cb = b.rows, b.cols
    out = [[ZERO] * (a.cols * cb) for _ in range(a.rows * rb)]
    for i in range(a.rows):
        arow = a.data[i]
        for j in range(a.cols):
            x = arow[j]
            if x == 0:
                continue
            for p in range(rb):
                brow = b.data[p]
                orow = out[i * rb + p]
                base = j * cb
                for q in range(cb):
                    if brow[q]:
                        orow[base + q] = x * brow[q]
    return Matrix.trusted(map(tuple, out), a.rows * rb, a.cols * cb)


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
    """The columns of the Matrix m as int_columns gives them."""
    return int_columns(_columns(m))


def product_columns(t):
    """The columns (i, j) -> sum_k t[i][j][k] e_k of a product-like Tensor3
    (a multiplication or an action), as int_columns."""
    return int_columns(row for plane in t.data for row in plane)


def coproduct_columns(t):
    """The columns i -> sum_jk t[i][j][k] e_j (x) e_k of a coproduct-like
    Tensor3 (a comultiplication or a coaction), as int_columns."""
    return int_columns([x for row in plane for x in row] for plane in t.data)


def per_leg(*maps):
    """Steps applying maps[k] to leg k: the tensor product of the maps."""
    return [(sparse_columns(f), (k,), None) for k, f in enumerate(maps)]


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


def first_differing_column(lhs, rhs, dims):
    """The first basis tuple of the tensor legs dims, in lexicographic
    order, on which two composites differ; None when they are equal.

    A composite is a sequence of steps (map, legs, out_dims), applied in
    order; map is (cols, scale) as sparse_columns gives it.  Both are
    planned, and so checked, before any column is run.  A side run on int
    columns is its true value times its scales, so each side starts from
    the other side's product."""
    (lplan, ld, lscale), (rplan, rd, rscale) = _plan(lhs, dims), _plan(rhs, dims)
    if math.prod(ld) != math.prod(rd):
        raise DimensionMismatch("composites land in dims %d and %d"
                                % (math.prod(ld), math.prod(rd)))
    for j in range(math.prod(dims)):
        if _run(lplan, {j: rscale}) != _run(rplan, {j: lscale}):
            return unflat_index(j, dims)
    return None


def composite_matrix(steps, dims):
    """The Matrix on the tensor legs dims of a composite of steps, as
    first_differing_column takes them: each column run on int columns and
    divided by the product of the scales once."""
    plan, out_dims, scale = _plan(steps, dims)
    rows, cols = math.prod(out_dims), math.prod(dims)
    out = [[ZERO] * cols for _ in range(rows)]
    for j in range(cols):
        for r, x in _run(plan, {j: 1}).items():
            out[r][j] = Fraction(x, scale)
    return Matrix.trusted(map(tuple, out), rows, cols)


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

    __slots__ = ("d0", "d1", "d2", "data")

    def __init__(self, data, dims=None):
        self.data = tuple(tuple(tuple(scalar(x) for x in row) for row in plane)
                          for plane in data)
        if dims is not None:
            d0, d1, d2 = dims
        else:
            d0 = len(self.data)
            d1 = len(self.data[0]) if d0 else 0
            d2 = len(self.data[0][0]) if d0 and d1 else 0
        if len(self.data) != d0 or any(len(p) != d1 for p in self.data) or any(
                len(r) != d2 for p in self.data for r in p):
            raise DimensionMismatch("ragged tensor data")
        self.d0, self.d1, self.d2 = d0, d1, d2

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
        m = [[ZERO] * (self.d0 * self.d1) for _ in range(self.d2)]
        for i in range(self.d0):
            for j in range(self.d1):
                col = i * self.d1 + j
                for k in range(self.d2):
                    m[k][col] = self.data[i][j][k]
        return Matrix(m, rows=self.d2, cols=self.d0 * self.d1)

    def flatten_in1_out2(self):
        """Matrix of the map X -> Y (x) Z with T[i][j][k] = coeff of y_j z_k at x_i."""
        m = [[ZERO] * self.d0 for _ in range(self.d1 * self.d2)]
        for i in range(self.d0):
            for j in range(self.d1):
                for k in range(self.d2):
                    m[j * self.d2 + k][i] = self.data[i][j][k]
        return Matrix(m, rows=self.d1 * self.d2, cols=self.d0)

    @staticmethod
    def from_in2_out1(m, d0, d1):
        """Inverse of flatten_in2_out1 for a matrix with d0*d1 columns."""
        if m.cols != d0 * d1:
            raise DimensionMismatch("matrix has %d columns, expected %d" % (m.cols, d0 * d1))
        cols = _columns(m)
        return Tensor3._of_fractions([cols[i * d1:(i + 1) * d1] for i in range(d0)],
                                     (d0, d1, m.rows))

    @staticmethod
    def from_in1_out2(m, d1, d2):
        """Inverse of flatten_in1_out2 for a matrix with d1*d2 rows."""
        if m.rows != d1 * d2:
            raise DimensionMismatch("matrix has %d rows, expected %d" % (m.rows, d1 * d2))
        return Tensor3._of_fractions([[c[j * d2:(j + 1) * d2] for j in range(d1)]
                                      for c in _columns(m)], (m.cols, d1, d2))

    @staticmethod
    def _of_fractions(data, dims):
        """A Tensor3 over the entries of a Matrix, which are Fractions
        already: no coercion."""
        t = Tensor3.__new__(Tensor3)
        t.data = tuple(tuple(tuple(row) for row in plane) for plane in data)
        t.d0, t.d1, t.d2 = dims
        return t

    def to_json(self):
        return [[[scalar_to_json(x) for x in row] for row in plane] for plane in self.data]

    def __repr__(self):
        return "Tensor3(%dx%dx%d)" % self.dims
