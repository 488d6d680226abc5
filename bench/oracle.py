"""Independent exact evaluators that the benchmark checks library verdicts against.

They share no code with homlong. Scalars are `fractions.Fraction`; matrices
arrive as lists of rows (through the public `Matrix.to_lists()` or parsed
from the CLI's JSON files); every identity is evaluated one basis column at
a time on sparse vectors, so a witness can be confirmed as the first
differing column.
"""

import itertools
from fractions import Fraction


def read_scalar(x):
    """An int or "p/q" string from a homlong JSON file as a Fraction."""
    return Fraction(x) if isinstance(x, int) else Fraction(x.strip())


def read_matrix(rows):
    return [[read_scalar(x) for x in row] for row in rows]


def sparse_columns(rows):
    """cols[j] = [(i, x), ...] over the nonzero entries of column j."""
    cols = [[] for _ in range(len(rows[0]))]
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x:
                cols[j].append((i, x))
    return cols


def _apply(vec, outer_cols, inner_cols, inner_dim):
    """(A (x) B) applied to a sparse vector; inner_dim is B's dimension."""
    out = {}
    for idx, c in vec.items():
        a, b = divmod(idx, inner_dim)
        for r, x in outer_cols[a]:
            cx = c * x
            base = r * inner_dim
            for s, y in inner_cols[b]:
                k = base + s
                out[k] = out.get(k, 0) + cx * y
    return {k: v for k, v in out.items() if v}


def longeq_first_failure(op_rows, mu_rows):
    """First basis column j of M^(x)3 where (R(x)mu)(mu(x)R) e_j differs from
    (mu(x)R)(R(x)mu) e_j, or None when R solves the Hom-Long equation."""
    n = len(mu_rows)
    n2 = n * n
    rc, mc = sparse_columns(op_rows), sparse_columns(mu_rows)
    for j in range(n * n2):
        e = {j: Fraction(1)}
        lhs = _apply(_apply(e, mc, rc, n2), rc, mc, n)
        rhs = _apply(_apply(e, rc, mc, n), mc, rc, n2)
        if lhs != rhs:
            return j
    return None


def unflat3(j, n):
    """Basis triple of column j of M^(x)3 (first factor major)."""
    return (j // (n * n), (j // n) % n, j % n)


def index_identity_holds(x, z):
    """The coordinate criterion's index identity
    z_u^i x_vw^jk x_ij^pq = z_i^p x_jw^qk x_uv^ij with x = y."""
    n = len(z)
    rng = range(n)
    for k, p, q, u, v, w in itertools.product(rng, repeat=6):
        lhs = sum(z[i][u] * x[v][w][j][k] * x[i][j][p][q] for i in rng for j in rng)
        rhs = sum(z[p][i] * x[j][w][q][k] * x[u][v][i][j] for i in rng for j in rng)
        if lhs != rhs:
            return False
    return True


def matmul(a, b):
    """Dense product of two lists of rows, skipping zero coefficients."""
    bc = len(b[0])
    out = []
    for row in a:
        acc = [0] * bc
        for k, x in enumerate(row):
            if x:
                for j, y in enumerate(b[k]):
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return out


def is_identity(rows):
    return all(x == (1 if i == j else 0)
               for i, row in enumerate(rows) for j, x in enumerate(row))


def scalar_multiple_of_identity(rows):
    """The c with rows == c * id, or None."""
    c = rows[0][0]
    return c if all(x == (c if i == j else 0)
                    for i, row in enumerate(rows) for j, x in enumerate(row)) else None


def triangle_holds(mu_u, nu_v):
    """mu_U^-2 (x) nu_V^2 == id exactly when mu_U^2 and nu_V^2 are the same
    scalar multiple of the identity (a Kronecker product A (x) B is the
    identity iff A = c id and B = c^-1 id)."""
    cu = scalar_multiple_of_identity(matmul(mu_u, mu_u))
    cv = scalar_multiple_of_identity(matmul(nu_v, nu_v))
    return cu is not None and cu == cv


def action_is_counital(action, counit, mu):
    """h.m = eps(h) mu(m), with action[h][i][j] the coefficient of m_j in e_h.m_i."""
    return all(action[h][i][j] == counit[h] * mu[j][i]
               for h in range(len(action)) for i in range(len(mu))
               for j in range(len(mu)))
