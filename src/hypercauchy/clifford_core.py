"""Real Clifford algebra C(V_n) with negative-definite generators.

Generators e_1..e_n satisfy e_i^2 = -1 and e_i e_j = -e_j e_i; e_0 = 1 is
the scalar unit.  Elements are stored densely as 2^n coefficients indexed
by subset bitmask (bit i-1 set  <=>  e_i present in the blade).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class ContextMismatchError(ValueError):
    """Operands belong to algebras with different n."""


class SingularInputError(ValueError):
    """Inversion or division by a zero paravector."""


def _reorder_sign(a: int, b: int) -> int:
    # number of transpositions to merge blade a past blade b, mod 2
    a >>= 1
    total = 0
    while a:
        total += bin(a & b).count("1")
        a >>= 1
    return -1 if total & 1 else 1


class AlgebraContext:
    """Multiplication tables for C(V_n), 1 <= n <= 8.

    Tables are dense over the 2^n basis blades: the geometric product of
    blades a, b lands on blade a ^ b with sign ``sign_table[a, b]``.
    """

    def __init__(self, n: int):
        self.n = n = _integer(n, "n", 1, 8)
        self.dim = 1 << n
        d = self.dim

        sign = np.empty((d, d), dtype=np.int8)
        for a in range(d):
            for b in range(d):
                common = a & b
                # each contracted generator contributes e_i^2 = -1
                s = _reorder_sign(a, b)
                if bin(common).count("1") & 1:
                    s = -s
                sign[a, b] = s
        self.sign_table = sign
        self.grade = np.array([bin(a).count("1") for a in range(d)], dtype=np.int64)
        # bar(e_A) = (-1)^(k(k+1)/2) e_A, k = |A|
        self.conj_sign = np.array(
            [(-1) ** ((k * (k + 1) // 2) % 2) for k in self.grade], dtype=np.float64
        )
        # reversion rev(e_A) = (-1)^(k(k-1)/2) e_A, bar's sign times (-1)^k
        self.reverse_sign = self.conj_sign * (-1.0) ** self.grade
        # the compact paravector layout: component i of x_0 + sum x_i e_i
        # sits on blade paravector_blades[i] (1, e_1, ..., e_n)
        self.paravector_blades = np.array([0] + [1 << i for i in range(n)])

    def blade_name(self, a: int) -> str:
        if a == 0:
            return "1"
        return "e" + "".join(str(i + 1) for i in range(self.n) if a >> i & 1)

    def basis_blade(self, a: int) -> "Multivector":
        c = np.zeros(self.dim)
        c[a] = 1.0
        return Multivector(self, c)

    def scalar(self, value: float) -> "Multivector":
        c = np.zeros(self.dim)
        c[0] = float(value)
        return Multivector(self, c)

    def __repr__(self):
        return f"AlgebraContext(n={self.n})"


def _is_int(value):
    """True for an int or numpy integer, False for a bool or anything else."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _integer(value, name, low=None, high=None):
    """value as an int: the one integer check.  A bool or non-integer
    (_is_int), or one outside low..high (a bound None is open), raises
    ValueError("<name> must be an integer[ in low..high | >= low], got
    <value>")."""
    if not (_is_int(value) and (low is None or value >= low)
            and (high is None or value <= high)):
        span = ("" if low is None else " >= %d" % low if high is None
                else " in %d..%d" % (low, high))
        raise ValueError("%s must be an integer%s, got %r"
                         % (name, span, value))
    return int(value)


# the scalar types of Multivector arithmetic, each a scalar to as_coeffs
REAL_SCALARS = (int, float, np.integer, np.floating, np.bool_)


def _is_real(value):
    """True for a real scalar other than a bool."""
    return (isinstance(value, REAL_SCALARS)
            and not isinstance(value, (bool, np.bool_)))


def _is_scalar(value):
    """True for a scalar of Multivector arithmetic: one of REAL_SCALARS or
    a 0-d real array, each a scalar to as_coeffs."""
    return isinstance(value, REAL_SCALARS) or (
        isinstance(value, np.ndarray) and value.shape == ()
        and value.dtype.kind in "biuf")


def get_context(n: int) -> AlgebraContext:
    """Shared AlgebraContext instances keyed by n, an integer in 1..8; a
    bool or any other value raises ValueError before the cache is read."""
    return _context(_integer(n, "n", 1, 8))


@lru_cache(maxsize=None)
def _context(n: int) -> AlgebraContext:
    return AlgebraContext(n)


class Multivector:
    """Element of C(V_n): dense coefficient vector over the 2^n blades."""

    __slots__ = ("ctx", "coeffs")
    __array_priority__ = 100  # keep numpy from hijacking mv * array

    def __init__(self, ctx: AlgebraContext, coeffs):
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.shape != (ctx.dim,):
            raise ValueError(f"expected {ctx.dim} coefficients, got {coeffs.shape}")
        self.ctx = ctx
        self.coeffs = coeffs

    # -- construction helpers -------------------------------------------------
    @classmethod
    def zero(cls, ctx: AlgebraContext) -> "Multivector":
        return cls(ctx, np.zeros(ctx.dim))

    # -- ring operations ------------------------------------------------------
    def _check(self, other: "Multivector"):
        if self.ctx.n != other.ctx.n:
            raise ContextMismatchError(
                f"operands from C(V_{self.ctx.n}) and C(V_{other.ctx.n})"
            )

    def __add__(self, other):
        other = _coerce(self.ctx, other)
        self._check(other)
        return Multivector(self.ctx, self.coeffs + other.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(self.ctx, other)
        self._check(other)
        return Multivector(self.ctx, self.coeffs - other.coeffs)

    def __rsub__(self, other):
        return _coerce(self.ctx, other) - self

    def __neg__(self):
        return Multivector(self.ctx, -self.coeffs)

    def __mul__(self, other):
        if _is_scalar(other):
            return Multivector(self.ctx, self.coeffs * other)
        other = _coerce(self.ctx, other)
        return product(self, other)

    def __rmul__(self, other):
        if _is_scalar(other):
            return Multivector(self.ctx, self.coeffs * other)
        return product(_coerce(self.ctx, other), self)

    # -- structure ------------------------------------------------------------
    def is_paravector(self) -> bool:
        return bool(np.all(self.coeffs[self.ctx.grade > 1] == 0.0))

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def conjugate(self) -> "Multivector":
        return Multivector(self.ctx, self.coeffs * self.ctx.conj_sign)

    def __repr__(self):
        terms = []
        for a, c in enumerate(self.coeffs):
            if c != 0.0:
                terms.append(f"{c:+g}*{self.ctx.blade_name(a)}")
        return "Multivector(" + (" ".join(terms) if terms else "0") + ")"


def _coerce(ctx: AlgebraContext, x) -> Multivector:
    if isinstance(x, Multivector):
        return x
    if isinstance(x, Paravector) or _is_scalar(x):
        return Multivector(ctx, as_coeffs(ctx, x))
    raise TypeError(f"cannot interpret {type(x).__name__} as a Multivector")


def as_coeffs(ctx: AlgebraContext, value) -> np.ndarray:
    """A fresh (2^n,) coefficient row for a value of C(V_n).

    Accepts a Multivector of ctx's algebra, a Paravector, a real scalar or
    a (2^n,) row.  A Multivector from another algebra raises
    ContextMismatchError; anything else raises ValueError naming its shape.
    """
    if isinstance(value, Multivector):
        if value.ctx.n != ctx.n:
            raise ContextMismatchError(f"value from C(V_{value.ctx.n}), "
                                       f"expected C(V_{ctx.n})")
        return value.coeffs.copy()
    if isinstance(value, Paravector):
        return value.as_multivector(ctx).coeffs
    arr = np.asarray(value)
    if arr.dtype.kind in "biuf":
        if arr.shape == (ctx.dim,):
            return arr.astype(np.float64)
        if arr.shape == ():
            out = np.zeros(ctx.dim)
            out[0] = arr
            return out
    raise ValueError(f"cannot interpret {type(value).__name__} of shape "
                     f"{arr.shape} as {ctx.dim} coefficients of C(V_{ctx.n})")


class Paravector:
    """Element x_0 + x_1 e_1 + ... + x_n e_n, the image of a point of R^{n+1}."""

    __slots__ = ("x0", "vec")

    def __init__(self, x0: float, vec):
        self.x0 = float(x0)
        self.vec = np.asarray(vec, dtype=np.float64)

    @property
    def n(self) -> int:
        return self.vec.shape[0]

    def as_point(self) -> np.ndarray:
        return np.concatenate(([self.x0], self.vec))

    def as_multivector(self, ctx: AlgebraContext | None = None) -> Multivector:
        ctx = ctx or get_context(self.n)
        if ctx.n != self.n:
            raise ContextMismatchError(f"paravector has n={self.n}, context n={ctx.n}")
        c = np.zeros(ctx.dim)
        c[ctx.paravector_blades] = self.as_point()
        return Multivector(ctx, c)

    def norm(self) -> float:
        return float(np.sqrt(self.x0 * self.x0 + self.vec @ self.vec))

    def inverse(self) -> "Paravector":
        n2 = self.x0 * self.x0 + self.vec @ self.vec
        # NaN fails both tests, so only a finite positive |X|^2 passes
        if not 0.0 < n2 < np.inf:
            raise SingularInputError("paravector with |X|^2 = %r has no "
                                     "inverse" % (float(n2),))
        return Paravector(self.x0 / n2, -self.vec / n2)

    def __neg__(self):
        return Paravector(-self.x0, -self.vec)

    def __repr__(self):
        return f"Paravector(x0={self.x0:g}, vec={self.vec})"


# -- spec operations ----------------------------------------------------------

def product(a: Multivector, b: Multivector) -> Multivector:
    """Geometric product in C(V_n), bitwise batch_product of the two rows.

    A second loop over the same blade-pair table, one fancy-indexed add
    per nonzero left blade i, out[i ^ j] += (a_i b_j) sign(i, j): on one
    row, batch_product's one numpy call per blade pair takes 2.6-8.7x as
    long (n = 1..3), and Multivector arithmetic and the tests' pair-loop
    oracles take products one pair at a time.  Left blades run outer and
    zero ones are skipped, as in batch_product, and multiplying by -1 is
    exact negation, so every blade takes the same terms in the same order.
    """
    a._check(b)
    out = np.zeros(a.ctx.dim)
    for i, blades, signs in _row_pairs(a.ctx.n):
        if a.coeffs[i]:
            out[blades] += a.coeffs[i] * b.coeffs * signs
    return Multivector(a.ctx, out)


def conjugate(a: Multivector) -> Multivector:
    """Bar conjugation: bar(e_A) = (-1)^(k(k+1)/2) e_A, an anti-automorphism."""
    return a.conjugate()


def paravector_inverse(X: Paravector) -> Paravector:
    """X^{-1} = bar(X) / |X|^2."""
    return X.inverse()


def divide(a: Multivector, b: Paravector, side: str = "left") -> Multivector:
    """Left division b^{-1} a or right division a b^{-1}, the latter as
    rev(b^{-1} rev(a)) (_check_side), bit for bit."""
    rev = _check_side(side, a.ctx)
    if isinstance(b, Multivector):
        if not b.is_paravector():
            raise SingularInputError("divisor must be a paravector")
        b = embed_point(project_paravector(b))
    binv = b.inverse().as_multivector(a.ctx)
    return Multivector(a.ctx, batch_product(a.ctx, binv.coeffs,
                                            a.coeffs * rev) * rev)


def embed_point(p) -> Paravector:
    """R^{n+1} point (x_0, ..., x_n) -> paravector x_0 + sum x_i e_i."""
    p = np.asarray(p, dtype=np.float64)
    return Paravector(p[0], p[1:])


def project_paravector(X) -> np.ndarray:
    """Inverse of embed_point.

    A Paravector maps back to its point; a Multivector is accepted only when
    every coefficient outside grades {0, 1} vanishes.
    """
    if isinstance(X, Paravector):
        return X.as_point()
    if not X.is_paravector():
        bad = [X.ctx.blade_name(a) for a in range(X.ctx.dim)
               if X.ctx.grade[a] > 1 and X.coeffs[a] != 0.0]
        raise ValueError(f"not a paravector: nonzero blades {bad}")
    return X.coeffs[X.ctx.paravector_blades]


# -- batched helpers (dense (..., dim) or paravector (..., n+1) rows) ---------

@lru_cache(maxsize=None)
def _column_pairs(n: int, left_width: int, right_width: int) -> tuple:
    """Per left column i: (i, ((j, blade of e_i e_j, plus), ...)).

    plus is True where the sign of e_i e_j is +1.  Columns of a dense row
    are the 2^n blades in bitmask order; columns of a compact row are the
    paravector blades 1, e_1, ..., e_n.
    """
    ctx = get_context(n)
    blades = []
    for width in (left_width, right_width):
        if width == ctx.dim:
            blades.append(range(ctx.dim))
        elif width == n + 1:
            blades.append(ctx.paravector_blades.tolist())
        else:
            raise ValueError(f"rows of width {width} are neither {ctx.dim} "
                             f"coefficients nor {n + 1} paravector components")
    return tuple(
        (i, tuple((j, a ^ b, bool(ctx.sign_table[a, b] > 0))
                  for j, b in enumerate(blades[1])))
        for i, a in enumerate(blades[0]))


@lru_cache(maxsize=None)
def _row_pairs(n: int) -> tuple:
    """Per left blade i of a dense row: (i, the blades i ^ j of e_i e_j over
    j, their signs as floats), the table of product."""
    ctx = get_context(n)
    right = np.arange(ctx.dim)
    return tuple((i, right ^ i, ctx.sign_table[i].astype(np.float64))
                 for i in range(ctx.dim))


def batch_product(ctx: AlgebraContext, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-wise geometric products A_i B_i in C(V_n), as dense rows.

    Each operand comes in one of two row layouts along its last axis:
    dense ``(..., 2^n)`` blade coefficients indexed by bitmask, or compact
    ``(..., n+1)`` paravector components x_0, x_1, ..., x_n.  Either
    operand may use either layout; for n = 1 the two layouts are the same
    array.  Leading axes broadcast, and the result has shape
    ``broadcast(leading axes) + (2^n,)``.  One loop over the blade-pair
    table _column_pairs adds A[..., i] * B[..., j] onto the blade of the
    two columns' product, or subtracts it where their sign is -1, left
    columns outer and all-zero left columns skipped, so the result does
    not depend on the layouts chosen.  Subtracting is bitwise adding the
    product times -1 (negation is exact, and a - b is a + (-b) in IEEE
    arithmetic, signed zeros included), without the multiply.  A sum of
    products over rows is sided_sum, not batch_product(...).sum(): it
    takes one matmul.  Every library product is a left one: a right-sided
    call mirrors its rows by reversion (_check_side).
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    lead = A.shape[:-1]
    if lead != B.shape[:-1]:
        lead = np.broadcast_shapes(lead, B.shape[:-1])
    return _product_into(ctx, A, B, np.zeros(lead + (ctx.dim,)))


def _product_into(ctx, A, B, out):
    """batch_product(ctx, A, B) added onto out, a float64 array of the
    product's shape; returns out."""
    for i, terms in _column_pairs(ctx.n, A.shape[-1], B.shape[-1]):
        col = A[..., i]
        if not col.any():
            continue
        for j, blade, plus in terms:
            if plus:
                out[..., blade] += col * B[..., j]
            else:
                out[..., blade] -= col * B[..., j]
    return out


def scatter_pairs(ctx: AlgebraContext, T: np.ndarray) -> np.ndarray:
    """sum over blade pairs (a, b) of sign(a, b) T[a, ..., b] on blade a b.

    T's first axis runs over the left factor's columns and its last axis
    over the right factor's, each dense (2^n) or paravector (n+1) as in
    batch_product; the result has shape T.shape[1:-1] + (2^n,).  Terms
    are added, or subtracted where the sign is -1 (bitwise adding them
    times the sign, as in batch_product), in the order of _column_pairs,
    left column outer.
    """
    out = np.zeros(T.shape[1:-1] + (ctx.dim,))
    for i, terms in _column_pairs(ctx.n, T.shape[0], T.shape[-1]):
        for j, blade, plus in terms:
            if plus:
                out[..., blade] += T[i, ..., j]
            else:
                out[..., blade] -= T[i, ..., j]
    return out


def _check_side(side, ctx):
    """'left' or 'right', else ValueError; returns the factor that mirrors a
    row of ctx's algebra on that side: 1.0, or reversion's signs."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return ctx.reverse_sign if side == "right" else 1.0


def sided_sum(ctx: AlgebraContext, K, f) -> np.ndarray:
    """sum_j K_j f_j, the one product sum over rows.

    K and f hold rows along their last axis (layouts as in batch_product)
    and run over j on the axis before it: shapes (..., N, w_K) and
    (..., N, w_f), leading axes broadcast, result (..., 2^n).  The sum is
    one matmul of the columns, T[..., a, b] = sum_j K_j[a] f_j[b], then
    scatter_pairs.
    """
    T = np.swapaxes(K, -1, -2) @ f
    return scatter_pairs(ctx, np.moveaxis(T, -2, 0))


def batch_conjugate(ctx: AlgebraContext, A: np.ndarray) -> np.ndarray:
    return A * ctx.conj_sign

def paravectors_as_coeffs(ctx: AlgebraContext, P: np.ndarray) -> np.ndarray:
    """(N, n+1) paravector components -> (N, 2^n) dense coefficients."""
    P = np.atleast_2d(P)
    out = np.zeros((P.shape[0], ctx.dim))
    out[:, ctx.paravector_blades] = P
    return out
