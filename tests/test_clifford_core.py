"""Algebraic laws of the Clifford arithmetic layer."""

import re

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hypercauchy.clifford_core import (
    ContextMismatchError,
    Multivector,
    Paravector,
    SingularInputError,
    as_coeffs,
    batch_conjugate,
    batch_product,
    conjugate,
    divide,
    embed_point,
    get_context,
    paravector_inverse,
    paravectors_as_coeffs,
    product,
    project_paravector,
    scatter_pairs,
)

REL_TOL = 1e-12
INVERSE_TOL = 1e-12
DIMS = [1, 2, 3]


def _coeff_arrays(n):
    return arrays(np.float64, 2 ** n,
                  elements=st.floats(-10, 10, allow_nan=False))


def test_blade_products_associative_exact():
    # floating products of +/-1 entries are exact, so no tolerance here
    for n in DIMS:
        ctx = get_context(n)
        blades = [ctx.basis_blade(a) for a in range(ctx.dim)]
        for a in blades:
            for b in blades:
                for c in blades:
                    left = (a * b) * c
                    right = a * (b * c)
                    assert np.array_equal(left.coeffs, right.coeffs)


def test_conjugation_antiautomorphism_exact_on_blades():
    for n in DIMS:
        ctx = get_context(n)
        blades = [ctx.basis_blade(a) for a in range(ctx.dim)]
        for a in blades:
            for b in blades:
                lhs = conjugate(a * b)
                rhs = conjugate(b) * conjugate(a)
                assert np.array_equal(lhs.coeffs, rhs.coeffs)


def test_generator_relations():
    # e_i^2 = -1 and e_i e_j = -e_j e_i for i != j
    for n in DIMS:
        ctx = get_context(n)
        gens = [ctx.basis_blade(1 << i) for i in range(n)]
        one = ctx.scalar(1.0).coeffs
        for i, ei in enumerate(gens):
            assert np.array_equal((ei * ei).coeffs, -one)
            for ej in gens[i + 1:]:
                assert np.array_equal((ei * ej).coeffs, -(ej * ei).coeffs)


@seed(1)
@given(a=_coeff_arrays(2), b=_coeff_arrays(2), c=_coeff_arrays(2))
def test_associativity_random_multivectors(a, b, c):
    ctx = get_context(2)
    A, B, C = (Multivector(ctx, v) for v in (a, b, c))
    left = (A * B) * C
    right = A * (B * C)
    scale = max(1.0, A.norm() * B.norm() * C.norm())
    assert np.max(np.abs(left.coeffs - right.coeffs)) <= REL_TOL * scale


@seed(2)
@given(a=_coeff_arrays(3), b=_coeff_arrays(3))
def test_conjugation_reverses_products(a, b):
    ctx = get_context(3)
    A, B = Multivector(ctx, a), Multivector(ctx, b)
    lhs = conjugate(A * B)
    rhs = conjugate(B) * conjugate(A)
    scale = max(1.0, A.norm() * B.norm())
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= REL_TOL * scale


@seed(3)
@given(coords=arrays(np.float64, 3,
                     elements=st.floats(-5, 5, allow_nan=False)))
def test_paravector_inverse_two_sided(coords):
    ctx = get_context(2)
    if np.linalg.norm(coords) < 1e-3:
        return
    x = embed_point(coords)
    xm = x.as_multivector(ctx)
    inv = paravector_inverse(x).as_multivector(ctx)
    one = ctx.scalar(1.0).coeffs
    for prod in (xm * inv, inv * xm):
        assert np.max(np.abs(prod.coeffs - one)) <= INVERSE_TOL


def test_paravector_inverse_matches_conjugate_formula():
    rng = np.random.default_rng(7)
    for _ in range(50):
        coords = rng.normal(size=4)
        x = embed_point(coords)
        n2 = np.dot(coords, coords)
        inv = paravector_inverse(x)
        assert abs(inv.x0 - coords[0] / n2) <= 1e-15
        assert np.allclose(inv.vec, -coords[1:] / n2, atol=1e-15)


def test_embed_project_roundtrip():
    for n in DIMS:
        ctx = get_context(n)
        rng = np.random.default_rng(n)
        coords = rng.normal(size=n + 1)
        x = embed_point(coords)
        assert isinstance(x, Paravector)
        assert np.array_equal(project_paravector(x), coords)
        mv = x.as_multivector(ctx)
        assert np.array_equal(project_paravector(mv), coords)
        assert abs(x.norm() - np.linalg.norm(coords)) <= 1e-14
        assert abs(mv.norm() - np.linalg.norm(coords)) <= 1e-14


def test_project_rejects_higher_grades():
    ctx = get_context(2)
    with pytest.raises(ValueError):
        project_paravector(ctx.basis_blade(0b11))


def test_divide_left_right():
    ctx = get_context(2)
    rng = np.random.default_rng(11)
    a = Multivector(ctx, rng.normal(size=4))
    b = embed_point(rng.normal(size=3))
    bm = b.as_multivector(ctx)
    q_right = divide(a, b, side="right")
    assert np.allclose((q_right * bm).coeffs, a.coeffs, atol=1e-12)
    q_left = divide(a, b, side="left")
    assert np.allclose((bm * q_left).coeffs, a.coeffs, atol=1e-12)
    with pytest.raises(ValueError):
        divide(a, b, side="middle")


def test_divide_by_paravector_multivector():
    ctx = get_context(2)
    b = Paravector(1.0, [1.0, 0.0])
    for a in (ctx.scalar(2.0), Multivector(ctx, [1.0, -2.0, 0.5, 3.0])):
        for side in ("left", "right"):
            got = divide(a, b.as_multivector(ctx), side=side)
            assert np.array_equal(got.coeffs, divide(a, b, side=side).coeffs)


def test_divide_rejects_non_paravector():
    ctx = get_context(2)
    a = ctx.scalar(1.0)
    with pytest.raises(SingularInputError):
        divide(a, ctx.basis_blade(0b11))


def test_zero_paravector_not_invertible():
    zero = embed_point(np.zeros(3))
    with pytest.raises(SingularInputError):
        paravector_inverse(zero)


@pytest.mark.parametrize("x0, vec", [(np.nan, [0.0]), (0.0, [np.nan, 1.0]),
                                     (np.inf, [0.0]), (1e200, [0.0, 0.0])],
                         ids=repr)
def test_non_finite_paravector_not_invertible(x0, vec):
    # |X|^2 NaN or infinite (1e200 squares past the float64 range) has no
    # inverse, for the inverse and for division alike
    x = Paravector(x0, vec)
    with pytest.raises(SingularInputError, match="has no inverse"):
        x.inverse()
    a = get_context(len(vec)).scalar(1.0)
    for side in ("left", "right"):
        with pytest.raises(SingularInputError, match="has no inverse"):
            divide(a, x, side)


@pytest.mark.parametrize("n", DIMS)
def test_right_division_mirrors_left_division(n):
    # a b^-1 = rev(b^-1 rev(a)): the right quotient is the reversed left
    # quotient of the reversed dividend, bit for bit, for a Paravector and
    # a paravector Multivector divisor alike
    ctx = get_context(n)
    rev = ctx.reverse_sign
    rng = np.random.default_rng(40 + n)
    for _ in range(5):
        a = Multivector(ctx, rng.normal(size=ctx.dim))
        b = embed_point(rng.normal(size=n + 1))
        for divisor in (b, b.as_multivector(ctx)):
            right = divide(a, divisor, "right").coeffs
            left = divide(Multivector(ctx, a.coeffs * rev), divisor, "left")
            assert np.array_equal(right, left.coeffs * rev)


def test_context_mismatch_rejected():
    a = get_context(1).scalar(1.0)
    b = get_context(2).scalar(1.0)
    with pytest.raises(ContextMismatchError):
        product(a, b)


def test_context_cached():
    assert get_context(2) is get_context(2)
    assert get_context(np.int64(2)) is get_context(2)
    assert type(get_context(np.int64(2)).n) is int


@pytest.mark.parametrize("n", [True, False, 2.0, 1.5, "2", None])
def test_context_refuses_a_non_integer_n_before_the_cache(n):
    # True == 1 and hashes as 1: a cache read first would hand it, or
    # later get_context(1) calls, AlgebraContext(n=True)
    with pytest.raises(ValueError, match="^n must be an integer"):
        get_context(n)
    assert get_context(1).n == 1 and type(get_context(1).n) is int


def test_coeff_length_validated():
    with pytest.raises(ValueError):
        Multivector(get_context(2), np.ones(3))


def test_blade_names():
    ctx = get_context(3)
    assert ctx.blade_name(0) == "1"
    assert ctx.blade_name(0b001) == "e1"
    assert ctx.blade_name(0b101) == "e13"
    assert ctx.blade_name(0b111) == "e123"


def _sign_table_product(ctx, a, b):
    # the reference: per nonzero left blade i, add a_i sign(i, j) b_j onto
    # blade i ^ j for every right blade j
    d = ctx.dim
    out = np.zeros(d)
    for i in range(d):
        if a[i] == 0.0:
            continue
        out[i ^ np.arange(d)] += a[i] * ctx.sign_table[i] * b
    return out


def test_batch_helpers_match_scalar_paths():
    # up to n = 8, the largest algebra a context supports; the column-pair
    # loop adds the sign-table loop's terms in its order and rounding
    for n in range(1, 9):
        ctx = get_context(n)
        rng = np.random.default_rng(13)
        for rows in (1, 20):
            A = rng.normal(size=(rows, ctx.dim))
            B = rng.normal(size=(rows, ctx.dim))
            # zero left blades, of either sign, are skipped by both loops
            A[:, rng.random(ctx.dim) < 0.3] = 0.0
            A[0, -1] = -0.0
            got = batch_product(ctx, A, B)
            for i in range(rows):
                want = _sign_table_product(ctx, A[i], B[i])
                assert np.array_equal(got[i], want)
                mv = product(Multivector(ctx, A[i]), Multivector(ctx, B[i]))
                assert np.array_equal(mv.coeffs, want)
        got_c = batch_conjugate(ctx, A)
        for i in range(20):
            assert np.allclose(got_c[i],
                               conjugate(Multivector(ctx, A[i])).coeffs)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_row_product_is_batch_product_bitwise(n):
    # product's own loop over the blade-pair table gives batch_product's
    # bits on the two rows, signed zeros included, with zero entries of
    # either sign on both sides
    ctx = get_context(n)
    rng = np.random.default_rng(n)
    A, B = rng.normal(size=(2, 1000, ctx.dim))
    for M in (A, B):
        M[rng.random(M.shape) < 0.3] = 0.0
        M[rng.random(M.shape) < 0.1] = -0.0
    for a, b in zip(A, B):
        got = product(Multivector(ctx, a), Multivector(ctx, b)).coeffs
        assert got.tobytes() == batch_product(ctx, a, b).tobytes()


@seed(5)
@settings(deadline=None)
@given(data=st.data(), n=st.integers(1, 4), rows=st.integers(1, 4))
def test_batch_product_layouts_agree_bitwise(data, n, rows):
    # compact paravector rows give exactly the dense product of their
    # expansion, whichever operand is compact
    ctx = get_context(n)
    finite = st.floats(-10, 10, allow_nan=False)
    compact = [data.draw(arrays(np.float64, (rows, n + 1), elements=finite))
               for _ in range(2)]
    dense = [data.draw(arrays(np.float64, (rows, ctx.dim), elements=finite))
             for _ in range(2)]
    expanded = [paravectors_as_coeffs(ctx, P) for P in compact]
    for A, A_dense in ((compact[0], expanded[0]), (dense[0], dense[0])):
        for B, B_dense in ((compact[1], expanded[1]), (dense[1], dense[1])):
            want = batch_product(ctx, A_dense, B_dense)
            assert np.array_equal(batch_product(ctx, A, B), want)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batch_product_broadcasts_leading_axes(n):
    ctx = get_context(n)
    rng = np.random.default_rng(29)
    N = 6
    one = rng.normal(size=(1, ctx.dim))
    many = rng.normal(size=(N, ctx.dim))
    assert np.array_equal(batch_product(ctx, one, many),
                          batch_product(ctx, np.repeat(one, N, axis=0), many))
    assert np.array_equal(batch_product(ctx, many, one),
                          batch_product(ctx, many, np.repeat(one, N, axis=0)))
    # (N, 1, dim) against (dim, dim): every row times every basis blade
    blades = np.eye(ctx.dim)
    table = batch_product(ctx, many[:, None, :], blades)
    assert table.shape == (N, ctx.dim, ctx.dim)
    for i in range(N):
        for b in range(ctx.dim):
            want = product(Multivector(ctx, many[i]), ctx.basis_blade(b))
            assert np.array_equal(table[i, b], want.coeffs)


def test_batch_product_rejects_unknown_row_width():
    ctx = get_context(3)
    with pytest.raises(ValueError, match="width 5"):
        batch_product(ctx, np.ones((2, 5)), np.ones((2, 8)))


def test_paravector_coeff_layout_roundtrip():
    ctx = get_context(3)
    rng = np.random.default_rng(17)
    nuw = rng.normal(size=(10, 4))
    coeffs = paravectors_as_coeffs(ctx, nuw)
    assert coeffs.shape == (10, 8)
    # non-paravector slots stay zero
    mask = np.ones(8, dtype=bool)
    mask[[0, 1, 2, 4]] = False
    assert np.all(coeffs[:, mask] == 0.0)
    back = coeffs[:, ctx.paravector_blades]
    assert np.array_equal(back, nuw)


def test_paravector_blades_is_the_layout():
    # every paravector conversion reads its blades from this one table
    for n in range(1, 9):
        ctx = get_context(n)
        blades = ctx.paravector_blades
        assert blades.shape == (n + 1,)
        assert np.array_equal(ctx.grade[blades], [0] + [1] * n)
        coords = np.arange(1.0, n + 2.0)
        want = np.zeros(ctx.dim)
        want[blades] = coords
        mv = embed_point(coords).as_multivector(ctx)
        assert np.array_equal(mv.coeffs, want)
        assert np.array_equal(project_paravector(mv), coords)
        assert np.array_equal(paravectors_as_coeffs(ctx, coords)[0], want)
        for i in range(1, n + 1):
            assert ctx.blade_name(blades[i]) == "e%d" % i


def test_as_coeffs_accepts_each_value_kind():
    ctx = get_context(2)
    row = np.array([1.0, 2.0, 3.0, 4.0])
    mv = Multivector(ctx, row)
    cases = [
        (mv, row),
        (Paravector(1.0, [2.0, 3.0]), np.array([1.0, 2.0, 3.0, 0.0])),
        (2.5, np.array([2.5, 0.0, 0.0, 0.0])),
        (np.float64(-1.0), np.array([-1.0, 0.0, 0.0, 0.0])),
        (3, np.array([3.0, 0.0, 0.0, 0.0])),
        (row, row),
        ([1, 2, 3, 4], row),
    ]
    for value, want in cases:
        got = as_coeffs(ctx, value)
        assert got.dtype == np.float64 and np.array_equal(got, want)
        got[0] = 99.0   # a fresh array: the input is left alone
    assert np.array_equal(mv.coeffs, row)
    assert np.array_equal(row, [1.0, 2.0, 3.0, 4.0])


def test_as_coeffs_rejects_other_values():
    ctx = get_context(2)
    with pytest.raises(ContextMismatchError):
        as_coeffs(ctx, get_context(3).scalar(1.0))
    with pytest.raises(ContextMismatchError):
        as_coeffs(ctx, Paravector(1.0, [1.0, 2.0, 3.0]))
    for value, shape in [(np.ones(3), "(3,)"), (np.ones((2, 4)), "(2, 4)"),
                         ("abc", "()")]:
        with pytest.raises(ValueError, match=re.escape("shape " + shape)):
            as_coeffs(ctx, value)


@pytest.mark.parametrize("value", [2, 2.0, True, np.int64(2), np.int32(2),
                                   np.float32(2), np.float64(2), np.bool_(1),
                                   np.array(2.0), np.array(2), np.array(True)],
                         ids=repr)
def test_multivector_arithmetic_takes_real_scalars(value):
    # numpy's real scalars and 0-d real arrays are scalars too, as as_coeffs
    # takes them, on either side of *, + and -
    ctx = get_context(2)
    a = Multivector(ctx, [1.0, -2.0, 0.5, 3.0])
    s = float(value)
    for got, want in [(a * value, a.coeffs * s), (value * a, a.coeffs * s),
                      (a + value, a.coeffs + [s, 0, 0, 0]),
                      (value + a, a.coeffs + [s, 0, 0, 0]),
                      (a - value, a.coeffs - [s, 0, 0, 0]),
                      (value - a, [s, 0, 0, 0] - a.coeffs)]:
        assert isinstance(got, Multivector)
        assert np.array_equal(got.coeffs, want)


@pytest.mark.parametrize("value", ["3", 1j, np.complex128(1), np.ones(4),
                                   None, np.array(1j), np.ones(1)], ids=repr)
def test_multivector_arithmetic_refuses_other_values(value):
    a = get_context(2).scalar(1.0)
    for op in (lambda: a * value, lambda: a + value, lambda: a - value,
               lambda: value - a):
        with pytest.raises(TypeError, match="as a Multivector"):
            op()


@pytest.mark.parametrize("n", DIMS)
def test_reversion_reverses_products_and_fixes_paravectors(n):
    # rev(e_A e_B) = rev(e_B) rev(e_A) on every blade pair, and rev fixes
    # 1, e_1, ..., e_n: the mirror that turns right sums into left sums
    ctx = get_context(n)
    rev = ctx.reverse_sign
    eye = np.eye(ctx.dim)
    for a in range(ctx.dim):
        for b in range(ctx.dim):
            ab = batch_product(ctx, eye[a], eye[b])
            assert np.array_equal(ab * rev, batch_product(
                ctx, eye[b] * rev, eye[a] * rev))
    assert np.all(rev[ctx.paravector_blades] == 1.0)


# -- product loops without sign multiplies ----------------------------------------


def _blades(ctx, width):
    return list(range(ctx.dim)) if width == ctx.dim else \
        ctx.paravector_blades.tolist()


def _signed_product(ctx, A, B):
    # the table loop as a multiply by the sign: sign * A_i * B_j onto a b
    out = np.zeros(np.broadcast_shapes(A.shape[:-1], B.shape[:-1])
                   + (ctx.dim,))
    for i, a in enumerate(_blades(ctx, A.shape[-1])):
        if not A[..., i].any():
            continue
        for j, b in enumerate(_blades(ctx, B.shape[-1])):
            out[..., a ^ b] += float(ctx.sign_table[a, b]) * A[..., i] * B[..., j]
    return out


def _signed_scatter(ctx, T):
    out = np.zeros(T.shape[1:-1] + (ctx.dim,))
    for i, a in enumerate(_blades(ctx, T.shape[0])):
        for j, b in enumerate(_blades(ctx, T.shape[-1])):
            out[..., a ^ b] += float(ctx.sign_table[a, b]) * T[i, ..., j]
    return out


def _with_zeros(rng, shape):
    # normal entries with +0 and -0 mixed in, and one all-zero column
    X = rng.normal(size=shape)
    X[rng.random(shape) < 0.2] = 0.0
    X[rng.random(shape) < 0.2] = -0.0
    X[..., 0] = 0.0
    return X


@pytest.mark.parametrize("n", [1, 2, 3])
def test_product_loops_add_or_subtract_as_sign_multiplies(n):
    ctx = get_context(n)
    rng = np.random.default_rng(n)
    for wa, wb in ((ctx.dim, ctx.dim), (n + 1, n + 1), (ctx.dim, n + 1)):
        A = _with_zeros(rng, (40, wa))
        B = _with_zeros(rng, (40, wb))
        got = batch_product(ctx, A, B)
        assert np.array_equal(got.view(np.int64),
                              _signed_product(ctx, A, B).view(np.int64))
        T = _with_zeros(rng, (wa, 7, wb))
        assert np.array_equal(scatter_pairs(ctx, T).view(np.int64),
                              _signed_scatter(ctx, T).view(np.int64))
