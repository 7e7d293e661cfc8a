"""Kernel sums against a plain per-pair loop over kernel_E and product.

The product helpers behind them (scatter_pairs, batch_product and
sided_sum of clifford_core) are checked the same way against product, in
both orders of their factors.

Each reference value is a straight double loop over target and source
nodes, built only from cauchy.kernel_E and clifford_core.product, so it
shares no code with the batched kernel path.  The tolerances are fixed
from float64 rounding alone: a sum of m rounded terms in any order is off
by at most gamma_m = m u / (1 - m u) times the sum of the absolute terms
(u = 2^-53), and every term carries a few roundings of its own from the
kernel evaluation and the products.  Both paths err, hence the factor 2.

The FFT route of node-target sums on uniform circles is checked against
the direct paths, which the pair loops check, with a bound of its own.
"""

import dataclasses

import numpy as np
import pytest

from hypercauchy import _accel, cauchy, cli
from hypercauchy.cauchy import (BoundaryDensity, gradient_stencil, kernel_E,
                                kernel_E_rows, principal_value_nodes)
from hypercauchy.clifford_core import (Multivector, Paravector, batch_product,
                                       get_context, paravectors_as_coeffs,
                                       product, scatter_pairs, sided_sum)
from hypercauchy.surface import (DomainSpec, SurfaceMesh, build_mesh,
                                 load_mesh, save_mesh)
from hypercauchy._corpus import random_smooth, rough_holder

UNIT_ROUNDOFF = 2.0 ** -53
# roundings per term outside the summation: r^2 (n+1 <= 4 products and
# sums), the power, the scaling and up to three geometric products
TERM_ROUNDINGS = 32

SPECS = {
    "circle": DomainSpec("circle", 1, center=(0.0, 0.0), radius=1.0),
    "sphere2": DomainSpec("sphere", 2, center=(0.0, 0.0, 0.0), radius=1.0),
    "sphere3": DomainSpec("sphere", 3, center=(0.0, 0.0, 0.0, 0.0),
                          radius=1.0),
}


@pytest.fixture(scope="module", params=sorted(SPECS))
def mesh(request):
    return build_mesh(SPECS[request.param], 0)


def _tolerance(terms, abs_sum):
    """2 gamma_m * abs_sum for m = terms + TERM_ROUNDINGS roundings."""
    m = terms + TERM_ROUNDINGS
    return 2.0 * m * UNIT_ROUNDOFF / (1.0 - m * UNIT_ROUNDOFF) * abs_sum


def _kernel_mv(ctx, x, w):
    return kernel_E(x, w).as_multivector(ctx)


def _paravector(ctx, row):
    return Paravector(row[0], row[1:]).as_multivector(ctx)


def _l1(mv):
    return float(np.abs(mv.coeffs).sum())


def _assert_within(got, want, tol):
    err = np.abs(np.asarray(got) - np.asarray(want))
    assert np.all(err <= tol[..., None]), (float(err.max()), float(tol.min()))


def _reference_accum(ctx, targets, nodes, g, excl, side):
    out = np.zeros((len(targets), ctx.dim))
    abs_sum = np.zeros(len(targets))
    for i, w in enumerate(targets):
        total = Multivector.zero(ctx)
        for j, x in enumerate(nodes):
            if excl is not None and j == excl[i]:
                continue
            E = _kernel_mv(ctx, x, w)
            gj = Multivector(ctx, g[j])
            total = total + (product(E, gj) if side == "left"
                             else product(gj, E))
            abs_sum[i] += _l1(E) * _l1(gj)
        out[i] = total.coeffs
    return out, abs_sum


@pytest.mark.parametrize("side", ["left", "right"])
def test_accumulators_match_pair_loop(mesh, side):
    ctx = mesh.context
    f = random_smooth(mesh, 5)
    g = f.samples * mesh.weights[:, None]
    accum = _accel.accum_left if side == "left" else _accel.accum_right
    N = mesh.node_count
    rng = np.random.default_rng(11)
    picks = np.sort(rng.choice(N, size=6, replace=False))
    cases = [
        # off-surface targets, no exclusion
        (np.concatenate([0.4 * mesh.nodes[picks[:3]],
                         1.7 * mesh.nodes[picks[3:]]]), None),
        # node targets, each skipping its own node (principal-value sums)
        (mesh.nodes[picks], picks),
        # off-surface targets skipping some other node, or none
        (0.5 * mesh.nodes[picks[:4]],
         np.array([picks[5], picks[4], -1, picks[0]])),
    ]
    for targets, excl in cases:
        got = accum(ctx, targets, mesh.nodes, g, excl, circle=None)
        want, abs_sum = _reference_accum(ctx, targets, mesh.nodes, g, excl,
                                         side)
        _assert_within(got, want, _tolerance(N * (ctx.n + 1), abs_sum))


def _count_kernel_pairs(monkeypatch):
    """Record the target-node pairs of every kernel block built."""
    built = []
    original = _accel._block_planes

    def counted(targets, nodes_T, n, skip, work):
        built.append(len(targets) * nodes_T.shape[1])
        return original(targets, nodes_T, n, skip, work)

    monkeypatch.setattr(_accel, "_block_planes", counted)
    return built


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("N", [7, 300, 1500])
def test_node_node_tiles_match_row_blocks(N, n, side, monkeypatch):
    # the nodes summed over themselves, each skipping its own, take the
    # tile path; the same sums with the targets reversed take row blocks
    ctx = get_context(n)
    rng = np.random.default_rng(N + n)
    nodes = rng.normal(size=(N, n + 1))
    G = rng.normal(size=(3, N, ctx.dim))
    accum = _accel.accum_left if side == "left" else _accel.accum_right
    excl = np.arange(N)
    rows = accum(ctx, nodes[::-1], nodes, G, excl[::-1],
                 circle=None)[:, ::-1]
    one = accum(ctx, nodes, nodes, G[1], excl, circle=None)
    built = _count_kernel_pairs(monkeypatch)
    tiles = accum(ctx, nodes, nodes, G, excl, circle=None)
    # each kernel value is built once: upper-triangular tiles of edge 256
    edges = np.diff(np.r_[0:N:256, N])
    assert sum(built) == (N ** 2 + (edges ** 2).sum()) // 2
    abs_sum = _kernel_l1(nodes, nodes) @ np.abs(G).sum(axis=2).T
    tol = _tolerance(N * (n + 1), abs_sum.T)
    _assert_within(tiles, rows, tol)
    _assert_within(one, rows[1], tol[1])


def test_pv_matrix_matches_pair_loop(mesh):
    ctx = mesh.context
    N = mesh.node_count
    rng = np.random.default_rng(3)
    dmat = rng.normal(size=(N, N, ctx.dim))
    nuw = mesh.measure_coeffs()
    got = _accel.pv_matrix(ctx, mesh.nodes, nuw, dmat)
    rows = rng.choice(N, size=3, replace=False)
    for i in rows:
        total = Multivector.zero(ctx)
        abs_sum = 0.0
        for j in range(N):
            if j == i:
                continue
            E = _kernel_mv(ctx, mesh.nodes[j], mesh.nodes[i])
            dens = _paravector(ctx, nuw[j])
            D = Multivector(ctx, dmat[j, i] - dmat[i, i])
            total = total + product(product(E, dens), D)
            abs_sum += _l1(E) * _l1(dens) * _l1(D)
        terms = N * (ctx.n + 1) ** 2 * ctx.dim
        _assert_within(got[i], total.coeffs,
                       np.asarray(_tolerance(terms, abs_sum)))


def _factors(ctx, N, seed):
    """Random factor rows (left, right) and the (N, N, dim) kernel
    k[j, i] = left[j] right[i] they stand for, held for the reference sums."""
    left, right = np.random.default_rng(seed).normal(size=(2, N, ctx.dim))
    return left, right, batch_product(ctx, left[:, None], right[None])


def _shared_sums(ctx, nodes, nuw, left):
    """S1[i] = sum_{j != i} E(x_j - x_i) nuw_j left_j, which pb_rhs takes,
    by the FFT route when the nodes are a uniform circle."""
    return _accel.accum_left(ctx, nodes, nodes, batch_product(ctx, nuw, left),
                             np.arange(len(nodes)),
                             circle=_accel.uniform_circle(nodes))


def test_pb_rhs_matches_pair_loop(mesh):
    ctx = mesh.context
    # the double sum is O(N^2) products per target; a slice of the mesh
    # keeps the reference loop short while every index case still occurs
    N = min(mesh.node_count, 48)
    nodes = mesh.nodes[:N]
    nuw = mesh.measure_coeffs()[:N]
    left, right, kmat = _factors(ctx, N, 7)
    S1 = _shared_sums(ctx, nodes, nuw, left)
    dens = [_paravector(ctx, row) for row in nuw]
    l_l1, r_l1 = np.abs(left).sum(axis=1), np.abs(right).sum(axis=1)
    for t in (0, N // 2):
        got = _accel.pb_rhs(ctx, nodes, nuw, left, right, np.array([t]),
                            S1)[0]
        total = Multivector.zero(ctx)
        abs_sum = 0.0
        for i in range(N):
            if i == t:
                continue
            A = product(_kernel_mv(ctx, nodes[i], nodes[t]), dens[i])
            for j in range(N):
                if j == i:
                    continue
                C = product(_kernel_mv(ctx, nodes[j], nodes[i]), dens[j])
                # pb_rhs sums the factors apart, j = t too, so the bound
                # takes |left_j| (|right_i| + |right_t|) per term
                abs_sum += _l1(A) * _l1(C) * l_l1[j] * (r_l1[i] + r_l1[t])
                if j != t:
                    K = Multivector(ctx, kmat[j, i] - kmat[j, t])
                    total = total + product(A, product(C, K))
        terms = N * N * ctx.dim ** 2 + 2 * (ctx.n + 1) ** 2
        _assert_within(got, total.coeffs,
                       np.asarray(_tolerance(terms, abs_sum)))


def _kernel_l1(x, w):
    """|E(x_j - w_i)|_1 = |x_j - w_i|_1 / |x_j - w_i|^(n+1), 0 at r = 0."""
    d = x[None, :, :] - w[:, None, :]
    r = np.linalg.norm(d, axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.abs(d).sum(axis=2) / r ** d.shape[2]
    out[r == 0.0] = 0.0
    return out


def test_pb_rhs_index_array_matches_int_calls(mesh):
    ctx = mesh.context
    N = min(mesh.node_count, 48)
    nodes = mesh.nodes[:N]
    nuw = mesh.measure_coeffs()[:N]
    left, right, _ = _factors(ctx, N, 7)
    ts = np.array([0, 5, N // 2, N - 1])
    S1 = _shared_sums(ctx, nodes, nuw, left)
    got = _accel.pb_rhs(ctx, nodes, nuw, left, right, ts, S1)
    assert got.shape == (ts.size, ctx.dim)
    # both sum A_t[i] (S1[i] - C_t[i] left[t]) (right[i] - right[t]), so
    # the bound takes |left_j| (|right_i| + |right_t|) per pair (i, j)
    nuw_l1 = np.abs(nuw).sum(axis=1)
    C = _kernel_l1(nodes, nodes) * nuw_l1[None, :]
    l_l1, r_l1 = np.abs(left).sum(axis=1), np.abs(right).sum(axis=1)
    for row, t in enumerate(ts):
        A = _kernel_l1(nodes, nodes[t:t + 1])[0] * nuw_l1
        abs_sum = A @ ((C @ l_l1) * (r_l1 + r_l1[t]))
        terms = N * N * ctx.dim ** 2 + 2 * (ctx.n + 1) ** 2
        _assert_within(got[row],
                       _accel.pb_rhs(ctx, nodes, nuw, left, right,
                                     ts[row:row + 1], S1)[0],
                       np.asarray(_tolerance(terms, abs_sum)))


@pytest.fixture(scope="module", params=[("circle", 3), ("sphere2", 1)],
                ids=lambda p: "%s-L%d" % p)
def wide_mesh(request):
    # more nodes than a 256-node tile edge, so node-to-node sums run over
    # off-diagonal tiles and their transposes
    spec, level = request.param
    return build_mesh(SPECS[spec], level)


def _dense_kernel(mesh):
    """E[i, j] = E(x_j - x_i) as paravector rows, one kernel_E_rows per i."""
    return np.stack([kernel_E_rows(mesh.nodes, x) for x in mesh.nodes])


def test_pv_matrix_matches_dense_sums(wide_mesh):
    ctx, N = wide_mesh.context, wide_mesh.node_count
    nuw = wide_mesh.measure_coeffs()
    dmat = np.random.default_rng(13).normal(size=(N, N, ctx.dim))
    got = _accel.pv_matrix(ctx, wide_mesh.nodes, nuw, dmat)
    E = _dense_kernel(wide_mesh)
    # D[i, j] = dmat[j, i] - dmat[i, i]
    D = (dmat - dmat[np.arange(N), np.arange(N)][None]).swapaxes(0, 1)
    want = batch_product(ctx, batch_product(ctx, E, nuw[None]), D).sum(axis=1)
    abs_sum = (np.abs(E).sum(axis=2) * np.abs(nuw).sum(axis=1)
               * np.abs(D).sum(axis=2)).sum(axis=1)
    _assert_within(got, want,
                   _tolerance(N * (ctx.n + 1) ** 2 * ctx.dim, abs_sum))


def test_pb_rhs_matches_dense_sums(wide_mesh):
    ctx, N = wide_mesh.context, wide_mesh.node_count
    nuw = wide_mesh.measure_coeffs()
    left, right, kmat = _factors(ctx, N, 17)
    # sampled nodes in the first, second and last tile of 256 nodes
    ts = np.array([0, 255, 256, N - 1])
    got = _accel.pb_rhs(ctx, wide_mesh.nodes, nuw, left, right, ts,
                        _shared_sums(ctx, wide_mesh.nodes, nuw, left))
    E = _dense_kernel(wide_mesh)
    C = batch_product(ctx, E, nuw[None])
    C_l1 = np.abs(E).sum(axis=2) * np.abs(nuw).sum(axis=1)
    l_l1, r_l1 = np.abs(left).sum(axis=1), np.abs(right).sum(axis=1)
    terms = N * N * ctx.dim ** 2 + 2 * (ctx.n + 1) ** 2
    for row, t in enumerate(ts):
        # S[i] = sum_{j not in {i, t}} C[i, j] (kmat[j, i] - kmat[j, t])
        CK = batch_product(ctx, C, (kmat - kmat[:, t][:, None]).swapaxes(0, 1))
        CK[:, t] = 0.0
        # A[i] = E(x_i - x_t) nuw_i, zero at i = t
        A = batch_product(ctx, E[t], nuw)
        want = batch_product(ctx, A, CK.sum(axis=1)).sum(axis=0)
        bound = C_l1 * l_l1[None, :] * (r_l1 + r_l1[t])[:, None]
        abs_sum = C_l1[t] @ bound.sum(axis=1)
        _assert_within(got[row], want, np.asarray(_tolerance(terms, abs_sum)))


def test_pv_matrix_and_pb_rhs_build_each_node_pair_once(wide_mesh,
                                                       monkeypatch):
    ctx, N = wide_mesh.context, wide_mesh.node_count
    nuw = wide_mesh.measure_coeffs()
    mat = np.random.default_rng(19).normal(size=(N, N, ctx.dim))
    built = _count_kernel_pairs(monkeypatch)
    # pv_matrix builds each target's kernel row against every node once
    _accel.pv_matrix(ctx, wide_mesh.nodes, nuw, mat)
    assert sum(built) == N * N
    built.clear()
    ts = np.array([0, 255, 256, N - 1])
    _accel.pb_rhs(ctx, wide_mesh.nodes, nuw, mat[:, 0], mat[0], ts, mat[1])
    # pb_rhs takes S1 as given, so it builds the sampled nodes' rows alone
    assert built == [ts.size * N]


def test_pb_rhs_takes_no_kernel_pass(mesh, monkeypatch):
    ctx, N = mesh.context, mesh.node_count
    nuw = mesh.measure_coeffs()
    left, right, _ = _factors(ctx, N, 23)
    S1 = _shared_sums(ctx, mesh.nodes, nuw, left)
    calls = []
    original = _accel.accum_left
    monkeypatch.setattr(_accel, "accum_left", lambda *args, **kwargs: (
        calls.append(args) or original(*args, **kwargs)))
    rhs = _accel.pb_rhs(ctx, mesh.nodes, nuw, left, right, np.arange(3), S1)
    assert calls == []
    assert rhs.shape == (3, ctx.dim) and np.all(np.isfinite(rhs))


# -- the FFT route on uniform circles -------------------------------------------

# the FFT sums the ideal grid, the direct paths the rounded nodes: their
# difference stays below FFT_PARITY N u max|sum| (measured: under 1.0 on
# circle L0-L8 for these densities)
FFT_PARITY = 4.0
# a circle off the origin with radius != 1, so neither hides a slip
SHIFTED = DomainSpec("circle", 1, center=(0.3, -1.2), radius=1.7)


def _fft_calls(monkeypatch):
    """Record the stack size of every call of the FFT route."""
    calls = []
    original = _accel._circle_sums

    def counted(G, nodes, circle):
        calls.append(len(G))
        return original(G, nodes, circle)

    monkeypatch.setattr(_accel, "_circle_sums", counted)
    return calls


def _circle_stack(mesh):
    """Two measured densities and the measure itself (S2's density)."""
    w = mesh.weights[:, None]
    return np.stack([random_smooth(mesh, 5).samples * w,
                     rough_holder(mesh, 3).samples * w,
                     paravectors_as_coeffs(mesh.context,
                                           mesh.measure_coeffs())])


def _node_sums(mesh, G, side, nodes=None):
    """Node-target sums with the nodes' uniform circle test, as cauchy
    passes it from the mesh's cache."""
    nodes = mesh.nodes if nodes is None else nodes
    accum = _accel.accum_left if side == "left" else _accel.accum_right
    return accum(mesh.context, nodes, nodes, G, np.arange(len(nodes)),
                 circle=_accel.uniform_circle(nodes))


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("level", range(9))
def test_circle_fft_matches_direct_sums(level, side, monkeypatch):
    mesh = build_mesh(SHIFTED, level)
    ctx, N = mesh.context, mesh.node_count
    G = _circle_stack(mesh)
    calls = _fft_calls(monkeypatch)
    fft = _node_sums(mesh, G, side)
    assert calls == [len(G)]
    # at most 512 rows, in reverse: indexed targets take the direct row
    # blocks, so the reference stays cheap at L8 (N = 16,384)
    rows = np.arange(0, N, max(1, N // 512))[::-1]
    accum = _accel.accum_left if side == "left" else _accel.accum_right
    direct = accum(ctx, mesh.nodes[rows], mesh.nodes, G, rows, circle=None)
    assert calls == [len(G)]
    for k in range(len(G)):
        bound = FFT_PARITY * N * UNIT_ROUNDOFF * np.abs(direct[k]).max()
        assert np.abs(fft[k, rows] - direct[k]).max() <= bound
    # the complex product commutes: both sides give the same sums
    other = "right" if side == "left" else "left"
    assert np.array_equal(fft, _node_sums(mesh, G, other))


def test_permuted_circle_takes_fft_route(monkeypatch):
    mesh = build_mesh(SHIFTED, 2)
    N = mesh.node_count
    G = _circle_stack(mesh)
    perm = np.random.default_rng(5).permutation(N)
    calls = _fft_calls(monkeypatch)
    sorted_sums = _node_sums(mesh, G, "left")
    permuted = _node_sums(mesh, G[:, perm], "left", mesh.nodes[perm])
    assert calls == [len(G), len(G)]
    # the nodes' mean, the centre, rounds with their order
    for k in range(len(G)):
        bound = FFT_PARITY * N * UNIT_ROUNDOFF * np.abs(sorted_sums[k]).max()
        assert np.abs(permuted[k] - sorted_sums[k, perm]).max() <= bound


def test_circle_grid_is_found_once_per_mesh(monkeypatch):
    # the stencil and both node-target sums of a poincare-bertrand level
    # (the separable f, then the kernel) read the mesh's cached test
    found = []
    original = _accel.uniform_circle
    monkeypatch.setattr(_accel, "uniform_circle",
                        lambda nodes: found.append(1) or original(nodes))
    ffts = _fft_calls(monkeypatch)
    cfg = cli.resolve_config({"experiment": "poincare-bertrand",
                              "surface": "circle"}, ["levels=3,4"])
    cli.run_experiment(cfg)
    assert len(found) == 2
    assert len(ffts) >= 2


def test_accumulators_take_no_default_route():
    # the route argument has no default: each caller names the circle
    # test, or None for the direct paths
    mesh = build_mesh(SHIFTED, 2)
    g = _circle_stack(mesh)[0]
    for accum in (_accel.accum_left, _accel.accum_right):
        with pytest.raises(TypeError, match="circle"):
            accum(mesh.context, mesh.nodes, mesh.nodes, g,
                  np.arange(mesh.node_count))


@pytest.mark.parametrize("side", ["left", "right"])
def test_node_subset_takes_no_whole_mesh_circle(side, monkeypatch):
    # every other node of a uniform circle as targets, each skipping its
    # own: the whole mesh's grid test holds, but the FFT route sums at
    # every node, so a subset of node targets takes the direct route,
    # bitwise
    mesh = build_mesh(SHIFTED, 2)
    assert cauchy._uniform_circle(mesh) is not None
    excl = np.arange(0, mesh.node_count, 2)
    sub = mesh.nodes[excl]
    G = _circle_stack(mesh)
    calls = _fft_calls(monkeypatch)
    got = cauchy._accum(mesh, sub, G, excl=excl)
    accum = _accel.accum_left if side == "left" else _accel.accum_right
    want = accum(mesh.context, sub, mesh.nodes, G, excl, circle=None)
    assert calls == []
    assert got.tobytes() == want.tobytes()


def test_reloaded_circle_takes_fft_route(monkeypatch, tmp_path):
    mesh = build_mesh(SHIFTED, 2)
    save_mesh(mesh, tmp_path / "circle.mesh")
    loaded = load_mesh(tmp_path / "circle.mesh")
    assert loaded.spec is None
    f = random_smooth(mesh, 5)
    calls = _fft_calls(monkeypatch)
    pv = principal_value_nodes(loaded, BoundaryDensity(loaded, f.samples))
    assert calls == [2]
    # the loaded mesh also keeps the periodic circle stencil
    assert gradient_stencil(loaded)[0].shape[1] == 4
    assert np.allclose(pv, principal_value_nodes(mesh, f), rtol=0.0,
                       atol=1e-12)


def _assert_direct_route(mesh, monkeypatch, indices=None, f=None):
    calls = _fft_calls(monkeypatch)
    built = _count_kernel_pairs(monkeypatch)
    f = random_smooth(mesh, 5) if f is None else f
    principal_value_nodes(mesh, f, indices=indices)
    assert calls == [] and sum(built) > 0


def test_perturbed_circle_takes_direct_route(monkeypatch):
    mesh = build_mesh(SHIFTED, 2)
    assert _accel.uniform_circle(mesh.nodes) is not None
    nodes = mesh.nodes.copy()
    # one node off the grid by 1e-10 R, along the radius
    nodes[7] += 1e-10 * SHIFTED.radius * mesh.normals[7]
    moved = dataclasses.replace(mesh, nodes=nodes)
    assert _accel.uniform_circle(nodes) is None
    # a copy has no spec, so its density is the built mesh's samples
    f = BoundaryDensity(moved, random_smooth(mesh, 5).samples)
    _assert_direct_route(moved, monkeypatch, f=f)
    # the stencil asks the same test: a least-squares fit, not the
    # periodic 4-point stencil
    assert gradient_stencil(moved)[0].shape[1] != 4


def test_capped_circle_takes_direct_route(monkeypatch):
    mesh = build_mesh(SHIFTED, 2)
    keep = np.linalg.norm(mesh.nodes - mesh.nodes[0], axis=1) > 0.1
    capped = SurfaceMesh(mesh.nodes[keep], mesh.normals[keep],
                         mesh.weights[keep])
    assert capped.node_count < mesh.node_count
    # a sub-mesh has no spec, so its density is the full mesh's, cut
    f = BoundaryDensity(capped, random_smooth(mesh, 5).samples[keep])
    _assert_direct_route(capped, monkeypatch, f=f)


def test_indexed_circle_rows_take_direct_route(monkeypatch):
    mesh = build_mesh(SHIFTED, 2)
    _assert_direct_route(mesh, monkeypatch, indices=[0, 5, 9])
    # every node, but in another order than the nodes', is indexed too
    _assert_direct_route(mesh, monkeypatch,
                         indices=np.arange(mesh.node_count)[::-1])


def _row_mv(ctx, row):
    """A dense (2^n) or paravector (n+1) row as a Multivector."""
    if row.shape[0] == ctx.dim:
        return Multivector(ctx, row)
    return _paravector(ctx, row)


def _widths(ctx):
    return sorted({ctx.dim, ctx.n + 1})


def _sided_mv(side, K, f):
    return product(K, f) if side == "left" else product(f, K)


def _sided_rows(side, K, f):
    """The factors (K, f) for side 'left', (f, K) for 'right': the library
    takes left products only, and the tests take right ones by swapping."""
    return (K, f) if side == "left" else (f, K)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_scatter_pairs_matches_blade_products(n):
    ctx = get_context(n)
    rng = np.random.default_rng(n)
    for wl in _widths(ctx):
        for wr in _widths(ctx):
            T = rng.normal(size=(wl, 2, 3, wr))
            got = scatter_pairs(ctx, T)
            assert got.shape == (2, 3, ctx.dim)
            for m in np.ndindex(2, 3):
                total = Multivector.zero(ctx)
                for a in range(wl):
                    for b in range(wr):
                        pair = product(_row_mv(ctx, np.eye(wl)[a]),
                                       _row_mv(ctx, np.eye(wr)[b]))
                        total = total + T[(a,) + m + (b,)] * pair
                abs_sum = np.abs(T[(slice(None),) + m]).sum()
                _assert_within(got[m], total.coeffs,
                               np.asarray(_tolerance(wl * wr, abs_sum)))


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_sided_product_matches_product(n, side):
    ctx = get_context(n)
    rng = np.random.default_rng(10 + n)
    for wk in _widths(ctx):
        for wf in _widths(ctx):
            K = rng.normal(size=(5, wk))
            f = rng.normal(size=(5, wf))
            got = batch_product(ctx, *_sided_rows(side, K, f))
            for i in range(5):
                want = _sided_mv(side, _row_mv(ctx, K[i]), _row_mv(ctx, f[i]))
                abs_sum = np.abs(K[i]).sum() * np.abs(f[i]).sum()
                _assert_within(got[i], want.coeffs,
                               np.asarray(_tolerance(wk * wf, abs_sum)))


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_sided_sum_matches_product_loop(n, side):
    ctx = get_context(n)
    rng = np.random.default_rng(20 + n)
    N = 37
    for wk in _widths(ctx):
        for wf in _widths(ctx):
            # a stack of 3 kernels against one density, and a single pair
            K = rng.normal(size=(3, N, wk))
            f = rng.normal(size=(N, wf))
            cases = [(K, f, sided_sum(ctx, *_sided_rows(side, K, f))),
                     (K[:1], f,
                      sided_sum(ctx, *_sided_rows(side, K[0], f))[None])]
            for Ks, fs, got in cases:
                assert got.shape == (Ks.shape[0], ctx.dim)
                for r in range(Ks.shape[0]):
                    total = Multivector.zero(ctx)
                    for j in range(N):
                        total = total + _sided_mv(side, _row_mv(ctx, Ks[r, j]),
                                                  _row_mv(ctx, fs[j]))
                    abs_sum = np.abs(Ks[r]).sum(axis=1) @ np.abs(fs).sum(axis=1)
                    _assert_within(got[r], total.coeffs,
                                   np.asarray(_tolerance(N * wk * wf,
                                                         abs_sum)))


# -- kernel planes in one work buffer ----------------------------------------------


def _planes_as_formed_before(targets, nodes_T, n, skip=None):
    # the plain expression: x - w on every plane, then the conjugation sign
    E = nodes_T[:, None, :] - np.asarray(targets, dtype=np.float64).T[:, :, None]
    r2 = E[0] * E[0]
    for k in range(1, n + 1):
        r2 += E[k] * E[k]
    with np.errstate(divide="ignore"):
        inv = r2 ** (-0.5 * (n + 1))
    inv[r2 == 0.0] = 0.0
    E *= inv
    E[1:] *= -1.0
    if skip is not None:
        rows = np.flatnonzero(skip >= 0)
        E[:, rows, skip[rows]] = 0.0
    return E


def _assert_same_bits(got, want):
    # bit for bit, except the sign of a zero at r = 0: there the plain
    # expression gives -0 on planes k >= 1, and either zero adds nothing
    same = got.view(np.int64) == want.view(np.int64)
    assert np.all(same | ((got == 0.0) & (want == 0.0)))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernel_planes_match_the_plain_expression(n):
    rng = np.random.default_rng(n)
    nodes = rng.normal(size=(53, n + 1))
    targets = np.concatenate([rng.normal(size=(9, n + 1)), nodes[[4, 20]]])
    nodes_T = np.ascontiguousarray(nodes.T)
    skip = np.full(len(targets), -1)
    skip[[1, 9]] = [7, 4]            # row 9 sits on node 4, which it skips
    work = np.full((2, 4000), np.nan)
    for sk in (None, skip):
        want = _planes_as_formed_before(targets, nodes_T, n, sk)
        fresh = _accel._kernel_E_block(targets, nodes_T, n, sk)
        _assert_same_bits(fresh, want)
        # each plane of a work-buffer block, while it is the latest
        for p, plane in enumerate(_accel._block_planes(targets, nodes_T, n,
                                                       sk, work)):
            _assert_same_bits(plane, want[p])
        # a partial block: fewer targets and a column slice of the nodes
        part = _planes_as_formed_before(targets[:5], nodes_T[:, 40:], n,
                                        None if sk is None else sk[:5])
        for p, plane in enumerate(_accel._block_planes(
                targets[:5], nodes_T[:, 40:], n,
                None if sk is None else sk[:5], work)):
            assert np.shares_memory(plane, work)
            _assert_same_bits(plane, part[p])
    # row 10 sits on node 20 and does not skip it: a zero entry, not inf
    assert np.all(fresh[:, 10, 20] == 0.0)


@pytest.mark.parametrize("exponent", [-1.0, -1.5, -2.0])
def test_power_into_a_buffer_rounds_as_the_operator(exponent):
    # the planes take np.power(r2, e, out=...) where r2 ** e was written
    rng = np.random.default_rng(7)
    r2 = np.concatenate([rng.uniform(0.0, 1.0, 5000),
                         rng.uniform(0.0, 1e-6, 5000),
                         rng.uniform(1.0, 1e4, 5000)]).reshape(3, 5000)
    out = np.empty((5, r2.size))
    got = np.power(r2, exponent, out=out[2].reshape(r2.shape))
    assert np.array_equal(got.view(np.int64), (r2 ** exponent).view(np.int64))


@pytest.mark.parametrize("N", [300, 600])
def test_node_pair_tiles_share_one_buffer(N, monkeypatch):
    nodes = np.random.default_rng(N).normal(size=(N, 3))
    tiles = []
    original = _accel._block_planes

    def checked(targets, nodes_T, n, skip, work):
        tiles.append(work)
        # each plane is the plain expression while it is the latest
        want = _planes_as_formed_before(targets, nodes_T, n, skip)
        for p, plane in enumerate(original(targets, nodes_T, n, skip, work)):
            _assert_same_bits(plane, want[p])
            yield plane

    monkeypatch.setattr(_accel, "_block_planes", checked)
    ctx = get_context(2)
    _accel.accum_left(ctx, nodes, nodes, np.ones((N, ctx.dim)), np.arange(N),
                      circle=None)
    edges = -(-N // 256)
    assert len(tiles) == edges * (edges + 1) // 2
    for a, b in zip(tiles, tiles[1:]):
        assert np.shares_memory(a, b)


@pytest.mark.parametrize("node_targets", [False, True])
def test_sums_with_a_work_buffer_match_fresh_planes(node_targets, monkeypatch):
    # 600 off-node targets take the row blocks that ROW_BLOCK_BYTES allows
    # (12 of 52 rows at 512 KiB), 600 node targets six tiles; each sweep
    # builds all its blocks in one buffer, and its sums are bitwise those
    # of fresh planes per block
    ctx = get_context(2)
    rng = np.random.default_rng(1)
    nodes = rng.normal(size=(600, 3))
    G = rng.normal(size=(2, 600, ctx.dim))
    targets, excl = ((nodes, np.arange(600)) if node_targets
                     else (3.0 + nodes[::-1], None))
    blocks = []
    original = _accel._block_planes

    def kept(targets, nodes_T, n, skip, work):
        blocks.append(work)
        return original(targets, nodes_T, n, skip, work)

    def fresh(targets, nodes_T, n, skip, work):
        return original(targets, nodes_T, n, skip, np.empty_like(work))

    monkeypatch.setattr(_accel, "_block_planes", kept)
    got = [_accel.accum_left(ctx, targets, nodes, G, excl, circle=None),
           _accel.accum_right(ctx, targets, nodes, G, excl, circle=None)]
    group = 8 * 2 * 600 * _accel.GEMM_ROWS
    rows = _accel.GEMM_ROWS * (_accel.ROW_BLOCK_BYTES // group)
    per_call = 6 if node_targets else -(-600 // rows)
    assert per_call > 1
    assert len(blocks) == 2 * per_call
    assert all(np.shares_memory(blocks[0], b) for b in blocks[1:per_call])
    monkeypatch.setattr(_accel, "_block_planes", fresh)
    want = [_accel.accum_left(ctx, targets, nodes, G, excl, circle=None),
            _accel.accum_right(ctx, targets, nodes, G, excl, circle=None)]
    for a, b in zip(got, want):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))
