"""Kernel passes hold working memory of a fixed size.

A kernel block is built one plane at a time in a work buffer of two
rows, r^-(n+1) and the plane: a row block's holds at most
_accel.ROW_BLOCK_BYTES, node-pair tiles keep their edge of 256, and the
measure density rides in a kernel pass without a copy of the density
stack, and no pass holds a copy of the densities it sums.  A full gradient-stencil fit runs in chunks of
cauchy.STENCIL_FIT_ROWS nodes, bitwise one batched fit.  Each bound leaves every value
bitwise the same: the blocked results here are compared with full-block,
full-call or concatenated ones by their bytes.  Row blocks are contracted
as gemms of _accel.GEMM_ROWS rows, so an off-surface target's sum is
bitwise the same whichever targets share its call and whatever the budget.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

from hypercauchy import _accel, cauchy
from hypercauchy.clifford_core import (batch_product, get_context,
                                       paravectors_as_coeffs)
from hypercauchy.surface import (DomainSpec, SurfaceMesh, build_mesh,
                                  load_mesh, save_mesh)

SPHERE2 = DomainSpec("sphere", 2, center=(0.0, 0.0, 0.0), radius=1.0)
CIRCLE = DomainSpec("circle", 1, center=(0.0, 0.0), radius=1.0)
SPHERE3 = DomainSpec("sphere", 3, center=(0.0,) * 4, radius=1.0)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _record_buffers(monkeypatch):
    """The work buffer of every kernel block built (_block_planes)."""
    buffers = []
    original = _accel._block_planes

    def recorded(targets, nodes_T, n, skip, work):
        buffers.append(work)
        return original(targets, nodes_T, n, skip, work)

    monkeypatch.setattr(_accel, "_block_planes", recorded)
    return buffers


@pytest.mark.parametrize("N", [64, 512, 4096, 8192])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_row_block_buffers_stay_within_budget(n, N, monkeypatch):
    ctx = get_context(n)
    rng = np.random.default_rng(N + n)
    nodes = rng.normal(size=(N, n + 1))
    group = 8 * 2 * N * _accel.GEMM_ROWS
    rows = _accel.GEMM_ROWS * max(1, _accel.ROW_BLOCK_BYTES // group)
    targets = 5.0 + rng.normal(size=(2 * rows + 1, n + 1))
    g = rng.normal(size=(N, ctx.dim))
    buffers = _record_buffers(monkeypatch)
    _accel.accum_left(ctx, targets, nodes, g, circle=None)
    # two full blocks and a last one of one target, padded to a gemm group
    assert len(buffers) == 3
    assert all(b is buffers[0] for b in buffers)
    assert buffers[0].shape == (2, rows * N)
    # the budget holds one group of two rows up to 2^13 nodes, whatever n;
    # past that a block is that one group
    assert (group <= _accel.ROW_BLOCK_BYTES) == (N <= 2 ** 13)
    assert buffers[0].nbytes <= max(_accel.ROW_BLOCK_BYTES, group)


def _off_surface_targets(mesh, count, seed):
    """count targets off the surface, inside and outside in turn, and the
    node each is drawn from."""
    rng = np.random.default_rng(seed)
    t = rng.choice(mesh.node_count, count, replace=False)
    scale = np.where(np.arange(count) % 2 == 0, 0.6, 1.5)
    return scale[:, None] * mesh.nodes[t], t


# targets per row block at 512 KiB of two rows: sphere2 L4 holds 6 rows,
# so 4
@pytest.mark.parametrize("spec, level, block", [
    (CIRCLE, 4, 32), (SPHERE2, 1, 48), (SPHERE2, 4, 4), (SPHERE3, 1, 32)],
    ids=["circle-L4", "sphere2-L1", "sphere2-L4", "sphere3-L1"])
@pytest.mark.parametrize("excluded", [False, True])
@pytest.mark.parametrize("side", ["left", "right"])
def test_target_rows_do_not_depend_on_their_call(spec, level, block,
                                                 excluded, side,
                                                 monkeypatch):
    # every contiguous subset of 60 targets, at offsets 0, 1 and 7, and
    # calls of 100-299 targets that cross blocks: each row is bitwise the
    # full call's
    mesh = build_mesh(spec, level)
    ctx, N = mesh.context, mesh.node_count
    accum = _accel.accum_left if side == "left" else _accel.accum_right
    g = np.random.default_rng(level).normal(size=(N, ctx.dim))
    targets, t = _off_surface_targets(mesh, 300, level)
    excl = t if excluded else None

    def sums(s, e):
        return accum(ctx, targets[s:e], mesh.nodes, g,
                     None if excl is None else excl[s:e], circle=None)

    blocks = []
    original = _accel._block_planes

    def counted(targets, *args):
        blocks.append(targets.shape[0])
        return original(targets, *args)

    monkeypatch.setattr(_accel, "_block_planes", counted)
    every = sums(0, 300)
    monkeypatch.setattr(_accel, "_block_planes", original)
    assert blocks == ([block] * (300 // block)
                      + [300 % block] * (300 % block > 0))
    first = sums(0, 60)
    assert _same_bits(first, every[:60])
    for o in (0, 1, 7):
        for m in range(1, min(59, 60 - o) + 1):
            assert _same_bits(sums(o, o + m), first[o:o + m]), (o, m)
    for o, m in ((0, 100), (1, 157), (7, 250), (1, 299)):
        assert _same_bits(sums(o, o + m), every[o:o + m]), (o, m)


@pytest.mark.parametrize("side", ["left", "right"])
def test_target_rows_do_not_depend_on_the_budget(side, monkeypatch):
    # a budget of 4 rows, of 8 rows and the default 48 rows at sphere2 L1
    # give bitwise the same rows
    mesh = build_mesh(SPHERE2, 1)
    ctx, N = mesh.context, mesh.node_count
    accum = _accel.accum_left if side == "left" else _accel.accum_right
    g = np.random.default_rng(1).normal(size=(N, ctx.dim))
    targets, t = _off_surface_targets(mesh, 90, 1)
    row = 8 * 2 * N
    got = [accum(ctx, targets, mesh.nodes, g, t, circle=None)]
    for rows in (4, 8):
        monkeypatch.setattr(_accel, "ROW_BLOCK_BYTES", rows * row)
        buffers = _record_buffers(monkeypatch)
        got.append(accum(ctx, targets, mesh.nodes, g, t, circle=None))
        assert buffers[0].shape == (2, rows * N)
        monkeypatch.undo()
    assert _same_bits(got[0], got[1])
    assert _same_bits(got[0], got[2])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_node_pair_tiles_keep_edge_256(n, monkeypatch):
    # the tile edge sets how each node target's sum groups its terms, so it
    # stays fixed whatever the budget of the row blocks; every tile's two
    # rows share one buffer of 2 * 256^2 floats, whatever n
    assert _accel.TILE_EDGE == 256
    ctx = get_context(n)
    nodes = np.random.default_rng(n).normal(size=(600, n + 1))
    tiles = []
    original = _accel._block_planes

    def recorded(targets, nodes_T, n, skip, work):
        # a tile's rows are a slice of the nodes: find where it starts
        start = np.flatnonzero((nodes == targets[0]).all(axis=1))[0]
        tiles.append((start, len(targets), nodes_T.shape[1], work))
        return original(targets, nodes_T, n, skip, work)

    monkeypatch.setattr(_accel, "_block_planes", recorded)
    _accel.accum_left(ctx, nodes, nodes, np.ones((600, ctx.dim)),
                      np.arange(600), circle=None)
    starts = sorted({start for start, _, _, _ in tiles})
    assert starts == [0, 256, 512]
    assert [(C, J) for _, C, J, _ in tiles] == [
        (256, 256), (256, 256), (256, 88), (256, 256), (256, 88), (88, 88)]
    assert all(work is tiles[0][3] for _, _, _, work in tiles)
    assert tiles[0][3].nbytes == 2 * _accel.TILE_EDGE ** 2 * 8


@pytest.mark.parametrize("node_targets", [False, True])
def test_work_buffer_dies_before_the_blade_scatter(node_targets,
                                                   monkeypatch):
    # the blade scatter allocates the output; no tile or row buffer may
    # still be alive then
    ctx = get_context(2)
    nodes = np.random.default_rng(2).normal(size=(300, 3))
    targets, excl = ((nodes, np.arange(300)) if node_targets
                     else (3.0 + nodes, None))
    buffers = []
    original_block = _accel._block_planes
    original_scatter = _accel.scatter_pairs

    def block(targets, nodes_T, n, skip, work):
        buffers.append(weakref.ref(work))
        return original_block(targets, nodes_T, n, skip, work)

    def scatter(ctx, T):
        assert buffers and all(ref() is None for ref in buffers)
        return original_scatter(ctx, T)

    monkeypatch.setattr(_accel, "_block_planes", block)
    monkeypatch.setattr(_accel, "scatter_pairs", scatter)
    _accel.accum_left(ctx, targets, nodes, np.ones((300, ctx.dim)), excl,
                      circle=None)


def _concatenated_ride(mesh, samples, targets, t, excl):
    """S1 - S2 f(t) and S2 with the measure row appended by np.concatenate,
    as _shifted_sums formed its densities before they were written in
    place."""
    ctx, N = mesh.context, mesh.node_count
    measure = mesh.measure_coeffs()
    g = batch_product(ctx, measure, samples).reshape(-1, N, ctx.dim)
    g = np.concatenate([g, paravectors_as_coeffs(ctx, measure)[None]])
    sums = cauchy._accum(mesh, targets, g, excl)
    S2 = sums[-1]
    core = sums[:-1].reshape(samples.shape[:-2] + (len(targets), ctx.dim))
    return core - batch_product(ctx, S2, samples[..., t, :]), S2


@pytest.mark.parametrize("K", [0, 1, 10])
@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("spec, level", [(SPHERE2, 2), (CIRCLE, 3)],
                         ids=["sphere2-L2", "circle-L3"])
def test_measure_rides_without_a_copy(spec, level, side, K):
    mesh = build_mesh(spec, level)
    N, dim = mesh.node_count, mesh.context.dim
    rng = np.random.default_rng(K)
    samples = rng.normal(size=(K, N, dim))
    if side == "right":
        # a right-sided call hands the pass its densities' reversed rows
        samples *= mesh.context.reverse_sign
    nodes = np.arange(N)
    want, S2 = _concatenated_ride(mesh, samples, mesh.nodes, nodes, nodes)
    if K == 0:
        cauchy._shifted_sums(mesh, ())
        assert _same_bits(mesh.cache["self_sums"], S2)
    else:
        got = cauchy._shifted_sums(mesh, samples)
        assert _same_bits(got, want)
        assert _same_bits(mesh.cache["self_sums"], S2)
    # off-surface targets take the row blocks, and S2 rides every call
    t = nodes[::7]
    want, _ = _concatenated_ride(mesh, samples, 1.5 * mesh.nodes[t], t, None)
    got = cauchy._shifted_sums(mesh, samples, t, 1.5 * mesh.nodes[t])
    assert _same_bits(got, want)


# what a pass holds beside its one (K+1, N, 2^n) buffer and its row-block
# work buffer: the transposed nodes, the gemm factors, the targets' term
# stacks and sums, each O(N) or O(K M) floats
PASS_SLACK = 1 << 18


@pytest.mark.parametrize("case", ["boundary_limit", "principal_value_nodes"])
def test_passes_hold_no_copy_of_the_densities(case):
    # ten densities on sphere2 L3: a pass that stacked their samples would
    # hold K N 2^n * 8 = 0.82 MB more than its buffer and work rows; the
    # densities are sampled before tracing starts, so the traced peak is
    # the pass's own
    mesh = build_mesh(SPHERE2, 3)
    N, dim = mesh.node_count, mesh.context.dim
    fs = [cauchy.BoundaryDensity(mesh, np.random.default_rng(k).normal(
        size=(N, dim))) for k in range(10)]
    idx = np.array([0, N // 3, N - 1])
    tracemalloc.start()
    try:
        if case == "boundary_limit":
            cauchy.boundary_limit(mesh, fs, idx)
        else:
            cauchy.principal_value_nodes(mesh, fs, indices=idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = (len(fs) + 1) * N * dim * 8 + _accel.ROW_BLOCK_BYTES + PASS_SLACK
    assert peak <= bound


def _stencil_bits(stencil):
    return [np.ascontiguousarray(a).tobytes() for a in stencil]


@pytest.mark.parametrize("case", ["sphere2-L2", "sphere2-L2-loaded",
                                  "sphere3-L1"])
def test_chunked_stencil_fit_is_one_batch_bitwise(case, tmp_path,
                                                  monkeypatch):
    # each node's fit is its own, so chunks of STENCIL_FIT_ROWS nodes, or of
    # 100, give bitwise the stencil of one batched fit over every node; an
    # idx of 300 nodes in reverse order straddles a chunk boundary
    mesh = (build_mesh(SPHERE3, 1) if case == "sphere3-L1"
            else build_mesh(SPHERE2, 2))
    if case.endswith("loaded"):
        save_mesh(mesh, tmp_path / "copy.mesh")
        mesh = load_mesh(tmp_path / "copy.mesh")
    N = mesh.node_count
    idx = np.arange(N)[::-3][:300]
    assert N > cauchy.STENCIL_FIT_ROWS and len(idx) > cauchy.STENCIL_FIT_ROWS
    monkeypatch.setattr(cauchy, "STENCIL_FIT_ROWS", N)
    nb, wts, frame = one_shot = cauchy._build_gradient_stencil(mesh)
    one_shot_idx = cauchy._build_gradient_stencil(mesh, idx)
    assert _stencil_bits(one_shot_idx) == _stencil_bits(
        (nb[idx], wts[:, idx], frame[idx]))
    monkeypatch.undo()
    for rows in (cauchy.STENCIL_FIT_ROWS, 100):
        monkeypatch.setattr(cauchy, "STENCIL_FIT_ROWS", rows)
        assert _stencil_bits(cauchy._build_gradient_stencil(mesh)) == \
            _stencil_bits(one_shot)
        assert _stencil_bits(cauchy._build_gradient_stencil(mesh, idx)) == \
            _stencil_bits(one_shot_idx)


def test_rank_error_names_a_node_past_the_first_chunk():
    # a 2-sphere's 640 nodes with a great circle of 40 nodes, far off,
    # inserted at rows 300-339: the nodes of the first chunk fit, and the
    # error names row 300, the first circle node, not a later one
    sphere = build_mesh(SPHERE2, 1)
    theta = 2.0 * np.pi * np.arange(40) / 40
    ring = np.stack([np.cos(theta), np.sin(theta), np.zeros(40)], axis=1)

    def spliced(a, b):
        return np.concatenate([a[:300], b, a[300:]])

    mesh = SurfaceMesh(spliced(sphere.nodes, ring + [10.0, 0.0, 0.0]),
                       spliced(sphere.normals, ring),
                       spliced(sphere.weights, np.full(40, 0.1)))
    assert 300 >= cauchy.STENCIL_FIT_ROWS
    with pytest.raises(cauchy.DegenerateStencilError,
                       match=r"^gradient stencil of node 300 is rank-"):
        cauchy.gradient_stencil(mesh)
    assert "gradient_stencil" not in mesh.cache


@pytest.mark.parametrize("spec, level, bound", [
    (SPHERE3, 2, 12e6), (SPHERE2, 4, 7e6)], ids=["sphere3-L2", "sphere2-L4"])
def test_full_stencil_fit_stays_within_bound(spec, level, bound):
    # the one batched fit traced 94.1 MB on sphere3 L2 and 17.8 MB on
    # sphere2 L4; in chunks of STENCIL_FIT_ROWS nodes the fit holds the
    # kept weights, lists and frame and one chunk's temporaries
    mesh = build_mesh(spec, level)
    tracemalloc.start()
    try:
        cauchy._build_gradient_stencil(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound
