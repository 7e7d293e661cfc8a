"""Kernel passes hold working memory of a fixed size.

A row block's work buffer holds at most _accel.ROW_BLOCK_BYTES, node-pair
tiles keep their edge of 256, and the measure density rides in a kernel
pass without a copy of the density stack.  Each bound leaves every value
bitwise the same: the blocked results here are compared with full-block,
full-call or concatenated ones by their bytes.  Row blocks are contracted
as gemms of _accel.GEMM_ROWS rows, so an off-surface target's sum is
bitwise the same whichever targets share its call and whatever the budget.
"""

import weakref

import numpy as np
import pytest

from hypercauchy import _accel, cauchy
from hypercauchy.clifford_core import (get_context, paravectors_as_coeffs,
                                       sided_product)
from hypercauchy.surface import DomainSpec, build_mesh

SPHERE2 = DomainSpec("sphere", 2, center=(0.0, 0.0, 0.0), radius=1.0)
CIRCLE = DomainSpec("circle", 1, center=(0.0, 0.0), radius=1.0)
SPHERE3 = DomainSpec("sphere", 3, center=(0.0,) * 4, radius=1.0)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _record_buffers(monkeypatch):
    """The work buffer (argument out) of every _kernel_E_block call."""
    buffers = []
    original = _accel._kernel_E_block

    def recorded(targets, nodes_T, n, skip=None, out=None):
        buffers.append(out)
        return original(targets, nodes_T, n, skip, out)

    monkeypatch.setattr(_accel, "_kernel_E_block", recorded)
    return buffers


@pytest.mark.parametrize("N", [64, 512, 4096, 8192])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_row_block_buffers_stay_within_budget(n, N, monkeypatch):
    ctx = get_context(n)
    rng = np.random.default_rng(N + n)
    nodes = rng.normal(size=(N, n + 1))
    group = 8 * (n + 3) * N * _accel.GEMM_ROWS
    rows = _accel.GEMM_ROWS * max(1, _accel.ROW_BLOCK_BYTES // group)
    targets = 5.0 + rng.normal(size=(2 * rows + 1, n + 1))
    g = rng.normal(size=(N, ctx.dim))
    buffers = _record_buffers(monkeypatch)
    _accel.accum_left(ctx, targets, nodes, g, circle=None)
    # two full blocks and a last one of one target, padded to a gemm group
    assert len(buffers) == 3
    assert all(b is buffers[0] for b in buffers)
    assert buffers[0].shape == (n + 3, rows * N)
    # the budget holds one group up to 2^15 / (n+3) nodes; past that a
    # block is that one group (n = 2 and 3 at N = 8192: 1.31 and 1.57 MB)
    assert (group <= _accel.ROW_BLOCK_BYTES) == (N <= 2 ** 15 // (n + 3))
    assert buffers[0].nbytes <= max(_accel.ROW_BLOCK_BYTES, group)


def _off_surface_targets(mesh, count, seed):
    """count targets off the surface, inside and outside in turn, and the
    node each is drawn from."""
    rng = np.random.default_rng(seed)
    t = rng.choice(mesh.node_count, count, replace=False)
    scale = np.where(np.arange(count) % 2 == 0, 0.6, 1.5)
    return scale[:, None] * mesh.nodes[t], t


# targets per row block at 1 MiB: sphere2 L4 holds 5 rows, so 4
@pytest.mark.parametrize("spec, level, block", [
    (CIRCLE, 4, 32), (SPHERE2, 1, 40), (SPHERE2, 4, 4), (SPHERE3, 1, 20)],
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
    original = _accel._kernel_E_block

    def counted(targets, *args):
        blocks.append(targets.shape[0])
        return original(targets, *args)

    monkeypatch.setattr(_accel, "_kernel_E_block", counted)
    every = sums(0, 300)
    monkeypatch.setattr(_accel, "_kernel_E_block", original)
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
    # a budget of 4 rows, of 8 rows and the default 40 rows at sphere2 L1
    # give bitwise the same rows
    mesh = build_mesh(SPHERE2, 1)
    ctx, N = mesh.context, mesh.node_count
    accum = _accel.accum_left if side == "left" else _accel.accum_right
    g = np.random.default_rng(1).normal(size=(N, ctx.dim))
    targets, t = _off_surface_targets(mesh, 90, 1)
    row = 8 * (ctx.n + 3) * N
    got = [accum(ctx, targets, mesh.nodes, g, t, circle=None)]
    for rows in (4, 8):
        monkeypatch.setattr(_accel, "ROW_BLOCK_BYTES", rows * row)
        buffers = _record_buffers(monkeypatch)
        got.append(accum(ctx, targets, mesh.nodes, g, t, circle=None))
        assert buffers[0].shape == (ctx.n + 3, rows * N)
        monkeypatch.undo()
    assert _same_bits(got[0], got[1])
    assert _same_bits(got[0], got[2])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_node_pair_tiles_keep_edge_256(n):
    # the tile edge sets how each node target's sum groups its terms, so it
    # stays fixed whatever the budget of the row blocks
    assert _accel.TILE_EDGE == 256
    nodes = np.random.default_rng(n).normal(size=(600, n + 1))
    tiles = [(I, J, E.shape) for I, J, E in _accel._node_pair_tiles(nodes, n)]
    starts = sorted({I.start for I, _, _ in tiles})
    assert starts == [0, 256, 512]
    assert tiles[0][2] == (n + 1, 256, 256)


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
    original_block = _accel._kernel_E_block
    original_scatter = _accel.scatter_pairs

    def block(targets, nodes_T, n, skip=None, out=None):
        buffers.append(weakref.ref(out))
        return original_block(targets, nodes_T, n, skip, out)

    def scatter(ctx, T):
        assert buffers and all(ref() is None for ref in buffers)
        return original_scatter(ctx, T)

    monkeypatch.setattr(_accel, "_kernel_E_block", block)
    monkeypatch.setattr(_accel, "scatter_pairs", scatter)
    _accel.accum_left(ctx, targets, nodes, np.ones((300, ctx.dim)), excl,
                      circle=None)


def _concatenated_ride(mesh, samples, side, targets, t, excl):
    """S1 - S2 f(t) and S2 with the measure row appended by np.concatenate,
    as _shifted_sums formed its densities before they were written in
    place."""
    ctx, N = mesh.context, mesh.node_count
    measure = mesh.measure_coeffs()
    g = sided_product(ctx, side, measure, samples).reshape(-1, N, ctx.dim)
    g = np.concatenate([g, paravectors_as_coeffs(ctx, measure)[None]])
    sums = cauchy._accum(mesh, targets, g, side, excl)
    S2 = sums[-1]
    core = sums[:-1].reshape(samples.shape[:-2] + (len(targets), ctx.dim))
    return core - sided_product(ctx, side, S2, samples[..., t, :]), S2


@pytest.mark.parametrize("K", [0, 1, 10])
@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("spec, level", [(SPHERE2, 2), (CIRCLE, 3)],
                         ids=["sphere2-L2", "circle-L3"])
def test_measure_rides_without_a_copy(spec, level, side, K):
    mesh = build_mesh(spec, level)
    N, dim = mesh.node_count, mesh.context.dim
    rng = np.random.default_rng(K)
    samples = rng.normal(size=(N, dim) if K == 1 else (K, N, dim))
    nodes = np.arange(N)
    want, S2 = _concatenated_ride(mesh, samples, side, mesh.nodes, nodes,
                                  nodes)
    if K == 0:
        got = cauchy._self_sums(mesh, side)
        assert _same_bits(got, S2)
    else:
        got = cauchy._shifted_sums(mesh, samples, side, mesh.nodes, nodes,
                                   nodes)
        assert _same_bits(got, want)
        assert _same_bits(mesh.cache[("self_sums", side)], S2)
    # off-surface targets take the row blocks, and S2 rides every call
    t = nodes[::7]
    want, _ = _concatenated_ride(mesh, samples, side, 1.5 * mesh.nodes[t], t,
                                 None)
    got = cauchy._shifted_sums(mesh, samples, side, 1.5 * mesh.nodes[t], t)
    assert _same_bits(got, want)
