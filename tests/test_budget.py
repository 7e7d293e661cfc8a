"""Kernel passes hold working memory of a fixed size.

A row block's work buffer holds at most _accel.ROW_BLOCK_BYTES, with no
lone last row, node-pair tiles keep their edge of 256, and the measure
density rides in a kernel pass without a copy of the density stack.  Each
bound leaves every value bitwise the same: the blocked results here are
compared with full-block or concatenated ones by their bytes.
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
    rows = max(1, _accel.ROW_BLOCK_BYTES // (8 * (n + 3) * N))
    targets = 5.0 + rng.normal(size=(2 * rows + 1, n + 1))
    g = rng.normal(size=(N, ctx.dim))
    buffers = _record_buffers(monkeypatch)
    _accel.accum_left(ctx, targets, nodes, g, circle=None)
    # full blocks from the front and a last block of one row, or, while
    # a block holds three rows or more, of two rows taken from the end
    assert len(buffers) == 3
    assert all(b is buffers[0] for b in buffers)
    assert buffers[0].shape == (n + 3, rows * N)
    assert buffers[0].nbytes <= _accel.ROW_BLOCK_BYTES


@pytest.mark.parametrize("M, want", [
    (5, [5]), (6, [4, 2]), (10, [5, 5]), (11, [5, 4, 2]),
    (14, [5, 5, 4]), (21, [5, 5, 5, 4, 2]), (1, [1])])
def test_row_blocks_leave_no_lone_last_row(M, want, monkeypatch):
    # a budget of 5 rows: blocks are cut from the front, as the blocks of
    # 65536 pairs were, but a lone last row takes a second from the block
    # before it
    ctx = get_context(2)
    rng = np.random.default_rng(M)
    nodes = rng.normal(size=(600, 3))
    monkeypatch.setattr(_accel, "ROW_BLOCK_BYTES", 5 * 8 * 5 * 600)
    blocks = []
    original = _accel._kernel_E_block

    def counted(targets, *args):
        blocks.append(targets.shape[0])
        return original(targets, *args)

    monkeypatch.setattr(_accel, "_kernel_E_block", counted)
    _accel.accum_left(ctx, 3.0 + rng.normal(size=(M, 3)), nodes,
                      rng.normal(size=(600, ctx.dim)), circle=None)
    assert blocks == want


@pytest.mark.parametrize("side", ["left", "right"])
def test_remainder_rows_match_full_block_rows(side):
    # sphere2 L4's 5120 nodes take blocks of 5 rows: 9 targets split 5, 4
    # and 21 targets 5, 5, 5, 4, 2, and every row of a shorter last block
    # is bitwise that target's row in a full block of 5 (a block of one
    # row, a vector-matrix product, would not be)
    mesh = build_mesh(SPHERE2, 4)
    ctx, N = mesh.context, mesh.node_count
    assert _accel.ROW_BLOCK_BYTES // (8 * (ctx.n + 3) * N) == 5
    accum = _accel.accum_left if side == "left" else _accel.accum_right
    rng = np.random.default_rng(4)
    g = rng.normal(size=(N, ctx.dim))
    targets = 1.5 * mesh.nodes[rng.choice(N, 21, replace=False)]

    def sums(rows):
        return accum(ctx, targets[rows], mesh.nodes, g, circle=None)

    assert _same_bits(sums(slice(0, 9))[5:], sums(slice(4, 9))[1:])
    every = sums(slice(None))
    assert _same_bits(every[:15], sums(slice(0, 15)))
    assert _same_bits(every[15:19], sums(slice(14, 19))[1:])
    assert _same_bits(every[19:], sums(slice(16, 21))[3:])


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
