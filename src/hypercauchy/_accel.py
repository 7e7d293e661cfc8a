"""The O(N^2) Cauchy-kernel sums behind every surface integral.

Each sum builds blocks of kernel values E(x_j - w_i), shape
(targets, nodes, n+1), contracts them with the density rows in one
einsum and scatters the (n+1) x 2^n contracted terms onto the result
blades.  The order of every sum is fixed (chunks of targets, one
contraction per chunk, a fixed scatter order per side), so results do not
depend on the thread count.  Products of the density rows go through
clifford_core.batch_product.
"""

from __future__ import annotations

import numpy as np

from .clifford_core import batch_product


def _kernel_E_block(targets_chunk, nodes, n):
    """E(x_j - w_i) paravector components, shape (C, N, n+1); 0 at r=0."""
    diff = nodes[None, :, :] - targets_chunk[:, None, :]
    r2 = np.einsum("ijc,ijc->ij", diff, diff)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = r2 ** (-0.5 * (n + 1))
    inv[r2 == 0.0] = 0.0
    E = -diff * inv[:, :, None]
    E[:, :, 0] = -E[:, :, 0]
    return E


def _contract(ctx, E, g, side):
    """sum_j E_ij g_j (left) or sum_j g_j E_ij (right), shape (C, 2^n).

    E is a (C, N, n+1) kernel block and g an (N, 2^n) density.  The left
    side scatters paravector component k outer, the right side density
    blade b outer.
    """
    T = np.einsum("ijk,jb->ikb", E, g)
    out = np.zeros((E.shape[0], ctx.dim))
    if side == "left":
        for k in range(ctx.n + 1):
            for b in range(ctx.dim):
                out[:, ctx.para_idx[k, b]] += ctx.para_sign[k, b] * T[:, k, b]
    else:
        for b in range(ctx.dim):
            for k in range(ctx.n + 1):
                out[:, ctx.para_idx_right[b, k]] += \
                    ctx.para_sign_right[b, k] * T[:, k, b]
    return out


def _accumulate(ctx, targets, nodes, g, excl, side, chunk=128):
    targets = np.ascontiguousarray(np.atleast_2d(targets), dtype=np.float64)
    nodes = np.ascontiguousarray(nodes, dtype=np.float64)
    g = np.ascontiguousarray(g, dtype=np.float64)
    M = targets.shape[0]
    out = np.empty((M, ctx.dim))
    for s in range(0, M, chunk):
        e = min(s + chunk, M)
        E = _kernel_E_block(targets[s:e], nodes, ctx.n)
        if excl is not None:
            skip = np.asarray(excl[s:e], dtype=np.int64)
            rows = np.flatnonzero(skip >= 0)
            E[rows, skip[rows], :] = 0.0
        out[s:e] = _contract(ctx, E, g, side)
    return out


def accum_left(ctx, targets, nodes, g, excl=None):
    """sum_j E(x_j - w_i) g_j for each target row w_i, skipping node excl[i]."""
    return _accumulate(ctx, targets, nodes, g, excl, "left")


def accum_right(ctx, targets, nodes, g, excl=None):
    """sum_j g_j E(x_j - w_i) for each target row w_i, skipping node excl[i]."""
    return _accumulate(ctx, targets, nodes, g, excl, "right")


def pv_matrix(ctx, nodes, nuw, dmat):
    """Regularized core sums with a target-dependent density matrix.

    out_i = sum_{j != i} E(x_j - x_i) nuw_j (dmat[j, i] - dmat[i, i]),
    with dmat of shape (N, N, dim): first index integration node, second
    index target node.
    """
    nodes = np.ascontiguousarray(nodes, dtype=np.float64)
    N = nodes.shape[0]
    out = np.empty((N, ctx.dim))
    for i in range(N):
        E = _kernel_E_block(nodes[i : i + 1], nodes, ctx.n)[0]
        E[i] = 0.0
        A = batch_product(ctx, E, nuw)
        out[i] = batch_product(ctx, A, dmat[:, i, :] - dmat[i, i, :]).sum(axis=0)
    return out


def pb_rhs(ctx, nodes, nuw, kmat, t_index):
    """Exchanged-order double singular sum at node t_index.

    Computes sum_{j != t} sum_{i not in {t, j}} [E(x_i - t) nuw_i]
    [E(x_j - x_i) nuw_j] (kmat[j, i] - kmat[j, t]), summed in index
    order for reproducibility.  The subtraction of the kmat[j, t] slice
    uses the kernel-pair orthogonality (the dropped block integrates to
    zero), leaving only a weak singularity at x = t so the plain
    punctured sum converges.
    """
    nodes = np.ascontiguousarray(nodes, dtype=np.float64)
    it = t_index
    N = nodes.shape[0]
    Et = _kernel_E_block(nodes[it : it + 1], nodes, ctx.n)[0]
    Et[it] = 0.0
    A = batch_product(ctx, Et, nuw)
    partial = np.zeros((N, ctx.dim))
    for j in range(N):
        if j == it:
            continue
        # E(x_j - x_i) for all i: x_j is the source, node rows are targets
        Eji = _kernel_E_block(nodes, nodes[j : j + 1], ctx.n)[:, 0, :]
        Eji[j] = 0.0
        C = batch_product(ctx, Eji, nuw[j])
        D = batch_product(ctx, C, kmat[j] - kmat[j, it])
        D[it] = 0.0
        partial[j] = batch_product(ctx, A, D).sum(axis=0)
    return partial.sum(axis=0)
