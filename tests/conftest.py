"""Shared meshes for the test suite (session scoped; meshes are immutable),
the density regularity oracle and a reference for the coordinate sums of
the 3-surface singular-cell correction."""

import numpy as np
import pytest

from hypercauchy import cauchy
from hypercauchy.clifford_core import as_coeffs
from hypercauchy.surface import DomainSpec, build_mesh


@pytest.fixture(scope="session")
def circle_spec():
    return DomainSpec("circle", 1, center=(0.0, 0.0), radius=1.0)


@pytest.fixture(scope="session")
def circle_mesh(circle_spec):
    return build_mesh(circle_spec, level=4)


@pytest.fixture(scope="session")
def circle_fine(circle_spec):
    return build_mesh(circle_spec, level=6)


@pytest.fixture(scope="session")
def sphere_spec():
    return DomainSpec("sphere", 2, center=(0.0, 0.0, 0.0), radius=1.0)


@pytest.fixture(scope="session")
def sphere_mesh(sphere_spec):
    return build_mesh(sphere_spec, level=2)


@pytest.fixture(scope="session")
def sphere3_mesh():
    spec = DomainSpec("sphere", 3, center=(0.0, 0.0, 0.0, 0.0), radius=1.0)
    return build_mesh(spec, level=0)


@pytest.fixture(scope="session")
def shifted_circle():
    spec = DomainSpec("circle", 1, center=(0.4, -0.2), radius=0.7)
    return build_mesh(spec, level=4)


def spot_check(density, rng=None):
    """Spot-check a density's declared regularity on 64 random node pairs.

    For a ("holder", mu, M) tag with M given, verifies
    |f(x) - f(y)| <= 1.05 M |x - y|^mu; returns the max quotient
    |f(x)-f(y)| / |x-y|^mu seen.  Raises on violation; also verifies
    samples match the evaluator on a few nodes when one is present.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    mesh = density.mesh
    N = mesh.node_count
    ii = rng.integers(0, N, size=64)
    jj = rng.integers(0, N, size=64)
    keep = ii != jj
    ii, jj = ii[keep], jj[keep]
    dx = np.linalg.norm(mesh.nodes[ii] - mesh.nodes[jj], axis=1)
    df = np.linalg.norm(density.samples[ii] - density.samples[jj], axis=1)
    if density.is_holder:
        mu, M = density.regularity[1], density.regularity[2]
        quot = df / dx**mu
        top = float(quot.max()) if quot.size else 0.0
        if M is not None and top > 1.05 * M:
            raise ValueError("Holder spot check failed: quotient %.3g > "
                             "M = %.3g" % (top, M))
    else:
        top = float((df / dx**0.5).max()) if dx.size else 0.0
    if density.evaluator is not None:
        for i in ii[:4]:
            want = as_coeffs(mesh.context, density.evaluator(mesh.nodes[i]))
            if not np.allclose(want, density.samples[i], atol=1e-10):
                raise ValueError("samples disagree with evaluator at node %d"
                                 % i)
    return top


def coordinate_sums(mesh, idx=None):
    """The coordinate sums s_c at the nodes idx (default every node), as
    cauchy._pv_core's pass gives them to the cell corrections, taken here by
    a _shifted_sums call of their own: (n+1, len(idx), 2^n)."""
    coords = np.zeros((mesh.n + 1, mesh.node_count, mesh.context.dim))
    coords[:, :, 0] = mesh.nodes.T
    return cauchy._shifted_sums(mesh, coords, idx)
