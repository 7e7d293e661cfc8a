"""Mesh construction, invariants, file round trips and spec parsing."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from hypercauchy.surface import (
    DomainSpec,
    MeshFormatError,
    SurfaceMesh,
    UnsupportedDomainError,
    build_mesh,
    load_mesh,
    neighbour_lists,
    oriented_measure,
    parse_mesh_spec,
    refine,
    save_mesh,
)

NORMAL_TOL = 1e-12


def _area(spec):
    R = spec.radius
    return {1: 2 * math.pi * R,
            2: 4 * math.pi * R ** 2,
            3: 2 * math.pi ** 2 * R ** 3}[spec.n]


@pytest.mark.parametrize("spec_text,level,rel_tol", [
    ("circle", 4, 1e-12),
    ("circle,radius=0.7,center=0.4:-0.2", 3, 1e-12),
    ("sphere,n=2", 2, 1e-12),
    ("sphere,n=3,radius=1.5", 1, 1e-9),
])
def test_weights_positive_and_area(spec_text, level, rel_tol):
    spec, _ = parse_mesh_spec(spec_text)
    mesh = build_mesh(spec, level)
    assert mesh.weights.min() > 0
    area = _area(spec)
    assert abs(mesh.weights.sum() - area) <= rel_tol * area


def test_normals_unit_and_outward(circle_mesh, sphere_mesh, sphere3_mesh):
    for mesh in (circle_mesh, sphere_mesh, sphere3_mesh):
        lens = np.linalg.norm(mesh.normals, axis=1)
        assert np.max(np.abs(lens - 1.0)) <= NORMAL_TOL
        radial = mesh.nodes - np.asarray(mesh.spec.center)[None, :]
        assert np.min(np.sum(radial * mesh.normals, axis=1)) > 0


def test_nodes_on_surface(circle_mesh, sphere_mesh, sphere3_mesh):
    for mesh in (circle_mesh, sphere_mesh, sphere3_mesh):
        radial = mesh.nodes - np.asarray(mesh.spec.center)[None, :]
        r = np.linalg.norm(radial, axis=1)
        assert np.max(np.abs(r - mesh.spec.radius)) <= 1e-12


def test_refine_shrinks_h(circle_spec, sphere_spec):
    for spec in (circle_spec, sphere_spec):
        mesh = build_mesh(spec, 1)
        finer = refine(mesh)
        assert finer.level == mesh.level + 1
        assert finer.node_count == 2 * mesh.node_count
        assert finer.h <= 0.75 * mesh.h


def test_circle_h_value(circle_mesh):
    want = 2 * math.sin(math.pi / circle_mesh.node_count)
    assert abs(circle_mesh.h - want) <= 1e-12


def test_oriented_measure(circle_mesh):
    mv = oriented_measure(circle_mesh, 3)
    want = circle_mesh.normals[3] * circle_mesh.weights[3]
    assert np.allclose(mv.coeffs, want)
    with pytest.raises(IndexError):
        oriented_measure(circle_mesh, circle_mesh.node_count)


def test_measure_coeffs_layout(sphere_mesh):
    rows = sphere_mesh.measure_coeffs()
    assert rows.shape == (sphere_mesh.node_count, sphere_mesh.n + 1)
    assert np.allclose(rows, sphere_mesh.normals * sphere_mesh.weights[:, None])


def test_save_load_roundtrip(tmp_path, sphere_mesh):
    path = tmp_path / "mesh.txt"
    save_mesh(sphere_mesh, path)
    back = load_mesh(path)
    assert back.spec is None
    assert np.array_equal(back.nodes, sphere_mesh.nodes)
    assert np.array_equal(back.normals, sphere_mesh.normals)
    assert np.array_equal(back.weights, sphere_mesh.weights)
    with pytest.raises(ValueError):
        refine(back)


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    for text, message in [
            ("nodes 4 n 1\n", "bad header"),
            ("n one nodes 4\n", "non-integer header fields"),
            # n out of range is named before any record is read
            ("n 0 nodes 2\n1 1 1\n-1 -1 1\n",
             r"header n = 0 is outside 1\.\.8"),
            ("n 9 nodes 1\n", r"header n = 9 is outside 1\.\.8")]:
        path.write_text(text)
        with pytest.raises(MeshFormatError, match=message):
            load_mesh(path)


def test_load_rejects_truncated_records(tmp_path, circle_mesh):
    path = tmp_path / "short.txt"
    save_mesh(circle_mesh, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-5]) + "\n")
    with pytest.raises(MeshFormatError):
        load_mesh(path)


def test_mesh_invariants_enforced(circle_mesh):
    with pytest.raises(MeshFormatError):
        SurfaceMesh(circle_mesh.nodes, circle_mesh.normals,
                    -circle_mesh.weights, circle_mesh.h)
    with pytest.raises(MeshFormatError):
        SurfaceMesh(circle_mesh.nodes, 2.0 * circle_mesh.normals,
                    circle_mesh.weights, circle_mesh.h)
    with pytest.raises(MeshFormatError):
        SurfaceMesh(circle_mesh.nodes, circle_mesh.normals,
                    circle_mesh.weights[:-1], circle_mesh.h)


@pytest.mark.parametrize("field", ["nodes", "normals", "weights"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mesh_rejects_nonfinite_values(circle_mesh, field, bad):
    arrays = {"nodes": circle_mesh.nodes.copy(),
              "normals": circle_mesh.normals.copy(),
              "weights": circle_mesh.weights.copy()}
    arrays[field][7] = bad
    arrays[field][9] = bad
    with pytest.raises(MeshFormatError, match=r"%s row 7\b" % field):
        SurfaceMesh(arrays["nodes"], arrays["normals"], arrays["weights"],
                    circle_mesh.h)


def test_load_rejects_duplicate_nodes(tmp_path, circle_mesh):
    path = tmp_path / "dup.txt"
    save_mesh(circle_mesh, path)
    lines = path.read_text().splitlines()
    lines[1 + 12] = lines[1 + 5]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshFormatError, match=r"nodes rows 5 and 12 coincide"):
        load_mesh(path)


def test_mesh_rejects_coincident_nodes(circle_spec):
    mesh = build_mesh(circle_spec, 0)
    nodes = mesh.nodes.copy()
    nodes[5] = nodes[4]
    with pytest.raises(MeshFormatError, match=r"nodes rows 4 and 5 coincide"):
        SurfaceMesh(nodes, mesh.normals, mesh.weights, mesh.h)


def test_domain_spec_validation():
    with pytest.raises(UnsupportedDomainError):
        DomainSpec("circle", 2, center=(0, 0, 0), radius=1.0)
    with pytest.raises(UnsupportedDomainError):
        DomainSpec("sphere", 1, center=(0, 0), radius=1.0)
    with pytest.raises(UnsupportedDomainError):
        DomainSpec("torus", 2, center=(0, 0, 0), radius=1.0)
    with pytest.raises(ValueError):
        DomainSpec("circle", 1, center=(0, 0), radius=0.0)
    with pytest.raises(ValueError):
        DomainSpec("circle", 1, center=(0, 0, 0), radius=1.0)
    with pytest.raises(ValueError):
        build_mesh(DomainSpec("circle", 1, center=(0, 0), radius=1.0), -1)
    # non-finite geometry is refused where it enters, naming the field
    for radius in (np.inf, np.nan):
        with pytest.raises(ValueError, match="^radius must be"):
            DomainSpec("circle", 1, center=(0, 0), radius=radius)
    for center in ((np.nan, 0.0), (0.0, -np.inf)):
        with pytest.raises(ValueError, match="^center must be finite"):
            DomainSpec("circle", 1, center=center, radius=1.0)
    # a level is an integer, not a bool (isinstance(True, int) holds)
    for level in (True, 2.5, np.float64(1.0), "1"):
        with pytest.raises(ValueError, match="^level must be an integer"):
            build_mesh(DomainSpec("circle"), level)
    assert build_mesh(DomainSpec("circle"), np.int64(1)).node_count == 128


def test_parse_mesh_spec():
    spec, level = parse_mesh_spec("sphere,n=2,radius=2.0,center=0:1:0,level=4")
    assert spec.kind == "sphere" and spec.n == 2
    assert spec.radius == 2.0 and spec.center == (0.0, 1.0, 0.0)
    assert level == 4
    spec, level = parse_mesh_spec("circle")
    assert spec.n == 1 and level == 0
    for bad in ("", "n=2", "circle,frobnicate=2", "circle,radius",
                "circle,radius=inf", "circle,center=nan:0"):
        with pytest.raises(ValueError):
            parse_mesh_spec(bad)


@pytest.mark.parametrize("spec,level", [
    *((DomainSpec("sphere", 2), level) for level in range(6)),
    (DomainSpec("sphere", 2, center=(0.3, -1.0, 2.0), radius=2.5), 3),
])
def test_fibonacci_lists_are_the_trees(spec, level):
    # the builder lists the tree's 12 nearest nodes, in its order, and h is
    # the tree's largest nearest-neighbour distance bit for bit
    mesh = build_mesh(spec, level)
    dist, nb = cKDTree(mesh.nodes).query(mesh.nodes, k=12)
    assert np.array_equal(mesh.cache["neighbours"], nb)
    assert mesh.h == dist[:, 1].max()
    assert neighbour_lists(mesh, 12) is mesh.cache["neighbours"]


@pytest.mark.parametrize("level", range(3))
def test_sphere3_lists_are_grid_blocks(level):
    mesh = build_mesh(DomainSpec("sphere", 3), level)
    nb = mesh.cache["neighbours"]
    N, m = mesh.node_count, 4 << level
    assert nb.shape == (N, 27)
    assert np.array_equal(nb[:, 0], np.arange(N))
    # three neighbouring chi and th lines, shifted inward at their ends,
    # and the phi lines on either side of the node's, periodically
    ic, it, ip = np.unravel_index(nb, (m, m, 2 * m))
    for lines in (ic, it):
        low = lines.min(axis=1, keepdims=True)
        assert np.all(np.sort(lines, axis=1)
                      == low + np.repeat(np.arange(3), 9))
        assert np.all(low <= lines[:, :1]) and np.all(low <= m - 3)
    around = np.sort((ip - ip[:, :1] + 1) % (2 * m), axis=1)
    assert np.all(around == np.repeat(np.arange(3), 9))
    # the nearest node lies in the block, so h is the tree's
    dist, _ = cKDTree(mesh.nodes).query(mesh.nodes, k=2)
    assert mesh.h == dist[:, 1].max()


def test_copies_search_their_own_neighbours(tmp_path):
    # lists come from the builder only: copies keep the spec but not the
    # builder's nodes, so they take the tree's
    mesh = build_mesh(DomainSpec("sphere", 2), 1)
    save_mesh(mesh, tmp_path / "sphere.mesh")
    keep = np.linalg.norm(mesh.nodes - mesh.nodes[0], axis=1) > 0.3
    copies = [
        load_mesh(tmp_path / "sphere.mesh"),
        SurfaceMesh(mesh.nodes[keep], mesh.normals[keep], mesh.weights[keep],
                    mesh.h),
        dataclasses.replace(mesh, nodes=mesh.nodes[::-1],
                            normals=mesh.normals[::-1]),
    ]
    for copy in copies:
        assert "neighbours" not in copy.cache
        _, want = cKDTree(copy.nodes).query(copy.nodes, k=12)
        assert np.array_equal(neighbour_lists(copy, 12), want)


def test_builder_lists_are_read_only():
    mesh = build_mesh(DomainSpec("sphere", 2), 0)
    with pytest.raises(ValueError):
        mesh.cache["neighbours"][0, 0] = 1
