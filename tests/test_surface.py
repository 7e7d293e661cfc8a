"""Mesh construction, invariants and file round trips."""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy.spatial import cKDTree

from hypercauchy import surface
from hypercauchy._corpus import random_smooth
from hypercauchy.cauchy import (BoundaryDensity, gradient_stencil,
                                principal_value_nodes, span_indicator)
from hypercauchy.surface import (
    DomainSpec,
    MeshFormatError,
    SurfaceMesh,
    UnsupportedDomainError,
    build_mesh,
    load_mesh,
    neighbour_lists,
    refine,
    save_mesh,
)

NORMAL_TOL = 1e-12


def _area(spec):
    R = spec.radius
    return {1: 2 * math.pi * R,
            2: 4 * math.pi * R ** 2,
            3: 2 * math.pi ** 2 * R ** 3}[spec.n]


@pytest.mark.parametrize("spec,level,rel_tol", [
    pytest.param(DomainSpec("circle"), 4, 1e-12, id="circle-4-1e-12"),
    pytest.param(DomainSpec("circle", center=(0.4, -0.2), radius=0.7), 3,
                 1e-12, id="circle-off-center-3-1e-12"),
    pytest.param(DomainSpec("sphere", 2), 2, 1e-12, id="sphere2-2-1e-12"),
    pytest.param(DomainSpec("sphere", 3, radius=1.5), 1, 1e-9,
                 id="sphere3-radius-1.5-1-1e-09"),
])
def test_weights_positive_and_area(spec, level, rel_tol):
    mesh = build_mesh(spec, level)
    assert mesh.weights.min() > 0
    area = _area(spec)
    assert abs(mesh.weights.sum() - area) <= rel_tol * area


@pytest.mark.parametrize("n", [2, 3])
def test_sphere_weights_are_the_python_power_formula(n):
    # numpy powers of the radius, which overflow to inf, give bitwise the
    # weights of Python's float powers: 4 pi R**2 / N on 2-spheres, the
    # unit sphere's weights times R**3 on 3-spheres
    for level in range(4):
        unit = build_mesh(DomainSpec("sphere", n), level).weights
        for R in (0.7, 2.5, 7.1e5, 1e-90):
            got = build_mesh(DomainSpec("sphere", n, radius=R), level).weights
            want = (np.full(unit.size, 4.0 * np.pi * R**2 / unit.size)
                    if n == 2 else unit * R**3)
            assert got.tobytes() == want.tobytes(), (level, R)


@pytest.mark.parametrize("n, radius", [(2, 1e155), (2, 1e308), (3, 1e103),
                                       (3, 1e200)])
def test_sphere_radius_past_float64_names_the_weights(n, radius):
    with pytest.raises(MeshFormatError, match="weights row 0 is not finite"):
        build_mesh(DomainSpec("sphere", n, radius=radius), 0)


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
            ("n 9 nodes 1\n", r"header n = 9 is outside 1\.\.8"),
            # a record field that is not a number is a format error, not
            # numpy's bare ValueError
            ("n 1 nodes 2\n1 0 1 0 3.14\n-1 0 x 0 3.14\n",
             "^malformed node record: ")]:
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
                    -circle_mesh.weights)
    with pytest.raises(MeshFormatError):
        SurfaceMesh(circle_mesh.nodes, 2.0 * circle_mesh.normals,
                    circle_mesh.weights)
    with pytest.raises(MeshFormatError):
        SurfaceMesh(circle_mesh.nodes, circle_mesh.normals,
                    circle_mesh.weights[:-1])


def test_constructor_takes_the_three_arrays_only(circle_mesh):
    # h, level and spec are build_mesh's: no caller can pass them
    arrays = (circle_mesh.nodes, circle_mesh.normals, circle_mesh.weights)
    with pytest.raises(TypeError):
        SurfaceMesh(*arrays, circle_mesh.h)
    for name, value in (("h", circle_mesh.h), ("level", 4),
                        ("spec", circle_mesh.spec)):
        with pytest.raises(TypeError):
            SurfaceMesh(*arrays, **{name: value})
        with pytest.raises((TypeError, ValueError)):
            dataclasses.replace(circle_mesh, **{name: value})
    mesh = SurfaceMesh(*arrays)
    assert mesh.spec is None and mesh.level == 0


@pytest.mark.parametrize("field", ["nodes", "normals", "weights"])
def test_mesh_keeps_read_only_copies_of_its_arrays(circle_mesh, field):
    # a write to the caller's arrays or to the mesh's would leave the kept
    # self-sums and stencil stale; the mesh copies, and refuses writes
    arrays = {"nodes": circle_mesh.nodes.copy(),
              "normals": circle_mesh.normals.copy(),
              "weights": circle_mesh.weights.copy()}
    mesh = SurfaceMesh(arrays["nodes"], arrays["normals"], arrays["weights"])
    kept = getattr(mesh, field)
    assert not np.shares_memory(kept, arrays[field])
    assert arrays[field].flags.writeable and not kept.flags.writeable
    arrays[field][0] *= 2.0
    assert np.array_equal(kept, getattr(circle_mesh, field))
    with pytest.raises(ValueError, match="read-only"):
        kept[0] *= 2.0
    assert not getattr(circle_mesh, field).flags.writeable


def test_copies_carry_no_builder_facts(sphere_mesh):
    copy = dataclasses.replace(sphere_mesh, nodes=2.0 * sphere_mesh.nodes,
                               weights=4.0 * sphere_mesh.weights)
    assert copy.spec is None and copy.level == 0
    # h comes from the copy's own nodes, twice the unit sphere's exactly
    assert copy.h == 2.0 * sphere_mesh.h
    with pytest.raises(ValueError, match="^mesh has no builder spec"):
        refine(copy)


def test_hand_made_h_is_the_loaded_meshs(tmp_path, sphere_mesh):
    save_mesh(sphere_mesh, tmp_path / "sphere.mesh")
    loaded = load_mesh(tmp_path / "sphere.mesh")
    made = SurfaceMesh(sphere_mesh.nodes, sphere_mesh.normals,
                       sphere_mesh.weights)
    assert made.h == loaded.h == sphere_mesh.h > 0.0
    # kept on the mesh, not in its operator cache
    assert made.h is made.h and made.cache == {}


def test_meshes_and_densities_compare_by_identity(circle_spec):
    a, b = build_mesh(circle_spec, 0), build_mesh(circle_spec, 0)
    assert a == a and a != b
    assert len({a, b, a}) == 2
    f = BoundaryDensity.constant(a, 1.0)
    g = BoundaryDensity.constant(a, 1.0)
    assert f == f and f != g
    assert len({f, g, f}) == 2


@pytest.mark.parametrize("field", ["nodes", "normals", "weights"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mesh_rejects_nonfinite_values(circle_mesh, field, bad):
    arrays = {"nodes": circle_mesh.nodes.copy(),
              "normals": circle_mesh.normals.copy(),
              "weights": circle_mesh.weights.copy()}
    arrays[field][7] = bad
    arrays[field][9] = bad
    with pytest.raises(MeshFormatError, match=r"%s row 7\b" % field):
        SurfaceMesh(arrays["nodes"], arrays["normals"], arrays["weights"])


def test_load_rejects_duplicate_nodes(tmp_path, circle_mesh):
    path = tmp_path / "dup.txt"
    save_mesh(circle_mesh, path)
    lines = path.read_text().splitlines()
    lines[1 + 12] = lines[1 + 5]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshFormatError, match=r"nodes rows 5 and 12 coincide"):
        load_mesh(path)


@pytest.mark.parametrize("kind, n", [("circle", 1), ("sphere", 2),
                                     ("sphere", 3)])
def test_node_count_is_the_built_count(kind, n):
    # the closed form behind the config's MAX_NODES check
    spec = DomainSpec(kind, n)
    for level in range(3):
        assert surface._node_count(spec, level) == \
            build_mesh(spec, level).node_count
    assert surface._node_count(spec, 10 ** 4) == np.inf


def test_mesh_rejects_coincident_nodes(circle_spec):
    mesh = build_mesh(circle_spec, 0)
    nodes = mesh.nodes.copy()
    nodes[5] = nodes[4]
    with pytest.raises(MeshFormatError, match=r"nodes rows 4 and 5 coincide"):
        SurfaceMesh(nodes, mesh.normals, mesh.weights)


def _coincident_by_unique(nodes):
    # the pair as np.unique names it: the first repeated row, its first copy
    _, first = np.unique(nodes, axis=0, return_index=True)
    if first.size == nodes.shape[0]:
        return None
    j = int(np.setdiff1d(np.arange(nodes.shape[0]), first)[0])
    i = int(np.flatnonzero((nodes == nodes[j]).all(axis=1))[0])
    return i, j


@pytest.mark.parametrize("copy", [(0, 1), (0, 500), (300, 301), (1, 640),
                                  (638, 639), (2, 0), (639, 0), (40, 7)])
def test_coincident_rows_by_one_sort_name_the_unique_pair(copy):
    nodes = build_mesh(DomainSpec("sphere", 2), 1).nodes.copy()
    assert surface._coincident_rows(nodes) is None
    src, dst = copy
    if dst == 640:          # a repeat appended after the last row
        nodes = np.concatenate([nodes, nodes[src:src + 1]])
    else:
        nodes[dst] = nodes[src]
    assert surface._coincident_rows(nodes) == _coincident_by_unique(nodes)
    # a repeat that differs only in the sign of a zero coordinate
    nodes[17, 0] = 0.0
    nodes[18] = nodes[17]
    nodes[18, 0] = -0.0
    assert surface._coincident_rows(nodes) == _coincident_by_unique(nodes)


def test_searched_neighbour_lists_are_kept_read_only(tmp_path, monkeypatch):
    mesh = build_mesh(DomainSpec("sphere", 2), 4)
    save_mesh(mesh, tmp_path / "sphere.mesh")
    loaded = load_mesh(tmp_path / "sphere.mesh")
    searches = []
    original = surface._tree_neighbours

    def counted(nodes, k):
        searches.append(k)
        return original(nodes, k)

    monkeypatch.setattr(surface, "_tree_neighbours", counted)
    nb = neighbour_lists(loaded, 12)
    assert neighbour_lists(loaded, 12) is nb
    assert loaded.cache[("neighbours", 12)] is nb
    with pytest.raises(ValueError):
        nb[0, 0] = 1
    assert searches == [12]
    # a copy has its own cache, so it searches its own lists
    copy = dataclasses.replace(loaded)
    assert np.array_equal(neighbour_lists(copy, 12), nb)
    assert searches == [12, 12]
    # a warm one-row stencil on the loaded mesh searches nothing
    gradient_stencil(loaded, [5])
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        gradient_stencil(loaded, [5])
        best = min(best, time.perf_counter() - t0)
    assert searches == [12, 12]
    assert best < 1e-3


@pytest.mark.parametrize("count", [0, 1])
def test_mesh_needs_two_nodes(count):
    # one node has h = 0, which would call every point, however near,
    # reliable
    nodes = np.array([[1.0, 0.0]])[:count]
    with pytest.raises(MeshFormatError,
                       match=r"^nodes: a mesh needs at least 2 nodes, got %d$"
                       % count):
        SurfaceMesh(nodes, nodes, np.ones(count))


def test_load_rejects_one_record(tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("n 1 nodes 1\n1 0 1 0 1\n")
    with pytest.raises(MeshFormatError, match=r"^nodes: .* got 1$"):
        load_mesh(path)


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
    # a kind, centre or radius of another type names its field
    for kind in (3, None, b"circle"):
        with pytest.raises(UnsupportedDomainError, match="^unknown surface kind"):
            DomainSpec(kind, 1)
    for radius in ("1", True, None, 1j):
        with pytest.raises(ValueError, match="^radius must be"):
            DomainSpec("circle", 1, radius=radius)
    for center in (("a", 0), (None, 0), (True, 0.0), "ab", 5, (0, 0, 0)):
        with pytest.raises(ValueError, match=r"^center must be n\+1 = 2 real"):
            DomainSpec("circle", 1, center=center)
    # numpy values are real numbers
    spec = DomainSpec("sphere", 2, center=np.array([0.0, 1.0, 0.0]),
                      radius=np.float32(2.0))
    assert spec.center == (0.0, 1.0, 0.0) and spec.radius == 2.0
    # n is an integer, not a bool or a float, whatever it would equal
    for kind, n, center in [("circle", True, ()), ("circle", 1.0, ()),
                            ("sphere", 2.0, ()), ("sphere", 3.0, (0,) * 4),
                            ("sphere", "2", ())]:
        with pytest.raises(ValueError, match="^n must be an integer"):
            DomainSpec(kind, n, center=center)
    assert DomainSpec("sphere", np.int64(3)).n == 3
    assert type(DomainSpec("sphere", np.int64(3)).n) is int
    # a level is an integer, not a bool (isinstance(True, int) holds)
    for level in (True, 2.5, np.float64(1.0), "1"):
        with pytest.raises(ValueError, match="^level must be an integer"):
            build_mesh(DomainSpec("circle"), level)
    assert build_mesh(DomainSpec("circle"), np.int64(1)).node_count == 128


@pytest.mark.parametrize("spec,level", [
    *((DomainSpec("sphere", 2), level) for level in range(6)),
    (DomainSpec("sphere", 2, center=(0.3, -1.0, 2.0), radius=2.5), 3),
    *((DomainSpec("sphere", 2), level) for level in (6, 7)),
])
def test_fibonacci_lists_are_the_trees(spec, level):
    # the builder lists the tree's 12 nearest nodes, in its order, and h is
    # the tree's largest nearest-neighbour distance bit for bit
    mesh = build_mesh(spec, level)
    dist, nb = cKDTree(mesh.nodes).query(mesh.nodes, k=12)
    # a search of some rows takes only their lattice bands, and lists them
    # bitwise as the search of every node does; the last band is short
    N = mesh.node_count
    band = max(16, int(1.5 * np.sqrt(N)))
    assert N % band
    rows = np.array([0, N - 1, 7, 7, N // band * band])
    part = neighbour_lists(mesh, 12, rows)
    assert "neighbours" not in mesh.cache
    lists = neighbour_lists(mesh, 12)
    assert np.array_equal(part, lists[rows])
    assert np.array_equal(lists, nb)
    assert mesh.h == dist[:, 1].max()
    assert neighbour_lists(mesh, 12) is lists
    assert not lists.flags.writeable


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
    # lists come from the builder only: copies have neither its spec nor
    # its nodes, so they take the tree's
    mesh = build_mesh(DomainSpec("sphere", 2), 1)
    save_mesh(mesh, tmp_path / "sphere.mesh")
    keep = np.linalg.norm(mesh.nodes - mesh.nodes[0], axis=1) > 0.3
    copies = [
        load_mesh(tmp_path / "sphere.mesh"),
        SurfaceMesh(mesh.nodes[keep], mesh.normals[keep], mesh.weights[keep]),
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
        neighbour_lists(mesh, 12)[0, 0] = 1


def test_sphere2_lists_are_searched_only_when_read():
    mesh = build_mesh(DomainSpec("sphere", 2), 2)
    assert "neighbours" not in mesh.cache
    # a span probe and some principal values fit a few stencil rows only
    span_indicator(mesh, mesh.nodes[17])
    assert "neighbours" not in mesh.cache
    f = random_smooth(mesh, 5)
    principal_value_nodes(mesh, f, indices=np.array([3, 900]))
    assert "neighbours" not in mesh.cache
    # every node's stencil keeps every node's lists
    principal_value_nodes(mesh, f)
    nb = mesh.cache["neighbours"]
    _, want = cKDTree(mesh.nodes).query(mesh.nodes, k=12)
    assert np.array_equal(nb, want)
    assert not nb.flags.writeable
    assert neighbour_lists(mesh, 12) is nb
