import json
import math
import random

import numpy as np
import pytest

from treecut import (
    DuplicateVertexId,
    GeometricTree,
    InvalidEdgeReference,
    NotATree,
    ParseError,
    Shortcut,
    TreePoint,
    ZeroLengthEdge,
    distances_from,
    euclidean_distance,
    load_tree,
    network_distance,
    point_coordinates,
    tree_from_data,
    tree_path,
)
from treecut.oracle import point_backbone_tree, random_tree, stress_family
from treecut.tree_model import parse_tree_point, vertex_path


def test_point_coordinates_midpoint(t_l):
    assert point_coordinates(t_l, TreePoint(0, 1, 0.5)) == (0.5, 0.0)


def test_point_coordinates_quarter(t_hook):
    assert point_coordinates(t_hook, TreePoint(1, 2, 0.25)) == (4.0, 1.0)


def test_network_distance_through_corner(t_l):
    a = TreePoint.at_vertex(0)
    b = TreePoint.at_vertex(2)
    assert network_distance(t_l, a, b) == pytest.approx(2.0)


def test_network_distance_same_edge(t_l):
    p = TreePoint(0, 1, 0.5)
    q = TreePoint(1, 2, 0.5)
    assert network_distance(t_l, p, q) == pytest.approx(1.0)


def test_network_distance_hook_leaves(t_hook):
    assert network_distance(
        t_hook, TreePoint.at_vertex(2), TreePoint.at_vertex(3)
    ) == pytest.approx(8.0)


def test_euclidean_vs_network(t_hook):
    p0 = TreePoint.at_vertex(0)
    q0 = TreePoint.at_vertex(2)
    assert euclidean_distance(t_hook, p0, q0) == pytest.approx(4 * math.sqrt(2))
    assert network_distance(t_hook, p0, q0) == pytest.approx(8.0)


def test_distances_from_vertex(t_hook):
    d = distances_from(t_hook, TreePoint.at_vertex(1))
    assert d == {0: pytest.approx(4.0), 1: 0.0,
                 2: pytest.approx(4.0), 3: pytest.approx(4.0)}


def test_distances_from_forkbent(t_forkbent):
    d = distances_from(t_forkbent, TreePoint.at_vertex(0))
    s5 = math.sqrt(5)
    assert d[1] == pytest.approx(s5)
    assert d[2] == pytest.approx(2 * s5)
    assert d[3] == pytest.approx(2 * s5 + math.sqrt(2))
    assert d[4] == pytest.approx(2 * s5 + math.sqrt(2))


def test_distances_from_interior_point_is_one_walk():
    # Inside an edge, one walk seeded at both ends with their offsets must
    # agree with the nearer of the two whole-tree walks from the ends.
    rng = random.Random(4)
    for seed in range(40):
        shape = ("uniform", "caterpillar")[seed % 2]
        t = random_tree(seed, 3 + seed % 40, shape)
        for _ in range(5):
            u, v = rng.choice(t.edges)
            a = TreePoint(u, v, rng.uniform(0.01, 0.99))
            du = distances_from(t, TreePoint.at_vertex(u))
            dv = distances_from(t, TreePoint.at_vertex(v))
            w = t.edge_length[(u, v)]
            got = distances_from(t, a)
            assert got.keys() == t.coords.keys()
            for x in t.coords:
                want = min(a.lam * w + du[x], (1.0 - a.lam) * w + dv[x])
                assert abs(got[x] - want) <= 1e-12 * t.scale, (seed, x)


def test_tree_path_trace(t_l):
    trace = tree_path(t_l, TreePoint.at_vertex(0), TreePoint.at_vertex(2))
    assert trace.length == pytest.approx(2.0)


def test_vertex_path(t_forkbent):
    assert vertex_path(t_forkbent, 0, 3) == [0, 1, 2, 3]


def test_tree_point_canonical_endpoints():
    assert TreePoint(3, 7, 0.0).canonical().vertex_id() == 3
    assert TreePoint(3, 7, 1.0).canonical().vertex_id() == 7
    assert not TreePoint(3, 7, 0.25).is_vertex


def test_shortcut_degenerate():
    c = TreePoint(1, 2, 0.5)
    assert Shortcut(c, c).is_degenerate
    assert not Shortcut(c, TreePoint(1, 2, 0.6)).is_degenerate


def test_load_round_trip(t_forkbent):
    doc = json.dumps(t_forkbent.to_json_data())
    again = load_tree(doc)
    assert again.coords == t_forkbent.coords
    assert set(map(frozenset, again.edges)) == set(
        map(frozenset, t_forkbent.edges))


def test_reject_duplicate_vertex():
    with pytest.raises(DuplicateVertexId):
        tree_from_data({"vertices": [{"id": 0, "x": 0, "y": 0},
                                     {"id": 0, "x": 1, "y": 0}],
                        "edges": [[0, 0]]})


def test_reject_cycle():
    with pytest.raises(NotATree):
        GeometricTree({0: (0, 0), 1: (1, 0), 2: (0, 1)},
                      [(0, 1), (1, 2), (2, 0)])


def test_reject_disconnected():
    with pytest.raises(NotATree):
        GeometricTree({0: (0, 0), 1: (1, 0), 2: (5, 5), 3: (6, 5)},
                      [(0, 1), (2, 3)])


def test_reject_zero_length_edge():
    with pytest.raises(ZeroLengthEdge):
        GeometricTree({0: (0, 0), 1: (0, 0)}, [(0, 1)])


def test_reject_unknown_edge_endpoint():
    with pytest.raises(InvalidEdgeReference):
        GeometricTree({0: (0, 0), 1: (1, 0)}, [(0, 9)])


def _path_doc(ids=(0, 1, 2), edges=((0, 1), (1, 2))):
    return {"vertices": [{"id": v, "x": float(i), "y": float(i % 2)}
                         for i, v in enumerate(ids)],
            "edges": [list(e) for e in edges]}


@pytest.mark.parametrize("doc", [
    _path_doc(ids=(0.9, 1.2, 2)),
    _path_doc(ids=(0, "1", 2)),
    _path_doc(ids=(0, True, 2)),
    _path_doc(edges=((0, 1, 2), (1, 2))),
    _path_doc(edges=((0, 1), (1,))),
    _path_doc(edges=((0, 1), (1.5, 2))),
], ids=["float-id", "string-id", "bool-id", "extra-edge-entry",
        "short-edge", "float-edge-end"])
def test_reject_non_integer_ids_and_malformed_edges(doc):
    with pytest.raises(ParseError):
        tree_from_data(doc)


def test_integral_float_ids_are_read_as_integers():
    t = tree_from_data(_path_doc(ids=(0.0, 1.0, 2), edges=((0.0, 1), (1, 2))))
    assert sorted(t.coords) == [0, 1, 2]
    assert all(type(v) is int for e in t.edges for v in e)


def test_reject_weighted_input():
    with pytest.raises(ParseError):
        tree_from_data({"vertices": [{"id": 0, "x": 0, "y": 0},
                                     {"id": 1, "x": 1, "y": 0}],
                        "edges": [{"u": 0, "v": 1, "weight": 3.0}]})


BAD_COORDINATES = {
    "nan": {0: (0.0, 0.0), 1: (math.nan, 1.0), 2: (2.0, 0.0), 3: (3.0, 1.0)},
    "inf": {0: (0.0, 0.0), 1: (math.inf, 1.0), 2: (2.0, 0.0), 3: (3.0, 1.0)},
    "overflow": {0: (-1e308, 0.0), 1: (0.0, 1.0), 2: (1.0, 0.0),
                 3: (1e308, 1.0)},
}


@pytest.mark.parametrize("case", sorted(BAD_COORDINATES))
def test_reject_non_finite_coordinates(case):
    with pytest.raises(ParseError):
        GeometricTree(BAD_COORDINATES[case], [(0, 1), (1, 2), (2, 3)])


def test_reject_malformed_json():
    with pytest.raises(ParseError):
        load_tree("{not json")


def test_parse_tree_point_validates(t_l):
    p = parse_tree_point(t_l, {"edge": [0, 1], "lambda": 0.5})
    assert (p.u, p.v, p.lam) == (0, 1, 0.5)
    for edge in ([0.5, 1], [0, 1, 2]):
        with pytest.raises(ParseError):
            parse_tree_point(t_l, {"edge": edge, "lambda": 0.5})
    with pytest.raises(Exception):
        parse_tree_point(t_l, {"edge": [0, 2], "lambda": 0.5})


def test_leaves(t_hook):
    assert sorted(t_hook.leaves()) == [0, 2, 3]


def test_rows_are_the_distances_dist_gives():
    # Row k holds the distances from the k-th index to the later ones,
    # the same floats as dist gives: over the leaves and over every
    # vertex, over every second leaf, which skips the gaps between, and
    # over the first half of the leaves, which stops short of the end.
    for t in (random_tree(4, 30, "uniform"), random_tree(5, 25, "balanced"),
              random_tree(6, 200, "uniform"), point_backbone_tree(1, 10),
              stress_family(2)):
        leaves = np.flatnonzero(t.is_leaf)
        for index in (leaves, np.arange(t.n), leaves[::2],
                      leaves[:len(leaves) // 2 + 1]):
            rows = list(t.rows(index))
            assert len(rows) == len(index) - 1
            for k, row in enumerate(rows):
                assert (row == t.dist(index[k])[index[k + 1:]]).all()


def test_rows_of_fewer_than_two_indices_are_none():
    t = random_tree(4, 30, "uniform")
    for index in ([], [0], [t.n - 1]):
        assert list(t.rows(np.array(index, dtype=np.intp))) == []


def _walk_forbidden(*args, **kwargs):
    raise AssertionError("a dict walk over the adjacency ran")


@pytest.mark.parametrize("n, shape", [(300, "uniform"), (2000, "caterpillar")])
def test_one_whole_tree_dfs_per_tree(monkeypatch, n, shape):
    # Load, backbone, the augmented diameter and the continuous diameter
    # read the arrays that one preorder DFS built when the tree was read.
    from treecut import augmented_eval, diameter_core, tree_model

    calls = []
    real = tree_model._preorder
    monkeypatch.setattr(tree_model, "_preorder",
                        lambda *a: calls.append(1) or real(*a))
    for mod in (tree_model, diameter_core):
        monkeypatch.setattr(mod, "_walk", _walk_forbidden, raising=False)
    for s in (0, 1):
        t = random_tree(s, n, shape)
        doc = json.dumps(t.to_json_data())
        sc = Shortcut(TreePoint(*t.edges[3], 0.3), TreePoint(*t.edges[-2], 0.6))
        calls.clear()
        tree = load_tree(doc)
        decomp = diameter_core.backbone(tree)
        augmented_eval.augmented_diameter(tree, decomp, sc)
        diameter_core.continuous_diameter(tree)
        assert len(calls) == 1


def _scipy_distances(t, sources):
    """Vertex-graph distances by scipy's Dijkstra, from the coordinates,
    as the dense-sampling oracle builds its graph: row k holds the
    distances from ``sources[k]`` to the vertices in sorted id order."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    row = {v: i for i, v in enumerate(sorted(t.coords))}
    rows, cols, data = [], [], []
    for u, v in t.edges:
        (xu, yu), (xv, yv) = t.coords[u], t.coords[v]
        w = math.hypot(xu - xv, yu - yv)
        rows += [row[u], row[v]]
        cols += [row[v], row[u]]
        data += [w, w]
    mat = csr_matrix((data, (rows, cols)), shape=(t.n, t.n))
    return shortest_path(mat, method="D", directed=False,
                         indices=[row[s] for s in sources])


@pytest.mark.parametrize("n", [30, 300, 2000])
@pytest.mark.parametrize("shape", ["uniform", "caterpillar", "balanced"])
def test_distances_and_paths_match_scipy(n, shape):
    # An independent reference: Dijkstra on the vertex graph, not the
    # preorder arrays that distances_from, vertex_path and the
    # attachment all read.
    from treecut.diameter_core import _arcs, _attachment

    t = random_tree(7, n, shape)
    rng = random.Random(n)
    tol = 1e-12 * t.scale
    ids = sorted(t.coords)
    ends = [rng.choice(t.edges) for _ in range(3)]
    sources = sorted({v for e in ends for v in e} | {ids[0], ids[-1]})
    ref = dict(zip(sources, _scipy_distances(t, sources)))
    for s in sources:
        got = distances_from(t, TreePoint.at_vertex(s))
        assert np.abs([got[v] for v in ids] - ref[s]).max() <= tol
    for u, v in ends:
        a = TreePoint(u, v, rng.uniform(0.01, 0.99))
        w = t.edge_length[(u, v)]
        got = distances_from(t, a)
        want = np.minimum(ref[u] + a.lam * w, ref[v] + (1.0 - a.lam) * w)
        assert np.abs([got[x] for x in ids] - want).max() <= tol
    for s, e in zip(sources, sources[1:]):
        path = vertex_path(t, s, e)
        assert path[0] == s and path[-1] == e and len(set(path)) == len(path)
        length = sum(t.edge_length[(a, b)] for a, b in zip(path, path[1:]))
        assert abs(length - ref[s][ids.index(e)]) <= tol
        # Each vertex hangs from the path vertex nearest to it.
        idx = np.array([t.index[v] for v in path])
        at = _attachment(_arcs(t, idx), t.dist(idx[0]), t.dist(idx[-1]))
        want = _scipy_distances(t, path).argmin(axis=0)
        assert (at[[t.index[x] for x in ids]] == want).all()
