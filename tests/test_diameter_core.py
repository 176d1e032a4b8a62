import math
import random

import pytest

from treecut import (
    GeometricTree,
    TreePoint,
    absolute_center,
    backbone,
    continuous_diameter,
    distances_from,
    point_coordinates,
)
from treecut.oracle import (
    dense_sample_diameter,
    point_backbone_tree,
    random_tree,
    straight_backbone_tree,
)
from treecut.tree_model import vertex_path


def test_diameter_l(t_l):
    res = continuous_diameter(t_l)
    assert res.diameter == pytest.approx(2.0)
    assert set(res.diametral_leaf_pairs) == {(0, 2)}


def test_diameter_hook(t_hook):
    res = continuous_diameter(t_hook)
    assert res.diameter == pytest.approx(8.0)
    assert set(res.diametral_leaf_pairs) == {(0, 2), (0, 3), (2, 3)}


def test_diameter_forkbent(t_forkbent):
    res = continuous_diameter(t_forkbent)
    assert res.diameter == pytest.approx(2 * math.sqrt(5) + math.sqrt(2))
    assert set(res.diametral_leaf_pairs) == {(0, 3), (0, 4)}


def test_center_l(t_l):
    res = absolute_center(t_l)
    assert point_coordinates(t_l, res.center) == pytest.approx((1.0, 0.0))
    assert res.eccentricity == pytest.approx(1.0)


def test_center_hook(t_hook):
    res = absolute_center(t_hook)
    assert res.center.is_vertex and res.center.vertex_id() == 1
    assert res.eccentricity == pytest.approx(4.0)


def test_center_forkbent(t_forkbent):
    res = absolute_center(t_forkbent)
    diam = 2 * math.sqrt(5) + math.sqrt(2)
    assert res.eccentricity == pytest.approx(diam / 2.0)
    # center on edge m-b at half the diameter from x
    p = res.center.canonical()
    assert {p.u, p.v} == {1, 2}


def test_backbone_l(t_l):
    d = backbone(t_l)
    assert not d.is_point and not d.is_straight
    assert d.length == pytest.approx(2.0)
    assert d.secondary == ()
    assert d.delta == pytest.approx(0.0)
    assert d.h_x == pytest.approx(0.0)
    assert d.h_y == pytest.approx(0.0)


def test_backbone_hook_is_point(t_hook):
    d = backbone(t_hook)
    assert d.is_point
    assert d.a.vertex_id() == d.b.vertex_id() == 1


def test_backbone_forkbent(t_forkbent):
    d = backbone(t_forkbent)
    assert {d.a_id, d.b_id} == {0, 2}
    assert d.secondary == ()
    # the fork at b forms the Y-side sub-tree of height sqrt(2)
    assert max(d.h_x, d.h_y) == pytest.approx(math.sqrt(2))
    assert min(d.h_x, d.h_y) == pytest.approx(0.0)
    assert not d.is_straight
    assert d.length == pytest.approx(2 * math.sqrt(5))


def test_backbone_straight_line():
    t = GeometricTree({0: (0.0, 0.0), 1: (1.0, 0.0), 2: (2.0, 0.0)},
                      [(0, 1), (1, 2)])
    d = backbone(t)
    assert d.is_straight and not d.is_point


def test_backbone_arc_positions_sorted():
    for seed in range(5):
        t = random_tree(seed, 12, "caterpillar")
        d = backbone(t)
        assert list(d.arcs) == sorted(d.arcs)
        assert d.arcs[0] == pytest.approx(0.0)
        assert d.arcs[-1] == pytest.approx(d.length)
        for s in d.secondary:
            assert 0.0 < s.arc < d.length
            assert s.height > 0.0
            assert s.diameter <= d.delta + 1e-12
        assert d.center_arc == pytest.approx(d.diameter / 2.0 - d.h_x)


def test_diameter_matches_dense_oracle():
    for seed in range(8):
        t = random_tree(seed, 10, "uniform")
        res = continuous_diameter(t)
        approx, spacing = dense_sample_diameter(t)
        assert abs(res.diameter - approx) <= 3 * spacing


def test_secondary_subtrees_present():
    t = random_tree(7, 14, "caterpillar")
    d = backbone(t)
    assert len(d.secondary) >= 1
    assert d.h_max_secondary == pytest.approx(
        max(s.height for s in d.secondary))


def test_reversed_decomposition_reads_from_b():
    t = random_tree(3, 30, "caterpillar")
    d = backbone(t)
    r = d.reversed()
    assert (r.a, r.b, r.x_leaf, r.y_leaf) == (d.b, d.a, d.y_leaf, d.x_leaf)
    assert (r.h_x, r.h_y) == (d.h_y, d.h_x)
    assert r.backbone_ids == d.backbone_ids[::-1]
    assert r.backbone_path.points == d.backbone_path.points[::-1]
    assert r.arcs[0] == 0.0 and r.arcs[-1] == d.length
    assert list(r.arcs) == sorted(r.arcs)
    assert r.center_arc == pytest.approx(d.length - d.center_arc)
    assert [s.root_id for s in r.secondary] == \
        [s.root_id for s in d.secondary[::-1]]
    assert [s.arc for s in r.secondary] == pytest.approx(
        [d.length - s.arc for s in d.secondary[::-1]])
    assert r.reversed().arcs == pytest.approx(d.arcs)


_LATTICE_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (2, 0), (0, 2))


def lattice_tree(seed, n):
    """Integer-lattice tree: each new vertex is one step from a random
    earlier vertex, onto a point not used yet.  Equal path lengths, and
    so ties between diametral paths, are common."""
    rng = random.Random(("lattice", seed, n).__repr__())
    coords = {0: (0.0, 0.0)}
    edges = []
    while len(coords) < n:
        parent = rng.randrange(len(coords))
        dx, dy = rng.choice(_LATTICE_STEPS)
        x, y = coords[parent][0] + dx, coords[parent][1] + dy
        if (x, y) not in coords.values():
            edges.append((parent, len(coords)))
            coords[len(coords)] = (x, y)
    return GeometricTree(coords, edges)


def star_tree(seed, arms):
    """``arms`` equally long arms from a hub at 0, plus up to two
    shorter ones; the arms are straight, some split into segments."""
    rng = random.Random(("star", seed, arms).__repr__())
    reach = rng.uniform(1.0, 4.0)
    total = arms + rng.randrange(3)
    coords = {0: (0.0, 0.0)}
    edges = []
    for k in range(total):
        ang = 2.0 * math.pi * k / total + rng.uniform(-0.2, 0.2)
        r = reach if k < arms else reach * rng.uniform(0.2, 0.9)
        segs = rng.randint(1, 3)
        prev = 0
        for s in range(1, segs + 1):
            coords[len(coords)] = (r * s / segs * math.cos(ang),
                                   r * s / segs * math.sin(ang))
            edges.append((prev, len(coords) - 1))
            prev = len(coords) - 1
    return GeometricTree(coords, edges)


def definition_trees():
    """The trees on which the backbone is checked against its definition."""
    for s in range(300):
        for shape in ("uniform", "caterpillar", "balanced"):
            yield random_tree(s, 2 + s % 60, shape)
    for s in range(200):
        yield lattice_tree(s, 2 + s % 40)
    for s in range(10):
        for arms in (3, 4, 5, 6):
            yield star_tree(s, arms)
    for s in range(20):
        yield straight_backbone_tree(s, 2 + s % 12)
        yield point_backbone_tree(s, 4 + s % 12)


def test_backbone_is_the_intersection_of_all_diametral_paths():
    points = checked = 0
    for t in definition_trees():
        pairs = continuous_diameter(t).diametral_leaf_pairs
        common = set.intersection(*(set(vertex_path(t, u, v))
                                    for u, v in pairs))
        d = backbone(t)
        assert set(d.backbone_ids) == common, t.to_json_data()
        assert d.is_point == (len(common) == 1)
        points += d.is_point
        checked += 1
    assert checked == 1180
    assert points >= 60


def _b_sub_trees(t, d):
    """Reference: each backbone vertex's B-sub-tree by a walk over the
    ``adj`` view that enters no other backbone vertex, with its height,
    far leaf (ties go to the smallest id) and diameter."""
    on = set(d.backbone_ids)
    out = []
    for r in d.backbone_ids:
        group, stack = {r}, [r]
        while stack:
            for nb, _ in t.adj[stack.pop()]:
                if nb not in group and nb not in on:
                    group.add(nb)
                    stack.append(nb)
        dist = {v: distances_from(t, TreePoint.at_vertex(v)) for v in group}
        height, far = max((dist[r][v], -v) for v in group)
        out.append((r, height, -far, max(max(dist[u].get(v, 0.0)
                                             for v in group) for u in group)))
    return out


def _listed_backwards(t):
    """The same tree with its vertices and edges listed in reverse, so
    that its preorder starts elsewhere."""
    return GeometricTree(dict(reversed(list(t.coords.items()))),
                         t.edges[::-1])


@pytest.mark.parametrize("shape", ["uniform", "caterpillar", "balanced"])
def test_b_sub_trees_match_a_walk_over_adj(shape, t_forkbent):
    # Heights, far leaves and diameters of every B-sub-tree, whichever
    # vertex the preorder starts at; the fork of t_forkbent ties its
    # two leaves, and the smaller id is the far leaf.
    trees = [t_forkbent] + [random_tree(s, 8 + s % 40, shape)
                            for s in range(30)]
    for t in trees + [_listed_backwards(t) for t in trees]:
        d = backbone(t)
        if d.is_point:
            continue
        ref = _b_sub_trees(t, d)
        tol = 1e-12 * t.scale
        (_, h_x, x_leaf, dx), (_, h_y, y_leaf, dy) = ref[0], ref[-1]
        assert (d.x_leaf, d.y_leaf) == (x_leaf, y_leaf)
        assert abs(d.h_x - h_x) <= tol and abs(d.h_y - h_y) <= tol
        inner = [s for s in ref[1:-1] if s[1] > 0.0]
        assert [(s.root_id, s.far_leaf) for s in d.secondary] == [
            (r, far) for r, _, far, _ in inner]
        for s, (_, h, _, sd) in zip(d.secondary, inner):
            assert abs(s.height - h) <= tol and abs(s.diameter - sd) <= tol
        assert abs(d.delta - max(s[3] for s in ref)) <= tol
        assert abs(d.h_max_secondary
                   - max([s[1] for s in inner], default=0.0)) <= tol
    for t in (t_forkbent, _listed_backwards(t_forkbent)):
        d = backbone(t)
        assert {d.x_leaf, d.y_leaf} == {0, 3}
