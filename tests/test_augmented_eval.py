import math
import random
import tracemalloc

import numpy as np
import pytest

from treecut import (
    INDIFFERENT,
    USEFUL,
    USELESS,
    GeometricTree,
    Shortcut,
    TreePoint,
    augmented_diameter,
    augmented_diameter_value,
    backbone,
    classify_usefulness,
    continuous_diameter,
    has_useful_shortcut,
    pair_is_useful,
)
from treecut import augmented_eval
from treecut.oracle import (
    dense_sample_diameter,
    leaf_pair_diameter,
    point_backbone_tree,
    random_tree,
    straight_backbone_tree,
    stress_family,
)


def test_hook_useless_shortcut(t_hook):
    sc = Shortcut(TreePoint.at_vertex(0), TreePoint.at_vertex(2))
    d = backbone(t_hook)
    diag = augmented_diameter(t_hook, d, sc)
    assert diag.diameter == pytest.approx(8 + 2 * math.sqrt(2), abs=1e-9)
    res = classify_usefulness(t_hook, sc, d)
    assert res.classification == USELESS
    assert res.diameter_before == pytest.approx(8.0)


def test_l_degenerate_indifferent(t_l):
    d = backbone(t_l)
    c = d.center
    res = classify_usefulness(t_l, Shortcut(c, c), d)
    assert res.classification == INDIFFERENT
    assert res.diameter_after == pytest.approx(2.0)


def test_l_optimal_useful(t_l):
    sc = Shortcut(TreePoint(0, 1, 0.2265410), TreePoint(1, 2, 0.7734590))
    d = backbone(t_l)
    diag = augmented_diameter(t_l, d, sc)
    assert diag.diameter == pytest.approx(1.5469182, abs=1e-6)
    res = classify_usefulness(t_l, sc, d)
    assert res.classification == USEFUL


def test_l_optimal_pair_state(t_l):
    sc = Shortcut(TreePoint(0, 1, 0.2265410), TreePoint(1, 2, 0.7734590))
    d = backbone(t_l)
    diag = augmented_diameter(t_l, d, sc)
    assert "x-y" in diag.pair_state


def test_has_useful_shortcut(t_l, t_hook):
    assert has_useful_shortcut(backbone(t_l))
    assert not has_useful_shortcut(backbone(t_hook))


def test_straight_path_has_no_useful_shortcut():
    t = GeometricTree({0: (0.0, 0.0), 1: (2.0, 0.0)}, [(0, 1)])
    assert not has_useful_shortcut(backbone(t))


def test_pair_is_useful_orientations(t_l):
    sc = Shortcut(TreePoint(0, 1, 0.25), TreePoint(1, 2, 0.75))
    r = pair_is_useful(t_l, sc, TreePoint.at_vertex(0), TreePoint.at_vertex(2))
    assert r.forward or r.backward
    # a pair on the same side of the shortcut gains nothing
    r2 = pair_is_useful(t_l, sc, TreePoint.at_vertex(0),
                        TreePoint(0, 1, 0.1))
    assert r2.indifferent


def test_each_shortcut_end_is_checked_once(monkeypatch):
    # The evaluation checks p and q once each; the distance queries it
    # runs after that do not check them again.
    calls = []
    check = GeometricTree.check_point
    monkeypatch.setattr(GeometricTree, "check_point",
                        lambda self, pt: calls.append(pt) or check(self, pt))
    t = random_tree(3, 40, "uniform")
    rng = random.Random(3)
    for sc in shortcut_kinds(t, backbone(t), rng):
        calls.clear()
        augmented_diameter_value(t, sc)
        assert len(calls) <= 2, sc
    u, v = TreePoint.at_vertex(t.leaves()[0]), TreePoint.at_vertex(
        t.leaves()[-1])
    calls.clear()
    pair_is_useful(t, sc, u, v)
    assert len(calls) <= 4


def shortcut_kinds(t, d, rng):
    """p == q at the centre, (a, b), p == q inside an edge, a shortcut
    along a single edge, and three random shortcuts."""
    edges = t.edges
    shortcuts = [Shortcut(d.center, d.center)]
    if not d.is_point:
        shortcuts.append(Shortcut(d.a, d.b))
    (u, v) = edges[rng.randrange(len(edges))]
    lo, hi = sorted((rng.random(), rng.random()))
    pt = TreePoint(u, v, lo)
    shortcuts += [Shortcut(pt, pt), Shortcut(pt, TreePoint(u, v, hi))]
    for _ in range(3):
        e1 = edges[rng.randrange(len(edges))]
        e2 = edges[rng.randrange(len(edges))]
        shortcuts.append(Shortcut(TreePoint(e1[0], e1[1], rng.random()),
                                  TreePoint(e2[0], e2[1], rng.random())))
    return shortcuts


def test_value_matches_diagnosis():
    rng = random.Random(11)
    for seed in range(12):
        t = random_tree(seed, 10, ("uniform", "caterpillar")[seed % 2])
        d = backbone(t)
        for sc in shortcut_kinds(t, d, rng):
            diag = augmented_diameter(t, d, sc)
            assert augmented_diameter_value(t, sc) == diag.diameter
            assert diag.achieving_pairs
            use = classify_usefulness(t, sc, d)
            assert use.diameter_after == diag.diameter


def test_value_matches_dense_oracle():
    rng = random.Random(5)
    for seed in range(10):
        t = random_tree(seed, 9, "uniform")
        d = backbone(t)
        edges = t.edges
        e1 = edges[rng.randrange(len(edges))]
        e2 = edges[rng.randrange(len(edges))]
        sc = Shortcut(TreePoint(e1[0], e1[1], rng.random()),
                      TreePoint(e2[0], e2[1], rng.random()))
        val = augmented_diameter_value(t, sc)
        approx, spacing = dense_sample_diameter(t, sc)
        assert abs(val - approx) <= 3 * spacing


def test_achieving_pair_distances_consistent(t_hook):
    sc = Shortcut(TreePoint.at_vertex(0), TreePoint.at_vertex(2))
    diag = augmented_diameter(t_hook, backbone(t_hook), sc)
    for pair in diag.achieving_pairs:
        assert pair.distance == pytest.approx(diag.diameter, rel=1e-12)


def summary(diag):
    return [(ap.end1, ap.end2, ap.subtype, ap.pair_type, ap.path_types)
            for ap in diag.achieving_pairs]


def test_matches_leaf_pair_oracle():
    shapes = ("uniform", "caterpillar", "balanced")
    trees = [random_tree(s, 3 + s % 60, shapes[s % 3]) for s in range(300)]
    trees += [straight_backbone_tree(s, 4 + s) for s in range(15)]
    trees += [point_backbone_tree(s, 4 + s) for s in range(15)]
    trees += [stress_family(l) for l in (1, 3, 5)]
    rng = random.Random(3)
    for t in trees:
        d = backbone(t)
        for sc in shortcut_kinds(t, d, rng):
            got, want = augmented_diameter(t, d, sc), leaf_pair_diameter(t, sc)
            assert abs(got.diameter - want.diameter) <= 1e-12 * t.scale
            assert got.cycle_length == want.cycle_length
            assert summary(got) == summary(want), (t.n, sc)
            assert got.pair_state == want.pair_state
            assert got.path_state == want.path_state


def test_row_pass_matches_the_oracle_on_trees_of_30_to_200_vertices():
    # Trees of 30 to 200 vertices, where the pass reads many rows,
    # against the pair-by-pair oracle.
    shapes = ("uniform", "caterpillar", "balanced")
    trees = [random_tree(s, 30 + 17 * s, shapes[s % 3]) for s in range(11)]
    rng = random.Random(9)
    for t in trees:
        d = backbone(t)
        for sc in shortcut_kinds(t, d, rng):
            got, oracle = augmented_diameter(t, d, sc), leaf_pair_diameter(
                t, sc)
            assert abs(got.diameter - oracle.diameter) <= 1e-12 * t.scale
            assert got.cycle_length == oracle.cycle_length
            assert summary(got) == summary(oracle), (t.n, sc)
            assert got.pair_state == oracle.pair_state
            assert got.path_state == oracle.path_state


def test_single_vertex_tree():
    t = GeometricTree({0: (1.0, 2.0)}, [])
    sc = Shortcut(TreePoint.at_vertex(0), TreePoint.at_vertex(0))
    assert list(t.rows(np.flatnonzero(t.is_leaf))) == []
    diag = augmented_diameter(t, backbone(t), sc)
    assert diag.diameter == 0.0 and diag.cycle_length == 0.0
    assert diag.achieving_pairs == ()
    assert augmented_diameter_value(t, sc) == 0.0


def test_single_edge_tree():
    t = GeometricTree({0: (0.0, 0.0), 1: (3.0, 4.0)}, [(0, 1)])
    d = backbone(t)
    mid = TreePoint(0, 1, 0.5)
    diag = augmented_diameter(t, d, Shortcut(mid, mid))
    assert diag.diameter == pytest.approx(5.0)
    assert [(ap.end1, ap.end2) for ap in diag.achieving_pairs] == [(0, 1)]
    assert diag.achieving_pairs[0].path_types == {"via-tree", "via-shortcut"}
    # A shortcut along the edge closes a cycle of twice its length.
    sc = Shortcut(TreePoint(0, 1, 0.2), TreePoint(0, 1, 0.6))
    diag = augmented_diameter(t, d, sc)
    assert diag.cycle_length == pytest.approx(4.0)
    assert diag.diameter == pytest.approx(5.0)
    assert summary(diag) == summary(leaf_pair_diameter(t, sc))


def test_no_antipodal_term_without_a_cycle(t_hook):
    # p == q closes no cycle: only leaf pairs achieve the diameter.
    d = backbone(t_hook)
    assert d.is_point
    for pt in (d.center, TreePoint(1, 2, 0.25)):
        diag = augmented_diameter(t_hook, d, Shortcut(pt, pt))
        assert diag.cycle_length == 0.0
        assert diag.achieving_pairs
        assert all(isinstance(ap.end2, int) for ap in diag.achieving_pairs)
    diag = augmented_diameter(t_hook, d, Shortcut(d.center, d.center))
    assert diag.diameter == pytest.approx(8.0)
    assert len(diag.achieving_pairs) == 3


def test_large_tree_memory():
    # 2015 leaves: the pass over the leaf pairs holds a few arrays of one
    # row each.
    t = random_tree(0, 4000, "uniform")
    d = backbone(t)
    tracemalloc.start()
    try:
        diag = augmented_diameter(t, d, Shortcut(d.a, d.b))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(t.leaves()) == 2015
    assert diag.achieving_pairs
    assert peak < 100 * 2 ** 20


def test_evaluate_memory_at_8000_vertices():
    # 3,959 leaves.  A table of every leaf pair alone would take 120 MiB;
    # the pass row by row keeps the whole evaluation under 64 MiB.
    t = random_tree(0, 8000, "uniform")
    d = backbone(t)
    tracemalloc.start()
    try:
        diag = augmented_diameter(t, d, Shortcut(d.a, d.b))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(t.leaves()) == 3959
    assert diag.achieving_pairs
    assert peak < 64 * 2 ** 20


def regular_star(spokes):
    """A star of ``spokes`` unit spokes from vertex 0, evenly spaced."""
    verts = {0: (0.0, 0.0)}
    for i in range(spokes):
        turn = 2.0 * math.pi * i / spokes
        verts[i + 1] = (math.cos(turn), math.sin(turn))
    return GeometricTree(verts, [(0, i + 1) for i in range(spokes)])


def row_indices(monkeypatch):
    """A list that gets the number of indices each pair pass hands to
    ``GeometricTree.rows``: the leaves it reads."""
    seen, rows = [], GeometricTree.rows

    def counted(tree, index):
        seen.append(len(index))
        return rows(tree, index)

    monkeypatch.setattr(GeometricTree, "rows", counted)
    return seen


def test_regular_star_keeps_every_leaf(monkeypatch):
    # Every leaf ties on eccentricity, and with a shortcut whose cycle
    # stays short of the diameter every pair of two spokes away from it
    # is a diameter, so no leaf is pruned: the pass and its near lists
    # run over 39 rows.
    seen = row_indices(monkeypatch)
    t = regular_star(40)
    d = backbone(t)
    centre = TreePoint.at_vertex(0)
    for sc in (Shortcut(centre, centre),
               Shortcut(TreePoint(0, 7, 0.3), TreePoint(0, 7, 0.3)),
               Shortcut(TreePoint(0, 7, 0.2), TreePoint(0, 7, 0.6)),
               Shortcut(TreePoint(0, 1, 0.1), TreePoint(0, 2, 0.1)),
               Shortcut(TreePoint(0, 1, 0.9), TreePoint(0, 2, 0.9))):
        seen.clear()
        got, want = augmented_diameter(t, d, sc), leaf_pair_diameter(t, sc)
        assert seen == [40], sc
        assert abs(got.diameter - want.diameter) <= 1e-12 * t.scale
        assert summary(got) == summary(want), sc
        assert got.pair_state == want.pair_state
        assert got.path_state == want.path_state


@pytest.mark.parametrize("base", [0, 2 ** 63 - 20, -2 ** 70])
def test_regular_star_diameter_pairs_every_two_leaves(base):
    # Every two spokes of a regular star are a diameter: continuous_diameter
    # reads the 40 leaves row by row and reports all 780 pairs, by id,
    # ids beyond 64 bits included.
    star = regular_star(40)
    t = GeometricTree({base + v: xy for v, xy in star.coords.items()},
                      [(base + u, base + v) for u, v in star.edges])
    got = continuous_diameter(t)
    assert got.diameter == pytest.approx(2.0)
    assert got.diametral_leaf_pairs == tuple(
        (base + u, base + v) for u in range(1, 41) for v in range(u + 1, 41))


def test_antipodal_term_leaves_no_pair_pass(monkeypatch):
    # A bent path A-M-B with a pendant w of 10 at M, and the shortcut AB:
    # w against its antipode, 10 + 16 / 2 = 18, beats every pair (15 at
    # most), so every leaf's bound is below the floor and no pair pass
    # runs.
    seen = row_indices(monkeypatch)
    t = GeometricTree({0: (0.0, 0.0), 1: (3.0, 4.0), 2: (6.0, 0.0),
                       3: (3.0, 14.0)}, [(0, 1), (1, 2), (1, 3)])
    sc = Shortcut(TreePoint.at_vertex(0), TreePoint.at_vertex(2))
    got, want = augmented_diameter(t, backbone(t), sc), leaf_pair_diameter(
        t, sc)
    assert seen == []
    assert got.diameter == pytest.approx(18.0)
    assert augmented_diameter_value(t, sc) == got.diameter
    assert abs(got.diameter - want.diameter) <= 1e-12 * t.scale
    assert got.cycle_length == want.cycle_length
    assert summary(got) == summary(want)
    # M is halfway along the cycle's tree path, so w's antipode is the
    # shortcut's midpoint.
    assert [(ap.end1, ap.end2["kind"]) for ap in got.achieving_pairs] == [
        (3, "interior")]


def test_point_shortcut_without_a_cycle(monkeypatch):
    # p == q closes no cycle, so the floor is the pairs with the poles
    # alone; the diagnosis matches the oracle and the bound still prunes.
    seen = row_indices(monkeypatch)
    shapes = ("uniform", "caterpillar", "balanced")
    rng = random.Random(7)
    read = total = 0
    for s in range(12):
        t = random_tree(s, 30 + 5 * s, shapes[s % 3])
        d = backbone(t)
        (u, v) = t.edges[rng.randrange(len(t.edges))]
        for pt in (TreePoint(u, v, rng.random()), TreePoint.at_vertex(u),
                   d.center):
            sc = Shortcut(pt, pt)
            seen.clear()
            got, want = augmented_diameter(t, d, sc), leaf_pair_diameter(
                t, sc)
            assert got.cycle_length == want.cycle_length == 0.0
            assert abs(got.diameter - want.diameter) <= 1e-12 * t.scale
            assert summary(got) == summary(want), (s, sc)
            assert got.pair_state == want.pair_state
            assert got.path_state == want.path_state
            read += sum(seen)
            total += len(t.leaves())
    assert read < total / 2


def test_bound_prunes_the_pair_pass(monkeypatch):
    # random_tree(0, 4000) with a shortcut between the midpoints of the
    # backbone edges a quarter and three quarters along: the pair pass
    # reads under 10 % of the 2,015 leaves, and the diagnosis is the one
    # the pass over every leaf gives.
    seen = row_indices(monkeypatch)
    t = random_tree(0, 4000, "uniform")
    d = backbone(t)
    ids, k = d.backbone_ids, len(d.backbone_ids)
    sc = Shortcut(TreePoint(ids[k // 4], ids[k // 4 + 1], 0.5),
                  TreePoint(ids[3 * k // 4], ids[3 * k // 4 + 1], 0.5))
    got = augmented_diameter(t, d, sc)
    assert len(t.leaves()) == 2015
    assert 2 <= sum(seen) < 0.1 * 2015
    seen.clear()
    monkeypatch.setattr(augmented_eval, "_kept_leaves",
                        lambda tree, index, *rest: np.arange(len(index)))
    assert augmented_diameter(t, d, sc) == got
    assert seen == [2015]


def test_value_memory_on_a_4000_spoke_star(monkeypatch):
    # Nothing is pruned on a regular star: the pass reads all 4,000
    # leaves one row at a time, and the value stays under 4 MiB where a
    # table of every leaf pair alone would take 122 MiB.
    seen = row_indices(monkeypatch)
    t = regular_star(4000)
    t.poles
    sc = Shortcut(TreePoint(0, 1, 0.5), TreePoint(0, 2001, 0.5))
    tracemalloc.start()
    try:
        value = augmented_diameter_value(t, sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seen == [4000]
    assert value == pytest.approx(2.0)
    assert peak < 4 * 2 ** 20
