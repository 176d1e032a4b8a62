import math

import pytest

from treecut import (
    INDIFFERENT,
    USEFUL,
    USELESS,
    Shortcut,
    TreePoint,
    augmented_diameter,
    augmented_diameter_value,
    backbone,
    classify_usefulness,
    has_useful_shortcut,
    pair_is_useful,
)
from treecut.oracle import dense_sample_diameter, random_tree


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
    from treecut import GeometricTree
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


def test_value_matches_diagnosis():
    import random
    rng = random.Random(11)
    for seed in range(12):
        t = random_tree(seed, 10, ("uniform", "caterpillar")[seed % 2])
        d = backbone(t)
        edges = t.edges
        shortcuts = [Shortcut(d.center, d.center)]
        if not d.is_point:
            shortcuts.append(Shortcut(d.a, d.b))
        (u, v) = edges[rng.randrange(len(edges))]
        lo, hi = sorted((rng.random(), rng.random()))
        pt = TreePoint(u, v, lo)
        # p == q inside an edge, and a shortcut along a single edge.
        shortcuts += [Shortcut(pt, pt),
                      Shortcut(pt, TreePoint(u, v, hi))]
        for _ in range(3):
            e1 = edges[rng.randrange(len(edges))]
            e2 = edges[rng.randrange(len(edges))]
            shortcuts.append(Shortcut(TreePoint(e1[0], e1[1], rng.random()),
                                      TreePoint(e2[0], e2[1], rng.random())))
        for sc in shortcuts:
            diag = augmented_diameter(t, d, sc)
            assert augmented_diameter_value(t, sc) == diag.diameter
            assert diag.achieving_pairs
            use = classify_usefulness(t, sc, d)
            assert use.diameter_after == diag.diameter


def test_value_matches_dense_oracle():
    import random
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
