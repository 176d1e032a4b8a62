import math
import time
import warnings

import pytest

from treecut import (
    ResolutionTooCoarse,
    ResolutionTooFine,
    Shortcut,
    TreePoint,
    backbone,
    grid_search,
)
from treecut.oracle import (
    _full_pair_count,
    dense_sample_diameter,
    point_backbone_tree,
    random_tree,
    straight_backbone_tree,
    stress_family,
)


def test_random_tree_deterministic():
    a = random_tree(4, 12, "uniform")
    b = random_tree(4, 12, "uniform")
    assert a.coords == b.coords
    assert a.edges == b.edges


def test_random_tree_shapes_and_sizes():
    for shape in ("uniform", "caterpillar", "balanced"):
        t = random_tree(1, 14, shape)
        assert t.n == 14
    with pytest.raises(ValueError):
        random_tree(0, 5, "mystery")
    with pytest.raises(ValueError):
        random_tree(0, 1)


def test_straight_backbone_trees_are_straight():
    for seed in range(10):
        t = straight_backbone_tree(seed, 8)
        d = backbone(t)
        assert d.is_straight or d.is_point


def test_point_backbone_trees_are_points():
    for seed in range(10):
        t = point_backbone_tree(seed, 9)
        assert backbone(t).is_point


def test_stress_family_shape():
    for l in (1, 3, 8):
        t = stress_family(l)
        d = backbone(t)
        assert not d.is_point and not d.is_straight
        # one small pendant per switchback on each arm
        assert len(d.secondary) == 2 * l
    with pytest.raises(ValueError):
        stress_family(0)


def test_grid_search_finds_known_optimum(t_l):
    g = grid_search(t_l, 1e-3)
    assert g.restricted
    assert g.best_diameter == pytest.approx(1.5469182, abs=4e-3)
    assert g.evaluations > 0


def test_grid_search_full_vs_restricted(t_l):
    # the optimum lies on the backbone, so both modes agree to grid error
    r = grid_search(t_l, 0.02, restrict_to_backbone=True)
    f = grid_search(t_l, 0.02, restrict_to_backbone=False)
    assert abs(r.best_diameter - f.best_diameter) <= 8 * 0.02


def test_grid_search_rejects_coarse_resolution(t_l):
    with pytest.raises(ResolutionTooCoarse):
        grid_search(t_l, 10.0)
    with pytest.raises(ValueError):
        grid_search(t_l, -1.0)


@pytest.mark.parametrize("restrict", [True, False], ids=["backbone", "full"])
def test_grid_search_rejects_fine_resolution(t_l, restrict):
    # The floor is the diameter (2) over 4096; both values are rejected
    # before any placement is built.
    for h in (1e-300, 2.0 / 4097):
        with pytest.raises(ResolutionTooFine, match="--resolution"):
            grid_search(t_l, h, restrict_to_backbone=restrict)


def test_full_grid_refuses_too_many_pairs_before_evaluating(t_l):
    # At the floor, diameter / 4096, the right-angle tree has 4,097
    # placements: 8.4M pairs, about 5 minutes of exact evaluations.  The
    # full grid counts them first and refuses, while the backbone grid at
    # the same resolution runs and the full grid at 0.02 (5,051 pairs)
    # still does.
    h = 2.0 / 4096
    start = time.perf_counter()
    with pytest.raises(ResolutionTooFine, match="--resolution"):
        grid_search(t_l, h, restrict_to_backbone=False)
    assert time.perf_counter() - start < 1.0
    assert grid_search(t_l, h, restrict_to_backbone=True).restricted
    assert grid_search(t_l, 0.02,
                       restrict_to_backbone=False).evaluations == 5051
    # The count the refusal reads is the count the grid evaluates.
    for seed in range(3):
        t = random_tree(seed, 6, "uniform")
        h = backbone(t).diameter / 20.0
        assert _full_pair_count(t, h) == grid_search(
            t, h, restrict_to_backbone=False).evaluations


def test_dense_sample_diameter_plain(t_l):
    approx, spacing = dense_sample_diameter(t_l)
    assert approx == pytest.approx(2.0, abs=3 * spacing)


def test_dense_sample_diameter_with_shortcut(t_l):
    sc = Shortcut(TreePoint(0, 1, 0.2265410), TreePoint(1, 2, 0.7734590))
    approx, spacing = dense_sample_diameter(t_l, sc)
    assert approx == pytest.approx(1.5469182, abs=3 * spacing)


@pytest.mark.parametrize("restrict", [True, False], ids=["backbone", "full"])
def test_grid_search_on_degenerate_backbones(restrict):
    # Criterion 3's straight and point backbones: no shortcut beats the
    # diameter by more than tol, so the grid reports the degenerate one,
    # with the diameter as a finite value and no warning on the way.
    for seed in range(25):
        for gen in (straight_backbone_tree, point_backbone_tree):
            t = gen(seed, 6 + seed % 4)
            d = backbone(t)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                g = grid_search(t, d.diameter / 40.0,
                                restrict_to_backbone=restrict)
            assert g.best_shortcut.is_degenerate, (gen.__name__, seed)
            assert math.isfinite(g.best_diameter), (gen.__name__, seed)
            assert abs(g.best_diameter - d.diameter) <= t.tol
