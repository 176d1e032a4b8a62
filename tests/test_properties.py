"""Property tests: the exact evaluators see the metric tree, not its labels.

``augmented_diameter_value`` and ``Caterpillar.evaluate`` must give the
same value, up to float noise, when the tree is rotated, reflected,
translated or relabelled; a uniform scale scales the value.  The mirror
that swaps a and b leaves the value unchanged: swapping p and q for
``augmented_diameter_value``, and reading the caterpillar from b through
``flip()`` for ``Caterpillar.evaluate``.

``backbone`` and ``continuous_diameter`` are invariant too: the same
numbers up to float noise (scaled by a uniform scale), the same backbone
and diametral leaves under the renaming, whichever vertex the renamed
tree lists first and so roots its preorder at.

``optimize`` is not held to the same invariance here.  The sweep is known
to miss the optimum on some trees (ROADMAP item 1), and a moved copy of
such a tree can end on a different branch, so the test would fail for
reasons that are not about invariance.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from treecut import (
    GeometricTree,
    Shortcut,
    TreePoint,
    augmented_diameter_value,
    backbone,
    continuous_diameter,
)
from treecut.caterpillar import Caterpillar
from treecut.oracle import random_tree

# Derandomized so that the suite stays deterministic; no example database
# is written.
SETTINGS = settings(max_examples=30, deadline=None, derandomize=True,
                    database=None)

trees = st.builds(random_tree, st.integers(0, 10 ** 6), st.integers(4, 16),
                  st.sampled_from(("uniform", "caterpillar", "balanced")))
unit = st.floats(0.0, 1.0)
motions = st.fixed_dictionaries({
    "angle": st.floats(0.0, 2.0 * math.pi),
    "reflect": st.booleans(),
    "shift": st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
})
factors = st.floats(1e-3, 1e3)


def moved(t, ids, angle=0.0, reflect=False, shift=(0.0, 0.0), factor=1.0):
    """The tree under x -> factor * R x + shift, with vertex v named ids[v]."""
    c, s = math.cos(angle), math.sin(angle)
    sign = -1.0 if reflect else 1.0
    coords = {}
    for v, (x, y) in sorted(t.coords.items(), key=lambda it: ids[it[0]]):
        y = sign * y
        coords[ids[v]] = (factor * (c * x - s * y) + shift[0],
                          factor * (s * x + c * y) + shift[1])
    return GeometricTree(coords, [(ids[u], ids[v]) for u, v in t.edges])


@st.composite
def relabellings(draw, t):
    names = draw(st.permutations(range(7 * t.n)))
    return dict(zip(sorted(t.coords), names))


@st.composite
def shortcuts(draw, t):
    ends = []
    for _ in range(2):
        u, v = draw(st.sampled_from(t.edges))
        ends.append(TreePoint(u, v, draw(unit)))
    return Shortcut(*ends)


def renamed(sc, ids):
    return Shortcut(*(TreePoint(ids[p.u], ids[p.v], p.lam)
                      for p in (sc.p, sc.q)))


def placement(draw, cat):
    """Backbone arcs alpha <= beta of the caterpillar."""
    a, b = sorted((draw(unit), draw(unit)))
    return a * cat.L, b * cat.L


def caterpillar_like(t, t2, ids):
    """The caterpillar of t2 read in the direction of t's backbone."""
    d, d2 = backbone(t), backbone(t2)
    cat2 = Caterpillar(t2, d2)
    if not d.is_point and ids[d.a_id] == d2.b_id:
        cat2 = cat2.flip()
    return Caterpillar(t, d), cat2


@SETTINGS
@given(trees, motions, st.data())
def test_value_invariant_under_motion_and_relabelling(t, motion, data):
    ids = data.draw(relabellings(t))
    sc = data.draw(shortcuts(t))
    t2 = moved(t, ids, **motion)
    got = augmented_diameter_value(t2, renamed(sc, ids))
    assert abs(got - augmented_diameter_value(t, sc)) <= 1e-9 * t.scale


@SETTINGS
@given(trees, factors, st.data())
def test_value_scales_with_the_tree(t, factor, data):
    ids = {v: v for v in t.coords}
    sc = data.draw(shortcuts(t))
    got = augmented_diameter_value(moved(t, ids, factor=factor), sc)
    want = factor * augmented_diameter_value(t, sc)
    assert abs(got - want) <= 1e-9 * factor * t.scale


@SETTINGS
@given(trees, st.data())
def test_value_unchanged_by_swapping_p_and_q(t, data):
    sc = data.draw(shortcuts(t))
    got = augmented_diameter_value(t, Shortcut(sc.q, sc.p))
    assert abs(got - augmented_diameter_value(t, sc)) <= 1e-9 * t.scale


@SETTINGS
@given(trees, motions, st.data())
def test_caterpillar_invariant_under_motion_and_relabelling(t, motion, data):
    ids = data.draw(relabellings(t))
    cat, cat2 = caterpillar_like(t, moved(t, ids, **motion), ids)
    a, b = placement(data.draw, cat)
    assert abs(cat2.evaluate(a, b) - cat.evaluate(a, b)) <= 1e-9 * t.scale


@SETTINGS
@given(trees, factors, st.data())
def test_caterpillar_scales_with_the_tree(t, factor, data):
    ids = {v: v for v in t.coords}
    cat, cat2 = caterpillar_like(t, moved(t, ids, factor=factor), ids)
    a, b = placement(data.draw, cat)
    got = cat2.evaluate(factor * a, factor * b)
    assert abs(got - factor * cat.evaluate(a, b)) <= 1e-9 * factor * t.scale


@SETTINGS
@given(trees, st.data())
def test_caterpillar_mirror_reads_through_flip(t, data):
    cat = Caterpillar(t, backbone(t))
    a, b = placement(data.draw, cat)
    L = cat.L
    got = cat.flip().evaluate(L - b, L - a)
    assert abs(got - cat.evaluate(a, b)) <= 1e-9 * t.scale
    # Reading from b, then from a again, is the caterpillar itself.
    assert cat.flip().flip() is cat


def _same_backbone(d, d2, ids, factor, scale):
    """d2, the backbone of the tree moved and renamed by ``ids`` and
    scaled by ``factor``, is d: read from b when d2 runs the other way."""
    if not d.is_point and ids[d.a_id] == d2.b_id:
        d2 = d2.reversed()
    tol = 1e-9 * factor * scale
    assert d2.is_point == d.is_point
    assert d2.is_straight == d.is_straight
    assert d2.backbone_ids == tuple(ids[v] for v in d.backbone_ids)
    for key in ("diameter", "length", "h_x", "h_y", "delta",
                "h_max_secondary"):
        assert abs(getattr(d2, key) - factor * getattr(d, key)) <= tol, key


def _same_diameter(t, t2, ids, factor):
    c, c2 = continuous_diameter(t), continuous_diameter(t2)
    assert abs(c2.diameter - factor * c.diameter) <= 1e-9 * factor * t.scale
    assert {frozenset(p) for p in c2.diametral_leaf_pairs} == {
        frozenset(ids[v] for v in p) for p in c.diametral_leaf_pairs}


@SETTINGS
@given(trees, motions, st.data())
def test_backbone_invariant_under_motion_and_relabelling(t, motion, data):
    ids = data.draw(relabellings(t))
    t2 = moved(t, ids, **motion)
    _same_backbone(backbone(t), backbone(t2), ids, 1.0, t.scale)
    _same_diameter(t, t2, ids, 1.0)


@SETTINGS
@given(trees, factors)
def test_backbone_scales_with_the_tree(t, factor):
    ids = {v: v for v in t.coords}
    t2 = moved(t, ids, factor=factor)
    _same_backbone(backbone(t), backbone(t2), ids, factor, t.scale)
    _same_diameter(t, t2, ids, factor)
