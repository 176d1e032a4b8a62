"""Exact evaluation and diagnosis of an augmented tree T + pq.

Every point of T + pq lies on the tree or on the shortcut, and the
shortcut can appear at most once on a shortest path, so the diameter is
the maximum over (i) leaf pairs with the three route options (tree only,
via the shortcut in either orientation) and (ii) each leaf against the
antipodal of its cycle attachment point.  These candidates are exact;
pairs inside a single B-sub-tree are kept for the value but excluded
from the reported pair state.

The formula lives in ``augmented_diameter_value``.  It first bounds
every leaf's pairs in O(1) each, by its eccentricity (off the double
sweep's poles) and by its distances to p and q against the largest on
the other side, and keeps only the leaves whose bound reaches a value
the diameter is known to reach (``_kept_leaves``).  Then one numpy pass
runs over the pairs of the kept leaves row by row, with no array of
leaves x leaves: ``GeometricTree.rows`` gives each row's tree distances
off the tree's stored preorder, and the distances from p and q are
array passes over it.  A dropped pair lies more than ``tree.tol`` below
the diameter, and a kept pair's distance is the same float as over all
leaves, so the value is the one the pass over every pair gives, to the
bit.
``augmented_diameter`` has the same pass collect the candidates near
its running maximum and diagnoses the ones within ``tree.tol`` of the
value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diameter_core import BackboneDecomposition, backbone
from .tree_model import (
    GeometricTree,
    Shortcut,
    TreePoint,
    _euclidean_distance,
    _network_distance,
    _point_distances,
)

USEFUL = "useful"
INDIFFERENT = "indifferent"
USELESS = "useless"

VIA_SHORTCUT = "via-shortcut"
VIA_TREE = "via-tree"
VIA_P = "via-p"
VIA_Q = "via-q"

_ROUTE_TOKEN = {VIA_SHORTCUT: "shortcut", VIA_TREE: "tree",
                VIA_P: "p", VIA_Q: "q"}

@dataclass(frozen=True)
class Usefulness:
    classification: str
    diameter_before: float
    diameter_after: float


@dataclass(frozen=True)
class OrderedUsefulness:
    """Whether the shortcut shortens the pair in either orientation."""

    forward: bool    # d(u,p) + |pq| + d(q,v) < d_T(u,v)
    backward: bool   # d(u,q) + |pq| + d(p,v) < d_T(u,v)

    @property
    def indifferent(self) -> bool:
        return not (self.forward or self.backward)


@dataclass(frozen=True)
class AchievingPair:
    end1: object              # leaf id, or descriptor dict for cycle points
    end2: object
    subtype: str              # e.g. "x-y", "x-wedge", "wedge-interior"
    pair_type: str            # coarse type, or "within-subtree"
    path_types: frozenset
    distance: float


@dataclass(frozen=True)
class AugmentedDiagnosis:
    diameter: float
    cycle_length: float
    achieving_pairs: tuple
    pair_state: frozenset
    path_state: frozenset


def _leaf_classes(tree, decomp):
    """Map each leaf id to (class, group key); class in {x, y, wedge}.

    A leaf's group is the vertex its B-sub-tree hangs from
    (``decomp.hang``): its backbone vertex or, on a point backbone, the
    centre's neighbour on the way to it.
    """
    ids, hang = tree.ids, decomp.hang.tolist()
    x_root = hang[tree.index[decomp.x_leaf]]
    y_root = hang[tree.index[decomp.y_leaf]]
    classes = {}
    for lv in np.flatnonzero(tree.is_leaf).tolist():
        r = hang[lv]
        if r == x_root:
            classes[ids[lv]] = ("x", "X")
        elif r == y_root:
            classes[ids[lv]] = ("y", "Y")
        else:
            classes[ids[lv]] = ("wedge", ("S", ids[r]))
    return classes


def _pair_type(c1, c2):
    pair = tuple(sorted((c1, c2)))
    if pair == ("x", "y"):
        return "x-y"
    if "x" in pair:
        return "x-sub"
    if "y" in pair:
        return "sub-y"
    return "sub-sub"


# End classes in the order they are named in subtypes and path types.
_CLASS_ORDER = ("x", "wedge", "antipodal", "interior", "y")


def _subtype(c1, c2):
    a, b = sorted((c1, c2), key=_CLASS_ORDER.index)
    return f"{a}-{b}"


def _descriptor(subtype, route):
    """Path type: the route's token between the two ends of a subtype."""
    a, b = subtype.split("-")
    return f"{a}-{_ROUTE_TOKEN[route]}-{b}"


def _pair_entry(classes, u, v, treed, via, dist, tol):
    """The leaf pair (u, v) at distance ``dist``, with the routes (tree
    ``treed``, shortcut ``via``) that reach it."""
    routes = set()
    if treed <= dist + tol:
        routes.add(VIA_TREE)
    if via <= dist + tol:
        routes.add(VIA_SHORTCUT)
    (c1, g1), (c2, g2) = classes[u], classes[v]
    if g1 == g2:
        ptype = sub = "within-subtree"
    else:
        ptype, sub = _pair_type(c1, c2), _subtype(c1, c2)
    return AchievingPair(u, v, sub, ptype, frozenset(routes), dist)


def _antipodal_entry(c1, u, dpu, dqu, dtpq, cyc, dist, tol):
    """Leaf u, of class c1 and at ``dpu``, ``dqu`` from p and q, against
    the antipodal partner of its cycle attachment point."""
    tau = (dpu + dtpq - dqu) / 2.0
    pos = tau + cyc / 2.0
    if pos > cyc:
        pos -= cyc
    on_tree = pos <= dtpq + tol
    c2 = "antipodal" if on_tree else "interior"
    routes = frozenset({VIA_TREE, VIA_SHORTCUT} if on_tree
                       else {VIA_P, VIA_Q})
    if c2 == "interior":
        ptype = "sub-interior" if c1 == "wedge" else f"{c1}-interior"
    else:
        ptype = _pair_type(c1, "wedge")
    end2 = {"kind": c2, "cycle_position": pos}
    return AchievingPair(u, end2, _subtype(c1, c2), ptype, routes, dist)


def _diagnosis(diameter, cyc, achieving):
    """The diagnosis with the achieving candidates in a fixed order."""
    achieving.sort(key=lambda ap: (str(ap.end1), str(ap.end2)))
    reported = [ap for ap in achieving if ap.pair_type != "within-subtree"]
    pair_state = frozenset(ap.pair_type for ap in reported)
    path_state = frozenset(_descriptor(ap.subtype, r)
                           for ap in reported for r in ap.path_types)
    return AugmentedDiagnosis(diameter, cyc, tuple(achieving),
                              pair_state, path_state)


class _Near:
    """What the value pass leaves for the diagnosis: the shortcut's
    distance tables and the candidates within tol of its running
    maximum, a superset of those within tol of the diameter."""

    def __init__(self):
        self.dp = self.dq = None
        self.dtpq = self.cyc = 0.0
        self.pairs = []        # (u, v, tree route, shortcut route, value)
        self.antipodal = []    # (u, value)


def augmented_diameter(tree: GeometricTree, decomp: BackboneDecomposition,
                       shortcut: Shortcut) -> AugmentedDiagnosis:
    """Exact continuous diameter of T + pq with full diagnosis.

    The diameter is ``augmented_diameter_value``'s; the diagnosis keeps
    the leaf pairs and antipodal candidates within ``tree.tol`` of it.
    A pair's ``end1`` is the leaf that comes first in ``tree.leaves()``.
    """
    near = _Near()
    diameter = augmented_diameter_value(tree, shortcut, near=near)
    tol = tree.tol
    floor = diameter - tol
    classes = _leaf_classes(tree, decomp)
    ids, rank = tree.ids, tree.input_pos
    achieving = []
    for u, v, treed, via, dist in near.pairs:
        if dist >= floor:
            if rank[u] > rank[v]:
                u, v = v, u
            achieving.append(_pair_entry(classes, ids[u], ids[v], treed, via,
                                         dist, tol))
    for u, dist in near.antipodal:
        if dist >= floor:
            achieving.append(_antipodal_entry(
                classes[ids[u]][0], ids[u], float(near.dp[u]),
                float(near.dq[u]), near.dtpq, near.cyc, dist, tol))
    return _diagnosis(diameter, near.cyc, achieving)


def _kept_leaves(tree, index, dpl, dql, e, reached):
    """The positions, among the leaves ``index``, of the leaves whose
    pairs can come within ``tree.tol`` of the diameter, given the
    leaves' distances ``dpl``, ``dql`` from p and q, ``e = |pq|`` and a
    value the diameter reaches, ``reached``.

    The three routes of a pair holding leaf u are at most ``ecc(u)``,
    ``dp(u) + e + max dq`` and ``dq(u) + e + max dp``, so the pair, the
    least of them, is at most the least of these, u's bound.  ``ecc(u)``
    is u's distance to the farther pole of the double sweep, a leaf, and
    the pair of u with that pole is one the pass reads: the floor is the
    largest of those pairs and ``reached``.  A leaf whose bound is below
    the floor by more than ``2 * tol`` has no pair within ``tol`` of the
    diameter, rounding included.
    """
    u1, u2, d1, d2 = tree.poles
    d1, d2 = d1[index], d2[index]
    ecc = np.maximum(d1, d2)
    pole = np.where(d1 >= d2, *np.searchsorted(index, (u1, u2)).tolist())
    reach = np.minimum(ecc, np.minimum(dpl + e + dql[pole],
                                       dql + e + dpl[pole]))
    floor = max(reached, float(reach.max())) - 2.0 * tree.tol
    bound = np.minimum(ecc, np.minimum(dpl + (e + dql.max()),
                                       dql + (e + dpl.max())))
    return np.flatnonzero(bound >= floor)


def augmented_diameter_value(tree, shortcut, near=None):
    """Diameter of T + pq.

    The maximum over leaf pairs of the shortest of the three routes, and,
    when pq closes a cycle, over leaves of the distance to the antipodal
    point of their cycle attachment.  The pair pass reads only the
    leaves ``_kept_leaves`` keeps against the antipodal maximum; with
    fewer than two there is none.  ``near`` is the diagnosis' ``_Near``,
    filled as the pass goes.  Each end of the shortcut is checked once.
    """
    tree.check_shortcut(shortcut)
    p, q = shortcut.p, shortcut.q
    e = _euclidean_distance(tree, p, q)
    dp = _point_distances(tree, p)
    dq = _point_distances(tree, q)
    dtpq = _network_distance(tree, p, q, dp)
    cyc = e + dtpq
    index = np.flatnonzero(tree.is_leaf)
    dpl, dql = dp[index], dq[index]
    best = 0.0
    if near is not None:
        near.dp, near.dq, near.dtpq, near.cyc = dp, dq, dtpq, cyc
    if cyc > 0.0:
        anti = (dpl + dql - dtpq) / 2.0 + cyc / 2.0
        best = float(anti.max())
        if near is not None:
            for i in np.flatnonzero(anti >= best - tree.tol):
                near.antipodal.append((int(index[i]), float(anti[i])))
    keep = _kept_leaves(tree, index, dpl, dql, e, best)
    if len(keep) < 2:
        return best
    index, dpl, dql = index[keep], dpl[keep], dql[keep]
    leaves = index.tolist()
    for i, treed in enumerate(tree.rows(index)):
        via = np.minimum(dpl[i] + e + dql[i + 1:], dql[i] + e + dpl[i + 1:])
        val = np.minimum(treed, via)
        best = max(best, float(val.max()))
        if near is not None:
            for j in np.flatnonzero(val >= best - tree.tol).tolist():
                near.pairs.append((leaves[i], leaves[i + 1 + j],
                                   float(treed[j]), float(via[j]),
                                   float(val[j])))
    return best


def _usefulness(before, after, tol) -> Usefulness:
    """Classify a shortcut by the diameters before and after adding it."""
    if after < before - tol:
        cls = USEFUL
    elif after > before + tol:
        cls = USELESS
    else:
        cls = INDIFFERENT
    return Usefulness(cls, before, after)


def classify_usefulness(tree: GeometricTree, shortcut: Shortcut,
                        decomp: BackboneDecomposition = None) -> Usefulness:
    if decomp is None:
        decomp = backbone(tree)
    return _usefulness(decomp.diameter,
                       augmented_diameter_value(tree, shortcut), tree.tol)


def has_useful_shortcut(decomp: BackboneDecomposition) -> bool:
    """A useful shortcut exists iff the backbone is bent."""
    return not decomp.is_point and not decomp.is_straight


def pair_is_useful(tree: GeometricTree, shortcut: Shortcut,
                   u: TreePoint, v: TreePoint) -> OrderedUsefulness:
    tree.check_shortcut(shortcut)
    tree.check_point(u)
    tree.check_point(v)
    p, q = shortcut.p, shortcut.q
    e = _euclidean_distance(tree, p, q)
    duv = _network_distance(tree, u, v)
    fwd = _network_distance(tree, u, p) + e + _network_distance(tree, q, v)
    bwd = _network_distance(tree, u, q) + e + _network_distance(tree, p, v)
    tol = tree.tol
    return OrderedUsefulness(fwd < duv - tol, bwd < duv - tol)
