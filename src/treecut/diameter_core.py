"""Continuous diameter, absolute center, and backbone decomposition.

The backbone of a tree is the intersection of all diametral paths.  Every
diametral path runs through the center and so shares a stretch with the
double sweep's pole path u1-u2: the backbone is the stretch of the pole
path between the points, one on each side of the center, where the
diametral leaves nearest to it hang from the path.  A diametral leaf
hanging at the center vertex itself makes the backbone that point.  The
sub-trees hanging off the backbone (the B-sub-trees) are summarized by
their attachment arc, height, and diameter; this compressed caterpillar
view is what the shortcut search operates on.

Nothing here walks the adjacency: every step reads the arrays of the
tree's preorder (``tree_model``).  The double sweep
(``GeometricTree.poles``, run once per tree) and the heights are
distance passes, the pole path and the vertex each vertex hangs from
come from the preorder intervals and the pole distances, and one pass up
the preorder gives the far leaves and diameters of all B-sub-trees at
once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .tree_model import GeometricTree, PathTrace, TreePoint, _vertex_path

__all__ = [
    "DiameterResult",
    "CenterResult",
    "SecondaryTree",
    "BackboneDecomposition",
    "continuous_diameter",
    "absolute_center",
    "backbone",
]


@dataclass(frozen=True)
class DiameterResult:
    diameter: float
    diametral_leaf_pairs: tuple


@dataclass(frozen=True)
class CenterResult:
    center: TreePoint
    eccentricity: float


@dataclass(frozen=True)
class SecondaryTree:
    """A B-sub-tree rooted at an interior backbone vertex."""

    root_id: int
    arc: float
    height: float
    far_leaf: int
    diameter: float

    @property
    def root(self) -> TreePoint:
        return TreePoint.at_vertex(self.root_id)


@dataclass(frozen=True)
class BackboneDecomposition:
    a: TreePoint
    b: TreePoint
    backbone_ids: tuple
    arcs: tuple  # arc position of each backbone vertex, from a
    length: float
    is_point: bool
    is_straight: bool
    center: TreePoint
    center_arc: float
    h_x: float
    h_y: float
    x_leaf: int
    y_leaf: int
    secondary: tuple
    delta: float
    h_max_secondary: float
    diameter: float
    # By vertex index, the index of the vertex its B-sub-tree hangs from:
    # a backbone vertex or, on a point backbone, the center's neighbour
    # on its branch (the center's own entry is itself).
    hang: np.ndarray = field(repr=False, compare=False)

    @property
    def backbone_path(self) -> PathTrace:
        return PathTrace(tuple(map(TreePoint.at_vertex, self.backbone_ids)),
                         self.length)

    @property
    def a_id(self) -> int:
        return self.a.vertex_id()

    @property
    def b_id(self) -> int:
        return self.b.vertex_id()

    def reversed(self) -> BackboneDecomposition:
        """The same decomposition read from b: arcs are measured from b
        and the x and y sides trade places."""
        L = self.length
        return replace(
            self, a=self.b, b=self.a,
            backbone_ids=self.backbone_ids[::-1],
            arcs=tuple(L - arc for arc in self.arcs[::-1]),
            center_arc=L - self.center_arc, h_x=self.h_y, h_y=self.h_x,
            x_leaf=self.y_leaf, y_leaf=self.x_leaf,
            secondary=tuple(replace(s, arc=L - s.arc)
                            for s in self.secondary[::-1]))


def _arcs(tree, path) -> np.ndarray:
    """Arc of each vertex of an index path, summed from its first."""
    a, b = path[:-1], path[1:]
    w = np.where(tree.parent[a] == b, tree.up[a], tree.up[b])
    return np.concatenate(([0.0], np.cumsum(w)))


def _attachment(arcs, d_first, d_last) -> np.ndarray:
    """The index along a path, of vertex arcs ``arcs``, of the path vertex
    each vertex hangs from, given its distances to the path's two ends.

    A vertex hangs at arc (d_first - d_last + L) / 2, and the path vertex
    nearest that arc is its own: edges are far longer than the rounding.
    """
    at = (d_first - d_last + arcs[-1]) / 2.0
    return np.searchsorted((arcs[1:] + arcs[:-1]) / 2.0, at)


def _hanging(tree, hang, height):
    """Far leaf and diameter of every B-sub-tree, by the index of the
    vertex it hangs from, given ``hang`` and each vertex's ``height``
    above that vertex.

    One pass up the preorder, over the forest left when the edges
    between B-sub-trees are cut, gives each vertex the highest vertex
    below it (ties go to the smallest id), the longest path down from it
    and the longest path below it.  A B-sub-tree's tree in that forest
    is rooted at the vertex it hangs from, except the root's, rooted
    at 0.
    """
    ids, pa, up = tree.ids, tree.parent.tolist(), tree.up.tolist()
    hg, best = hang.tolist(), height.tolist()
    n = tree.n
    far, down, diam = list(range(n)), [0.0] * n, [0.0] * n
    for i, p in zip(range(n - 1, 0, -1), reversed(pa)):
        if hg[i] != hg[p]:
            continue
        x, low = down[i] + up[i], down[p]
        span = low + x
        if diam[i] > span:
            span = diam[i]
        if span > diam[p]:
            diam[p] = span
        if x > low:
            down[p] = x
        h = best[i]
        if h > best[p] or h == best[p] and ids[far[i]] < ids[far[p]]:
            best[p], far[p] = h, far[i]
    top = hg[0]
    far[top], diam[top] = far[0], diam[0]
    return np.array(far), np.array(diam)


def continuous_diameter(tree: GeometricTree) -> DiameterResult:
    """Largest network distance between any two points of the tree.

    For a tree this is attained at a pair of leaves; all attaining pairs
    (within tolerance) are reported.
    """
    u1, u2, d1, d2 = tree.poles
    diam = float(d1[u2])
    floor = diam - tree.tol
    # Eccentricity of any vertex is realized at one of the two sweep poles.
    cand = np.flatnonzero(tree.is_leaf & (np.maximum(d1, d2) >= floor))
    ids = tree.ids
    pairs = set()
    for u in cand.tolist():
        for v in cand[tree.dist(u)[cand] >= floor].tolist():
            if ids[v] > ids[u]:
                pairs.add((ids[u], ids[v]))
    return DiameterResult(diam, tuple(sorted(pairs)))


def _locate(tree, path, arcs, target_arc):
    """TreePoint at arc-length target_arc along an index path of vertex
    arcs ``arcs``.

    Positions within tolerance of a vertex snap onto it, so that centers
    of symmetric trees are recognized as vertex points.
    """
    i = int(np.searchsorted(arcs[1:], target_arc - 1e-15 * max(1.0, tree.scale)))
    if i >= len(path) - 1:
        return TreePoint.at_vertex(tree.ids[path[-1]])
    u, v, acc = tree.ids[path[i]], tree.ids[path[i + 1]], float(arcs[i])
    if target_arc - acc <= tree.tol:
        return TreePoint.at_vertex(u)
    if float(arcs[i + 1]) - target_arc <= tree.tol:
        return TreePoint.at_vertex(v)
    lam = min(max((target_arc - acc) / tree.length(u, v), 0.0), 1.0)
    return TreePoint(u, v, lam).canonical()


def absolute_center(tree: GeometricTree) -> CenterResult:
    """The unique point minimizing the largest network distance."""
    u1, u2, d1, _ = tree.poles
    diam = float(d1[u2])
    path = _vertex_path(tree, u1, u2)
    c = _locate(tree, path, _arcs(tree, path), diam / 2.0)
    return CenterResult(c, diam / 2.0)


def backbone(tree: GeometricTree) -> BackboneDecomposition:
    """Backbone endpoints, center, B-sub-trees, delta, and h-hat.

    The backbone is the pole path u1-u2 from a, the last vertex below
    the center where a diametral leaf hangs, to b, the first one above
    it; a is on u1's side.  It is the center alone when a diametral leaf
    hangs at the center vertex.
    """
    u1, u2, d1, d2 = tree.poles
    diam = float(d1[u2])
    pole_path = _vertex_path(tree, u1, u2)
    pole_arcs = _arcs(tree, pole_path)
    center = _locate(tree, pole_path, pole_arcs, diam / 2.0)
    # k is the center's index on the pole path, a half-integer inside an
    # edge.
    at = _attachment(pole_arcs, d1, d2)
    if center.is_vertex:
        k = at[tree.index[center.vertex_id()]]
    else:
        k = (at[tree.index[center.u]] + at[tree.index[center.v]]) / 2.0
    hang = at[tree.is_leaf & (np.maximum(d1, d2) >= diam - tree.tol)].tolist()
    if k in hang:
        # A third diametral direction leaves at the center vertex (or the
        # tree is that vertex): the intersection of all diametral paths
        # is the center alone.
        return _point_backbone(tree, tree.index[center.vertex_id()], diam)
    lo, hi = max(i for i in hang if i < k), min(i for i in hang if i > k)
    bpath = pole_path[lo:hi + 1]
    ids = list(map(tree.ids.__getitem__, bpath.tolist()))
    arcs = _arcs(tree, bpath).tolist()
    length = arcs[-1]
    # What hangs beyond a or b belongs to a's or b's B-sub-tree.  The
    # path from u2 to a vertex runs through its backbone vertex when the
    # vertex hangs before a, the path from u1 otherwise.
    hang = bpath[np.minimum(np.maximum(at, lo), hi) - lo]
    height = np.where(at < lo, d2 - d2[hang], d1 - d1[hang])
    far, sdiam = _hanging(tree, hang, height)
    h = height[far[bpath]].tolist()
    sdiam = sdiam[bpath].tolist()
    far = list(map(tree.ids.__getitem__, far[bpath].tolist()))
    secondary = tuple(SecondaryTree(*s) for s in zip(
        ids[1:-1], arcs[1:-1], h[1:-1], far[1:-1], sdiam[1:-1]) if s[2] > 0.0)

    center_arc = min(max(diam / 2.0 - h[0], 0.0), length)
    cpoint = _locate(tree, bpath, np.array(arcs), center_arc)
    (ax, ay), (bx, by) = tree.coords[ids[0]], tree.coords[ids[-1]]
    straight = math.hypot(ax - bx, ay - by) >= length - tree.tol
    return BackboneDecomposition(
        a=TreePoint.at_vertex(ids[0]), b=TreePoint.at_vertex(ids[-1]),
        backbone_ids=tuple(ids), arcs=tuple(arcs), length=length,
        is_point=False, is_straight=straight, center=cpoint,
        center_arc=center_arc, h_x=h[0], h_y=h[-1], x_leaf=far[0], y_leaf=far[-1],
        secondary=secondary, delta=max(sdiam),
        h_max_secondary=max(h[1:-1], default=0.0), diameter=diam, hang=hang)


def _point_backbone(tree, c, diam):
    cid = tree.ids[c]
    p = TreePoint.at_vertex(cid)
    # Each branch at the center is its own B-sub-tree, named by the
    # center's neighbour on it: a child of c, or c's parent.
    hang = np.full(tree.n, tree.parent[c])
    nbrs = np.flatnonzero(tree.parent == c).tolist()
    for k in nbrs:
        hang[k:tree.end[k]] = k
    hang[c] = c
    nbrs = np.array(nbrs + ([tree.parent[c]] if c else []), dtype=np.intp)
    height = tree.dist(c)
    far, sd = _hanging(tree, hang, height)
    comps = sorted(zip(height[far[nbrs]].tolist(),
                       map(tree.ids.__getitem__, far[nbrs].tolist()),
                       sd[nbrs].tolist()), key=lambda s: (-s[0], s[1]))
    # Missing sides, as on a one-vertex tree, are the center itself.
    comps += [(0.0, cid, 0.0)] * (2 - min(len(comps), 2))
    (h_x, x_leaf, diam_x), (h_y, y_leaf, diam_y), *rest = comps
    secondary = tuple(SecondaryTree(cid, 0.0, h, far, sd) for (h, far, sd) in rest)
    delta = max([diam_x, diam_y] + [sd for (_, _, sd) in rest])
    h_hat = max([h for (h, _, _) in rest], default=0.0)
    return BackboneDecomposition(
        a=p, b=p, backbone_ids=(cid,),
        arcs=(0.0,), length=0.0, is_point=True, is_straight=True,
        center=p, center_arc=0.0, h_x=h_x, h_y=h_y, x_leaf=x_leaf,
        y_leaf=y_leaf, secondary=secondary, delta=delta,
        h_max_secondary=h_hat, diameter=diam, hang=hang)
