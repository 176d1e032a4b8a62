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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .tree_model import (
    GeometricTree,
    PathTrace,
    TreePoint,
    _vertex_distances,
    vertex_path,
)

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
    backbone_path: PathTrace
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
            backbone_path=PathTrace(self.backbone_path.points[::-1], L),
            backbone_ids=self.backbone_ids[::-1],
            arcs=tuple(L - arc for arc in self.arcs[::-1]),
            center_arc=L - self.center_arc, h_x=self.h_y, h_y=self.h_x,
            x_leaf=self.y_leaf, y_leaf=self.x_leaf,
            secondary=tuple(replace(s, arc=L - s.arc)
                            for s in self.secondary[::-1]))


def _farthest(dist: dict) -> int:
    return max(dist, key=lambda v: (dist[v], -v))


def _poles(tree: GeometricTree):
    """Double sweep: the poles u1, u2 of a diametral path and the
    distances d1, d2 from each.  The diameter is d1[u2]."""
    u1 = _farthest(_vertex_distances(tree, next(iter(tree.coords))))
    d1 = _vertex_distances(tree, u1)
    u2 = _farthest(d1)
    return u1, u2, d1, _vertex_distances(tree, u2)


def _walk(tree: GeometricTree, root: int, blocked, gate=None) -> dict:
    """Distances from root to every vertex reached without entering
    ``blocked``, except that the vertex ``gate`` may be entered."""
    dist = {root: 0.0}
    stack = [root]
    while stack:
        w = stack.pop()
        for (nb, wlen) in tree.adj[w]:
            if nb not in dist and (nb not in blocked or nb == gate):
                dist[nb] = dist[w] + wlen
                stack.append(nb)
    return dist


def _attachment(tree: GeometricTree, path) -> dict:
    """The index in ``path`` of the path vertex each vertex hangs from:
    one multi-source walk that does not cross the path."""
    at = {v: i for i, v in enumerate(path)}
    stack = list(path)
    while stack:
        w = stack.pop()
        for (nb, _) in tree.adj[w]:
            if nb not in at:
                at[nb] = at[w]
                stack.append(nb)
    return at


def continuous_diameter(tree: GeometricTree) -> DiameterResult:
    """Largest network distance between any two points of the tree.

    For a tree this is attained at a pair of leaves; all attaining pairs
    (within tolerance) are reported.
    """
    if tree.n == 1:
        return DiameterResult(0.0, ())
    u1, u2, d1, d2 = _poles(tree)
    diam = d1[u2]
    tol = tree.tol
    # Eccentricity of any vertex is realized at one of the two sweep poles.
    cand = [v for v in tree.leaves() if max(d1[v], d2[v]) >= diam - tol]
    pairs = set()
    for u in cand:
        du = _vertex_distances(tree, u)
        for v in cand:
            if v > u and du[v] >= diam - tol:
                pairs.add((u, v))
    return DiameterResult(diam, tuple(sorted(pairs)))


def _locate_on_vertex_path(tree, path, target_arc):
    """TreePoint at arc-length target_arc along a vertex-id path.

    Positions within tolerance of a vertex snap onto it, so that centers
    of symmetric trees are recognized as vertex points.
    """
    acc = 0.0
    for u, v in zip(path, path[1:]):
        w = tree.edge_length[(u, v)]
        if acc + w >= target_arc - 1e-15 * max(1.0, tree.scale):
            if target_arc - acc <= tree.tol:
                return TreePoint.at_vertex(u)
            if acc + w - target_arc <= tree.tol:
                return TreePoint.at_vertex(v)
            lam = min(max((target_arc - acc) / w, 0.0), 1.0)
            return TreePoint(u, v, lam).canonical()
        acc += w
    return TreePoint.at_vertex(path[-1])


def absolute_center(tree: GeometricTree) -> CenterResult:
    """The unique point minimizing the largest network distance."""
    if tree.n == 1:
        vid = next(iter(tree.coords))
        return CenterResult(TreePoint.at_vertex(vid), 0.0)
    u1, u2, d1, _ = _poles(tree)
    diam = d1[u2]
    path = vertex_path(tree, u1, u2)
    c = _locate_on_vertex_path(tree, path, diam / 2.0)
    return CenterResult(c, diam / 2.0)


def _hanging_subtree(tree, root, backbone_set):
    """Metrics of the union of non-backbone branches at a backbone vertex.

    Returns (height, far_leaf, diameter) measured from `root`; the
    sub-tree includes `root` itself.  Height 0 when nothing hangs there.
    """
    dist = _walk(tree, root, backbone_set)
    far = _farthest(dist)
    if dist[far] == 0.0:
        return 0.0, root, 0.0
    # Double sweep restricted to the hanging sub-tree for its diameter;
    # the second sweep starts at far and must pass through root.
    d1 = _walk(tree, far, backbone_set, gate=root)
    return dist[far], far, d1[_farthest(d1)]


def backbone(tree: GeometricTree) -> BackboneDecomposition:
    """Backbone endpoints, center, B-sub-trees, delta, and h-hat.

    The backbone is the pole path u1-u2 from a, the last vertex below
    the center where a diametral leaf hangs, to b, the first one above
    it; a is on u1's side.  It is the center alone when a diametral leaf
    hangs at the center vertex.
    """
    if tree.n == 1:
        vid = next(iter(tree.coords))
        p = TreePoint.at_vertex(vid)
        return BackboneDecomposition(
            a=p, b=p, backbone_path=PathTrace((p,), 0.0), backbone_ids=(vid,),
            arcs=(0.0,), length=0.0, is_point=True, is_straight=True,
            center=p, center_arc=0.0, h_x=0.0, h_y=0.0, x_leaf=vid, y_leaf=vid,
            secondary=(), delta=0.0, h_max_secondary=0.0, diameter=0.0)

    u1, u2, d1, d2 = _poles(tree)
    diam = d1[u2]
    pole_path = vertex_path(tree, u1, u2)
    center = _locate_on_vertex_path(tree, pole_path, diam / 2.0)
    # k is the center's index on the pole path, a half-integer inside an
    # edge.
    at = _attachment(tree, pole_path)
    if center.is_vertex:
        k = at[center.vertex_id()]
    else:
        k = (at[center.u] + at[center.v]) / 2.0
    hang = {at[v] for v in tree.leaves()
            if max(d1[v], d2[v]) >= diam - tree.tol}
    if k in hang:
        # A third diametral direction leaves at the center vertex: the
        # intersection of all diametral paths is the center alone.
        return _point_backbone(tree, center.vertex_id(), diam)
    bpath = pole_path[max(i for i in hang if i < k):
                      min(i for i in hang if i > k) + 1]
    a_id, b_id = bpath[0], bpath[-1]
    backbone_set = set(bpath)
    arcs = [0.0]
    for u, v in zip(bpath, bpath[1:]):
        arcs.append(arcs[-1] + tree.edge_length[(u, v)])
    length = arcs[-1]

    h_x, x_leaf, diam_x = _hanging_subtree(tree, a_id, backbone_set)
    h_y, y_leaf, diam_y = _hanging_subtree(tree, b_id, backbone_set)
    secondary = []
    delta = max(diam_x, diam_y)
    h_hat = 0.0
    for vid, arc in zip(bpath[1:-1], arcs[1:-1]):
        h, far, sdiam = _hanging_subtree(tree, vid, backbone_set)
        if h > 0.0:
            secondary.append(SecondaryTree(vid, arc, h, far, sdiam))
            delta = max(delta, sdiam)
            h_hat = max(h_hat, h)

    center_arc = diam / 2.0 - h_x
    center_arc = min(max(center_arc, 0.0), length)
    cpoint = _locate_on_vertex_path(tree, bpath, center_arc)
    pa, pb = TreePoint.at_vertex(a_id), TreePoint.at_vertex(b_id)
    ax, ay = tree.coords[a_id]
    bx, by = tree.coords[b_id]
    straight = math.hypot(ax - bx, ay - by) >= length - tree.tol
    trace = PathTrace(tuple(TreePoint.at_vertex(v) for v in bpath), length)
    return BackboneDecomposition(
        a=pa, b=pb, backbone_path=trace, backbone_ids=tuple(bpath),
        arcs=tuple(arcs), length=length, is_point=(a_id == b_id),
        is_straight=straight, center=cpoint, center_arc=center_arc,
        h_x=h_x, h_y=h_y, x_leaf=x_leaf, y_leaf=y_leaf,
        secondary=tuple(secondary), delta=delta, h_max_secondary=h_hat,
        diameter=diam)


def _point_backbone(tree, cid, diam):
    p = TreePoint.at_vertex(cid)
    # Each branch at the center is its own B-sub-tree.
    comps = []
    for (nb, wlen) in tree.adj[cid]:
        dist = {w: d + wlen for w, d in _walk(tree, nb, {cid}).items()}
        far = _farthest(dist)
        dd = _walk(tree, far, {cid})
        comps.append((dist[far], far, dd[_farthest(dd)]))
    comps.sort(key=lambda c: (-c[0], c[1]))
    h_x, x_leaf, diam_x = comps[0]
    h_y, y_leaf, diam_y = comps[1] if len(comps) > 1 else (0.0, cid, 0.0)
    rest = comps[2:]
    secondary = tuple(SecondaryTree(cid, 0.0, h, far, sd) for (h, far, sd) in rest)
    delta = max([diam_x, diam_y] + [sd for (_, _, sd) in rest])
    h_hat = max([h for (h, _, _) in rest], default=0.0)
    return BackboneDecomposition(
        a=p, b=p, backbone_path=PathTrace((p,), 0.0), backbone_ids=(cid,),
        arcs=(0.0,), length=0.0, is_point=True, is_straight=True,
        center=p, center_arc=0.0, h_x=h_x, h_y=h_y, x_leaf=x_leaf,
        y_leaf=y_leaf, secondary=secondary, delta=delta,
        h_max_secondary=h_hat, diameter=diam)
