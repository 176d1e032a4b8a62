"""Immutable geometric-tree model with metric queries.

A tree is embedded in the plane with straight-line edges weighted by their
Euclidean length.  Points along edges are addressed by an edge and a
fraction lambda in [0, 1] measured from the first endpoint of the edge.

``GeometricTree`` builds flat arrays once, when it is made: CSR
adjacency and one preorder DFS from the first vertex, which index every
vertex by its preorder position and give its parent, edge length, root
depth and subtree end.  Every query reads them: distances from a point
are array passes (``point_distances``; ``distances_from`` is its dict
by id), the distances among a set of vertices come row by row
(``GeometricTree.rows``), and the path between two vertices is read off
the preorder intervals.  ``coords``, ``edges``, ``adj`` and
``edge_length`` stay as views by id.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    DuplicateVertexId,
    InvalidEdgeReference,
    NotATree,
    ParseError,
    PointsNotOnTree,
    ZeroLengthEdge,
)

__all__ = [
    "GeometricTree",
    "TreePoint",
    "Shortcut",
    "PathTrace",
    "load_tree",
    "tree_from_data",
    "point_coordinates",
    "network_distance",
    "euclidean_distance",
    "tree_path",
    "distances_from",
    "point_distances",
    "check_scale",
]

# Fraction below which a lambda is snapped onto the adjacent vertex.
_LAMBDA_SNAP = 1e-15


@dataclass(frozen=True)
class TreePoint:
    """A point on an edge (u, v), at fraction ``lam`` of the way from u to v."""

    u: int
    v: int
    lam: float

    @staticmethod
    def at_vertex(vid: int) -> "TreePoint":
        return TreePoint(vid, vid, 0.0)

    @property
    def is_vertex(self) -> bool:
        return self.u == self.v or self.lam <= _LAMBDA_SNAP or self.lam >= 1.0 - _LAMBDA_SNAP

    def vertex_id(self) -> int:
        """The vertex this point denotes; only valid when is_vertex."""
        if self.u == self.v or self.lam <= _LAMBDA_SNAP:
            return self.u
        if self.lam >= 1.0 - _LAMBDA_SNAP:
            return self.v
        raise ValueError("point is interior to an edge")

    def canonical(self) -> "TreePoint":
        """Normalize so that the same physical point has one identity."""
        if self.u == self.v:
            return TreePoint(self.u, self.u, 0.0)
        if self.lam <= _LAMBDA_SNAP:
            return TreePoint(self.u, self.u, 0.0)
        if self.lam >= 1.0 - _LAMBDA_SNAP:
            return TreePoint(self.v, self.v, 0.0)
        if self.u < self.v:
            return TreePoint(self.u, self.v, self.lam)
        return TreePoint(self.v, self.u, 1.0 - self.lam)

    def to_json(self) -> dict:
        if self.is_vertex:
            vid = self.vertex_id()
            return {"edge": [vid, vid], "lambda": 0.0}
        c = self.canonical()
        return {"edge": [c.u, c.v], "lambda": c.lam}


@dataclass(frozen=True)
class Shortcut:
    """A straight segment between two points of the tree."""

    p: TreePoint
    q: TreePoint

    @property
    def is_degenerate(self) -> bool:
        return self.p.canonical() == self.q.canonical()


@dataclass(frozen=True)
class PathTrace:
    """An ordered walk along the tree with its total length."""

    points: tuple
    length: float


def check_scale(scale: float, name: str) -> float:
    """``scale`` if every length derived from it is a positive float.

    Every tolerance derives from the length scale, and the finest is the
    sweep's step, 1e-12 of it.  A scale that overflows, or at which that
    step underflows to 0, leaves the root finder without a step.
    """
    if not math.isfinite(scale):
        raise ParseError(f"{name} overflows: the coordinates are too far "
                         f"apart")
    if 1e-12 * scale == 0.0:
        raise ParseError(f"{name}, {scale!r}, is too small: 1e-12 of it, "
                         f"the sweep's finest step, underflows to 0")
    return scale


class GeometricTree:
    """Connected acyclic straight-line network; immutable after construction.

    The arrays are built once, here, from CSR adjacency and one preorder
    DFS from the first vertex, which is also the connectivity check.  A
    vertex's index is its position in that preorder: ``ids[i]`` and
    ``index`` map between indices and ids, and ``parent``, ``up`` (the
    length of the edge to the parent), ``depth`` (the distance from the
    root), ``parent_depth``, ``end`` (one past the last index of the
    subtree), ``is_leaf`` and ``input_pos`` (the position in ``coords``)
    are read by index.  ``edge_len[k]`` is the length of ``edges[k]``.
    ``poles``, the double sweep, is built on first use.
    """

    def __init__(self, vertices: Mapping[int, tuple], edges: Iterable[tuple]):
        self.coords = dict(vertices)
        self.edges = [(u, v) for (u, v) in edges]
        n, m = len(self.coords), len(self.edges)
        if n < 1:
            raise ParseError("tree needs at least one vertex")
        xy = np.fromiter(chain.from_iterable(self.coords.values()), float,
                         2 * n).reshape(n, 2)
        index = dict(zip(self.coords, range(n)))
        try:
            ends = np.fromiter(map(index.__getitem__,
                                   chain.from_iterable(self.edges)),
                               np.intp, 2 * m)
        except KeyError:
            self._fault()
        with np.errstate(over="ignore", invalid="ignore"):
            dxy = xy[ends[0::2]] - xy[ends[1::2]]
        self.edge_len = list(map(math.hypot, *dxy.T.tolist()))
        # The bounding box; NaN or inf in any coordinate shows in it.
        (x0, y0), (x1, y1) = xy.min(axis=0).tolist(), xy.max(axis=0).tolist()
        if not (all(map(math.isfinite, (x0, y0, x1, y1)))
                and all(self.edge_len) and m == n - 1):
            self._fault()
        # CSR adjacency: dart k of ends leaves ends[k] for ends[k ^ 1].
        by_end = np.argsort(ends, kind="stable")
        starts = np.searchsorted(ends[by_end], np.arange(n + 1))
        order, parent, up, depth = _preorder(
            starts.tolist(), ends[by_end ^ 1].tolist(),
            np.array(self.edge_len)[by_end >> 1].tolist())
        if len(order) < n:
            self._fault()
        self.ids = list(map(list(self.coords).__getitem__, order))
        self.index = dict(zip(self.ids, range(n)))
        self.input_pos = np.fromiter(order, np.intp, n)
        self.parent = np.fromiter(parent, np.intp, n)
        self.up = np.fromiter(up, float, n)
        self.depth = np.fromiter(depth, float, n)
        self.parent_depth = np.append(np.inf, self.depth[self.parent[1:]])
        self.is_leaf = np.diff(starts)[self.input_pos] <= 1
        size = [1] * n
        for i in range(n - 1, 0, -1):
            size[parent[i]] += size[i]
        self.end = np.arange(n) + np.fromiter(size, np.intp, n)
        # Global length scale: diagonal of the bounding box (at least 1 edge).
        self.scale = check_scale(max(math.hypot(x1 - x0, y1 - y0),
                                     max(self.edge_len, default=1.0)),
                                 "the length scale of the tree")

    @property
    def tol(self) -> float:
        """Length tolerance; every tolerance derives from ``scale``."""
        return 1e-9 * self.scale

    def _fault(self):
        """Raise the first fault of the input, in the order the checks are
        listed: a non-finite coordinate; a self-loop, an unknown end or a
        parallel edge, edge by edge; a zero-length edge; the edge count;
        and else a disconnected graph.  Called once a cheaper check has
        failed."""
        for vid, (x, y) in self.coords.items():
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ParseError(f"vertex {vid} has a non-finite coordinate "
                                 f"({x}, {y})")
        seen = set()
        for (u, v) in self.edges:
            if u == v:
                raise NotATree(f"self-loop at vertex {u}")
            if u not in self.coords or v not in self.coords:
                raise InvalidEdgeReference(f"edge {u}-{v} references unknown vertex")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise NotATree(f"parallel edge {u}-{v}")
            seen.add(key)
        for (u, v), w in zip(self.edges, self.edge_len):
            if w == 0.0:
                raise ZeroLengthEdge(f"edge {u}-{v} has zero length")
        n = len(self.coords)
        if len(self.edges) != n - 1:
            raise NotATree(f"{n} vertices require {n - 1} edges, "
                           f"got {len(self.edges)}")
        raise NotATree("graph is disconnected")

    # -- array queries ---------------------------------------------------

    def dist(self, s: int) -> np.ndarray:
        """Tree distance from vertex s to every vertex, by index.

        Vertices i < j meet, at their lowest common ancestor, at the
        smallest parent depth over indices i + 1 .. j: the LCA as a range
        minimum (Bender and Farach-Colton, "The LCA problem revisited",
        LATIN 2000).  From one vertex those minima are two running ones.
        """
        pd, depth = self.parent_depth, self.depth
        meet = np.empty(self.n)
        meet[:s] = np.minimum.accumulate(pd[s:0:-1])[::-1]
        meet[s] = depth[s]
        np.minimum.accumulate(pd[s + 1:], out=meet[s + 1:])
        return (depth - meet) + (depth[s] - meet)

    def rows(self, index):
        """Tree distances among the vertex indices ``index``, increasing,
        one row at a time: for each index but the last, the distances to
        the later ones, the same floats as ``dist`` gives.  A row is built
        when it is read, so memory stays linear in ``len(index)``.

        Vertices i < j meet at the least parent depth over i + 1 .. j
        (``dist``), so consecutive indices meet at their gap and index k
        meets the later ones at the running minimum of the gaps from k
        on.
        """
        if len(index) < 2:
            return
        depth = self.depth[index]
        gaps = np.minimum.reduceat(self.parent_depth[:index[-1] + 1],
                                   index[:-1] + 1)
        for k in range(len(index) - 1):
            meet = np.minimum.accumulate(gaps[k:])
            yield (depth[k] - meet) + (depth[k + 1:] - meet)

    def child(self, u: int, v: int):
        """The index of the lower end of the edge u-v; None when u and v
        are not adjacent."""
        i, j = self.index.get(u), self.index.get(v)
        for a, b in ((i, j), (j, i)):
            if None not in (a, b) and self.parent[a] == b:
                return a
        return None

    def length(self, u: int, v: int) -> float:
        """Length of the edge u-v."""
        return float(self.up[self.child(u, v)])

    # -- views -------------------------------------------------------------

    @cached_property
    def edge_length(self) -> dict:
        """(u, v) and (v, u) -> length of every edge."""
        pairs = list(zip(self.edges, self.edge_len))
        return dict(pairs + [((v, u), w) for (u, v), w in pairs])

    @cached_property
    def adj(self) -> dict:
        """Vertex id -> [(neighbour id, edge length)], in edge order."""
        adj = {v: [] for v in self.coords}
        for (u, v), w in zip(self.edges, self.edge_len):
            adj[u].append((v, w))
            adj[v].append((u, w))
        return adj

    @cached_property
    def poles(self) -> tuple:
        """Double sweep from the root: the poles u1, u2 of a diametral path
        and the distances d1, d2 from each, by index.  The diameter is
        d1[u2].  A pole is the farthest vertex; ties go to the smallest
        id.  Every reader shares the arrays and writes none."""
        def farthest(dist):
            far = np.flatnonzero(dist == dist.max()).tolist()
            return min(far, key=self.ids.__getitem__)

        u1 = farthest(self.depth)
        d1 = self.dist(u1)
        u2 = farthest(d1)
        return u1, u2, d1, self.dist(u2)

    # -- helpers ---------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.coords)

    def leaves(self) -> list:
        """Leaf ids in input order; the vertex of a one-vertex tree."""
        return list(map(list(self.coords).__getitem__,
                        np.sort(self.input_pos[self.is_leaf]).tolist()))

    def has_edge(self, u: int, v: int) -> bool:
        return self.child(u, v) is not None

    def check_point(self, p: TreePoint):
        if p.u == p.v:
            if p.u not in self.index:
                raise InvalidEdgeReference(f"unknown vertex {p.u}")
            return
        if not self.has_edge(p.u, p.v):
            raise InvalidEdgeReference(f"edge {p.u}-{p.v} not in tree")
        if not (0.0 <= p.lam <= 1.0):
            raise InvalidEdgeReference(f"lambda {p.lam} outside [0, 1]")

    def check_shortcut(self, s: Shortcut):
        try:
            self.check_point(s.p)
            self.check_point(s.q)
        except InvalidEdgeReference as exc:
            raise PointsNotOnTree(str(exc)) from exc

    def to_json_data(self) -> dict:
        return {
            "vertices": [{"id": v, "x": self.coords[v][0], "y": self.coords[v][1]}
                         for v in sorted(self.coords)],
            "edges": [[u, v] for (u, v) in self.edges],
        }


def _preorder(starts, ends, lengths) -> tuple:
    """One DFS from vertex 0 over CSR adjacency: vertex i's neighbours
    and edge lengths are ``ends`` and ``lengths`` at ``starts[i]`` to
    ``starts[i + 1]``.  By preorder position: each vertex, its parent's
    position, the length of the edge to the parent and the root depth.
    The preorder falls short of every vertex when the edges do not
    connect them."""
    seen = bytearray(len(starts) - 1)
    seen[0] = 1
    order, parent, up, depth = [], [], [], []
    stack = [(0, -1, 0.0, 0.0)]
    while stack:
        v, p, w, d = stack.pop()
        k = len(order)
        order.append(v)
        parent.append(p)
        up.append(w)
        depth.append(d)
        for j in range(starts[v], starts[v + 1]):
            nb = ends[j]
            if not seen[nb]:
                seen[nb] = 1
                stack.append((nb, k, lengths[j], d + lengths[j]))
    return order, parent, up, depth


# -- construction ---------------------------------------------------------


def _vertex_id(value) -> int:
    """A vertex id read from JSON: an integer, or a float of integral value."""
    if type(value) is int:
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"vertex id must be an integer, got {value!r}")


def _edge_ids(item) -> tuple:
    """The vertex ids of an edge record, which is a pair ``[u, v]``."""
    if not isinstance(item, (list, tuple)) or len(item) != 2:
        raise ValueError(f"an edge must be a pair [u, v], got {item!r}")
    return _vertex_id(item[0]), _vertex_id(item[1])


def tree_from_data(data: dict) -> GeometricTree:
    try:
        raw_vertices = data["vertices"]
        raw_edges = data["edges"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"missing field in tree document: {exc}") from exc
    for key, raw in (("vertices", raw_vertices), ("edges", raw_edges)):
        if not isinstance(raw, list):
            raise ParseError(f"{key!r} must be a list, "
                             f"got {type(raw).__name__}")
    vertices = {}
    for item in raw_vertices:
        try:
            vid = _vertex_id(item["id"])
            xy = (float(item["x"]), float(item["y"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad vertex record {item!r}") from exc
        if vid in vertices:
            raise DuplicateVertexId(f"vertex id {vid} appears twice")
        vertices[vid] = xy
    if "weights" in data or any(isinstance(e, dict) for e in raw_edges):
        raise ParseError("explicit edge weights are not supported")
    edges = []
    for item in raw_edges:
        try:
            edges.append(_edge_ids(item))
        except ValueError as exc:
            raise ParseError(f"bad edge record {item!r}: {exc}") from exc
    return GeometricTree(vertices, edges)


def load_tree(document: str) -> GeometricTree:
    """Parse the JSON tree schema and build a validated GeometricTree."""
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return tree_from_data(data)


def parse_tree_point(tree: GeometricTree, data: dict) -> TreePoint:
    try:
        u, v = _edge_ids(data["edge"])
        lam = float(data.get("lambda", 0.0))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"bad point record {data!r}") from exc
    p = TreePoint(u, v, lam)
    tree.check_point(p)
    return p


# -- metric queries --------------------------------------------------------


def point_coordinates(tree: GeometricTree, a: TreePoint) -> tuple:
    tree.check_point(a)
    return _point_coordinates(tree, a)


def point_distances(tree: GeometricTree, a: TreePoint) -> np.ndarray:
    """Network distance from ``a`` to every vertex, by index."""
    tree.check_point(a)
    return _point_distances(tree, a)


def distances_from(tree: GeometricTree, a: TreePoint) -> dict:
    """Network distance from ``a`` to every vertex, by id."""
    return dict(zip(tree.ids, point_distances(tree, a).tolist()))


def network_distance(tree: GeometricTree, a: TreePoint, b: TreePoint,
                     dist_a: np.ndarray = None) -> float:
    """Network distance from ``a`` to ``b``.

    ``dist_a``, when given, is ``point_distances(tree, a)``; it is read
    instead of built again.
    """
    tree.check_point(a)
    tree.check_point(b)
    return _network_distance(tree, a, b, dist_a)


def euclidean_distance(tree: GeometricTree, a: TreePoint, b: TreePoint) -> float:
    tree.check_point(a)
    tree.check_point(b)
    return _euclidean_distance(tree, a, b)


# The metric queries on points the caller has already checked: an
# evaluation checks its points once, not once per query.

def _point_coordinates(tree: GeometricTree, a: TreePoint) -> tuple:
    if a.u == a.v:
        return tree.coords[a.u]
    xu, yu = tree.coords[a.u]
    xv, yv = tree.coords[a.v]
    return ((1.0 - a.lam) * xu + a.lam * xv, (1.0 - a.lam) * yu + a.lam * yv)


def _point_distances(tree: GeometricTree, a: TreePoint) -> np.ndarray:
    if a.is_vertex:
        return tree.dist(tree.index[a.vertex_id()])
    w = tree.length(a.u, a.v)
    return np.minimum(tree.dist(tree.index[a.u]) + a.lam * w,
                      tree.dist(tree.index[a.v]) + (1.0 - a.lam) * w)


def _network_distance(tree: GeometricTree, a: TreePoint, b: TreePoint,
                      dist_a: np.ndarray = None) -> float:
    ca, cb = a.canonical(), b.canonical()
    if ca == cb:
        return 0.0
    if not ca.u == ca.v and not cb.u == cb.v and (ca.u, ca.v) == (cb.u, cb.v):
        return abs(ca.lam - cb.lam) * tree.length(ca.u, ca.v)
    dist = _point_distances(tree, a) if dist_a is None else dist_a
    du, dv = dist[tree.index[cb.u]], dist[tree.index[cb.v]]
    w = 0.0 if cb.u == cb.v else tree.length(cb.u, cb.v)
    return float(min(du + cb.lam * w, dv + (1.0 - cb.lam) * w))


def _euclidean_distance(tree: GeometricTree, a: TreePoint,
                        b: TreePoint) -> float:
    xa, ya = _point_coordinates(tree, a)
    xb, yb = _point_coordinates(tree, b)
    return math.hypot(xa - xb, ya - yb)


def _vertex_path(tree: GeometricTree, i: int, j: int) -> np.ndarray:
    """Indices along the path from vertex i to vertex j, inclusive: i's
    ancestors below the lowest common one, that one, then j's."""
    up_i = np.flatnonzero(tree.end[:i + 1] > i)
    up_j = np.flatnonzero(tree.end[:j + 1] > j)
    k = np.count_nonzero((up_i <= j) & (tree.end[up_i] > j))
    return np.concatenate((up_i[k - 1:][::-1], up_j[k:]))


def vertex_path(tree: GeometricTree, src: int, dst: int) -> list:
    """Vertex ids along the unique simple path from src to dst, inclusive."""
    path = _vertex_path(tree, tree.index[src], tree.index[dst])
    return [tree.ids[i] for i in path.tolist()]


def tree_path(tree: GeometricTree, a: TreePoint, b: TreePoint) -> PathTrace:
    """The unique simple path between two points as a trace of TreePoints."""
    tree.check_point(a)
    tree.check_point(b)
    ca, cb = a.canonical(), b.canonical()
    if ca == cb:
        return PathTrace((ca,), 0.0)
    # Same interior edge: direct segment.
    if ca.u != ca.v and cb.u != cb.v and (ca.u, ca.v) == (cb.u, cb.v):
        length = abs(ca.lam - cb.lam) * tree.length(ca.u, ca.v)
        return PathTrace((ca, cb), length)

    # Each point leaves its edge through the end nearer the other point.
    def exit_end(p: TreePoint, other: TreePoint) -> int:
        if p.is_vertex:
            return p.vertex_id()
        dist = _point_distances(tree, other)
        return min(p.u, p.v, key=lambda x: dist[tree.index[x]])

    path = vertex_path(tree, exit_end(ca, cb), exit_end(cb, ca))
    points = (([] if ca.is_vertex else [ca])
              + [TreePoint.at_vertex(v) for v in path]
              + ([] if cb.is_vertex else [cb]))
    return PathTrace(tuple(points), _network_distance(tree, ca, cb))
