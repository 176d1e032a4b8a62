"""Immutable geometric-tree model with metric queries.

A tree is embedded in the plane with straight-line edges weighted by their
Euclidean length.  Points along edges are addressed by an edge and a
fraction lambda in [0, 1] measured from the first endpoint of the edge.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

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
    """Connected acyclic straight-line network; immutable after construction."""

    def __init__(self, vertices: Mapping[int, tuple], edges: Iterable[tuple]):
        self.coords = dict(vertices)
        self.edges = [tuple(e) for e in edges]
        self._validate()
        self.adj: dict = {v: [] for v in self.coords}
        self.edge_length: dict = {}
        for (u, v) in self.edges:
            w = math.hypot(self.coords[u][0] - self.coords[v][0],
                           self.coords[u][1] - self.coords[v][1])
            if w <= 0.0:
                raise ZeroLengthEdge(f"edge {u}-{v} has zero length")
            self.adj[u].append((v, w))
            self.adj[v].append((u, w))
            self.edge_length[(u, v)] = w
            self.edge_length[(v, u)] = w
        self._check_tree()
        xs = [c[0] for c in self.coords.values()]
        ys = [c[1] for c in self.coords.values()]
        # Global length scale: diagonal of the bounding box (at least 1 edge).
        self.scale = check_scale(
            max(math.hypot(max(xs) - min(xs), max(ys) - min(ys)),
                max(self.edge_length.values(), default=1.0)),
            "the length scale of the tree")

    @property
    def tol(self) -> float:
        """Length tolerance; every tolerance derives from ``scale``."""
        return 1e-9 * self.scale

    # -- validation ------------------------------------------------------

    def _validate(self):
        if len(self.coords) < 1:
            raise ParseError("tree needs at least one vertex")
        for vid, c in self.coords.items():
            if not (math.isfinite(c[0]) and math.isfinite(c[1])):
                raise ParseError(f"vertex {vid} has a non-finite coordinate "
                                 f"({c[0]}, {c[1]})")
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

    def _check_tree(self):
        n = len(self.coords)
        if len(self.edges) != n - 1:
            raise NotATree(f"{n} vertices require {n - 1} edges, got {len(self.edges)}")
        root = next(iter(self.coords))
        seen = {root}
        stack = [root]
        while stack:
            w = stack.pop()
            for (nb, _) in self.adj[w]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if len(seen) != n:
            raise NotATree("graph is disconnected")

    # -- helpers ---------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.coords)

    def leaves(self) -> list:
        if self.n == 1:
            return list(self.coords)
        return [v for v, nbrs in self.adj.items() if len(nbrs) == 1]

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.edge_length

    def check_point(self, p: TreePoint):
        if p.u == p.v:
            if p.u not in self.coords:
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


# -- construction ---------------------------------------------------------


def _vertex_id(value) -> int:
    """A vertex id read from JSON: an integer, or a float of integral value."""
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
    if a.u == a.v:
        return tree.coords[a.u]
    xu, yu = tree.coords[a.u]
    xv, yv = tree.coords[a.v]
    return ((1.0 - a.lam) * xu + a.lam * xv, (1.0 - a.lam) * yu + a.lam * yv)


def _vertex_distances(tree: GeometricTree, root: int) -> dict:
    return _walk(tree, {root: 0.0})


def _walk(tree: GeometricTree, seeds: dict) -> dict:
    """Distance to every vertex from the seed vertices at their offsets.

    No vertex is entered twice, so seeds at both ends of an edge never
    cross it: each vertex is reached from the end on its side.
    """
    dist = dict(seeds)
    stack = list(seeds)
    while stack:
        w = stack.pop()
        dw = dist[w]
        for (nb, wlen) in tree.adj[w]:
            if nb not in dist:
                dist[nb] = dw + wlen
                stack.append(nb)
    return dist


def distances_from(tree: GeometricTree, a: TreePoint) -> dict:
    """Network distance from ``a`` to every vertex."""
    tree.check_point(a)
    if a.u == a.v or a.is_vertex:
        return _vertex_distances(tree, a.vertex_id())
    w = tree.edge_length[(a.u, a.v)]
    return _walk(tree, {a.u: a.lam * w, a.v: (1.0 - a.lam) * w})


def network_distance(tree: GeometricTree, a: TreePoint, b: TreePoint,
                     dist_a: dict = None) -> float:
    """Network distance from ``a`` to ``b``.

    ``dist_a``, when given, is ``distances_from(tree, a)``; it is read
    instead of built again.
    """
    tree.check_point(a)
    tree.check_point(b)
    ca, cb = a.canonical(), b.canonical()
    if ca == cb:
        return 0.0
    if not ca.u == ca.v and not cb.u == cb.v and (ca.u, ca.v) == (cb.u, cb.v):
        return abs(ca.lam - cb.lam) * tree.edge_length[(ca.u, ca.v)]
    dist = distances_from(tree, a) if dist_a is None else dist_a
    if cb.u == cb.v:
        return dist[cb.u]
    w = tree.edge_length[(cb.u, cb.v)]
    return min(dist[cb.u] + cb.lam * w, dist[cb.v] + (1.0 - cb.lam) * w)


def euclidean_distance(tree: GeometricTree, a: TreePoint, b: TreePoint) -> float:
    xa, ya = point_coordinates(tree, a)
    xb, yb = point_coordinates(tree, b)
    return math.hypot(xa - xb, ya - yb)


def vertex_path(tree: GeometricTree, src: int, dst: int) -> list:
    """Vertex ids along the unique simple path from src to dst, inclusive."""
    parent = {src: None}
    stack = [src]
    while stack:
        w = stack.pop()
        if w == dst:
            break
        for (nb, _) in tree.adj[w]:
            if nb not in parent:
                parent[nb] = w
                stack.append(nb)
    path = [dst]
    while path[-1] != src:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def tree_path(tree: GeometricTree, a: TreePoint, b: TreePoint) -> PathTrace:
    """The unique simple path between two points as a trace of TreePoints."""
    tree.check_point(a)
    tree.check_point(b)
    ca, cb = a.canonical(), b.canonical()
    if ca == cb:
        return PathTrace((ca,), 0.0)
    # Same interior edge: direct segment.
    if ca.u != ca.v and cb.u != cb.v and (ca.u, ca.v) == (cb.u, cb.v):
        length = abs(ca.lam - cb.lam) * tree.edge_length[(ca.u, ca.v)]
        return PathTrace((ca, cb), length)

    def endpoints(p: TreePoint) -> list:
        return [p.vertex_id()] if p.is_vertex else [p.u, p.v]

    dist_a = distances_from(tree, a)
    best_src = min(endpoints(a), key=lambda x: dist_a[x])
    dist_b = distances_from(tree, b)
    best_dst = min(endpoints(b), key=lambda x: dist_b[x])
    vpath = vertex_path(tree, best_src, best_dst)
    # Avoid doubling back when the interior point hangs off the far side.
    if not ca.is_vertex:
        other = ca.v if best_src == ca.u else ca.u
        if len(vpath) >= 2 and vpath[1] == other:
            vpath = vpath[1:]
    if not cb.is_vertex:
        other = cb.v if best_dst == cb.u else cb.u
        if len(vpath) >= 2 and vpath[-2] == other:
            vpath = vpath[:-1]
    points = []
    if not ca.is_vertex:
        points.append(ca)
    points.extend(TreePoint.at_vertex(v) for v in vpath)
    if not cb.is_vertex:
        points.append(cb)
    length = 0.0
    for s, t in zip(points, points[1:]):
        length += _segment_length(tree, s, t)
    return PathTrace(tuple(points), length)


def _segment_length(tree: GeometricTree, s: TreePoint, t: TreePoint) -> float:
    if s.is_vertex and t.is_vertex:
        return tree.edge_length[(s.vertex_id(), t.vertex_id())]
    if s.is_vertex or t.is_vertex:
        point = t if s.is_vertex else s
        vert = s if s.is_vertex else t
        vid = vert.vertex_id()
        w = tree.edge_length[(point.u, point.v)]
        return point.lam * w if vid == point.u else (1.0 - point.lam) * w
    return abs(s.lam - t.lam) * tree.edge_length[(s.u, s.v)]
