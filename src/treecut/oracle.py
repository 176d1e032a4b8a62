"""Brute-force ground truth and instance generation.

Grid search over shortcut placements (full tree or backbone-restricted),
deterministic random-tree generators, a stress family that forces many
grow/shrink alternations of the shortcut, and a dense-sampling diameter
oracle on the subdivided graph.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .augmented_eval import (
    _antipodal_entry,
    _diagnosis,
    _leaf_classes,
    _pair_entry,
    augmented_diameter_value,
)
from .caterpillar import Caterpillar
from .diameter_core import backbone, continuous_diameter
from .errors import ResolutionTooCoarse, ResolutionTooFine
from .tree_model import (
    GeometricTree,
    Shortcut,
    TreePoint,
    distances_from,
    euclidean_distance,
    network_distance,
)

__all__ = [
    "GridResult", "grid_search", "random_tree", "stress_family",
    "straight_backbone_tree", "point_backbone_tree", "dense_sample_diameter",
    "leaf_pair_diameter", "polished_grid_optimum",
]


@dataclass(frozen=True)
class GridResult:
    best_shortcut: Shortcut
    best_diameter: float
    resolution: float
    evaluations: int
    restricted: bool


def _arc_grid(lo, hi, h):
    if hi - lo <= 0:
        return [lo]
    vals = list(np.arange(lo, hi, h))
    vals.append(hi)
    return vals


# Finest grid: 4096 steps across the diameter, the counterpart of the
# coarsest, 4.  Each arc gets about arc / resolution placements and no
# arc is longer than the diameter, so the floor bounds the grid before
# it is built: at most 2049 x 2049 placements on the backbone halves and
# 4097 per edge on the full tree.  The grid is a brute-force reference,
# and without the floor a resolution of 1e-300 asks for 1e300 per edge.
_FINEST_STEPS = 4096

# The full grid evaluates every pair of placements, each one exact
# evaluation (about 40 us on the right-angle tree), so it is quadratic in
# the placements: at the floor the right-angle tree alone has 8.4M pairs.
# A full grid with more pairs than this is refused before any evaluation.
_MAX_FULL_PAIRS = 1_000_000


def grid_search(tree: GeometricTree, resolution: float,
                restrict_to_backbone: bool = True) -> GridResult:
    """Minimize diam(T+pq) over an arc-length grid of placements.

    As in ``optimize``, a placement wins only if it beats the tree's
    diameter by more than ``tree.tol``; otherwise the result is the
    degenerate shortcut at the center, with the diameter as its value.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    decomp = backbone(tree)
    diam = decomp.diameter
    if resolution > diam / 4.0:
        raise ResolutionTooCoarse(
            f"resolution {resolution} exceeds a quarter of the diameter {diam}")
    if resolution < diam / _FINEST_STEPS:
        raise ResolutionTooFine(
            f"resolution {resolution} is finer than the diameter {diam} "
            f"over {_FINEST_STEPS}; raise --resolution")
    if restrict_to_backbone:
        return _grid_restricted(tree, decomp, resolution)
    pairs = _full_pair_count(tree, resolution)
    if pairs > _MAX_FULL_PAIRS:
        raise ResolutionTooFine(
            f"resolution {resolution} gives the full grid {pairs} placement "
            f"pairs, more than {_MAX_FULL_PAIRS}; raise --resolution or "
            f"pass --restrict-backbone")
    return _grid_full(tree, decomp, resolution)


def _grid_restricted(tree, decomp, h):
    cat = Caterpillar(tree, decomp)
    c = decomp.center_arc
    alphas = _arc_grid(0.0, c, h)
    betas = _arc_grid(c, decomp.length, h)
    A, B = np.meshgrid(np.asarray(alphas), np.asarray(betas), indexing="ij")
    A, B = A.ravel(), B.ravel()
    vals = cat.evaluate_grid(A, B)
    # The degenerate cc placement is always a legal candidate.
    A = np.append(A, c)
    B = np.append(B, c)
    vals = np.append(vals, decomp.diameter)
    i = int(np.argmin(vals))
    if vals[i] >= decomp.diameter - tree.tol:
        i = len(vals) - 1
    p = cat.arc_to_treepoint(float(A[i]))
    q = cat.arc_to_treepoint(float(B[i]))
    return GridResult(Shortcut(p, q), float(vals[i]), h, len(vals), True)


def _edge_steps(tree, u, v, h):
    """The number of grid steps on the edge (u, v)."""
    return max(1, int(math.ceil(tree.edge_length[(u, v)] / h)))


def _full_pair_count(tree, h):
    """The evaluations of the full grid: the degenerate placement plus one
    per pair of distinct placements, each vertex and each interior step
    point of an edge."""
    pts = tree.n + sum(_edge_steps(tree, u, v, h) - 1 for u, v in tree.edges)
    return 1 + pts * (pts - 1) // 2


def _placements(tree, h):
    """All grid points (ordered deterministically) as TreePoints."""
    pts = []
    seen = set()
    for u, v in tree.edges:
        steps = _edge_steps(tree, u, v, h)
        for i in range(steps + 1):
            lam = i / steps
            tp = TreePoint(u, v, lam).canonical()
            key = (tp.u, tp.v, round(tp.lam, 15))
            if key in seen:
                continue
            seen.add(key)
            pts.append(tp)
    return pts


def _grid_full(tree, decomp, h):
    pts = _placements(tree, h)
    best = (decomp.diameter, decomp.center, decomp.center)
    count = 1
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            val = augmented_diameter_value(tree, Shortcut(pts[i], pts[j]))
            if val < best[0]:
                best = (val, pts[i], pts[j])
            count += 1
    if best[0] >= decomp.diameter - tree.tol:
        best = (decomp.diameter, decomp.center, decomp.center)
    return GridResult(Shortcut(best[1], best[2]), best[0], h, count, False)


def polished_grid_optimum(tree: GeometricTree, m: int = 161) -> float:
    """The least value of an m x m backbone grid of the exact evaluator,
    from that point polished by ``optimize``'s compass search.

    The grid spans p in [0, c] and q in [c, L] in arc from a, c the
    absolute center; it is the reference a sweep answer is checked
    against for a miss.
    """
    from .sweep_engine import _Engine
    eng = _Engine(tree, backbone(tree))
    cat = eng.cat
    A, B = np.meshgrid(np.linspace(0.0, cat.c_arc, m),
                       np.linspace(cat.c_arc, cat.L, m), indexing="ij")
    A, B = A.ravel(), B.ravel()
    vals = cat.evaluate_grid(A, B)
    i = int(np.argmin(vals))
    return eng._polish(float(vals[i]), (float(A[i]), float(B[i])))[0]


def leaf_pair_diameter(tree: GeometricTree, shortcut: Shortcut):
    """The exact diameter of T + pq and its diagnosis, pair by pair.

    The reference for ``augmented_diameter``: one ``distances_from`` dict
    per leaf and a Python loop over the leaf pairs, O(leaves * n) work.
    Returns an ``AugmentedDiagnosis``.
    """
    tree.check_shortcut(shortcut)
    p, q = shortcut.p, shortcut.q
    e = euclidean_distance(tree, p, q)
    dtpq = network_distance(tree, p, q)
    cyc = e + dtpq
    tol = tree.tol
    leaves = tree.leaves()
    dp = distances_from(tree, p)
    dq = distances_from(tree, q)
    classes = _leaf_classes(tree, backbone(tree))
    pairs, antipodal = [], []
    for i, u in enumerate(leaves):
        du = distances_from(tree, TreePoint.at_vertex(u))
        for v in leaves[i + 1:]:
            via = min(dp[u] + e + dq[v], dq[u] + e + dp[v])
            pairs.append((u, v, du[v], via, min(du[v], via)))
        if cyc > 0.0:
            antipodal.append((u, (dp[u] + dq[u] - dtpq) / 2.0 + cyc / 2.0))
    diameter = max([0.0] + [c[-1] for c in pairs + antipodal])
    floor = diameter - tol
    achieving = [_pair_entry(classes, u, v, treed, via, dist, tol)
                 for (u, v, treed, via, dist) in pairs if dist >= floor]
    achieving += [_antipodal_entry(classes[u][0], u, dp[u], dq[u], dtpq, cyc,
                                   dist, tol)
                  for (u, dist) in antipodal if dist >= floor]
    return _diagnosis(diameter, cyc, achieving)


# -- generators ------------------------------------------------------------


def _round12(x):
    return round(x, 12)


def _build(vertices, edges):
    coords = {vid: (_round12(x), _round12(y)) for vid, (x, y) in vertices.items()}
    return GeometricTree(coords, edges)


def random_tree(seed: int, n: int, shape: str = "uniform") -> GeometricTree:
    """Deterministic random geometric tree with n vertices."""
    if n < 2:
        raise ValueError("need n >= 2")
    rng = random.Random((seed, n, shape).__repr__())
    if shape == "uniform":
        return _random_uniform(rng, n)
    if shape == "caterpillar":
        return _random_caterpillar(rng, n)
    if shape == "balanced":
        return _random_balanced(rng, n)
    raise ValueError(f"unknown shape {shape!r}")


def _random_uniform(rng, n):
    coords = {0: (0.0, 0.0)}
    edges = []
    for i in range(1, n):
        parent = rng.randrange(i)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        ln = rng.uniform(0.5, 1.5)
        px, py = coords[parent]
        coords[i] = (px + ln * math.cos(ang), py + ln * math.sin(ang))
        edges.append((parent, i))
    return _build(coords, edges)


def _random_caterpillar(rng, n):
    m = max(3, (n + 1) // 2)
    m = min(m, n)
    coords = {0: (0.0, 0.0)}
    edges = []
    ang = rng.uniform(0.0, 2.0 * math.pi)
    for i in range(1, m):
        ang += rng.uniform(-0.9, 0.9)
        ln = rng.uniform(0.8, 1.2)
        px, py = coords[i - 1]
        coords[i] = (px + ln * math.cos(ang), py + ln * math.sin(ang))
        edges.append((i - 1, i))
    for i in range(m, n):
        root = rng.randrange(1, max(2, m - 1))
        ang2 = rng.uniform(0.0, 2.0 * math.pi)
        ln = rng.uniform(0.2, 0.6)
        px, py = coords[root]
        coords[i] = (px + ln * math.cos(ang2), py + ln * math.sin(ang2))
        edges.append((root, i))
    return _build(coords, edges)


def _random_balanced(rng, n):
    coords = {0: (0.0, 0.0)}
    edges = []
    for i in range(1, n):
        parent = (i - 1) // 2
        ang = rng.uniform(0.0, 2.0 * math.pi)
        ln = rng.uniform(0.6, 1.0)
        px, py = coords[parent]
        coords[i] = (px + ln * math.cos(ang), py + ln * math.sin(ang))
        edges.append((parent, i))
    return _build(coords, edges)


def straight_backbone_tree(seed: int, n: int) -> GeometricTree:
    """A collinear path with short pendants; its backbone is straight."""
    if n < 2:
        raise ValueError("need n >= 2")
    rng = random.Random(("straight", seed, n).__repr__())
    m = max(3, (2 * n) // 3)
    m = min(m, n)
    coords = {}
    edges = []
    x = 0.0
    for i in range(m):
        coords[i] = (x, 0.0)
        if i:
            edges.append((i - 1, i))
        x += rng.uniform(0.9, 1.1)
    for i in range(m, n):
        root = rng.randrange(1, m - 1)
        px, py = coords[root]
        side = 1.0 if rng.random() < 0.5 else -1.0
        coords[i] = (px + rng.uniform(-0.05, 0.05),
                     py + side * rng.uniform(0.05, 0.2))
        edges.append((root, i))
    return _build(coords, edges)


def point_backbone_tree(seed: int, n: int) -> GeometricTree:
    """At least three equally long arms from a hub; backbone is a point."""
    if n < 2:
        raise ValueError("need n >= 2")
    rng = random.Random(("point", seed, n).__repr__())
    arms = 3 + (n % 3)
    segs = max(1, (n - 1) // arms)
    radius = 2.0
    base = rng.uniform(0.0, 2.0 * math.pi)
    coords = {0: (0.0, 0.0)}
    edges = []
    nid = 1
    for k in range(arms):
        ang = base + 2.0 * math.pi * k / arms + rng.uniform(-0.1, 0.1)
        prev = 0
        for s in range(1, segs + 1):
            r = radius * s / segs
            coords[nid] = (r * math.cos(ang), r * math.sin(ang))
            edges.append((prev, nid))
            prev = nid
            nid += 1
    return _build(coords, edges)


# Stress-family tuning knobs.  The tree is a right-angle "V": two
# mirror-image arms of length _STRESS_ARM meeting at the corner.  The
# outer _STRESS_ZIG_FRAC of each arm is a zig-zag of l switchbacks with
# amplitude _STRESS_AMP_FRAC of the arm length, so the chord between the
# mirrored shortcut endpoints alternately shrinks and grows l times
# while the endpoints shift outward.  The middle of each arm carries l
# small pendant edges; the shortest route to each pendant flips between
# going through the shortcut and around it on every chord oscillation.
_STRESS_ARM = 3.0
_STRESS_AMP_FRAC = 0.40
_STRESS_ZIG_FRAC = 0.25
_STRESS_PEND_LO = 0.28
_STRESS_PEND_HI = 0.75
_STRESS_PEND_H = 0.012


def stress_family(l: int) -> GeometricTree:
    """Tree that forces about l grow/shrink alternations of the shortcut.

    The two arms are exact mirror images (swap of x and y), so the
    balanced shortcut endpoints stay mirrored and every switchback is a
    full chord oscillation sweeping the antipodal boundaries back and
    forth across the pendant cluster on the opposite arm.
    """
    if l < 1:
        raise ValueError("need l >= 1")
    arm = _STRESS_ARM
    amp = _STRESS_AMP_FRAC * arm
    zig_span = _STRESS_ZIG_FRAC * arm
    dx = zig_span / (2 * l)
    coords = {}
    edges = []
    nid = 0

    def add(x, y):
        nonlocal nid
        coords[nid] = (x, y)
        nid += 1
        return nid - 1

    corner = add(0.0, 0.0)
    for swap in (False, True):

        def place(x, y):
            return add(y, x) if swap else add(x, y)

        prev = corner
        # pendant cluster along the straight middle of the arm
        for i in range(l):
            frac = _STRESS_PEND_LO + (_STRESS_PEND_HI - _STRESS_PEND_LO) \
                * (i + 0.5) / l
            u = frac * arm
            root = place(u, 0.0)
            edges.append((prev, root))
            h = _STRESS_PEND_H * arm * (1.0 + 0.5 * (i % 3))
            leaf = place(u, -h)
            edges.append((root, leaf))
            prev = root
        # straight run to the start of the zig-zag
        x = (1.0 - _STRESS_ZIG_FRAC) * arm
        v = place(x, 0.0)
        edges.append((prev, v))
        prev = v
        # l switchbacks; the arm tip is the last vertex back on the axis
        for _ in range(l):
            x += dx
            v = place(x, amp)
            edges.append((prev, v))
            prev = v
            x += dx
            v = place(x, 0.0)
            edges.append((prev, v))
            prev = v
    return _build(coords, edges)


# -- dense-sampling oracle -------------------------------------------------


def dense_sample_diameter(tree: GeometricTree, shortcut: Shortcut = None,
                          samples_per_edge: int = 25):
    """Approximate continuous diameter by dense sampling and graph search.

    Returns (diameter estimate, sample spacing).  The true continuous
    diameter differs by at most a small multiple of the spacing.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    nodes = {}

    def node(key):
        if key not in nodes:
            nodes[key] = len(nodes)
        return nodes[key]

    rows, cols, data = [], [], []

    def link(i, j, w):
        rows.append(i)
        cols.append(j)
        data.append(w)
        rows.append(j)
        cols.append(i)
        data.append(w)

    def point_key(tp):
        c = tp.canonical()
        if c.is_vertex:
            return ("v", c.vertex_id())
        return ("p", c.u, c.v, c.lam)

    extra = {}
    if shortcut is not None:
        for tp in (shortcut.p, shortcut.q):
            c = tp.canonical()
            if not c.is_vertex:
                extra.setdefault((c.u, c.v), []).append(c.lam)

    spacing = 0.0
    for (u, v) in tree.edges:
        w = tree.edge_length[(u, v)]
        lams = [i / samples_per_edge for i in range(samples_per_edge + 1)]
        lams.extend(extra.get((u, v), []))
        lams.extend(1.0 - lam for lam in extra.get((v, u), []))
        lams = sorted(set(lams))
        keys = []
        for lam in lams:
            keys.append(point_key(TreePoint(u, v, lam)))
        for (la, ka), (lb, kb) in zip(zip(lams, keys), zip(lams[1:], keys[1:])):
            seg = (lb - la) * w
            if seg > 0:
                link(node(ka), node(kb), seg)
                spacing = max(spacing, seg)

    if shortcut is not None:
        e = euclidean_distance(tree, shortcut.p, shortcut.q)
        kp = point_key(shortcut.p)
        kq = point_key(shortcut.q)
        if e > 0:
            prev = node(kp)
            for i in range(1, samples_per_edge):
                cur = node(("sc", i))
                link(prev, cur, e / samples_per_edge)
                prev = cur
            link(prev, node(kq), e / samples_per_edge)
            spacing = max(spacing, e / samples_per_edge)
        else:
            link(node(kp), node(kq), 0.0)

    nnode = len(nodes)
    mat = csr_matrix((data, (rows, cols)), shape=(nnode, nnode))
    dist = shortest_path(mat, method="D", directed=False)
    return float(np.max(dist)), spacing
