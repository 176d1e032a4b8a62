"""Exact evaluation and diagnosis of an augmented tree T + pq.

Every point of T + pq lies on the tree or on the shortcut, and the
shortcut can appear at most once on a shortest path, so the diameter is
the maximum over (i) leaf pairs with the three route options (tree only,
via the shortcut in either orientation) and (ii) each leaf against the
antipodal of its cycle attachment point.  These candidates are exact;
pairs inside a single B-sub-tree are kept for the value but excluded
from the reported pair state.  The formula lives in
``augmented_diameter_value``; ``augmented_diameter`` hands it its leaf
distance table and keeps the candidates that reach the value.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diameter_core import BackboneDecomposition, backbone
from .tree_model import (
    GeometricTree,
    Shortcut,
    TreePoint,
    distances_from,
    euclidean_distance,
    network_distance,
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

# Coarse pair types; "sub" is any B-sub-tree endpoint (wedge or antipodal).
PAIR_TYPES = ("x-y", "x-sub", "sub-y", "sub-sub", "sub-interior")


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
    """Map each leaf to (class, group key); class in {x, y, wedge}.

    A leaf's group is the backbone vertex its B-sub-tree hangs from or,
    on a point backbone, the centre's neighbour on the way to it.
    """
    if decomp.is_point:
        cid = decomp.backbone_ids[0]
        roots = [nb for (nb, _) in tree.adj[cid]]
        root_of = {cid: None}
    else:
        roots = decomp.backbone_ids
        root_of = {}
    root_of.update((v, v) for v in roots)
    stack = list(roots)
    while stack:
        w = stack.pop()
        for (nb, _) in tree.adj[w]:
            if nb not in root_of:
                root_of[nb] = root_of[w]
                stack.append(nb)
    if decomp.is_point:
        x_root = root_of[cid] = root_of[decomp.x_leaf]
        y_root = root_of[decomp.y_leaf]
    else:
        x_root, y_root = decomp.backbone_ids[0], decomp.backbone_ids[-1]
    classes = {}
    for lv in tree.leaves():
        r = root_of[lv]
        if r == x_root:
            classes[lv] = ("x", "X")
        elif r == y_root:
            classes[lv] = ("y", "Y")
        else:
            classes[lv] = ("wedge", ("S", r))
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


def _leaf_distances(tree, leaves):
    return {u: distances_from(tree, TreePoint.at_vertex(u)) for u in leaves}


def augmented_diameter(tree: GeometricTree, decomp: BackboneDecomposition,
                       shortcut: Shortcut) -> AugmentedDiagnosis:
    """Exact continuous diameter of T + pq with full diagnosis.

    The diameter is ``augmented_diameter_value``'s; the diagnosis keeps
    the leaf pairs and antipodal candidates within ``tree.tol`` of it.
    """
    tree.check_shortcut(shortcut)
    p, q = shortcut.p, shortcut.q
    e = euclidean_distance(tree, p, q)
    dtpq = network_distance(tree, p, q)
    cyc = e + dtpq
    half = cyc / 2.0
    tol = tree.tol
    leaves = tree.leaves()
    dp = distances_from(tree, p)
    dq = distances_from(tree, q)
    classes = _leaf_classes(tree, decomp)
    leaf_dists = _leaf_distances(tree, leaves)
    diameter = augmented_diameter_value(tree, shortcut, leaf_dists)
    floor = diameter - tol

    achieving = []
    for i, u in enumerate(leaves):
        c1, g1 = classes[u]
        du = leaf_dists[u]
        for v in leaves[i + 1:]:
            treed = du[v]
            via = min(dp[u] + e + dq[v], dq[u] + e + dp[v])
            dist = min(treed, via)
            if dist < floor:
                continue
            routes = set()
            if treed <= dist + tol:
                routes.add(VIA_TREE)
            if via <= dist + tol:
                routes.add(VIA_SHORTCUT)
            c2, g2 = classes[v]
            if g1 == g2:
                ptype = sub = "within-subtree"
            else:
                ptype, sub = _pair_type(c1, c2), _subtype(c1, c2)
            achieving.append(AchievingPair(u, v, sub, ptype,
                                           frozenset(routes), dist))
        if cyc <= 0.0:
            continue
        dist = (dp[u] + dq[u] - dtpq) / 2.0 + half
        if dist < floor:
            continue
        # Locate the antipodal partner of u's cycle attachment point.
        tau = (dp[u] + dtpq - dq[u]) / 2.0
        pos = tau + half
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
        achieving.append(AchievingPair(u, end2, _subtype(c1, c2), ptype,
                                       routes, dist))

    achieving.sort(key=lambda ap: (str(ap.end1), str(ap.end2)))
    reported = [ap for ap in achieving if ap.pair_type != "within-subtree"]
    pair_state = frozenset(ap.pair_type for ap in reported)
    path_state = frozenset(_descriptor(ap.subtype, r)
                           for ap in reported for r in ap.path_types)
    return AugmentedDiagnosis(diameter, cyc, tuple(achieving),
                              pair_state, path_state)


def augmented_diameter_value(tree, shortcut, leaf_dists=None):
    """Diameter of T + pq without the diagnosis bookkeeping.

    The maximum over leaf pairs of the shortest of the three routes, and,
    when pq closes a cycle, over leaves of the distance to the antipodal
    point of their cycle attachment.  ``leaf_dists`` maps each leaf to
    its ``distances_from`` table; it is built when not given.
    """
    tree.check_shortcut(shortcut)
    p, q = shortcut.p, shortcut.q
    e = euclidean_distance(tree, p, q)
    dtpq = network_distance(tree, p, q)
    cyc = e + dtpq
    half = cyc / 2.0
    leaves = tree.leaves()
    dp = distances_from(tree, p)
    dq = distances_from(tree, q)
    if leaf_dists is None:
        leaf_dists = _leaf_distances(tree, leaves)
    best = 0.0
    for i, u in enumerate(leaves):
        du = leaf_dists[u]
        for v in leaves[i + 1:]:
            val = min(du[v], dp[u] + e + dq[v], dq[u] + e + dp[v])
            if val > best:
                best = val
        if cyc > 0.0:
            val = (dp[u] + dq[u] - dtpq) / 2.0 + half
            if val > best:
                best = val
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
    p, q = shortcut.p, shortcut.q
    e = euclidean_distance(tree, p, q)
    duv = network_distance(tree, u, v)
    fwd = network_distance(tree, u, p) + e + network_distance(tree, q, v)
    bwd = network_distance(tree, u, q) + e + network_distance(tree, p, v)
    tol = tree.tol
    return OrderedUsefulness(fwd < duv - tol, bwd < duv - tol)
