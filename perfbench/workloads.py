"""Workload inputs and output checks for the treecut benchmark.

Inputs come from fixed pools of generated trees, so that every input has
a stored reference answer (``references.json``).  The workload seed fixes
the order in which a run visits its pool; ``holdout`` selects a second
pool of the same shape whose trees no tuning run has seen.

The tree generator is a copy of ``treecut.oracle.random_tree`` (same
random stream, same rounding), kept here so that the benchmark's inputs
and references do not move when the program's own generator changes.
The checker evaluates a shortcut with its own code (scipy Dijkstra plus
the leaf-pair formula of ``augmented_diameter_value``), independent of
the caterpillar evaluator the sweep uses.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")
HOLDOUT_OFFSET = 1_000_000
CORPUS_SIZES = (5, 9, 14)
CORPUS_SHAPES = ("uniform", "caterpillar", "balanced")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str        # treecut subcommand
    pool: int           # trees in one pass
    holdout_pool: int   # trees in one pass over the hold-out pool

    def size(self, holdout: bool) -> int:
        return self.holdout_pool if holdout else self.pool


# Why these three, and what each one isolates, is in README.md.  Main
# pools are small enough for four or more passes per run; the hold-out
# corpus keeps all 210 trees, for coverage rather than steadiness.
WORKLOADS = {
    w.name: w for w in (
        Workload("optimize-corpus", "optimize", 70, 210),
        Workload("optimize-large", "optimize", 3, 3),
        Workload("evaluate-shortcuts", "evaluate", 120, 120),
    )
}


def tree_spec(workload: str, i: int, holdout: bool):
    """(generator seed, vertex count, shape) of pool entry i."""
    seed = i + (HOLDOUT_OFFSET if holdout else 0)
    if workload == "optimize-corpus":
        # Seeds 0..209 are the acceptance corpus of criterion 1.
        return seed, CORPUS_SIZES[i % 3], CORPUS_SHAPES[i % 3]
    if workload == "optimize-large":
        return seed, 2000, "caterpillar"
    if workload == "evaluate-shortcuts":
        return seed, 300, "uniform"
    raise KeyError(workload)


# -- generator (same stream as treecut.oracle.random_tree) -----------------


def random_tree_data(seed: int, n: int, shape: str) -> dict:
    """Tree document in the ``treecut`` JSON schema."""
    rng = random.Random((seed, n, shape).__repr__())
    coords = {0: (0.0, 0.0)}
    edges = []
    if shape == "caterpillar":
        m = min(max(3, (n + 1) // 2), n)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        for i in range(1, m):
            ang += rng.uniform(-0.9, 0.9)
            _attach(coords, edges, i, i - 1, ang, rng.uniform(0.8, 1.2))
        for i in range(m, n):
            root = rng.randrange(1, max(2, m - 1))
            ang2 = rng.uniform(0.0, 2.0 * math.pi)
            _attach(coords, edges, i, root, ang2, rng.uniform(0.2, 0.6))
    else:
        for i in range(1, n):
            if shape == "uniform":
                parent = rng.randrange(i)
                ang = rng.uniform(0.0, 2.0 * math.pi)
                ln = rng.uniform(0.5, 1.5)
            elif shape == "balanced":
                parent = (i - 1) // 2
                ang = rng.uniform(0.0, 2.0 * math.pi)
                ln = rng.uniform(0.6, 1.0)
            else:
                raise ValueError(f"unknown shape {shape!r}")
            _attach(coords, edges, i, parent, ang, ln)
    return {
        "vertices": [{"id": v, "x": round(x, 12), "y": round(y, 12)}
                     for v, (x, y) in sorted(coords.items())],
        "edges": [[u, v] for (u, v) in edges],
    }


def _attach(coords, edges, i, parent, ang, ln):
    px, py = coords[parent]
    coords[i] = (px + ln * math.cos(ang), py + ln * math.sin(ang))
    edges.append((parent, i))


def random_shortcut(seed: int, data: dict) -> dict:
    """A shortcut between interior points of two distinct random edges."""
    rng = random.Random(f"perfbench-shortcut:{seed}")
    i, j = rng.sample(range(len(data["edges"])), 2)
    return {"p": {"edge": data["edges"][i], "lambda": rng.uniform(0.05, 0.95)},
            "q": {"edge": data["edges"][j], "lambda": rng.uniform(0.05, 0.95)}}


# -- requests ---------------------------------------------------------------


@dataclass
class Request:
    index: int          # position in the pool (and in the references)
    argv: list
    n: int
    data: dict


def build_pool(workload: str, holdout: bool, workdir: Path) -> list:
    """Write the pool's tree files under workdir; one Request per tree."""
    wl = WORKLOADS[workload]
    pool = []
    for i in range(wl.size(holdout)):
        seed, n, shape = tree_spec(workload, i, holdout)
        data = random_tree_data(seed, n, shape)
        path = workdir / f"tree{i}.json"
        path.write_text(json.dumps(data))
        argv = [wl.command, str(path)]
        if wl.command == "evaluate":
            argv += ["--shortcut", json.dumps(random_shortcut(seed, data))]
        pool.append(Request(i, argv, n, data))
    return pool


def visit_order(pool_size: int, seed: int) -> list:
    """Seed 0 keeps the generation order; other seeds shuffle it."""
    order = list(range(pool_size))
    if seed:
        random.Random(f"perfbench-order:{seed}").shuffle(order)
    return order


def load_references(workload: str, holdout: bool) -> list:
    doc = json.loads(REFERENCES.read_text())
    return doc["holdout" if holdout else "main"][workload]


# -- independent evaluator --------------------------------------------------


class TreeMetric:
    """Exact network distances of one tree, from scipy's Dijkstra.

    The continuous diameter of T + pq is the maximum over leaf pairs of
    the shorter of the tree route and the two shortcut routes, and over
    leaves of the distance to the antipodal point of their cycle
    attachment.  This is the formula of ``augmented_diameter_value``.
    """

    def __init__(self, data: dict):
        import numpy as np
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import dijkstra

        self._np, self._dijkstra = np, dijkstra
        ids = [v["id"] for v in data["vertices"]]
        self.index = {vid: k for k, vid in enumerate(ids)}
        self.xy = np.array([[v["x"], v["y"]] for v in data["vertices"]])
        ends = np.array([[self.index[u], self.index[v]]
                         for u, v in data["edges"]], dtype=int)
        w = np.hypot(*(self.xy[ends[:, 0]] - self.xy[ends[:, 1]]).T)
        n = len(ids)
        self.graph = coo_matrix((w, (ends[:, 0], ends[:, 1])),
                                shape=(n, n)).tocsr()
        self.leaves = np.flatnonzero(np.bincount(ends.ravel(), minlength=n) == 1)
        self.leaf_pairs = dijkstra(self.graph, directed=False,
                                   indices=self.leaves)[:, self.leaves]
        bbox = np.ptp(self.xy, axis=0)
        self.scale = max(math.hypot(*bbox), float(w.max()))

    def diameter(self) -> float:
        return float(self.leaf_pairs.max())

    def _point(self, rec):
        """(vertex distances, coordinates, (u, v, lam)) of a point record."""
        u, v = (self.index[x] for x in rec["edge"])
        lam = float(rec["lambda"])
        du, dv = self._dijkstra(self.graph, directed=False, indices=[u, v])
        w = float(math.dist(self.xy[u], self.xy[v]))
        dist = self._np.minimum(du + lam * w, dv + (1.0 - lam) * w)
        return dist, (1.0 - lam) * self.xy[u] + lam * self.xy[v], (u, v, lam, w)

    def shortcut_diameter(self, shortcut: dict) -> float:
        np = self._np
        dp, xp, (pu, pv, plam, _) = self._point(shortcut["p"])
        dq, xq, (qu, qv, qlam, qw) = self._point(shortcut["q"])
        e = float(math.dist(xp, xq))
        if {pu, pv} == {qu, qv} and pu != pv:
            # Same edge: the tree path stays on it.
            qpos = qlam if (qu, qv) == (pu, pv) else 1.0 - qlam
            dtpq = abs(qpos - plam) * qw
        else:
            dtpq = float(min(dp[qu] + qlam * qw, dp[qv] + (1.0 - qlam) * qw))
        lp, lq = dp[self.leaves], dq[self.leaves]
        via = np.minimum(lp[:, None] + e + lq[None, :],
                         lq[:, None] + e + lp[None, :])
        pairs = float(np.minimum(self.leaf_pairs, via).max())
        anti = float(((lp + lq - dtpq) / 2.0).max() + (e + dtpq) / 2.0)
        return max(pairs, anti)


# -- output checks ----------------------------------------------------------


def check_output(workload: str, doc: dict, ref: dict, metric) -> list:
    """Reasons the output is wrong; empty when it passes.

    ``metric`` is a zero-argument callable returning the TreeMetric of
    the request's tree (built only when an optimize output needs it).
    """
    tol = 1e-9 * ref["scale"]
    bad = []
    if abs(doc["diameter_before"] - ref["diameter_before"]) > tol:
        bad.append(f"diameter_before {doc['diameter_before']} != "
                   f"reference {ref['diameter_before']}")
    after = doc["diameter_after"]
    if workload == "evaluate-shortcuts":
        if abs(after - ref["diameter_after"]) > tol:
            bad.append(f"diameter_after {after} != reference "
                       f"{ref['diameter_after']}")
        if doc["usefulness"] != ref["usefulness"]:
            bad.append(f"usefulness {doc['usefulness']} != reference "
                       f"{ref['usefulness']}")
        return bad
    exact = metric().shortcut_diameter(doc["shortcut"])
    if abs(after - exact) > tol:
        bad.append(f"diameter_after {after} but the shortcut gives {exact}")
    if after > ref["diameter_after"] + tol:
        bad.append(f"diameter_after {after} worse than reference "
                   f"{ref['diameter_after']}")
    if "grid_best" in ref:
        h = ref["diameter_before"] / 200.0
        if after - ref["grid_best"] > 4.0 * h:
            bad.append(f"diameter_after {after} more than 4h above the "
                       f"restricted grid optimum {ref['grid_best']}")
    return bad
