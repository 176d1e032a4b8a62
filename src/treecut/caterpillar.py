"""Compressed caterpillar view of a tree seen from its backbone.

Every B-sub-tree collapses to a pendant of known height at its attachment
arc.  Shortcut endpoints are arc positions ``alpha <= beta`` along the
backbone (measured from the endpoint a).  For such shortcuts the
augmented diameter can be evaluated exactly from the pendant data alone,
and the candidate families tracked by the sweep (x-side, y-side,
antipodal, x-y) admit O(1) range-maximum queries.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass

import numpy as np

NEG = float("-inf")


class RangeMax:
    """Static range-maximum (with leftmost argmax) over a float array.

    The sparse-table levels are built with numpy and stored as stdlib
    arrays: indexing an ``array`` yields a Python float or int directly,
    which keeps the O(1) query free of numpy scalar boxing.
    """

    def __init__(self, values):
        vals = np.asarray(values, dtype=float)
        self.n = len(vals)
        t, arg = vals, np.arange(self.n, dtype=np.int64)
        self.t = [array("d", t.tobytes())]
        self.arg = [array("q", arg.tobytes())]
        j = 1
        while (1 << j) <= self.n:
            half = 1 << (j - 1)
            m = self.n - (1 << j) + 1
            left, right = t[:m], t[half:half + m]
            pick = right > left
            t = np.where(pick, right, left)
            arg = np.where(pick, arg[half:half + m], arg[:m])
            self.t.append(array("d", t.tobytes()))
            self.arg.append(array("q", arg.tobytes()))
            j += 1

    def query(self, lo, hi):
        """Max over indices [lo, hi); returns (value, argmax) or (-inf, -1)."""
        if lo < 0:
            lo = 0
        if hi > self.n:
            hi = self.n
        if hi <= lo:
            return NEG, -1
        j = (hi - lo).bit_length() - 1
        t, arg = self.t[j], self.arg[j]
        r = hi - (1 << j)
        if t[r] > t[lo]:
            return t[r], arg[r]
        return t[lo], arg[lo]


@dataclass
class FamilyView:
    """Candidate-family values of the monitored diametral-path families."""

    alpha: float
    beta: float
    e: float
    darc: float
    cyc: float
    half: float
    pbar: float
    qbar: float
    xy: float
    xy_branch: str          # "via" | "tree"
    fx: float
    fx_branch: str          # "via" | "tree" | "anti"
    fx_pendant: int         # pendant index or -1
    fy: float
    fy_branch: str
    fy_pendant: int
    fanti: float
    fanti_pendant: int
    diameter: float         # max of the above and delta
    # Per-branch component maxima of the x- and y-side families.
    fx_tree: float = NEG
    fx_via: float = NEG
    fx_anti: float = NEG
    fy_tree: float = NEG
    fy_via: float = NEG
    fy_anti: float = NEG


class Caterpillar:
    def __init__(self, tree, decomp):
        self.tree = tree
        self.decomp = decomp
        self.L = decomp.length
        self.h_x = decomp.h_x
        self.h_y = decomp.h_y
        self.c_arc = decomp.center_arc
        self.delta = decomp.delta
        self.diam_t = decomp.diameter
        self.arcs = list(decomp.arcs)
        self.ids = list(decomp.backbone_ids)
        self.xs = [tree.coords[v][0] for v in self.ids]
        self.ys = [tree.coords[v][1] for v in self.ids]
        sec = sorted(decomp.secondary, key=lambda s: s.arc)
        self.t = [s.arc for s in sec]
        self.h = [s.height for s in sec]
        self.leaf = [s.far_leaf for s in sec]
        self.root_id = [s.root_id for s in sec]
        self.k = len(sec)
        self._build_tables()

    # -- precomputation --------------------------------------------------

    def _build_tables(self):
        t = np.asarray(self.t, dtype=float)
        h = np.asarray(self.h, dtype=float)
        self.rm_h = RangeMax(h)
        self.rm_hpt = RangeMax(h + t)
        self.rm_hmt = RangeMax(h - t)
        # Entity arrays: x, the pendants, y — used for leaf-pair scans.
        self.et = [0.0] + self.t + [self.L]
        self.eh = [self.h_x] + self.h + [self.h_y]
        et = np.asarray(self.et)
        eh = np.asarray(self.eh)
        self.erm_hmt = RangeMax(eh - et)
        self.erm_hpt = RangeMax(eh + et)
        # Same-side pair maxima, exact tree distances:
        #   left(alpha)  = max over i<j, et_j <= alpha of (eh_i-et_i)+(eh_j+et_j)
        #   right(beta)  = max over i<j, et_i >= beta  of (eh_i-et_i)+(eh_j+et_j)
        m = len(self.et)
        pre = NEG
        left_pair = np.full(m, NEG)
        for j in range(m):
            if j > 0:
                left_pair[j] = pre + eh[j] + et[j]
            pre = max(pre, eh[j] - et[j])
        self.left_pair_prefmax = np.maximum.accumulate(left_pair)
        suf = NEG
        right_pair = np.full(m, NEG)
        for i in range(m - 1, -1, -1):
            if i < m - 1:
                right_pair[i] = suf + eh[i] - et[i]
            suf = max(suf, eh[i] + et[i])
        self.right_pair_sufmax = np.maximum.accumulate(right_pair[::-1])[::-1]

    # -- geometry --------------------------------------------------------

    def embed(self, arc):
        """Planar coordinates of the backbone point at the given arc."""
        arc = min(max(arc, 0.0), self.L)
        i = bisect_right(self.arcs, arc) - 1
        if i >= len(self.arcs) - 1:
            return self.xs[-1], self.ys[-1]
        span = self.arcs[i + 1] - self.arcs[i]
        lam = (arc - self.arcs[i]) / span
        return ((1 - lam) * self.xs[i] + lam * self.xs[i + 1],
                (1 - lam) * self.ys[i] + lam * self.ys[i + 1])

    def chord(self, alpha, beta):
        xa, ya = self.embed(alpha)
        xb, yb = self.embed(beta)
        return math.hypot(xa - xb, ya - yb)

    def arc_to_treepoint(self, arc):
        from .tree_model import TreePoint
        arc = min(max(arc, 0.0), self.L)
        i = bisect_right(self.arcs, arc) - 1
        if i >= len(self.ids) - 1:
            return TreePoint.at_vertex(self.ids[-1])
        span = self.arcs[i + 1] - self.arcs[i]
        lam = (arc - self.arcs[i]) / span
        return TreePoint(self.ids[i], self.ids[i + 1], lam).canonical()

    # -- candidate families ---------------------------------------------

    def families(self, alpha, beta):
        """Exact values of the monitored diametral-path families at (p, q)."""
        e = self.chord(alpha, beta)
        darc = beta - alpha
        cyc = e + darc
        half = cyc / 2.0
        pbar = alpha + half           # antipodal of p, always on the tree arc
        qbar = beta - half
        t = self.t
        i_a = bisect_left(t, alpha)       # first pendant with t >= alpha
        i_b = bisect_right(t, beta)       # first pendant with t > beta
        i_pbar = bisect_right(t, pbar)
        i_qbar = bisect_left(t, qbar)

        xy_via = self.h_x + alpha + e + (self.L - beta) + self.h_y
        if xy_via < self.diam_t:
            xy, xy_branch = xy_via, "via"
        else:
            xy, xy_branch = self.diam_t, "tree"

        # x-side family: min(tree, via) per pendant, plus x's antipodal.
        fx_anti = self.h_x + alpha + half
        v1, a1 = self.rm_hpt.query(0, i_pbar)        # tree: t <= pbar
        fx_tree, fx_tree_p = v1 + self.h_x, a1
        v2, a2 = self.rm_hmt.query(i_pbar, i_b)      # via: pbar <= t <= beta
        v2 = v2 + self.h_x + alpha + e + beta
        v3, a3 = self.rm_hpt.query(i_b, self.k)      # via: t >= beta
        v3 = v3 + self.h_x + alpha + e - beta
        fx_via, fx_via_p = (v2, a2) if v2 >= v3 else (v3, a3)
        fx, fx_branch, fx_p = fx_anti, "anti", -1
        if fx_tree > fx:
            fx, fx_branch, fx_p = fx_tree, "tree", fx_tree_p
        if fx_via > fx:
            fx, fx_branch, fx_p = fx_via, "via", fx_via_p

        # y-side family, mirrored.
        fy_anti = self.h_y + (self.L - beta) + half
        v1, a1 = self.rm_hmt.query(i_qbar, self.k)   # tree: t >= qbar
        fy_tree, fy_tree_p = v1 + self.h_y + self.L, a1
        v2, a2 = self.rm_hpt.query(i_a, i_qbar)      # via: alpha <= t <= qbar
        v2 = v2 + self.h_y + (self.L - beta) + e - alpha
        v3, a3 = self.rm_hmt.query(0, i_a)           # via: t <= alpha
        v3 = v3 + self.h_y + (self.L - beta) + e + alpha
        fy_via, fy_via_p = (v2, a2) if v2 >= v3 else (v3, a3)
        fy, fy_branch, fy_p = fy_anti, "anti", -1
        if fy_tree > fy:
            fy, fy_branch, fy_p = fy_tree, "tree", fy_tree_p
        if fy_via > fy:
            fy, fy_branch, fy_p = fy_via, "via", fy_via_p

        # Pendant-to-antipodal family.
        fanti, fanti_p = NEG, -1
        v, a = self.rm_hmt.query(0, i_a)
        if v + alpha > fanti:
            fanti, fanti_p = v + alpha, a
        v, a = self.rm_h.query(i_a, i_b)
        if v > fanti:
            fanti, fanti_p = v, a
        v, a = self.rm_hpt.query(i_b, self.k)
        if v - beta > fanti:
            fanti, fanti_p = v - beta, a
        fanti = fanti + half if fanti_p >= 0 else NEG

        diameter = max(xy, fx, fy, self.delta)
        if fanti_p >= 0:
            diameter = max(diameter, fanti)
        return FamilyView(alpha, beta, e, darc, cyc, half, pbar, qbar,
                          xy, xy_branch, fx, fx_branch, fx_p,
                          fy, fy_branch, fy_p, fanti, fanti_p, diameter,
                          fx_tree, fx_via, fx_anti, fy_tree, fy_via, fy_anti)

    def antipodal_on_tree(self, alpha, beta, pendant):
        """Whether the antipodal partner of a pendant leaf lies on the tree.

        True means the diametral pair is wedge-antipodal; False means the
        partner is interior to the shortcut (wedge-interior).
        """
        e = self.chord(alpha, beta)
        darc = beta - alpha
        cyc = e + darc
        if cyc <= 0.0:
            return True
        half = cyc / 2.0
        u = min(max(self.t[pendant], alpha), beta) - alpha
        pos = u + half
        if pos > cyc:
            pos -= cyc
        return pos <= darc

    # -- exact evaluation -------------------------------------------------

    def evaluate(self, alpha, beta):
        """Exact diam(T + pq) for backbone arcs alpha <= beta.

        Combines the monitored families with the exact same-side pair
        maxima and a cross-pair scan over cycle positions, plus the
        B-sub-tree floor delta.
        """
        if beta < alpha:
            alpha, beta = beta, alpha
        if beta - alpha <= 0.0:
            # p = q: the augmented tree is the tree itself.
            return self.diam_t
        fv = self.families(alpha, beta)
        best = max(fv.diameter, self.delta)
        et, eh = self.et, self.eh
        j_a = bisect_right(et, alpha) - 1   # last entity with et <= alpha
        j_b = bisect_left(et, beta)         # first entity with et >= beta
        if j_a >= 0:
            best = max(best, float(self.left_pair_prefmax[j_a]))
        if j_b < len(et):
            best = max(best, float(self.right_pair_sufmax[j_b]))

        # Cross pairs over cycle positions: collapsed left group, inside
        # pendants, collapsed right group.
        darc, cyc, half = fv.darc, fv.cyc, fv.half
        hl, _ = self.erm_hmt.query(0, j_a + 1)
        hr, _ = self.erm_hpt.query(j_b, len(et))
        pts = []
        if hl > NEG:
            pts.append((0.0, hl + alpha))
        for idx in range(bisect_right(self.t, alpha), bisect_left(self.t, beta)):
            pts.append((self.t[idx] - alpha, self.h[idx]))
        if hr > NEG:
            pts.append((darc, hr - beta))
        best = max(best, _cross_pair_max(pts, cyc, half))
        return best

    def evaluate_grid(self, alphas, betas, chunk=4096):
        """Vectorized exact evaluation for many (alpha, beta) placements.

        A block of ``chunk`` placements holds two ``chunk x m x m`` float
        arrays (m = k + 2 entities), so the chunk is capped to keep each
        at 2**22 entries (32 MB).
        """
        alphas = np.asarray(alphas, dtype=float)
        betas = np.asarray(betas, dtype=float)
        m = len(self.et)
        chunk = max(1, min(chunk, (1 << 22) // (m * m)))
        out = np.empty(len(alphas))
        for lo in range(0, len(alphas), chunk):
            hi = min(lo + chunk, len(alphas))
            out[lo:hi] = self._grid_block(alphas[lo:hi], betas[lo:hi])
        return out

    def _grid_block(self, A, B):
        et = np.asarray(self.et)
        eh = np.asarray(self.eh)
        ax, ay = self._embed_many(A)
        bx, by = self._embed_many(B)
        e = np.hypot(ax - bx, ay - by)
        darc = B - A
        half = (e + darc) / 2.0
        dP = eh[None, :] + np.abs(et[None, :] - A[:, None])
        dQ = eh[None, :] + np.abs(et[None, :] - B[:, None])
        treed = eh[None, :] + eh[:, None] + np.abs(et[None, :] - et[:, None])
        # via[i, j] = min(dP_i + dQ_j, dQ_i + dP_j) + e: the second sum is
        # the transpose of the first, so two block arrays suffice.
        pq = dP[:, :, None] + dQ[:, None, :]
        pair = np.minimum(pq, pq.transpose(0, 2, 1))
        del pq
        pair += e[:, None, None]
        np.minimum(pair, treed[None, :, :], out=pair)
        m = len(self.et)
        pair[:, np.arange(m), np.arange(m)] = NEG
        best = pair.reshape(len(A), -1).max(axis=1)
        hcyc = eh[None, :] + np.maximum(A[:, None] - et[None, :], 0.0) \
            + np.maximum(et[None, :] - B[:, None], 0.0)
        best = np.maximum(best, hcyc.max(axis=1) + half)
        return np.maximum(best, self.delta)

    def _embed_many(self, arcs):
        arcs = np.clip(arcs, 0.0, self.L)
        av = np.asarray(self.arcs)
        xs = np.asarray(self.xs)
        ys = np.asarray(self.ys)
        i = np.clip(np.searchsorted(av, arcs, side="right") - 1, 0, len(av) - 2)
        span = av[i + 1] - av[i]
        lam = (arcs - av[i]) / span
        return (1 - lam) * xs[i] + lam * xs[i + 1], \
            (1 - lam) * ys[i] + lam * ys[i + 1]

    def flip(self):
        """The same caterpillar viewed from b, for mirrored sweeps."""
        return _FlippedCaterpillar(self)


def _cross_pair_max(pts, cyc, half):
    """Max over point pairs on the cycle of H_i + H_j + cycle distance.

    `pts` is a list of (cycle position on the tree arc, height), sorted by
    position, all positions distinct groups; the cycle distance is the
    shorter way around.  Runs in O(len(pts)) with a sliding-window max.
    """
    if len(pts) < 2:
        return NEG
    best = NEG
    win = deque()   # indices, decreasing H - u (tree-route window)
    prefix_best = NEG  # max of H + u over points left of the window
    lo = 0
    for j in range(len(pts)):
        uj, hj = pts[j]
        # Window: points i < j with uj - ui <= half use the tree route.
        while lo < j and uj - pts[lo][0] > half:
            if win and win[0] == lo:
                win.popleft()
            prefix_best = max(prefix_best, pts[lo][1] + pts[lo][0])
            lo += 1
        if j > 0:
            i = j - 1
            val = pts[i][1] - pts[i][0]
            while win and pts[win[-1]][1] - pts[win[-1]][0] <= val:
                win.pop()
            win.append(i)
            while win and win[0] < lo:
                win.popleft()
            if win:
                best = max(best, pts[win[0]][1] - pts[win[0]][0] + hj + uj)
            if prefix_best > NEG:
                best = max(best, prefix_best + hj - uj + cyc)
    return best


class _FlippedCaterpillar:
    """Mirror view: arcs measured from b; delegates to the base model."""

    def __init__(self, base):
        self.base = base
        self.L = base.L
        self.h_x = base.h_y
        self.h_y = base.h_x
        self.c_arc = base.L - base.c_arc
        self.delta = base.delta
        self.diam_t = base.diam_t
        self.k = base.k
        self.t = [base.L - t for t in reversed(base.t)]
        self.h = list(reversed(base.h))
        self.leaf = list(reversed(base.leaf))
        self.root_id = list(reversed(base.root_id))
        self.arcs = [base.L - a for a in reversed(base.arcs)]
        self.ids = list(reversed(base.ids))

    def _m(self, alpha, beta):
        return self.base.L - beta, self.base.L - alpha

    def chord(self, alpha, beta):
        return self.base.chord(*self._m(alpha, beta))

    def embed(self, arc):
        return self.base.embed(self.base.L - arc)

    def arc_to_treepoint(self, arc):
        return self.base.arc_to_treepoint(self.base.L - arc)

    def evaluate(self, alpha, beta):
        return self.base.evaluate(*self._m(alpha, beta))

    def evaluate_grid(self, alphas, betas):
        a = np.asarray(alphas, dtype=float)
        b = np.asarray(betas, dtype=float)
        return self.base.evaluate_grid(self.base.L - b, self.base.L - a)

    def families(self, alpha, beta):
        fv = self.base.families(*self._m(alpha, beta))
        k = self.base.k
        flip_p = lambda p: (k - 1 - p) if p >= 0 else -1
        return FamilyView(
            alpha, beta, fv.e, fv.darc, fv.cyc, fv.half,
            self.base.L - fv.qbar, self.base.L - fv.pbar,
            fv.xy, fv.xy_branch,
            fv.fy, fv.fy_branch, flip_p(fv.fy_pendant),
            fv.fx, fv.fx_branch, flip_p(fv.fx_pendant),
            fv.fanti, flip_p(fv.fanti_pendant), fv.diameter,
            fv.fy_tree, fv.fy_via, fv.fy_anti,
            fv.fx_tree, fv.fx_via, fv.fx_anti)

    def antipodal_on_tree(self, alpha, beta, pendant):
        a, b = self._m(alpha, beta)
        return self.base.antipodal_on_tree(a, b, self.base.k - 1 - pendant)

    def flip(self):
        return self.base
