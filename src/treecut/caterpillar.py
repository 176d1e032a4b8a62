"""Compressed caterpillar view of a tree seen from its backbone.

Every B-sub-tree collapses to a pendant of known height at its attachment
arc.  Shortcut endpoints are arc positions ``alpha <= beta`` along the
backbone (measured from the endpoint a).  For such shortcuts the
augmented diameter can be evaluated exactly from the pendant data alone,
and the candidate families tracked by the sweep (x-side, y-side,
antipodal, x-y) admit O(1) range-maximum queries, as does the longest
wedge-shortcut-wedge path but for one prefix maximum.

The paper's sweep runs mirror-symmetric phases: a shift toward y is a
shift toward x seen from b.  ``Caterpillar.flip()`` gives that view as a
caterpillar of its own, built over the reversed decomposition, so both
directions run the same code on their own arrays.
"""

from __future__ import annotations

import math
import weakref
from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass

import numpy as np

NEG = float("-inf")
# Placements per block of ``Caterpillar.evaluate_grid``, before its cap.
_GRID_CHUNK = 4096


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


class Caterpillar:
    def __init__(self, tree, decomp):
        """The caterpillar of ``decomp``, with arcs measured from its a."""
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
        self.k = len(sec)
        # Vertex and pendant arcs, where the sweep's motion laws change.
        self.bps = sorted(set(self.arcs) | set(self.t))
        # The view from b, as a callable returning it or None.  A view
        # built by flip() holds its maker weakly, so that the two form no
        # reference cycle and are freed as soon as they are dropped.
        self._flipped = lambda: None
        # The last alpha ``chord`` embedded, and its coordinates.
        self._alpha_at = (None, None)
        self._build_tables()

    # -- precomputation --------------------------------------------------

    def _build_tables(self):
        t = np.asarray(self.t, dtype=float)
        h = np.asarray(self.h, dtype=float)
        # Plain arrays for the vectorized part of ``wedge``.
        self.np_t, self.np_hpt, self.np_hmt = t, h + t, h - t
        self.rm_h = RangeMax(h)
        self.rm_hpt = RangeMax(self.np_hpt)
        self.rm_hmt = RangeMax(self.np_hmt)
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
        if alpha == self._alpha_at[0]:
            xa, ya = self._alpha_at[1]
        else:
            xa, ya = self.embed(alpha)
            self._alpha_at = (alpha, (xa, ya))
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
                          fy, fy_branch, fy_p, fanti, fanti_p, diameter)

    def wedge(self, alpha, beta):
        """Longest wedge-shortcut-wedge path for backbone arcs alpha <= beta.

        The query of ``smawk.wedge_path_on_arcs(t, h, chord, alpha, beta)``:
        pendant i enters the shortcut at p, pendant j leaves it at q, and
        the pair qualifies when that route is shorter than the tree path.
        Returns (length, (i, j)) or None.

        Only pairs with t_i < t_j can qualify.  Let s = (beta - alpha) - e
        be the length the shortcut saves, and split the pendants into L
        (t <= alpha), M (alpha < t < beta) and R (t >= beta).  The pairs
        that qualify are L x R when s > 0, M x R when 2(t_i - alpha) < s,
        L x M when 2(beta - t_j) < s, and M x M when t_j - t_i exceeds
        (beta - alpha + e) / 2.  Each value is a term of i plus a term of
        j, so the first three are range maxima after a bisection and
        M x M is a prefix maximum.  Where s is within rounding of 0 (p and
        q on one straight run) the route through the shortcut is the tree
        route, any pair that qualifies does so by rounding, and the answer
        is None.
        """
        e = self.chord(alpha, beta)
        s = beta - alpha - e
        if s <= 1e-12 * self.tree.scale:
            return None
        t = self.t
        i_a = bisect_right(t, alpha)      # L is [0, i_a)
        i_b = bisect_left(t, beta)        # R is [i_b, k), M is [i_a, i_b)
        vl, il = self.rm_hmt.query(0, i_a)
        vr, jr = self.rm_hpt.query(i_b, self.k)
        cands = []                        # (length, i, j)
        if il >= 0 and jr >= 0:
            cands.append((vl + vr + e + alpha - beta, il, jr))
        if jr >= 0:
            v, i = self.rm_hpt.query(
                i_a, bisect_left(t, alpha + 0.5 * s, i_a, i_b))
            if i >= 0:
                cands.append((v + vr + e - alpha - beta, i, jr))
        if il >= 0:
            v, j = self.rm_hmt.query(
                bisect_right(t, beta - 0.5 * s, i_a, i_b), i_b)
            if j >= 0:
                cands.append((vl + v + e + alpha + beta, il, j))
        w = 0.5 * (beta - alpha + e)
        if i_b - i_a >= 2 and t[i_b - 1] - w > t[i_a]:
            tm = self.np_t[i_a:i_b]
            # Pendant j of M pairs with the first n[j] pendants of M.
            n = np.searchsorted(tm, tm - w)
            pm = np.maximum.accumulate(self.np_hpt[i_a:i_b])
            vals = np.where(n > 0, pm[n - 1] + self.np_hmt[i_a:i_b], NEG)
            j = int(np.argmax(vals))
            _, i = self.rm_hpt.query(i_a, i_a + int(n[j]))
            cands.append((float(vals[j]) + e + beta - alpha, i, i_a + j))
        if not cands:
            return None
        # Ties go to the smallest j, then the smallest i, as in SMAWK.
        v, i, j = max(cands, key=lambda c: (c[0], -c[2], -c[1]))
        return v, (i, j)

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

    def evaluate_grid(self, alphas, betas):
        """Vectorized exact evaluation for many (alpha, beta) placements.

        A block of ``_GRID_CHUNK`` placements holds two ``chunk x m x m``
        float arrays (m = k + 2 entities), so the chunk is capped to keep
        each at 2**22 entries (32 MB).
        """
        alphas = np.asarray(alphas, dtype=float)
        betas = np.asarray(betas, dtype=float)
        m = len(self.et)
        chunk = max(1, min(_GRID_CHUNK, (1 << 22) // (m * m)))
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
        """The same caterpillar seen from b, for mirrored sweeps.

        It is built once, over ``decomp.reversed()``: arc ``s`` there is
        arc ``L - s`` here, the pendants come in reverse order and the x
        and y sides trade places.  The two views point to each other, so
        ``cat.flip().flip() is cat`` while ``cat`` is alive.
        """
        fl = self._flipped()
        if fl is None:
            fl = Caterpillar(self.tree, self.decomp.reversed())
            fl._flipped = weakref.ref(self)
            self._flipped = lambda: fl
        return fl


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
