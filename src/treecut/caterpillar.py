"""Compressed caterpillar view of a tree seen from its backbone.

Every B-sub-tree collapses to a pendant of known height at its attachment
arc.  Shortcut endpoints are arc positions ``alpha <= beta`` along the
backbone (measured from the endpoint a).  For such shortcuts the
augmented diameter can be evaluated exactly from the pendant data alone.
It is the maximum of two queries.  ``families`` gives the candidate
families tracked by the sweep (x-side, y-side, antipodal, x-y) by three
O(1) range-maximum queries and four reads of prefix and suffix maxima;
they cover every path with x or y as an end and every antipode.
``pairs`` gives the rest: the longest path between two wedges
(pendants), from prefix tables where the tree joins them on one side of
the cycle, and from range maxima over the wedges inside the cycle
otherwise: for each wedge, one window of tree-route partners and one
prefix of cycle-route partners, read for all wedges at once from the
sparse tables as numpy gathers.  A cycle holding few wedges is scanned
in Python instead, which is cheaper there.

The paper's sweep runs mirror-symmetric phases: a shift toward y is a
shift toward x seen from b.  ``Caterpillar.flip()`` gives that view as a
caterpillar of its own, built over the reversed decomposition, so both
directions run the same code on their own arrays.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

NEG = float("-inf")
# Placements per block of ``Caterpillar.evaluate_grid``, before its cap.
_GRID_CHUNK = 4096
# Wedges inside the cycle from which ``Caterpillar.pairs`` runs its numpy
# kernel rather than the Python scan.  The kernel's fixed cost is about
# 20 us; the scan costs about 1 us a wedge and is cheaper below about 24
# wedges (2 cores, Python 3.11, numpy 2.4).
_KERNEL_MIN_WEDGES = 32


class RangeMax:
    """Static range-maximum (with leftmost argmax) over a float array.

    The sparse-table levels are built with numpy; level j holds the max
    over [i, i + 2**j).  ``query`` reads them through memoryviews:
    indexing one yields a Python float or int directly, which keeps the
    O(1) query free of numpy scalar boxing.  ``gather`` answers many
    queries at once from ``flat``, the value levels end to end, level j
    from ``start[j]``.
    """

    def __init__(self, values):
        vals = np.asarray(values, dtype=float)
        self.n = len(vals)
        t, arg = [vals], [np.arange(self.n, dtype=np.int64)]
        j = 1
        while (1 << j) <= self.n:
            half = 1 << (j - 1)
            m = self.n - (1 << j) + 1
            left, right = t[-1][:m], t[-1][half:half + m]
            pick = right > left
            t.append(np.where(pick, right, left))
            arg.append(np.where(pick, arg[-1][half:half + m], arg[-1][:m]))
            j += 1
        # The levels, then n + 1 entries of -inf that empty windows read.
        self.flat = np.concatenate(t + [np.full(self.n + 1, NEG)])
        self.start = list(accumulate(map(len, t), initial=0))
        flat = memoryview(self.flat)
        self.t = [flat[s:e] for s, e in zip(self.start, self.start[1:])]
        self.arg = [memoryview(level) for level in arg]

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

    @cached_property
    def _offsets(self):
        # By window width w >= 1: the offsets into ``flat`` of the two
        # level-j reads, j = floor(log2 w), at lo and at hi - 2**j.  Width
        # 0 reads the -inf entries.
        levels = len(self.t)
        lev = np.frexp(np.arange(self.n + 1, dtype=float))[1] - 1
        lev[0] = levels
        at_lo = np.asarray(self.start)[lev]
        return at_lo, at_lo - np.where(lev < levels, 1 << lev, 0)

    def gather(self, lo, hi):
        """Max over each window [lo, hi), -inf where it is empty.

        ``lo`` and ``hi`` broadcast together, with 0 <= lo <= hi <= n.
        """
        at_lo, at_hi = self._offsets
        w = hi - lo
        return np.maximum(self.flat[at_lo[w] + lo], self.flat[at_hi[w] + hi])


def _prefix_max(vals):
    """Entry i is ``RangeMax(vals).query(0, i)``: the max over vals[:i]
    and its leftmost argmax, (-inf, -1) at 0; as two memoryviews."""
    n = len(vals)
    val, arg = np.full(n + 1, NEG), np.full(n + 1, -1, dtype=np.int64)
    if n:
        rises = np.ones(n, dtype=bool)
        rises[1:] = vals[1:] > np.maximum.accumulate(vals)[:-1]
        arg[1:] = np.maximum.accumulate(np.where(rises, np.arange(n), 0))
        val[1:] = vals[arg[1:]]
    return memoryview(val), memoryview(arg)


def _suffix_max(vals):
    """Entry i is ``RangeMax(vals).query(i, n)``: the max over vals[i:]
    and its leftmost argmax, (-inf, -1) at n; as two memoryviews."""
    n = len(vals)
    val, arg = np.full(n + 1, NEG), np.full(n + 1, -1, dtype=np.int64)
    if n:
        rev = vals[::-1]
        # A tie goes to the later entry of the reversed array: the leftmost.
        takes = np.ones(n, dtype=bool)
        takes[1:] = rev[1:] >= np.maximum.accumulate(rev)[:-1]
        last = np.maximum.accumulate(np.where(takes, np.arange(n), 0))
        arg[:n] = (n - 1 - last)[::-1]
        val[:n] = vals[arg[:n]]
    return memoryview(val), memoryview(arg)


@dataclass
class FamilyView:
    """Candidate-family values of the monitored diametral-path families.

    Each ``*_db`` is the slope in beta, at fixed alpha, of its family's
    winning term.  That term is affine in beta, with slope 0, +-1/2 or
    +-1, plus 0, 1/2 or 1 times the chord e, so its slope adds the same
    multiple of de/dbeta.  The slope holds while the branches, the
    argmax pendants and the backbone edge under q stay as they are.  It
    is NaN where the chord is 0, and ``fanti_db`` also where there is no
    pendant.  ``e_da`` is the chord's slope in alpha at fixed beta,
    (P - Q).u / e with u the unit direction of the edge under p (NaN
    where e = 0); each term's slope in alpha follows from it and the
    term's branch, as in ``Caterpillar.still_step``.
    """

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
    xy_db: float
    fx_db: float
    fy_db: float
    fanti_db: float
    e_da: float


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
        # Unit direction of each backbone edge [arcs[i], arcs[i + 1]]; an
        # edge too short to move the arc is never under q.
        self._ux, self._uy = [], []
        for i in range(len(self.ids) - 1):
            span = self.arcs[i + 1] - self.arcs[i] or math.inf
            self._ux.append((self.xs[i + 1] - self.xs[i]) / span)
            self._uy.append((self.ys[i + 1] - self.ys[i]) / span)
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
        # The last alpha ``chord`` embedded, its coordinates and edge.
        self._alpha_at = (None, None)
        self._build_tables()

    # -- precomputation --------------------------------------------------

    def _build_tables(self):
        t = np.asarray(self.t, dtype=float)
        h = np.asarray(self.h, dtype=float)
        self._t = t
        hpt, hmt = h + t, h - t
        self.rm_h = RangeMax(h)
        self.rm_hpt = RangeMax(hpt)
        self.rm_hmt = RangeMax(hmt)
        # The windows that start at the first pendant or end at the last,
        # as prefix and suffix maxima: entry i holds query(0, i) or
        # query(i, k), with the same leftmost argmax.
        self.hpt_pre, self.hpt_suf = _prefix_max(hpt), _suffix_max(hpt)
        self.hmt_pre, self.hmt_suf = _prefix_max(hmt), _suffix_max(hmt)
        # Entity arrays: x, the pendants, y — the grid evaluator's points.
        self.et = [0.0] + self.t + [self.L]
        self.eh = [self.h_x] + self.h + [self.h_y]
        # Same-side wedge pair maxima, exact tree distances:
        #   left_pair[j]  = max over i < i' <= j of (h-t)_i + (h+t)_i'
        #   right_pair[i] = max over i <= i' < j of (h-t)_i' + (h+t)_j
        left = np.full(self.k, NEG)
        left[1:] = np.maximum.accumulate(h - t)[:-1] + h[1:] + t[1:]
        self.left_pair = np.maximum.accumulate(left)
        right = np.full(self.k, NEG)
        right[:-1] = (np.maximum.accumulate((h + t)[::-1])[::-1][1:]
                      + h[:-1] - t[:-1])
        self.right_pair = np.maximum.accumulate(right[::-1])[::-1]

    # -- geometry --------------------------------------------------------

    def embed(self, arc):
        """Planar coordinates of the backbone point at the given arc."""
        return self._locate(arc)[:2]

    def _locate(self, arc):
        """(x, y, i): the backbone point at ``arc`` and the edge i,
        [arcs[i], arcs[i + 1]], that holds it; the last edge at L, and -1
        on a backbone without edges."""
        arc = min(max(arc, 0.0), self.L)
        i = bisect_right(self.arcs, arc) - 1
        if i >= len(self.arcs) - 1:
            return self.xs[-1], self.ys[-1], i - 1
        span = self.arcs[i + 1] - self.arcs[i]
        lam = (arc - self.arcs[i]) / span
        return ((1 - lam) * self.xs[i] + lam * self.xs[i + 1],
                (1 - lam) * self.ys[i] + lam * self.ys[i + 1], i)

    def chord(self, alpha, beta):
        return self._chord(alpha, beta)[0]

    def _chord(self, alpha, beta):
        """The chord e = |pq|, its slope de/dbeta at fixed alpha and its
        slope de/dalpha at fixed beta.

        The slopes are (Q - P).u_q / e and (P - Q).u_p / e, with u_q and
        u_p the unit directions of the edges that hold q and p, and NaN
        where e = 0.
        """
        if alpha == self._alpha_at[0]:
            xa, ya, j = self._alpha_at[1]
        else:
            xa, ya, j = self._locate(alpha)
            self._alpha_at = (alpha, (xa, ya, j))
        xb, yb, i = self._locate(beta)
        dx, dy = xb - xa, yb - ya
        e = math.hypot(dx, dy)
        if e == 0.0:
            return e, math.nan, math.nan
        return (e, (dx * self._ux[i] + dy * self._uy[i]) / e,
                -(dx * self._ux[j] + dy * self._uy[j]) / e)

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
        """Exact values of the monitored diametral-path families at (p, q),
        with their slopes in beta."""
        e, de, e_da = self._chord(alpha, beta)
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
            xy, xy_branch, xy_db = xy_via, "via", de - 1.0
        else:
            xy, xy_branch, xy_db = self.diam_t, "tree", 0.0

        # The end groups, which the side families and the antipodal family
        # share: h-t left of p and h+t right of q.
        (pre, pre_a), (suf, suf_a) = self.hmt_pre, self.hpt_suf
        m_l, a_l = pre[i_a], pre_a[i_a]              # h-t over t < alpha
        m_r, a_r = suf[i_b], suf_a[i_b]              # h+t over t > beta

        # x-side family: min(tree, via) per pendant, plus x's antipodal.
        fx_anti = self.h_x + alpha + half
        tab, arg = self.hpt_pre                      # tree: t <= pbar
        fx_tree, fx_tree_p = tab[i_pbar] + self.h_x, arg[i_pbar]
        v2, a2 = self.rm_hmt.query(i_pbar, i_b)      # via: pbar <= t <= beta
        v2 = v2 + self.h_x + alpha + e + beta
        v3 = m_r + self.h_x + alpha + e - beta       # via: t >= beta
        fx_via, fx_via_p, fx_via_db = ((v2, a2, 1.0 + de) if v2 >= v3
                                       else (v3, a_r, de - 1.0))
        fx, fx_branch, fx_p, fx_db = fx_anti, "anti", -1, 0.5 * (1.0 + de)
        if fx_tree > fx:
            fx, fx_branch, fx_p, fx_db = fx_tree, "tree", fx_tree_p, 0.0
        if fx_via > fx:
            fx, fx_branch, fx_p, fx_db = fx_via, "via", fx_via_p, fx_via_db

        # y-side family, mirrored.
        fy_anti = self.h_y + (self.L - beta) + half
        tab, arg = self.hmt_suf                      # tree: t >= qbar
        fy_tree, fy_tree_p = tab[i_qbar] + self.h_y + self.L, arg[i_qbar]
        v2, a2 = self.rm_hpt.query(i_a, i_qbar)      # via: alpha <= t <= qbar
        v2 = v2 + self.h_y + (self.L - beta) + e - alpha
        v3 = m_l + self.h_y + (self.L - beta) + e + alpha  # via: t <= alpha
        fy_via, fy_via_p = (v2, a2) if v2 >= v3 else (v3, a_l)
        fy, fy_branch, fy_p, fy_db = fy_anti, "anti", -1, 0.5 * (de - 1.0)
        if fy_tree > fy:
            fy, fy_branch, fy_p, fy_db = fy_tree, "tree", fy_tree_p, 0.0
        if fy_via > fy:
            fy, fy_branch, fy_p, fy_db = fy_via, "via", fy_via_p, de - 1.0

        # Pendant-to-antipodal family; a pendant at t <= beta gains half of
        # q's motion, one past q loses the other half.
        fanti, fanti_p, fanti_db = NEG, -1, math.nan
        if m_l + alpha > fanti:
            fanti, fanti_p, fanti_db = m_l + alpha, a_l, 0.5 * (1.0 + de)
        v, a = self.rm_h.query(i_a, i_b)
        if v > fanti:
            fanti, fanti_p, fanti_db = v, a, 0.5 * (1.0 + de)
        if m_r - beta > fanti:
            fanti, fanti_p, fanti_db = m_r - beta, a_r, 0.5 * (de - 1.0)
        fanti = fanti + half if fanti_p >= 0 else NEG

        diameter = max(xy, fx, fy, self.delta)
        if fanti_p >= 0:
            diameter = max(diameter, fanti)
        return FamilyView(alpha, beta, e, darc, cyc, half, pbar, qbar,
                          xy, xy_branch, fx, fx_branch, fx_p,
                          fy, fy_branch, fy_p, fanti, fanti_p, diameter,
                          xy_db, fx_db, fy_db, fanti_db, e_da)

    # -- exact evaluation -------------------------------------------------

    def pairs(self, alpha, beta, cyc):
        """Longest path in T + pq between two wedges, for arcs alpha <= beta
        and the cycle length ``cyc``, ``chord(alpha, beta) + beta - alpha``.

        A wedge is a pendant.  Pairs on one side of the cycle are joined by
        the tree and read from the prefix tables.  The other pairs meet on
        the cycle, where the wedges left of p and right of q collapse to
        one point each and the shorter way round counts.  With at least
        ``_KERNEL_MIN_WEDGES`` wedges inside the cycle ``_cross_pairs``
        reads them by range maxima in numpy; below that, numpy's fixed
        cost loses to ``_cross_pair_max``'s scan.  -inf with fewer than
        two wedges.
        """
        k = self.k
        i_a, i_b = self._in_cycle(alpha, beta)
        best = float(self.left_pair[i_a - 1]) if i_a > 0 else NEG
        if i_b < k:
            best = max(best, float(self.right_pair[i_b]))
        if i_b - i_a >= _KERNEL_MIN_WEDGES:
            cross = self._cross_pairs(alpha, beta, i_a, i_b, cyc)
        else:
            cross = _cross_pair_max(self._cycle_points(alpha, beta, i_a, i_b),
                                    cyc, cyc / 2.0)
        return max(best, cross)

    def _in_cycle(self, alpha, beta):
        """Pendant bounds (i_a, i_b): left of p is [0, i_a), inside the
        cycle [i_a, i_b), right of q [i_b, k)."""
        i_a = bisect_right(self.t, alpha)
        # Where p = q, a wedge at q is left of p.
        return i_a, max(bisect_left(self.t, beta), i_a)

    def _cycle_points(self, alpha, beta, i_a, i_b):
        """The (cycle position, height) points ``_cross_pair_max`` scans:
        the end group left of p, the wedges inside, the group right of q."""
        t, h, k = self.t, self.h, self.k
        pts = [(0.0, self.hmt_pre[0][i_a] + alpha)] if i_a > 0 else []
        pts += [(t[i] - alpha, h[i]) for i in range(i_a, i_b)]
        if i_b < k:
            pts.append((beta - alpha, self.hpt_suf[0][i_b] - beta))
        return pts

    def _cross_pairs(self, alpha, beta, i_a, i_b, cyc):
        """``_cross_pair_max`` over ``_cycle_points``, by range maxima.

        A wedge pair i < j scores (h-t)_i + (h+t)_j by the tree when
        t_j - t_i <= half, else (h+t)_i + (h-t)_j + cyc round the cycle.
        For every j at once, the tree partners are a window [lo_j, j) and
        the cycle partners the prefix [i_a, lo_j), two sparse-table
        gathers.  The end groups (max h-t left of p, max h+t right of q)
        pair with the wedges and each other by O(1) queries.
        """
        half = cyc / 2.0
        hmt, hpt = self.rm_hmt, self.rm_hpt
        best = NEG
        if i_b - i_a >= 2:
            t = self._t[i_a:i_b]
            lo = np.searchsorted(t, t - half, "left") + i_a
            tree = hmt.gather(lo, np.arange(i_a, i_b))
            tree += hpt.flat[i_a:i_b]       # level 0: the values
            cycle = hpt.gather(i_a, lo)
            cycle += hmt.flat[i_a:i_b]
            best = max(float(tree.max()), float(cycle.max()) + cyc)
        # The end groups, left: u = 0, H = m_l + alpha; right: u = beta -
        # alpha, H = m_r - beta; an empty group is -inf.  The wedges split
        # into tree and cycle partners at pbar for the left group, at qbar
        # for the right one.
        m_l = self.hmt_pre[0][i_a]
        m_r = self.hpt_suf[0][i_b]
        s_l = bisect_right(self.t, alpha + half, i_a, i_b)
        s_r = bisect_left(self.t, beta - half, i_a, i_b)
        return max(best,
                   m_l + hpt.query(i_a, s_l)[0],
                   m_l + 2.0 * alpha + cyc + hmt.query(s_l, i_b)[0],
                   m_r + hmt.query(s_r, i_b)[0],
                   m_r - 2.0 * beta + cyc + hpt.query(i_a, s_r)[0],
                   m_l + m_r + min(0.0, cyc - 2.0 * (beta - alpha)))

    def evaluate(self, alpha, beta):
        """Exact diam(T + pq) for backbone arcs alpha and beta.

        The monitored families cover every path with x or y as an end,
        every antipode and the B-sub-tree floor delta; ``pairs`` covers
        the paths between two wedges.
        """
        if beta < alpha:
            alpha, beta = beta, alpha
        if beta - alpha <= 0.0:
            # p = q: the augmented tree is the tree itself.
            return self.diam_t
        fv = self.families(alpha, beta)
        return max(fv.diameter, self.pairs(alpha, beta, fv.cyc))

    def still_step(self, alpha, beta, val, s_min):
        """The largest step s* such that no compass probe from (alpha,
        beta) at a step in [s_min, s*] evaluates below ``val``; 0 where
        that cannot be shown.

        A probe moves alpha and beta by -s, 0 or +s each, clamped to the
        box 0 <= alpha <= c_arc <= beta <= L as ``_Engine._polish``
        clamps them.  The witnesses are the winning term of each monitored
        family and the delta floor.  Each is the length of a real path in
        T + pq, so at most the diameter wherever its branch holds, and is
        affine in (alpha, beta) plus 0, 1/2 or 1 times the chord: convex
        along a ray on which p and q keep their backbone edges, so above
        its tangent there.  A direction is safe up to s when some witness
        keeps its cell and branch that far and its tangent is at least
        ``val`` at both s_min and s.  The tangent is Clarke's criterion
        along the ray: at a local minimum some active term does not fall
        in any direction.
        """
        if beta - alpha <= 0.0:
            return 0.0
        fv = self.families(alpha, beta)
        e_da, t = fv.e_da, self.t
        xy_via = self.h_x + alpha + fv.e + (self.L - beta) + self.h_y
        # (value, slope in alpha, slope in beta, branch margin): pbar and
        # qbar move at most 2 per unit step, the x-y via route at most 4.
        witnesses = [
            (self.delta, 0.0, 0.0, math.inf),
            (fv.xy, 1.0 + e_da if fv.xy_branch == "via" else 0.0, fv.xy_db,
             abs(self.diam_t - xy_via) / 4.0)]
        j = fv.fx_pendant
        if fv.fx_branch == "anti":
            witnesses.append((fv.fx, 0.5 * (1.0 + e_da), fv.fx_db, math.inf))
        elif fv.fx_branch == "tree":
            witnesses.append((fv.fx, 0.0, 0.0, (fv.pbar - t[j]) / 2.0))
        else:
            witnesses.append((fv.fx, 1.0 + e_da, fv.fx_db,
                              (t[j] - fv.pbar) / 2.0))
        j = fv.fy_pendant
        if fv.fy_branch == "anti":
            witnesses.append((fv.fy, 0.5 * (e_da - 1.0), fv.fy_db, math.inf))
        elif fv.fy_branch == "tree":
            witnesses.append((fv.fy, 0.0, 0.0, (t[j] - fv.qbar) / 2.0))
        else:
            witnesses.append((fv.fy, e_da + (1.0 if t[j] < alpha else -1.0),
                              fv.fy_db, (fv.qbar - t[j]) / 2.0))
        j = fv.fanti_pendant
        if j >= 0:
            witnesses.append((fv.fanti, 0.5 * (e_da + (1.0 if t[j] < alpha
                                                       else -1.0)),
                              fv.fanti_db, math.inf))
        # How far each end can move before it meets a breakpoint, where
        # the cell or the edge under it changes, or a box edge it is not
        # on, where the probes bend.
        room_a = self._room(alpha, 0.0, self.c_arc)
        room_b = self._room(beta, self.c_arc, self.L)
        best = math.inf
        for da in (-1.0, 0.0, 1.0):
            if alpha == (0.0 if da < 0 else self.c_arc):
                da = 0.0                # the probe clamps alpha back
            for db in (-1.0, 0.0, 1.0):
                if beta == (self.c_arc if db < 0 else self.L):
                    db = 0.0
                if not (da or db):
                    continue
                room = min(room_a if da else math.inf,
                           room_b if db else math.inf)
                reach = 0.0
                for w, w_a, w_b, margin in witnesses:
                    slope = da * w_a + db * w_b
                    if w + s_min * slope >= val:
                        far = min(room, margin)
                        if slope < 0.0:
                            far = min(far, (w - val) / -slope)
                        reach = max(reach, far)
                best = min(best, reach)
                if best < s_min:
                    return 0.0
        return best

    def _room(self, arc, lo, hi):
        """Distance from ``arc`` to the nearest breakpoint and to the box
        edges lo and hi that it is not on."""
        bps = self.bps
        i = bisect_left(bps, arc)
        room = min(abs(arc - bps[k]) for k in (i - 1, i)
                   if 0 <= k < len(bps))
        for edge in (lo, hi):
            if edge != arc:
                room = min(room, abs(arc - edge))
        return room

    def evaluate_grid(self, alphas, betas):
        """Vectorized exact evaluation for many placements alpha <= beta.

        Where beta - alpha <= 0 the value is the tree's diameter, as in
        ``evaluate``.  A block of ``_GRID_CHUNK`` placements holds two
        ``chunk x m x m`` float arrays (m = k + 2 entities), so the chunk
        is capped to keep each at 2**22 entries (32 MB).
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
        return np.where(darc > 0.0, np.maximum(best, self.delta), self.diam_t)

    def _embed_many(self, arcs):
        arcs = np.clip(arcs, 0.0, self.L)
        av = np.asarray(self.arcs)
        xs = np.asarray(self.xs)
        ys = np.asarray(self.ys)
        i = np.clip(np.searchsorted(av, arcs, side="right") - 1, 0, len(av) - 2)
        span = av[i + 1] - av[i]
        # A one-vertex backbone has no edge: every arc is its vertex.
        lam = np.divide(arcs - av[i], span, out=np.zeros_like(arcs),
                        where=span > 0.0)
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
