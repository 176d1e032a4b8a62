"""Compressed caterpillar view of a tree seen from its backbone.

Every B-sub-tree collapses to a pendant of known height at its attachment
arc.  Shortcut endpoints are arc positions ``alpha <= beta`` along the
backbone (measured from the endpoint a).  For such shortcuts the
augmented diameter can be evaluated exactly from the pendant data alone.
It is the maximum of two queries.  ``families`` gives the candidate
families tracked by the sweep (x-side, y-side, antipodal, x-y) by three
O(1) range-maximum queries and four reads of prefix and suffix maxima;
they cover every path with x or y as an end and every antipode.  Each
family comes with its winning term (A_alpha, A_beta, k): inside a cell,
where p and q keep their backbone edges and the route its pendant, its
length is w + A_alpha d alpha + A_beta d beta + k de, A in {0, +-1/2,
+-1} and k in {0, 1/2, 1}.  The paper's speed laws are this fact solved
for q; the sweep's balance solves read their slopes from it, and the
polish certificate its witnesses.  Each view also reports what bounds
its cell, and ``cell_end`` where the cell ends along a motion: the
sweep's walks read once per cell.
``pairs`` gives the rest: the longest path between two wedges
(pendants), from prefix tables where the tree joins them on one side of
the cycle, and from range maxima over the wedges inside the cycle
otherwise: for each wedge, one window of tree-route partners and one
prefix of cycle-route partners, read for all wedges at once from the
sparse tables as numpy gathers.  A cycle holding few wedges is scanned
in Python instead, which is cheaper there.  A caller that compares the
value with a floor (``evaluate``, with the families' diameter) passes
it: the gathers run only where an O(1) bound on the pairs inside the
cycle, twice the highest wedge there plus half the cycle, reaches it.

``safe_probes`` is the compass polish's stationarity certificate: the
families' terms, the delta floor and the longest wedge pair, each a
shortest path whose length the cell's term gives near the center, are
read at the polish's own probe points, and a probe where one of them
reaches a given value cannot evaluate below it.

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
from operator import attrgetter

import numpy as np

NEG = float("-inf")
# Placements per block of ``Caterpillar.evaluate_grid``, before its cap.
_GRID_CHUNK = 4096
# Wedges inside the cycle from which ``Caterpillar._cross_pair`` runs its
# numpy kernel rather than the Python scan.  The kernel's fixed cost is about
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
    from ``start[j]``; both are built on first use, since only the cycle
    kernels gather.
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
        self._levels = t
        self.t = [memoryview(level) for level in t]
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
    def flat(self):
        # The levels, then n + 1 entries of -inf that empty windows read.
        return np.concatenate(self._levels + [np.full(self.n + 1, NEG)])

    @cached_property
    def start(self):
        return list(accumulate(map(len, self._levels), initial=0))

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


# The winning terms of ``families``, (A_alpha, A_beta, k): a route's
# length is w + A_alpha d alpha + A_beta d beta + k de while p and q keep
# their backbone edges and no pendant crosses an end, antipode or route
# split.  Each names its route; left and right mean left of p and right of q.
_TREE = (0.0, 0.0, 0.0)         # by the tree alone
_VIA = (1.0, -1.0, 1.0)         # left, through pq, to right
_X_ANTI = (0.5, 0.5, 0.5)       # left, to the cycle point opposite p
_Y_ANTI = (-0.5, -0.5, 0.5)     # right, to the cycle point opposite q
_X_IN = (1.0, 1.0, 1.0)         # left, through pq, back to a cycle wedge
_Y_IN = (-1.0, -1.0, 1.0)       # right, through qp, on to a cycle wedge
_ANTI_IN = (-0.5, 0.5, 0.5)     # a cycle wedge, to its opposite point
_Q_BAR = (0.5, 0.5, -0.5)       # qbar, the cycle point opposite q
# A family's length and winning term on a ``FamilyView``, by its name.
_FAMILY = {name: attrgetter(name, name + "_term")
           for name in ("xy", "fx", "fy", "fanti")}


@dataclass
class FamilyView:
    """Candidate-family values of the monitored diametral-path families.

    Each ``*_term`` is its family's winning term (A_alpha, A_beta, k):
    the length moves by A_alpha d alpha + A_beta d beta + k de while the
    branches, the argmax pendants and the backbone edges under p and q
    stay as they are.  ``de`` is the chord's slope de/dbeta at fixed
    alpha and ``de_alpha`` its slope de/dalpha at fixed beta (at a vertex,
    along the edge below it, toward a), both NaN
    where the chord is 0, so a family's slopes are A_alpha + k de_alpha
    in alpha and A_beta + k de in beta.  ``fanti_term`` is ``_TREE``
    where there is no pendant.  ``cell`` is (i_b, i_pbar, i_qbar), the
    pendant indices that q, pbar and qbar lie between, which with
    ``q_edge`` bound the cell (``Caterpillar.cell_end``).
    """

    alpha: float
    beta: float
    e: float
    de: float
    de_alpha: float
    q_point: tuple          # (x, y) of q
    q_edge: int             # the backbone edge under q, as in ``_locate``
    cyc: float
    pbar: float
    qbar: float
    xy: float
    xy_branch: str          # "via" | "tree"
    xy_term: tuple
    fx: float
    fx_branch: str          # "via" | "tree" | "anti"
    fx_pendant: int         # pendant index or -1
    fx_term: tuple
    fy: float
    fy_branch: str
    fy_pendant: int
    fy_term: tuple
    fanti: float
    fanti_pendant: int
    fanti_term: tuple
    diameter: float         # max of the above and delta
    cell: tuple


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
        # The pendant arcs between -inf and inf, for ``cell_end``.
        self._t_pad = [NEG] + self.t + [math.inf]
        self.h = [s.height for s in sec]
        self.k = len(sec)
        # Vertex and pendant arcs, where the sweep's motion laws change,
        # and the same between -inf and inf.
        self.bps = sorted(set(self.arcs) | set(self.t))
        self.bps_pad = [NEG] + self.bps + [math.inf]
        # The view from b, as a callable returning it or None.  A view
        # built by flip() holds its maker weakly, so that the two form no
        # reference cycle and are freed as soon as they are dropped.
        self._flipped = lambda: None
        # The last alpha ``chord`` embedded, its point and its edge.
        self._alpha_at = (None, None)
        # What the last ``evaluate`` read, (alpha, beta, fv, cross) with
        # the families view and ``_cross_pair``'s result; None where p = q.
        self.last_read = None
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

    def _p_point(self, alpha):
        """``_locate(alpha)``, remembering the last alpha: a walk reads
        many q at one p.  At a vertex p takes the edge below it, along
        which the sweep moves p toward a."""
        if alpha != self._alpha_at[0]:
            x, y, j = self._locate(alpha)
            self._alpha_at = (alpha, (x, y, j - (0 < j and
                                                 alpha == self.arcs[j])))
        return self._alpha_at[1]

    def _chord(self, alpha, beta):
        """(e, de, de_alpha, Q, i): the chord e = |pq|, its slope de/dbeta
        at fixed alpha, (Q - P).u / e with u the unit direction of the
        edge i that holds q, its slope de/dalpha at fixed beta, -(Q -
        P).u_p / e with u_p that of p's edge (both NaN where e = 0), and
        q's point Q."""
        xa, ya, j = self._p_point(alpha)
        xb, yb, i = self._locate(beta)
        dx, dy = xb - xa, yb - ya
        e = math.hypot(dx, dy)
        if e == 0.0:
            return e, math.nan, math.nan, (xb, yb), i
        return (e, (dx * self._ux[i] + dy * self._uy[i]) / e,
                -(dx * self._ux[j] + dy * self._uy[j]) / e, (xb, yb), i)

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
        with their winning terms and the pendant indices that bound their
        cell (``FamilyView.cell``; ``cell_end`` reads where it ends)."""
        e, de, de_alpha, q_point, q_edge = self._chord(alpha, beta)
        cyc = e + (beta - alpha)
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
            xy, xy_branch, xy_term = xy_via, "via", _VIA
        else:
            xy, xy_branch, xy_term = self.diam_t, "tree", _TREE

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
        fx_via, fx_via_p, fx_via_term = ((v2, a2, _X_IN) if v2 >= v3
                                         else (v3, a_r, _VIA))
        fx, fx_branch, fx_p, fx_term = fx_anti, "anti", -1, _X_ANTI
        if fx_tree > fx:
            fx, fx_branch, fx_p, fx_term = fx_tree, "tree", fx_tree_p, _TREE
        if fx_via > fx:
            fx, fx_branch, fx_p, fx_term = fx_via, "via", fx_via_p, fx_via_term

        # y-side family, mirrored.
        fy_anti = self.h_y + (self.L - beta) + half
        tab, arg = self.hmt_suf                      # tree: t >= qbar
        fy_tree, fy_tree_p = tab[i_qbar] + self.h_y + self.L, arg[i_qbar]
        v2, a2 = self.rm_hpt.query(i_a, i_qbar)      # via: alpha <= t <= qbar
        v2 = v2 + self.h_y + (self.L - beta) + e - alpha
        v3 = m_l + self.h_y + (self.L - beta) + e + alpha  # via: t <= alpha
        fy_via, fy_via_p, fy_via_term = ((v2, a2, _Y_IN) if v2 >= v3
                                         else (v3, a_l, _VIA))
        fy, fy_branch, fy_p, fy_term = fy_anti, "anti", -1, _Y_ANTI
        if fy_tree > fy:
            fy, fy_branch, fy_p, fy_term = fy_tree, "tree", fy_tree_p, _TREE
        if fy_via > fy:
            fy, fy_branch, fy_p, fy_term = fy_via, "via", fy_via_p, fy_via_term

        # Pendant-to-antipodal family; a pendant at t <= beta gains half of
        # q's motion, one past q loses the other half.
        fanti, fanti_p, fanti_term = NEG, -1, _TREE
        if m_l + alpha > fanti:
            fanti, fanti_p, fanti_term = m_l + alpha, a_l, _X_ANTI
        v, a = self.rm_h.query(i_a, i_b)
        if v > fanti:
            fanti, fanti_p, fanti_term = v, a, _ANTI_IN
        if m_r - beta > fanti:
            fanti, fanti_p, fanti_term = m_r - beta, a_r, _Y_ANTI
        fanti = fanti + half if fanti_p >= 0 else NEG

        diameter = max(xy, fx, fy, self.delta)
        if fanti_p >= 0:
            diameter = max(diameter, fanti)
        return FamilyView(alpha, beta, e, de, de_alpha, q_point, q_edge,
                          cyc, pbar, qbar, xy, xy_branch, xy_term,
                          fx, fx_branch, fx_p, fx_term,
                          fy, fy_branch, fy_p, fy_term,
                          fanti, fanti_p, fanti_term, diameter,
                          (i_b, i_pbar, i_qbar))

    def cell_end(self, fv, da, db, end=math.inf):
        """The step s at which the cell of the view ``fv`` ends as p and q
        move by s (da, db) in (alpha, beta) along a line; inf where it
        does not end.  The cell ends where q crosses a pendant or
        a vertex, or pbar or qbar a pendant: there a route splits
        elsewhere or a window of a range maximum changes, and with them
        the winning terms and argmax pendants, and where p crosses a
        pendant or a vertex.  pbar and qbar move with the chord: where one
        can reach a pendant before the other bounds, its crossing is the
        root ``line_root`` finds along the line, if any.  A family's
        winner changing inside the cell is a kink the slopes of the reads
        at both ends show.  ``end`` caps the step.
        """
        de = fv.de_alpha * da + fv.de * db          # NaN where e = 0
        tp, bp = self._t_pad, self.bps_pad
        if da:                  # p's next breakpoint that way
            i = bisect_right(bp, fv.alpha) if da > 0.0 else \
                bisect_left(bp, fv.alpha) - 1
            end = min(end, (bp[i] - fv.alpha) / da)
        if db:                  # q's next pendant or vertex that way
            i, j, up = fv.cell[0], fv.q_edge, db > 0.0
            end = min(end, ((min if up else max)(
                tp[i + up], self.arcs[j + up]) - fv.beta) / db)
        # Off its line, the chord bends by at most (|da| + |db|)^2 s^2 / 2e.
        bend = 0.25 * (abs(da) + abs(db)) ** 2 / fv.e if fv.e else math.inf
        for x, r, i, term in (
                (fv.pbar, 0.5 * (da + db + de), fv.cell[1], _X_ANTI),
                (fv.qbar, 0.5 * (da + db - de), fv.cell[2], _Q_BAR)):
            for t in tp[i:i + 2]:
                if abs(t - x) <= (abs(r) * ((t > x) == (r > 0.0))
                                  + bend * end) * end:
                    end = min(end, self.line_root(fv, fv.alpha, x - t, term,
                                                  _TREE, da, db, True))
        return end if end > 0.0 else math.inf

    def turn(self, fv, term, da, db):
        """The step s at which a length of term ``term`` (A_alpha, A_beta,
        k) in the cell of the view ``fv`` stops falling as p and q move by
        s (da, db): where A + k de/ds = 0, e(s) = |D + s W| the chord as in
        ``line_root``; inf where it does not turn ahead.  de/ds rises
        through c = -A / k, where D.W + s |W|^2 = c |D x W| / sqrt(|W|^2 -
        c^2)."""
        (a, b, k), (xa, ya, j), i = term, self._p_point(fv.alpha), fv.q_edge
        dx, dy = fv.q_point[0] - xa, fv.q_point[1] - ya
        wx = db * self._ux[i] - da * self._ux[j]
        wy = db * self._uy[i] - da * self._uy[j]
        w2, c = wx * wx + wy * wy, -(a * da + b * db) / k if k else math.inf
        if not c * c < w2:
            return math.inf
        s = (c * abs(dx * wy - dy * wx) / math.sqrt(w2 - c * c)
             - dx * wx - dy * wy) / w2
        return s if s > 0.0 else math.inf

    def balance_root(self, fv, alpha, u, v):
        """The beta at which the families named ``u`` and ``v`` (fields of
        ``fv``, as "fx" or "xy") balance at ``alpha``, while the cell of the
        view ``fv`` holds; NaN where they do not balance there: the root
        ``line_root`` finds of u - v along beta from (alpha, fv.beta).
        Where q is free (both families tree-routed) the residual is
        constant and there is none.
        """
        (wu, tu), (wv, tv) = _FAMILY[u](fv), _FAMILY[v](fv)
        return fv.beta + self.line_root(fv, alpha, wu - wv, tu, tv, 0.0, 1.0)

    def line_root(self, fv, alpha, r, term, less, da, db, ahead=False):
        """The s at which a length of the cell of the view ``fv`` is 0 at
        (alpha + da s, fv.beta + db s), while the cell holds; NaN where it
        is not 0 there.  The length reads r on ``fv``, a length of term
        ``term`` less one of term ``less``, each (A_alpha, A_beta, k), so
        it moves by their difference (dA_alpha, dA_beta, dk).

        With c the length at (alpha, fv.beta) less dk e there, and a =
        dA_alpha da + dA_beta db, the length is c + a s + dk e(s): e(s) is
        |D + s w| with D = Q(fv.beta) - P(alpha) and w = db u_q - da u_p,
        u_q and u_p the unit directions of the edges under q and p.  Where
        dk = 0 the root is linear in s.  Otherwise squaring dk e = -(c + a
        s), with e(s)^2 = |D|^2 + 2s D.w + s^2 |w|^2, gives one quadratic
        in s; of its roots with e >= 0 the one nearest 0 is kept, or
        ``ahead``, the least above 0.
        """
        (ta, tb, tk), (la, lb, lk) = term, less
        a_alpha, k = ta - la, tk - lk
        c = r + a_alpha * (alpha - fv.alpha)
        a = a_alpha * da + (tb - lb) * db
        if k == 0.0:
            return -c / a if a else math.nan
        c -= k * fv.e
        xa, ya, j = self._p_point(alpha)
        i = fv.q_edge
        dx, dy = fv.q_point[0] - xa, fv.q_point[1] - ya
        e0 = math.hypot(dx, dy)
        du, ww = db * (dx * self._ux[i] + dy * self._uy[i]), db * db
        if da:
            du -= da * (dx * self._ux[j] + dy * self._uy[j])
            ww += da * da - 2.0 * da * db * (
                self._ux[i] * self._ux[j] + self._uy[i] * self._uy[j])
        # k^2 (e0^2 + 2 du s + ww s^2) = (c + a s)^2, as A s^2 + 2 B s + C
        # = 0; C = (k e0 - c) r(0) keeps the length at s = 0 exact.  In
        # units of m = |c| + |k| e0, so that no product of lengths
        # underflows.
        m = abs(c) + abs(k) * e0 or 1.0
        quad, half = k * k * ww - a * a, (k * k * du - a * c) / m
        const = (k * e0 - c) / m * ((c + k * e0) / m)
        disc = half * half - quad * const
        if disc < 0.0:
            return math.nan
        big = -(half + math.copysign(math.sqrt(disc), half))
        roots = [m * const / big] if big else []
        if quad:
            roots.append(m * big / quad)
        for x in sorted((x for x in roots if x > 0.0 or not ahead), key=abs):
            if k * (c + a * x) <= 0.0:      # e(s) = -(c + a s) / k >= 0
                return x
        return math.nan

    # -- exact evaluation -------------------------------------------------

    def pairs(self, alpha, beta, cyc, floor=NEG):
        """Longest path in T + pq between two wedges, for arcs alpha <= beta
        and the cycle length ``cyc``, ``chord(alpha, beta) + beta - alpha``.

        A wedge is a pendant.  Pairs on one side of the cycle are joined by
        the tree and read from the prefix tables (``_same_side_pair``); the
        others meet on the cycle (``_cross_pair``).  -inf with fewer than
        two wedges.  A caller that only compares the value with a threshold
        passes it as ``floor``: the pairs inside the cycle are then read
        only where their bound reaches it (``_cross_pair``), so the value
        is exact where it reaches the floor and below it where it does not.
        """
        i_a, i_b = self._in_cycle(alpha, beta)
        same = self._same_side_pair(i_a, i_b)
        return max(same, self._cross_pair(alpha, beta, i_a, i_b, cyc,
                                          max(same, floor))[0])

    def _in_cycle(self, alpha, beta):
        """Pendant bounds (i_a, i_b): left of p is [0, i_a), inside the
        cycle [i_a, i_b), right of q [i_b, k)."""
        i_a = bisect_right(self.t, alpha)
        # Where p = q, a wedge at q is left of p.
        return i_a, max(bisect_left(self.t, beta), i_a)

    def _same_side_pair(self, i_a, i_b):
        """The longest pair of wedges both left of p or both right of q."""
        best = float(self.left_pair[i_a - 1]) if i_a > 0 else NEG
        if i_b < self.k:
            best = max(best, float(self.right_pair[i_b]))
        return best

    def _cross_pair(self, alpha, beta, i_a, i_b, cyc, floor=NEG):
        """The longest pair that meets on the cycle, as (w, i, j): its
        length and its wedges i < j, where i = -1 stands for the group left
        of p and j = k for the group right of q; (-inf, -1, -1) with fewer
        than two points.

        The wedges left of p and right of q collapse to one point each,
        and the shorter way round counts.  With at least
        ``_KERNEL_MIN_WEDGES`` wedges inside the cycle ``_cross_pairs``
        reads them by range maxima in numpy; below that, numpy's fixed
        cost loses to ``_cross_pair_arg``'s scan of ``_cycle_points``.
        The kernel skips the pairs of two wedges inside the cycle where
        their O(1) bound, twice the highest such wedge plus half the
        cycle, stays below ``floor`` by more than tol, which outweighs the
        rounding of their sums.  Its result is then the best pair with an
        end group, still a real path and so still a witness; where the
        longest pair is inside the cycle, it and the result both lie below
        the floor.
        """
        if i_b - i_a >= _KERNEL_MIN_WEDGES:
            return self._cross_pairs(alpha, beta, i_a, i_b, cyc, floor)
        w, i, j = _cross_pair_arg(self._cycle_points(alpha, beta, i_a, i_b),
                                  cyc, cyc / 2.0)
        if i < 0:
            return w, i, j
        # Point 0 is the left group where there is one, and the point
        # after the wedges the right group.
        first = i_a - 1 if i_a > 0 else i_a
        return (w, -1 if i_a > 0 and i == 0 else first + i,
                self.k if first + j == i_b else first + j)

    def _cycle_points(self, alpha, beta, i_a, i_b):
        """The (cycle position, height) points ``_cross_pair_arg`` scans:
        the end group left of p, the wedges inside, the group right of q."""
        t, h, k = self.t, self.h, self.k
        pts = [(0.0, self.hmt_pre[0][i_a] + alpha)] if i_a > 0 else []
        pts += [(t[i] - alpha, h[i]) for i in range(i_a, i_b)]
        if i_b < k:
            pts.append((beta - alpha, self.hpt_suf[0][i_b] - beta))
        return pts

    def _cross_pairs(self, alpha, beta, i_a, i_b, cyc, floor=NEG):
        """``_cross_pair`` by range maxima.

        The wedges inside the cycle pair with each other in
        ``_wedge_pairs``, where their bound reaches ``floor``; the end
        groups (max h-t left of p, max h+t right of q) pair with the
        wedges and each other by O(1) queries.
        """
        half = cyc / 2.0
        hmt, hpt, k = self.rm_hmt, self.rm_hpt, self.k
        best = [(NEG, -1, -1)]
        # A pair inside scores h_i + h_j + min(d, cyc - d) <= 2 max h + half.
        if i_b - i_a >= 2 and (2.0 * self.rm_h.query(i_a, i_b)[0] + half
                               + self.tree.tol >= floor):
            best += self._wedge_pairs(i_a, i_b, cyc)
        # The end groups, left: u = 0, H = m_l + alpha; right: u = beta -
        # alpha, H = m_r - beta; an empty group is -inf.  The wedges split
        # into tree and cycle partners at pbar for the left group, at qbar
        # for the right one.
        m_l = self.hmt_pre[0][i_a]
        m_r = self.hpt_suf[0][i_b]
        s_l = bisect_right(self.t, alpha + half, i_a, i_b)
        s_r = bisect_left(self.t, beta - half, i_a, i_b)
        v, j = hpt.query(i_a, s_l)
        best.append((m_l + v, -1, j))
        v, j = hmt.query(s_l, i_b)
        best.append((m_l + 2.0 * alpha + cyc + v, -1, j))
        v, i = hmt.query(s_r, i_b)
        best.append((m_r + v, i, k))
        v, i = hpt.query(i_a, s_r)
        best.append((m_r - 2.0 * beta + cyc + v, i, k))
        best.append((m_l + m_r + min(0.0, cyc - 2.0 * (beta - alpha)),
                     -1, k))
        return max(best, key=lambda c: c[0])

    def _wedge_pairs(self, i_a, i_b, cyc):
        """The longest pair of two wedges inside the cycle [i_a, i_b) by
        the tree and the longest round the cycle, each as (w, i, j).

        A wedge pair i < j scores (h-t)_i + (h+t)_j by the tree when
        t_j - t_i <= half, else (h+t)_i + (h-t)_j + cyc round the cycle.
        For every j at once, the tree partners are a window [lo_j, j) and
        the cycle partners the prefix [i_a, lo_j), two sparse-table
        gathers; one query finds the best j's partner.
        """
        hmt, hpt = self.rm_hmt, self.rm_hpt
        t = self._t[i_a:i_b]
        lo = np.searchsorted(t, t - cyc / 2.0, "left") + i_a
        tree = hmt.gather(lo, np.arange(i_a, i_b))
        tree += hpt.flat[i_a:i_b]       # level 0: the values
        cycle = hpt.gather(i_a, lo)
        cycle += hmt.flat[i_a:i_b]
        j, jc = int(tree.argmax()), int(cycle.argmax())
        return [(float(tree[j]), hmt.query(int(lo[j]), i_a + j)[1], i_a + j),
                (float(cycle[jc]) + cyc, hpt.query(i_a, int(lo[jc]))[1],
                 i_a + jc)]

    def evaluate(self, alpha, beta):
        """Exact diam(T + pq) for backbone arcs alpha and beta.

        The monitored families cover every path with x or y as an end,
        every antipode and the B-sub-tree floor delta; ``pairs`` covers
        the paths between two wedges.  The families' diameter and the
        same-side pairs are the floor of ``_cross_pair``: the pairs of two
        wedges inside the cycle are read only where their bound reaches
        it, and where they are skipped they cannot be the maximum.  The
        cross pair kept in ``last_read`` is then the best one with an end
        group.
        """
        if beta < alpha:
            alpha, beta = beta, alpha
        if beta - alpha <= 0.0:
            # p = q: the augmented tree is the tree itself.
            self.last_read = None
            return self.diam_t
        fv = self.families(alpha, beta)
        i_a, i_b = self._in_cycle(alpha, beta)
        floor = max(fv.diameter, self._same_side_pair(i_a, i_b))
        cross = self._cross_pair(alpha, beta, i_a, i_b, fv.cyc, floor)
        self.last_read = (alpha, beta, fv, cross)
        return max(floor, cross[0])

    # The compass directions (d alpha, d beta) of ``_Engine._polish``, in
    # the order in which it probes them.
    COMPASS = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0),
               (1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0))

    _DA, _DB = np.array(COMPASS).T

    def safe_probes(self, alpha, beta, val, steps, read=None):
        """Which compass probes from (alpha, beta) cannot evaluate below
        ``val``: a boolean array over the step levels ``steps``, a column,
        and the ``COMPASS`` directions.

        A probe moves alpha and beta by its step times its direction,
        clamped to the box 0 <= alpha <= c_arc <= beta <= L as
        ``_Engine._polish`` clamps them.  ``read`` is a ``last_read`` of
        ``evaluate``; at (alpha, beta) the witnesses take its families
        view and cross pair instead of reading them again.

        The witnesses (``_witnesses``) are lengths of real shortest paths
        in T + pq, so at most the diameter.  Each is w + A_alpha d alpha +
        A_beta d beta + k de at a probe, with de the chord's change as
        each end moves along the backbone edge it moves along, while both
        ends stay within their rooms (``_sides``), where p and q keep those
        edges and no pendant crosses them, and while the larger end move
        stays within the witness's margin, where it keeps its shortest
        route.  A pendant at p or q itself falls on one side as the end
        moves away; where the witness has it on the other, its arc
        distance to the end is read with the wrong sign, which only
        shortens the witness.  A probe is safe where some witness reads at
        least ``val`` there.  The compass search reads no other points
        (Kolda, Lewis and Torczon, "Optimization by direct search", SIAM
        Review 2003), so the witnesses are read at the probes themselves.
        """
        safe = np.zeros((len(steps), len(self.COMPASS)), dtype=bool)
        if beta - alpha <= 0.0:
            return safe
        # Each end's room and edge direction toward lower and higher arcs.
        sides_a, sides_b = self._sides(alpha), self._sides(beta)
        reach = min(max(sides_a[0][0], sides_a[1][0], sides_b[0][0],
                        sides_b[1][0]), float(steps[-1, 0]))
        # The witnesses that could reach val within reach: a witness moves
        # by at most |A_alpha| + |A_beta| + 2 k a unit step.
        wits = [(w - val, w_a, w_b, k, margin) for w, w_a, w_b, k, margin
                in self._witnesses(alpha, beta, read)
                if w - val + (abs(w_a) + abs(w_b) + 2.0 * k) * min(
                    margin, reach) >= 0.0]
        if not wits:
            return safe
        g, w_a, w_b, k, margin = np.array(wits).T[:, :, None, None]
        # The end moves: the step, or the way to the box edge it clamps at.
        # The probe's float position can differ from these by an ulp, far
        # inside the polish's acceptance margin of 1e-15 L.
        da = np.minimum(np.maximum(steps * self._DA, -alpha),
                        self.c_arc - alpha)
        db = np.minimum(np.maximum(steps * self._DB, self.c_arc - beta),
                        self.L - beta)
        # Per direction, each end's room and edge on the side it moves to.
        room_a, upx, upy, room_b, uqx, uqy = np.array(
            [(*sides_a[a > 0], *sides_b[b > 0]) for a, b in self.COMPASS]).T
        xa, ya, _ = self._p_point(alpha)
        xb, yb, _ = self._locate(beta)
        dx, dy = xb - xa, yb - ya
        de = np.hypot(dx + (db * uqx - da * upx),
                      dy + (db * uqy - da * upy)) - math.hypot(dx, dy)
        da_abs, db_abs = np.abs(da), np.abs(db)
        holds = (g + w_a * da + w_b * db + k * de >= 0.0) & (
            np.maximum(da_abs, db_abs) <= margin)
        return holds.any(axis=0) & (da_abs <= room_a) & (db_abs <= room_b)

    def _witnesses(self, alpha, beta, read=None):
        """The certificate's witnesses at (alpha, beta):
        (w, A_alpha, A_beta, k, margin), a path of length w that
        moves as A_alpha alpha + A_beta beta + k e, and stays a shortest
        path while the ends move by less than ``margin``.

        They are the delta floor, the winning term of each monitored
        family (``families``) and, where ``pairs`` is within tol of the
        families, the longest wedge-wedge path (``_pair_witnesses``).  A
        side family's pendant keeps its route until pbar (x side) or qbar
        (y side) reaches it, and those move at most 2 per unit step; the
        x-y family keeps its route until the via route meets the tree's
        diameter, and their gap moves at most 4.  The rest keep theirs.
        A ``read`` of ``evaluate`` at (alpha, beta) gives the families
        view and the cross pair; one at another point is ignored.
        """
        if read is not None and read[:2] == (alpha, beta):
            fv, cross = read[2:]
        else:
            fv, cross = self.families(alpha, beta), None
        t = self.t
        xy_via = self.h_x + alpha + fv.e + (self.L - beta) + self.h_y
        out = [(self.delta, *_TREE, math.inf),
               (fv.xy, *fv.xy_term, abs(self.diam_t - xy_via) / 4.0)]
        for w, term, j, bar in ((fv.fx, fv.fx_term, fv.fx_pendant, fv.pbar),
                                (fv.fy, fv.fy_term, fv.fy_pendant, fv.qbar)):
            out.append((w, *term, abs(bar - t[j]) / 2.0 if j >= 0
                        else math.inf))
        if fv.fanti_pendant >= 0:
            out.append((fv.fanti, *fv.fanti_term, math.inf))
        if self.k >= 2:
            out += self._pair_witnesses(alpha, beta, fv.cyc,
                                        fv.diameter - self.tree.tol, cross)
        return out

    def _pair_witnesses(self, alpha, beta, cyc, floor, cross=None):
        """The wedge pairs behind ``pairs`` as witnesses, in the form of
        ``_witnesses``, where ``pairs`` is at least ``floor``; else none.
        ``cross`` is ``_cross_pair``'s result at (alpha, beta) where the
        caller has it.

        A pair joined by the tree on one side of the cycle has a constant
        length while no wedge crosses p or q, which the room prevents.  A
        wedge at p or q itself enters the cycle as that end moves away,
        so these pairs leave it out.  The argmax pair on the cycle
        (``_cross_pair``) takes its shorter route: by the tree, constant,
        or round the cycle, affine with slopes +-1 in alpha and beta plus
        the chord; there a wedge at p or q that enters the cycle only
        lengthens the route.  The gap to the other route moves at most 4
        per unit step.
        """
        k, t = self.k, self.t
        i_a, i_b = self._in_cycle(alpha, beta)
        w, i, j = cross or self._cross_pair(alpha, beta, i_a, i_b, cyc)
        if max(w, self._same_side_pair(i_a, i_b)) < floor:
            return []
        out = []
        n = bisect_left(t, alpha)           # the wedges left of p
        if n >= 2:
            out.append((float(self.left_pair[n - 1]), 0.0, 0.0, 0.0,
                        math.inf))
        n = bisect_right(t, beta)           # the first wedge right of q
        if n <= k - 2:
            out.append((float(self.right_pair[n]), 0.0, 0.0, 0.0, math.inf))
        if w > NEG:
            # Cycle positions: the left group at p, the right one at q.
            d = (beta - alpha if j == k else t[j] - alpha) - (
                0.0 if i < 0 else t[i] - alpha)
            margin = abs(cyc - 2.0 * d) / 4.0
            if d <= cyc / 2.0:
                out.append((w, 0.0, 0.0, 0.0, margin))
            else:
                # Round the cycle: a wedge inside it is left behind by p
                # and approached by q; the end groups move with p and q.
                out.append((w, 1.0 if i < 0 else -1.0,
                            -1.0 if j == k else 1.0, 1.0, margin))
        return out

    def _sides(self, arc):
        """(room, ux, uy) of a shortcut end at ``arc`` moving toward lower
        arcs, then toward higher ones: the distance to the next breakpoint
        that way, where the cell or the edge under it changes, and the
        unit direction of the backbone edge it moves along."""
        bps, arcs = self.bps, self.arcs
        i, j = bisect_left(bps, arc), bisect_right(bps, arc)
        down = max(bisect_left(arcs, arc) - 1, 0)
        up = min(bisect_right(arcs, arc) - 1, len(self._ux) - 1)
        return ((arc - (bps[i - 1] if i else NEG), self._ux[down],
                 self._uy[down]),
                ((bps[j] if j < len(bps) else math.inf) - arc, self._ux[up],
                 self._uy[up]))

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


def _cross_pair_arg(pts, cyc, half):
    """Max over point pairs on the cycle of H_i + H_j + cycle distance,
    with its argmax: (max, i, j), the indices i < j into `pts` of a pair
    that attains it; (-inf, -1, -1) with fewer than two points.

    `pts` is a list of (cycle position on the tree arc, height), sorted by
    position, all positions distinct groups; the cycle distance is the
    shorter way around.  Runs in O(len(pts)) with a sliding-window max.
    """
    best, at = NEG, (-1, -1)
    win = deque()   # indices, decreasing H - u (tree-route window)
    prefix_best, prefix_at = NEG, -1  # max of H + u left of the window
    lo = 0
    for j in range(len(pts)):
        uj, hj = pts[j]
        # Window: points i < j with uj - ui <= half use the tree route.
        while lo < j and uj - pts[lo][0] > half:
            if win and win[0] == lo:
                win.popleft()
            if pts[lo][1] + pts[lo][0] > prefix_best:
                prefix_best, prefix_at = pts[lo][1] + pts[lo][0], lo
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
                val = pts[win[0]][1] - pts[win[0]][0] + hj + uj
                if val > best:
                    best, at = val, (win[0], j)
            if prefix_best > NEG:
                val = prefix_best + hj - uj + cyc
                if val > best:
                    best, at = val, (prefix_at, j)
    return best, *at
