"""Three-phase event-driven search for an optimal shortcut.

Phase I out-shifts the shortcut from the degenerate placement at the
absolute center, shrinking the x-y diametral paths at unit speed, until
a second family of diametral paths appears; its conditions never
decrease, so that is one root of their maximum, found without a walk.
Phase II shifts sideways (toward x or toward y, branching on an
antipodal tie) while a balance equation re-derives the trailing
endpoint.  Phase III out-shifts while balancing the x-side against the
y-side families, with the x-component frozen while a tree-routed
pendant path is diametral.  Each phase-III run keeps the trajectory it
walked and finishes with a binary search on it for the first placement
where a wedge-shortcut-wedge path becomes diametral, then an ITP root
inside the bracketing step; the wedge path's length comes from the
caterpillar's range-maximum tables (``Caterpillar.wedge``), not SMAWK.

Phases II and III run from one depth-first work list (``_Engine.run``):
no phase calls another; each returns the tasks that follow it, and a
juncture is continued from one balance solve started at the juncture.
Every motion of phases II and III is one walk, ``_Engine._drive``: drive
one endpoint across the backbone breakpoints, let a balance equation
carry the other, and stop at the first event.  Continuous motion is
realized by root-finding on monotone balance and condition functions
rather than closed-form trajectories; events are located by sign
probing, then by ITP root finding (bisection safeguarded by regula falsi)
inside the bracketing probe interval.  The phases note candidate
placements (terminals, junctures, interior minima, segment ends, the
wedge crossing) in one list; every one is evaluated exactly and the best
is polished by a compass search.  ``OptimizeResult.events`` is the
inspectable trace of a run.  Recording (``record_segments``, off by
default) re-probes the walk to fill the motion segments and the
phase-III diagnostic count; it never steers the sweep.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import groupby

from .augmented_eval import has_useful_shortcut
from .caterpillar import Caterpillar, NEG
from .diameter_core import backbone
from .errors import NoRootInBracket
from .tree_model import Shortcut

__all__ = [
    "Event", "SpeedLaw", "OptimizeResult", "MotionSegment", "optimize",
    "balance_solve", "SPEED_LAWS",
]


@dataclass(frozen=True)
class SpeedLaw:
    """A balance row: trailing-endpoint speed and diameter change.

    Arguments of the callables: d = d_T(p, p') of the driven endpoint and
    de = |pq| - |p'q'|; they return d_T(q, q') and the diameter decrease.
    """

    name: str
    table: int
    dq: object
    ddiam: object


def _laws():
    t1 = {
        "via": SpeedLaw("x-shortcut-wedge", 1,
                        lambda d, de: 0.0, lambda d, de: d + de),
        "anti": SpeedLaw("x-antipodal", 1,
                         lambda d, de: (d + de) / 3.0,
                         lambda d, de: 2.0 * (d + de) / 3.0),
        "tree": SpeedLaw("x-tree-wedge", 1,
                         lambda d, de: d + de, lambda d, de: 0.0),
        "anti-balance": SpeedLaw("wedge-interior", 1,
                                 lambda d, de: d + de / 3.0,
                                 lambda d, de: 2.0 * de / 3.0),
    }
    t2 = {
        ("via", "via"): ("via-via", lambda d, de: d, lambda d, de: de),
        ("via", "anti"): ("via-anti", lambda d, de: d + de / 3.0,
                          lambda d, de: 2.0 * de / 3.0),
        ("via", "tree"): ("via-tree", lambda d, de: d + de,
                          lambda d, de: 0.0),
        ("anti", "via"): ("anti-via", lambda d, de: d - de / 3.0,
                          lambda d, de: 2.0 * de / 3.0),
        ("anti", "anti"): ("anti-anti", lambda d, de: d,
                           lambda d, de: de / 2.0),
        ("anti", "tree"): ("anti-tree", lambda d, de: d + de,
                           lambda d, de: 0.0),
        ("tree", "via"): ("tree-via", lambda d, de: d - de,
                          lambda d, de: 0.0),
        ("tree", "anti"): ("tree-anti", lambda d, de: d - de,
                           lambda d, de: 0.0),
        ("tree", "tree"): ("tree-tree", lambda d, de: d,
                           lambda d, de: 0.0),
    }
    laws = {("t1", key): law for key, law in t1.items()}
    for key, (name, dq, dd) in t2.items():
        laws[("t2",) + key] = SpeedLaw(name, 2, dq, dd)
    return laws


SPEED_LAWS = _laws()

# Balance residuals: the named family pair is in balance where g = 0.
_PAIR_GAP = {
    "x-xy": lambda fv: fv.fx - fv.xy,
    "anti-xy": lambda fv: fv.fanti - fv.xy,
    "anti-y": lambda fv: fv.fanti - fv.fy,
    "x-y": lambda fv: fv.fx - fv.fy,
}


def itp_root(fn, lo, hi, eps, flo=None, fhi=None):
    """First point in [lo, hi] where fn >= 0, given fn(lo) < 0 <= fn(hi).

    Returns the right end of a bracket of width at most eps (up to
    rounding), after at most ceil(log2((hi - lo) / eps)) + 1 and never
    more than 80 evaluations.  With the end values ``flo``/``fhi``
    supplied this is the ITP method (Oliveira and Takahashi, ACM TOMS
    2020): a regula-falsi point, truncated toward the midpoint and
    projected into a ball around it whose radius keeps the bracket within
    one step of bisection's; on smooth or piecewise-linear functions it
    needs far fewer steps.  Without usable end values, or while a bracket
    value is infinite, the step is the midpoint.

    The truncation is k1 * w**2 with k1 = 0.002 / width, two orders of
    magnitude below the usual 0.2 / width.  The sweep's residuals are
    piecewise linear, so the regula-falsi point is usually within
    rounding of the root; pushing it a fifth of the bracket toward the
    midpoint threw most of that away and cost a near-linear balance 6-8
    steps.  The worst case is bounded by the projection radius, which
    does not depend on k1.
    """
    width = hi - lo
    if width <= eps:
        return hi
    if flo is None or fhi is None or not flo < 0.0 <= fhi:
        flo = fhi = None
    # ITP parameters k1 = 0.002 / width, k2 = 2, n0 = 1.  After step j the
    # bracket is at most eps * 2**(n_max - j - 1) wide.
    n_max = math.ceil(math.log2(width / eps)) + 1
    k1 = 0.002 / width
    for j in range(min(n_max, 80)):
        if hi - lo <= eps:
            break
        mid = 0.5 * (lo + hi)
        x = mid
        if flo is not None and math.isfinite(flo) and math.isfinite(fhi):
            half = 0.5 * (hi - lo)
            xf = (fhi * lo - flo * hi) / (fhi - flo)
            # Truncation by at least eps/4 (as in Brent's method) lands the
            # next point across a root that regula falsi has already
            # pinned, so the far bracket end closes in one step.
            w = hi - lo
            # w ** 2 raises OverflowError beyond about 1.3e154.  The two
            # forms can round differently, so w ** 2 stays below 1e150.
            delta = max(k1 * w * w if w >= 1e150 else k1 * w ** 2,
                        0.25 * eps)
            diff = mid - xf
            xt = xf + math.copysign(delta, diff) if delta <= abs(diff) else mid
            r = max(0.5 * eps * 2.0 ** (n_max - j) - half, 0.0)
            x = xt if abs(xt - mid) <= r else mid - math.copysign(r, diff)
            if not lo < x < hi:
                x = mid
        fx = fn(x)
        if fx >= 0.0:
            hi = x
            fhi = fx if flo is not None else None
        else:
            lo = x
            flo = fx if flo is not None else None
    return hi


@dataclass(frozen=True)
class Event:
    kind: str
    phase: str
    p_arc: float          # arc of p from a
    q_arc: float          # arc of q from b
    diameter: float
    payload: tuple = ()


@dataclass(frozen=True)
class MotionSegment:
    """A stretch of continuous motion between events with one speed law.

    ``probes`` holds (p_arc, q_arc, chord, diameter) samples along the
    motion in the coordinates of the frame the segment was swept in
    (``flipped`` mirrors x and y ends).
    """

    phase: str
    law: object
    flipped: bool
    probes: tuple


@dataclass(frozen=True)
class OptimizeResult:
    """The shortcut ``optimize`` found and how the sweep reached it.

    ``p_arc`` and ``q_arc`` place the shortcut's ends by their arcs from
    a and from b.  ``phase_end`` is "degenerate" when no shortcut helps,
    "I" when phase I ends the run, and "III" when phase III runs on the
    main chain: straight after phase I, or after the x-xy shift that
    phase I hands off to.  Otherwise it is "II", also when phase III runs
    from a juncture of phase II.  ``events`` is the trace, at most
    400 + 80n events, and ``event_count`` its length.  ``segments`` and
    ``diagnostic_phase3_changes`` are filled only when recording.
    """

    shortcut: Shortcut
    diameter_before: float
    diameter_after: float
    useful: bool
    events: tuple
    phase_end: str
    p_arc: float
    q_arc: float
    segments: tuple
    event_count: int
    diagnostic_phase3_changes: int


class _WarmStart:
    """What a run of balance solves knows about q's motion.

    ``alpha``/``beta`` is the last solution (``alpha`` is None before the
    first), ``slope`` the secant d beta / d alpha through the solution
    before it, and ``step`` the first step of the bracket expansion: twice
    the last correction |beta - guess|, at least ``floor``.  Between
    events every speed law is linear in d and de, so the secant guess is
    the law's first-order prediction of q, whichever law holds.  A solve
    that accepts its guess leaves the step as it was: its correction is
    below what the residual resolves, not zero.
    """

    __slots__ = ("alpha", "beta", "slope", "step", "floor")

    def __init__(self, beta, step, floor):
        self.alpha, self.beta, self.slope = None, beta, 0.0
        self.step, self.floor = step, floor

    def guess(self, alpha):
        if self.alpha is None:
            return self.beta
        return self.beta + self.slope * (alpha - self.alpha)

    def update(self, alpha, beta, guess):
        """Record the solution ``beta`` at ``alpha``, solved from ``guess``.

        Solutions closer in alpha than 64 floors give no secant: their
        rounding would swamp it.
        """
        if (self.alpha is not None
                and abs(alpha - self.alpha) > 64.0 * self.floor):
            self.slope = (beta - self.beta) / (alpha - self.alpha)
        self.alpha, self.beta = alpha, beta
        if beta != guess:
            self.step = max(2.0 * abs(beta - guess), self.floor)

    def save(self):
        return self.alpha, self.beta, self.slope, self.step

    def restore(self, saved):
        self.alpha, self.beta, self.slope, self.step = saved


# ---------------------------------------------------------------------------


class _Engine:
    PROBES = 6

    def __init__(self, tree, decomp, record_segments=False):
        self.tree = tree
        self.cat = Caterpillar(tree, decomp)
        self.tol = tree.tol
        self.eps = 1e-12 * tree.scale
        # The residual a balance solve accepts at its guess.
        self.accept = 1e-3 * self.tol
        self.record_segments = record_segments
        self.events = []
        self.segments = []
        self.candidates = []       # (a, b, tag), in base coordinates
        self.diag_count = 0
        self.best_seen = math.inf
        self._junctures = set()
        self.phase_end = "phase1"
        self.event_cap = 400 + 80 * tree.n
        self._recent = {}

    # -- utilities -------------------------------------------------------

    @staticmethod
    def _mirror(frame, a, b):
        """The placement (a, b) of ``frame`` as seen from its flip."""
        return frame.flip(), frame.L - b, frame.L - a

    def _to_base(self, frame, a, b):
        return (a, b) if frame is self.cat else self._mirror(frame, a, b)[1:]

    def emit(self, kind, phase, frame, a, b, fv=None, payload=()):
        if len(self.events) >= self.event_cap:
            return
        ab, bb = self._to_base(frame, a, b)
        # Events carry the monitored family value; cross pairs and wedge
        # paths that the sweep deliberately ignores are reconciled when
        # candidates are re-evaluated exactly.
        if fv is None:
            fv = self.families(frame, a, b)
        d = fv.diameter
        if self.events:
            last = self.events[-1]
            if (last.kind == kind and abs(last.p_arc - ab) <= self.eps
                    and abs(last.q_arc - (self.cat.L - bb)) <= self.eps):
                return
        self.events.append(Event(kind, phase, ab, self.cat.L - bb, d, payload))

    def _novel_juncture(self, frame, a, b, tag):
        """Whether a continuation from this tied position was not yet run.

        Junctures can chain into each other; deduplicating by position
        keeps the exploration finite.
        """
        ab, bb = self._to_base(frame, a, b)
        g = 1e-7 * self.tree.scale
        key = (tag, round(ab / g), round(bb / g))
        if key in self._junctures:
            return False
        self._junctures.add(key)
        return True

    def note_candidate(self, frame, a, b, tag):
        self.candidates.append((*self._to_base(frame, a, b), tag))

    def _terminal(self, phase, frame, fv, payload, tag):
        """A terminal event at the placement of ``fv``, noted as a
        candidate under ``tag``."""
        self.emit("terminal", phase, frame, fv.alpha, fv.beta, fv, payload)
        self.note_candidate(frame, fv.alpha, fv.beta, tag)

    def note_if_better(self, frame, a, b, dval, tag):
        """Record a candidate only when it improves the monitored best."""
        if dval < self.best_seen - 1e-12 * self.tree.scale:
            self.best_seen = dval
            self.note_candidate(frame, a, b, tag)

    def families(self, frame, alpha, beta):
        """``frame.families(alpha, beta)``, remembering the last few points.

        The sweep often re-reads a point it has just evaluated: a balance
        solve ends on a point its root finder probed, and a segment's
        first probe is the previous segment's last.  The sweep runs in
        two frames, the caterpillar and its flip, so the key records which.
        """
        key = (frame is self.cat, alpha, beta)
        fv = self._recent.get(key)
        if fv is None:
            if len(self._recent) >= 16:
                self._recent.clear()
            fv = self._recent[key] = frame.families(alpha, beta)
        return fv

    def ties(self, fv):
        d = fv.diameter
        out = set()
        if fv.xy >= d - self.tol:
            out.add("xy")
        if fv.fx >= d - self.tol:
            out.add("x")
        if fv.fy >= d - self.tol:
            out.add("y")
        if fv.fanti_pendant >= 0 and fv.fanti >= d - self.tol:
            out.add("anti")
        return out

    def _record_lawful(self, phase, frame, states, d_active, sig_fn, law_fn):
        """Split probe states into constant-signature runs with a law.

        A run qualifies when the achieving-path signature is identical at
        every probe, the balance is not parked, and the monitored
        diameter equals the exact diameter at the run ends (the tied
        families really are diametral).
        """
        parked_at = frame.L - 64.0 * self.eps
        runs = groupby((fv for _, fv in states),
                       key=lambda fv: (sig_fn(fv), fv.beta >= parked_at))
        for (_, parked), run in runs:
            fvs = list(run)
            if parked or len(fvs) < 3:
                continue
            law = law_fn(fvs[len(fvs) // 2])
            if law is None or any(
                    abs(frame.evaluate(fv.alpha, fv.beta) - d_active(fv))
                    > 1e-9 * self.tree.scale for fv in (fvs[0], fvs[-1])):
                continue
            probes = tuple((fv.alpha, fv.beta, fv.e, d_active(fv))
                           for fv in fvs)
            self.segments.append(
                MotionSegment(phase, law, frame is not self.cat, probes))

    # -- balance ---------------------------------------------------------

    def _residual(self, frame, alpha, pair):
        """g(beta) whose root balances the family pair at this alpha."""
        gap = _PAIR_GAP[pair]
        return lambda beta: gap(self.families(frame, alpha, beta))

    def balance(self, frame, alpha, warm, pair):
        """Solve for beta keeping the named family pair in balance.

        The solve starts from the secant guess of the ``_WarmStart``
        ``warm``, expands the bracket from its step, and records the
        solution in it.
        """
        lo_lim = max(alpha, frame.c_arc)
        hi_lim = frame.L
        g = self._residual(frame, alpha, pair)
        guess = min(max(warm.guess(alpha), lo_lim), hi_lim)
        beta = self._solve(g, guess, warm.step, lo_lim, hi_lim)
        warm.update(alpha, beta, guess)
        return beta

    def _warm(self, frame, b0):
        """A warm start at q = b0 that knows nothing of q's motion yet: no
        secant, and a first step of 1e-4 * L."""
        return _WarmStart(b0, max(64.0 * self.eps, 1e-4 * frame.L),
                          64.0 * self.eps)

    def _solve(self, g, guess, step, lo_lim, hi_lim):
        """The root of g that stepping away from the guess brackets, or
        the limit reached without a sign change."""
        gv = g(guess)
        if abs(gv) <= self.accept:
            return guess
        # Step away from the guess, downward where g > 0, by growing steps
        # until g changes sign or the bracket limit is reached.
        d, lim = (-1.0, lo_lim) if gv > 0.0 else (1.0, hi_lim)
        near, gnear = guess, gv
        far = max(lo_lim, min(hi_lim, guess + d * step))
        gfar = g(far)
        while far != lim and d * gfar < 0.0:
            step *= 4.0
            near, gnear = far, gfar
            far = max(lo_lim, min(hi_lim, far + d * step))
            gfar = g(far)
        if d * gfar < 0.0:
            return lim
        (lo, glo), (hi, ghi) = sorted([(near, gnear), (far, gfar)])
        return itp_root(g, lo, hi, self.eps, glo, ghi)

    def _continuation(self, handler, frame, a, b, pair):
        """The task that continues from the juncture (a, b) of ``frame``
        with ``pair`` in balance, under the juncture tag ``pair``.

        q is one balance solve started at the juncture's q; there is no
        task where the solve stops at a bracket limit short of a root.
        """
        beta = self.balance(frame, a, self._warm(frame, b), pair)
        if (beta in (max(a, frame.c_arc), frame.L) and abs(
                _PAIR_GAP[pair](self.families(frame, a, beta))) > self.accept):
            return []
        return [(handler, frame, a, beta, pair, {})]

    # -- generic segment scanning ----------------------------------------

    def _scan(self, state_at, s0, s1, conds):
        """Find condition crossings in (s0, s1].

        Returns (hits, states) where hits is a list of (s, name) sorted by
        s for conditions whose value crosses from negative to >= 0, and
        states the probe evaluations [(s, fv)].
        """
        p = self.PROBES
        ss = [s0 + (s1 - s0) * i / p for i in range(p + 1)]
        states = [(s, state_at(s)) for s in ss]
        hits = []
        for name, fn in conds:
            prev_s, prev_v = states[0][0], fn(states[0][1])
            if prev_v >= 0.0:
                hits.append((s0, name))
                continue
            for s, fv in states[1:]:
                v = fn(fv)
                if prev_v < 0.0 <= v:
                    sc = itp_root(lambda x: fn(state_at(x)), prev_s, s,
                                  self.eps, prev_v, v)
                    hits.append((sc, name))
                    break
                prev_s, prev_v = s, v
        hits.sort()
        return hits, states

    def _reprobe(self, seg, span, warm, start):
        """The stretch [0, span] at 24 points.

        q's balance starts from the warm-start state the scan started from
        (``start``, saved from ``warm``), and the state the scan left is
        restored: the walk never sees this.
        """
        if warm is not None:
            left = warm.save()
            warm.restore(start)
        states = [(s, seg(s)) for s in (span * i / 24 for i in range(25))]
        if warm is not None:
            warm.restore(left)
        return states

    def _diag_probe(self, frame, states):
        """Count unsuppressed routing flips: every pendant whose antipodal
        boundary crossing re-routes its diametral path would be a
        processed event without the freeze rule."""
        prev = None
        for _, fv in states:
            ip = bisect_right(frame.t, fv.pbar)
            iq = bisect_left(frame.t, fv.qbar)
            sig = (ip, iq, fv.fx_branch, fv.fy_branch)
            if prev is not None:
                self.diag_count += abs(sig[0] - prev[0]) + abs(sig[1] - prev[1])
                if sig[2:] != prev[2:]:
                    self.diag_count += 1
            prev = sig

    def _interior_min(self, state_at, s0, s1, key):
        """Golden-section minimum of key(state) over [s0, s1]: (s, state).

        Coarse stopping width: minima located here are only candidate
        seeds for the exact compass refinement at the end of the run.
        """
        gr = (math.sqrt(5.0) - 1.0) / 2.0
        stop = max(self.eps, 1e-4 * (s1 - s0))
        a, b = s0, s1
        c = b - gr * (b - a)
        d = a + gr * (b - a)
        fc, fd = key(state_at(c)), key(state_at(d))
        for _ in range(48):
            if b - a <= stop:
                break
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - gr * (b - a)
                fc = key(state_at(c))
            else:
                a, c, fc = c, d, fd
                d = a + gr * (b - a)
                fd = key(state_at(d))
        s = 0.5 * (a + b)
        return s, state_at(s)

    # -- phase I ---------------------------------------------------------

    def phase1(self):
        """Out-shift p = c - t, q = c + t until a second family ties.

        No probing is needed: every condition is non-decreasing in t,
        because the x-y family shrinks at least as fast as each other
        family.  While both ends move, alpha + beta = 2c and the chord
        cancels in each gap; while one end is parked, |de/dt| <= 1.  The
        first crossing is therefore the one root of the maximum of the
        conditions, found by ITP.  The vertex, midpoint and threshold
        events below it are read off one sorted list of stops.
        """
        cat = self.cat
        c, L = cat.c_arc, cat.L
        t_end = max(c, L - c)
        pos = lambda t: (max(0.0, c - t), min(L, c + t))
        state_at = lambda t: self.families(cat, *pos(t))
        # In sorted order: a hit is named after the first that holds.
        conds = [
            ("antipodal", lambda fv: (fv.fanti - fv.xy)
             if fv.fanti_pendant >= 0 else NEG),
            ("delta-floor", lambda fv: cat.delta + self.tol - fv.xy),
            ("x-side", lambda fv: fv.fx - fv.xy),
            ("y-side", lambda fv: fv.fy - fv.xy),
        ]

        fv = state_at(0.0)
        if self.ties(fv) - {"xy"}:
            return "tie", 0.0
        g = lambda t: max(fn(state_at(t)) for _, fn in conds)
        g0, g_end = g(0.0), g(t_end)
        tc = 0.0 if g0 >= 0.0 else t_end
        if g0 < 0.0 <= g_end:
            tc = itp_root(g, 0.0, t_end, self.eps, g0, g_end)
        name = next((nm for nm, fn in conds if fn(state_at(tc)) >= 0.0), None)

        stops = [(abs(arc - c), "vertex-p" if arc < c else "vertex-q", (arc,))
                 for arc in cat.arcs if abs(arc - c) > self.eps]
        for i, (tj, hj) in enumerate(zip(cat.t, cat.h)):
            u, v = (tj + hj - cat.h_x) / 2.0, (L + cat.h_y + tj - hj) / 2.0
            if 0.0 < u < c:
                stops.append((c - u, "midpoint", ("midpoint-p", i)))
            if c < v < L:
                stops.append((v - c, "midpoint", ("midpoint-q", i)))
        # Sorted by t alone, so that labels at one t keep this order.
        stops = [s for s in sorted(stops, key=lambda s: s[0])
                 if name is None or s[0] < tc]
        # A stop emits the thresholds xy crosses in (t0, t1], skipping any
        # above xy(0), then its label; the last stop, at tc, has none.
        thresholds = sorted((cat.h_x + tj + hj
                             for tj, hj in zip(cat.t, cat.h)), reverse=True)
        i, t0 = sum(thr > fv.xy for thr in thresholds), 0.0
        for t1, kind, payload in stops + [(tc, None, ())]:
            d0, fv = fv.xy, state_at(t1)
            while i < len(thresholds) and thresholds[i] > fv.xy:
                thr = thresholds[i]
                tx = itp_root(lambda t: thr - state_at(t).xy, t0, t1,
                              self.eps, thr - d0, thr - fv.xy)
                self.emit("threshold", "I", cat, *pos(tx), state_at(tx),
                          (thr,))
                i += 1
            if kind is not None:
                self.emit(kind, "I", cat, *pos(t1), fv, payload)
            t0 = t1

        a, b = pos(tc)
        if name is None:
            self._terminal("I", cat, fv, ("parked-ab",), "phase1-ab")
            return "ab", t_end
        if name == "delta-floor":
            self._terminal("I", cat, fv, ("delta-floor",), "delta-floor")
            return "delta", tc
        self.emit("path-state", "I", cat, a, b, fv, (name,))
        return "tie", tc

    # -- the walk shared by phases II and III -----------------------------

    def _drive(self, phase, frame, state_at, x0, end, conds, d_active,
               drive_q=False, soft=(), law=None, dip=None, track=None,
               warm=None):
        """Drive one endpoint from x0 to end; stop at the first event.

        ``state_at(x)`` gives the families with the driven endpoint (p, or
        q when ``drive_q``) at x; the other endpoint follows its balance
        equation or stays put.  The motion is cut at the breakpoints of
        the frame and each stretch is probed for the conditions ``conds``.
        Returns (name, x, fv) at the first crossing, else (None, x, None)
        once x has reached end.

        Along the way the walk reports branch changes of the ``soft``
        conditions, records the motion segments that obey
        ``law = (sig_fn, law_fn)``, and seeds a candidate at the minimum
        inside each stretch (``dip``): of the chord e ("e"), or of the
        active diameter where a Lipschitz bound on the probes leaves room
        to beat the best seen ("d"); a walk with a law reports that
        minimum as a grow-shrink event.  Each stretch ends with a
        segment-end candidate at the state reached there.  The crossing
        and the segment ends are appended to ``track`` as (alpha, beta,
        active diameter) when a list is given.

        Every stretch is scanned at the same ``PROBES`` points whatever
        the options.  When recording, the segments and, on phase-III
        stretches only, the diagnostic count read a finer re-probe of the
        stretch (``_reprobe``); ``warm`` is the ``_WarmStart`` of q's
        balance, when q follows one.
        """
        bps = frame.bps
        sign = 1 if end > x0 else -1
        x = x0
        while sign * (end - x) > self.eps:
            if sign > 0:
                i = bisect_right(bps, x + self.eps)
                at_bp = i < len(bps) and bps[i] <= end
            else:
                i = bisect_left(bps, x - self.eps) - 1
                at_bp = i >= 0 and bps[i] >= end
            target = bps[i] if at_bp else end
            span = abs(target - x)
            seg = lambda s: state_at(x + sign * s)
            start = warm.save() if warm is not None else None
            hits, states = self._scan(seg, 0.0, span, conds)
            record = law is not None and not hits
            diag = phase == "III"
            if self.record_segments and (record or diag):
                fine = self._reprobe(seg, span, warm, start)
                if diag:
                    self._diag_probe(frame, fine)
                if record:
                    self._record_lawful(phase, frame, fine, d_active, *law)
            if hits:
                sc, name = hits[0]
                fvc = seg(sc)
                if track is not None:
                    track.append((fvc.alpha, fvc.beta, d_active(fvc)))
                return name, x + sign * sc, fvc
            prev = None
            for _, fv in states:
                sig = tuple(fn(fv) > 0 for _, fn in soft)
                if prev is not None and sig != prev:
                    self.emit("path-state", phase, frame, fv.alpha, fv.beta,
                              fv, ("branch-change",))
                prev = sig
            fv1 = states[-1][1]
            if dip == "e":
                s_min, _ = self._interior_min(seg, 0.0, span,
                                              lambda fv: fv.e)
                fvm = seg(s_min)
                self.note_candidate(frame, fvm.alpha, fvm.beta,
                                    "interior-min")
                self.emit("grow-shrink", phase, frame, fvm.alpha,
                          fvm.beta, fvm, ("e-min",))
            elif dip == "d":
                # The diameter is unimodal between events, so a
                # golden-section search suffices and also covers shallow
                # dips the probe grid would miss.
                dvals = [d_active(fv) for _, fv in states]
                spacing = span / max(len(states) - 1, 1)
                if min(dvals) - 8.0 * spacing < self.best_seen:
                    s_min, fvm = self._interior_min(seg, 0.0, span, d_active)
                    self.note_if_better(frame, fvm.alpha, fvm.beta,
                                        d_active(fvm), "interior-min")
                    # A dip within tol of the stretch's ends is rounding
                    # on a flat stretch, not a grow-shrink turn.
                    if law is not None and min(dvals[1:-1],
                                               default=dvals[0]) \
                            < min(dvals[0], dvals[-1]) - self.tol:
                        self.emit("grow-shrink", phase, frame, fvm.alpha,
                                  fvm.beta, seg(s_min), ("d-min",))
            d1 = d_active(fv1)
            if track is not None:
                track.append((fv1.alpha, fv1.beta, d1))
            self.note_if_better(frame, fv1.alpha, fv1.beta, d1, "segment-end")
            if at_bp:
                self.emit("vertex-q" if drive_q else "vertex-p", phase,
                          frame, fv1.alpha, fv1.beta, fv1, (target,))
            x = target
        return None, x, None

    def _balanced(self, frame, pair, b0):
        """State function of p with q keeping `pair` in balance, and the
        ``_WarmStart`` its solves share, starting at q = b0.

        Each solve starts from the secant through the previous two
        solutions and sizes its first bracket step by the last
        correction, so the order of calls matters.
        """
        warm = self._warm(frame, b0)

        def state_at(alpha):
            return self.families(frame, alpha,
                                 self.balance(frame, alpha, warm, pair))
        return state_at, warm

    # -- phase II (shift toward x; y handled by frame flip) --------------

    def phase2x(self, frame, a0, b0, pair="x-xy"):
        """Shift toward x balancing `pair`; returns the tasks that follow.

        The x-xy shift hands off to phase III where the y-side ties.  A
        juncture is followed by the side shift and, from the anti-xy
        shift, by an x-xy shift with the side family that tied.
        """
        state_at, warm = self._balanced(frame, pair, b0)
        if pair == "x-xy":
            phase, dip = "II-x", None
            d_active = lambda fv: max(fv.fx, fv.xy)
            # Entering from a juncture can leave the antipodal family
            # exactly tied; the margin keeps its watch from re-firing
            # before motion starts.
            margin = 2.0 * self.tol
            watch = ("antipodal", lambda fv: (fv.fanti - d_active(fv) - margin)
                     if fv.fanti_pendant >= 0 else NEG)
            sig_fn = lambda fv: (fv.fx_branch, fv.fx_pendant, fv.xy_branch)
            law = lambda fv: SPEED_LAWS[("t1", fv.fx_branch)]
        else:
            phase, dip = "II-o", "e"
            d_active = lambda fv: max(fv.fanti, fv.xy)
            watch = ("x-side", lambda fv: fv.fx - d_active(fv))
            sig_fn = lambda fv: (fv.fanti_pendant, fv.xy_branch)
            law = lambda fv: SPEED_LAWS[("t1", "anti-balance")]
        conds = [
            ("y-side", lambda fv: fv.fy - d_active(fv)),
            ("delta-floor", lambda fv: frame.delta + self.tol - d_active(fv)),
            watch,
        ]
        soft = [
            ("x-branch", lambda fv: -1.0 if fv.fx_branch == "via" else 1.0),
            ("xy-branch", lambda fv: -1.0 if fv.xy_branch == "via" else 1.0),
        ]
        law_fn = lambda fv: law(fv) if fv.xy_branch == "via" else None

        state_at(a0)
        name, _, fvc = self._drive(phase, frame, state_at, a0, 0.0, conds,
                                   d_active, soft=soft, law=(sig_fn, law_fn),
                                   dip=dip, warm=warm)
        if name is None:
            fv = state_at(0.0)
            self._terminal(phase, frame, fv, ("parked-p",), "parked-p")
            if pair == "x-xy" and "y" in self.ties(fv):
                return [(self.phase3, frame, fv.alpha, fv.beta, None, {})]
            return []
        ac, bc = fvc.alpha, fvc.beta
        if name == "delta-floor":
            self._terminal(phase, frame, fvc, ("delta-floor",), "delta-floor")
            return []
        self.emit("path-state", phase, frame, ac, bc, fvc, (name,))
        if pair == "x-xy" and name == "y-side":
            self.note_if_better(frame, ac, bc, d_active(fvc), "phase2-handoff")
            return [(self.phase3, frame, ac, bc, None, {})]
        # What is left is a juncture: the antipodal family tied during the
        # x-xy shift, or a side family tied during the anti-xy shift.
        self.note_candidate(frame, ac, bc, "juncture")
        # The x-y family drops out; keep the antipodal family balanced
        # against the side family that just tied.
        fr, a2, b2 = ((frame, ac, bc) if name == "y-side"
                      else self._mirror(frame, ac, bc))
        tasks = [(self.phase2side, fr, a2, b2, "side", {})]
        if pair == "anti-xy":
            # Alternatively the antipodal family drops out and the
            # sideways shift continues with the side family that just
            # tied kept in balance.
            fr2, a3, b3 = ((frame, ac, bc) if name == "x-side"
                           else self._mirror(frame, ac, bc))
            tasks += self._continuation(self.phase2x, fr2, a3, b3, "x-xy")
        return tasks

    def phase2side(self, frame, a0, b0, toward_c=False):
        """Shift balancing the antipodal family against the y family.

        Entered when a side family ties during the antipodal-balance
        shift: the x-y family leaves the diametral set, and the motion
        continues along fanti = fy.  Both drive directions of p are
        explored, toward a and then toward c, each as its own task; q
        follows from the balance.
        """
        phase = "II-o"

        def d_active(fv):
            return max(fv.fanti, fv.fy)

        # The x-y family is exactly tied at the juncture; a small margin
        # keeps the re-tie watch from firing before the motion starts.
        margin = 2.0 * self.tol
        conds = [
            ("x-side", lambda fv: fv.fx - d_active(fv) - margin),
            ("xy-retie", lambda fv: fv.xy - d_active(fv) - margin),
            ("delta-floor", lambda fv: frame.delta + self.tol - d_active(fv)),
        ]
        end = frame.c_arc if toward_c else 0.0
        state_at, warm = self._balanced(frame, "anti-y", b0)
        name, alpha, fvc = self._drive(phase, frame, state_at, a0, end,
                                       conds, d_active, dip="d", warm=warm)
        # The drive toward c runs after this one's continuations.
        then = [] if toward_c else [
            (self.phase2side, frame, a0, b0, None, {"toward_c": True})]
        if name is None:
            self._terminal(phase, frame, state_at(alpha), ("parked-p",),
                           "parked-p")
            return then
        ac, bc = fvc.alpha, fvc.beta
        self._terminal(phase, frame, fvc, ("corollary-11", name),
                       "corollary-11")
        if name == "x-side":
            # Both side families tie; drop the antipodal family and
            # balance them directly in an out-shift.
            return self._continuation(self.phase3, frame, ac, bc, "x-y") + then
        if name == "xy-retie":
            # The x-y family rejoins the y family; drop the antipodal
            # family and shift toward y.
            return self._continuation(self.phase2x,
                                      *self._mirror(frame, ac, bc),
                                      "x-xy") + then
        return then

    # -- phase III -------------------------------------------------------

    def phase3(self, frame, a0, b0):
        """Out-shift balancing the x-side against the y-side families.

        Phase III ends the branch it runs on: it returns no tasks.
        """
        phase = "III"
        warm = self._warm(frame, b0)

        def state_at(alpha):
            fv = self.families(frame, alpha, warm.beta)
            # With both components frozen q mirrors the driven motion;
            # otherwise it balances the x-side against the y-side.
            if fv.fx_branch != "tree" or fv.fy_branch != "tree":
                fv = self.families(frame, alpha,
                                   self.balance(frame, alpha, warm, "x-y"))
            return fv

        def d_active(fv):
            return max(fv.fx, fv.fy)

        # Entering from a juncture can leave the antipodal family exactly
        # tied; the margin keeps its watch from re-firing immediately.
        margin = 2.0 * self.tol
        conds = [
            ("antipodal", lambda fv: (fv.fanti - d_active(fv) - margin)
             if fv.fanti_pendant >= 0 else NEG),
            ("delta-floor", lambda fv: frame.delta + self.tol - d_active(fv)),
        ]
        soft = [
            ("x-branch-tree", lambda fv: 1.0 if fv.fx_branch == "tree" else -1.0),
            ("y-branch-tree", lambda fv: 1.0 if fv.fy_branch == "tree" else -1.0),
        ]

        sig_fn = lambda fv: (fv.fx_branch, fv.fx_pendant,
                             fv.fy_branch, fv.fy_pendant)

        def law_fn(fv):
            return SPEED_LAWS[("t2", fv.fx_branch, fv.fy_branch)]

        d0 = d_active(self.families(frame, a0, b0))
        traj = [(a0, b0, d0)]
        self.note_if_better(frame, a0, b0, d0, "phase3-start")
        name, alpha, fvc = self._drive(phase, frame, state_at, a0, 0.0, conds,
                                       d_active, soft=soft,
                                       law=(sig_fn, law_fn), dip="d",
                                       track=traj, warm=warm)
        if name is not None:
            tag = "delta-floor" if name == "delta-floor" else "corollary-11"
            self._terminal(phase, frame, fvc,
                           (tag,) if name == "delta-floor" else (tag, name),
                           tag)
        else:
            # p parked; drive q outward to b with p held fixed.
            alpha = max(alpha, 0.0)
            name, _, fvc = self._drive(
                phase, frame, lambda beta: self.families(frame, alpha, beta),
                warm.beta, frame.L, conds, d_active, drive_q=True, dip="d",
                track=traj)
            b_end = frame.L
            if name is not None:
                b_end = fvc.beta
                self._terminal(phase, frame, fvc, ("q-drive", name),
                               "q-drive")
            self._terminal(phase, frame, self.families(frame, alpha, b_end),
                           ("parked-ab",), "phase3-end")
        self._wedge_crossing(frame, traj)
        return []

    def _wedge_value(self, frame, a, b):
        got = frame.wedge(a, b)
        return got[0] if got else NEG

    def _wedge_crossing(self, frame, traj):
        """Note the first placement on phase III's trajectory where a
        wedge-shortcut-wedge path ties the monitored diameter.

        ``traj`` holds the (alpha, beta, diameter) points of one phase-III
        run in ``frame``.  A binary search finds the first point where the
        wedge path ties; between it and its predecessor the crossing is
        the ITP root, given its end values, of "wedge minus diameter"
        with q keeping the x-y balance.  Each wedge length is one
        ``Caterpillar.wedge`` query; an end value at a trajectory point
        that is in x-y balance is the margin the search already read.
        """
        if frame.k < 2:
            return
        margins = {}

        def margin(i):
            if i not in margins:
                a, b, d = traj[i]
                margins[i] = self._wedge_value(frame, a, b) - d
            return margins[i]
        lo, hi = 0, len(traj) - 1     # margin(lo) < -tol <= margin(hi)
        if margin(hi) < -self.tol or margin(lo) >= -self.tol:
            return
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if margin(mid) >= -self.tol:
                hi = mid
            else:
                lo = mid
        (a_lo, b_lo, _), (a_hi, b_hi, _) = traj[lo], traj[hi]
        width = a_lo - a_hi
        if width <= self.eps:
            return
        state_at, warm = self._balanced(frame, "x-y", b_hi)
        # q's first guesses follow the secant through the two ends.
        warm.update(a_hi, b_hi, b_hi)
        warm.update(a_lo, b_lo, b_lo)

        def gap(s):
            fv = state_at(a_lo - s)
            return self._wedge_value(frame, fv.alpha, fv.beta) \
                - max(fv.fx, fv.fy) + self.tol

        def end_gap(i, s):
            fv = self.families(frame, *traj[i][:2])
            if abs(fv.fx - fv.fy) <= self.accept:
                # A solve started at trajectory point i stops there, and
                # the binary search has paid for its wedge query.
                return margins[i] + self.tol
            return gap(s)

        fv = state_at(a_lo - itp_root(gap, 0.0, width, self.eps,
                                      end_gap(lo, 0.0), end_gap(hi, width)))
        self.note_candidate(frame, fv.alpha, fv.beta, "wedge-crossing")
        self.emit("path-state", "III", frame, fv.alpha, fv.beta, fv,
                  ("wedge-crossing",))

    # -- driver ----------------------------------------------------------

    def run(self):
        """Phase I, then phases II and III as one depth-first work list.

        A task is (handler, frame, p, q, juncture tag, keywords); each
        handler returns the tasks that follow it, which are pushed in
        reverse so that the first runs next.  A task with a juncture tag
        runs only if its position is novel under that tag.

        ``phase_end`` is "III" when phase III runs on the main chain:
        straight after phase I, or after the x-xy shift that phase I
        hands off to.  Phase III runs reached from a juncture leave it
        "II".
        """
        status, tpos = self.phase1()
        cat = self.cat
        c = cat.c_arc
        a = max(0.0, c - tpos)
        b = min(cat.L, c + tpos)
        self.note_candidate(cat, a, b, "phase1-end")
        if status != "tie":
            self.phase_end = "I"
            return
        fv = self.families(cat, a, b)
        ties = self.ties(fv)
        tasks = []
        if "x" in ties and "y" in ties:
            tasks = [(self.phase3, cat, a, b, None, {})]
        elif "anti" in ties and ties & {"x", "y"}:
            self._terminal("II", cat, fv, ("corollary-11",), "corollary-11")
        elif "x" in ties or "y" in ties:
            frame = cat
            if "y" in ties:
                frame, a, b = self._mirror(cat, a, b)
            tasks = self.phase2x(frame, a, b, "x-xy")
        elif "anti" in ties:
            tasks = [(self.phase2x, cat, a, b, None, {"pair": "anti-xy"}),
                     (self.phase2x, *self._mirror(cat, a, b), None,
                      {"pair": "anti-xy"})]
        else:
            self.phase_end = "I"
            return
        self.phase_end = ("III" if tasks and tasks[0][0] == self.phase3
                          else "II")
        stack = tasks[::-1]
        while stack:
            handler, frame, a, b, tag, kw = stack.pop()
            if tag is None or self._novel_juncture(frame, a, b, tag):
                stack += handler(frame, a, b, **kw)[::-1]

    # -- final selection --------------------------------------------------

    def best(self):
        cat = self.cat
        best_val = cat.diam_t
        best_ab = (cat.c_arc, cat.c_arc)
        for a, b, _ in self.candidates:
            val = cat.evaluate(a, b)
            if val < best_val - 1e-3 * self.tol:
                best_val = val
                best_ab = (a, b)
        return self._polish(best_val, best_ab)

    def _polish(self, val, ab):
        """Compass-search refinement of the exact evaluator around ab.

        The evaluator is exact, so this can only improve the answer; it
        tightens the root-finding residue left by the event sweep.
        """
        cat = self.cat
        a, b = ab
        a = min(max(a, 0.0), cat.c_arc)
        b = min(max(b, cat.c_arc), cat.L)
        dirs = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0),
                (1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0))
        step = max(cat.L / 64.0, 4.0 * self.eps)
        while step > 0.25 * self.tol:
            moved = False
            for da, db in dirs:
                a2 = min(max(a + step * da, 0.0), cat.c_arc)
                b2 = min(max(b + step * db, cat.c_arc), cat.L)
                v2 = cat.evaluate(a2, b2)
                if v2 < val - 1e-15 * cat.L:
                    val, a, b = v2, a2, b2
                    moved = True
            if not moved:
                step *= 0.5
        return val, (a, b)


def optimize(tree, record_segments=False) -> OptimizeResult:
    """Find a shortcut minimizing the continuous diameter of T + pq.

    ``record_segments`` fills ``segments`` and
    ``diagnostic_phase3_changes``.  Both read a re-probe of the walk, so
    recording changes neither the answer nor the events.
    """
    decomp = backbone(tree)
    diam = decomp.diameter
    if not has_useful_shortcut(decomp):
        c = decomp.center
        return OptimizeResult(Shortcut(c, c), diam, diam, False, (),
                              "degenerate", decomp.center_arc,
                              decomp.length - decomp.center_arc, (), 0, 0)
    eng = _Engine(tree, decomp, record_segments=record_segments)
    eng.run()
    val, (a, b) = eng.best()
    useful = val < diam - tree.tol
    if useful:
        shortcut = Shortcut(eng.cat.arc_to_treepoint(a),
                            eng.cat.arc_to_treepoint(b))
    else:
        shortcut = Shortcut(decomp.center, decomp.center)
        val, a, b = diam, decomp.center_arc, decomp.center_arc
    return OptimizeResult(shortcut, diam, val, useful, tuple(eng.events),
                          eng.phase_end, a, decomp.length - b,
                          tuple(eng.segments), len(eng.events),
                          eng.diag_count)


def balance_solve(tree, decomp, path_state, p_arc) -> float:
    """Arc position of q (measured from b) balancing the named families.

    `path_state` is an iterable of descriptors like "x-shortcut-y",
    "x-tree-wedge", or "wedge-p-interior"; it must name the x-y family
    together with an x-side or antipodal family, or both side families.
    """
    eng = _Engine(tree, decomp)
    cat = eng.cat
    descs = set(path_state)
    has_x = any(d.startswith("x-") and not d.endswith("-y") for d in descs)
    has_y = any(d.endswith("-y") and not d.startswith("x-") for d in descs)
    has_anti = any(("interior" in d or "antipodal" in d)
                   and not d.startswith("x-") and not d.endswith("-y")
                   for d in descs)
    if has_x and has_y:
        pair = "x-y"
    elif has_x:
        pair = "x-xy"
    elif has_anti:
        pair = "anti-xy"
    else:
        raise NoRootInBracket(f"cannot balance path state {sorted(descs)}")
    alpha = min(max(p_arc, 0.0), cat.c_arc)
    beta = eng.balance(cat, alpha, eng._warm(cat, cat.c_arc), pair)
    return cat.L - beta
