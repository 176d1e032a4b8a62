"""Three-phase event-driven search for an optimal shortcut.

Phase I out-shifts the shortcut from the degenerate placement at the
absolute center, shrinking the x-y diametral paths at unit speed, until
a second family of diametral paths appears.  Phase II shifts sideways
(toward x or toward y, branching on an antipodal tie) while a balance
equation re-derives the trailing endpoint.  Phase III out-shifts while
balancing the x-side against the y-side families, with the x-component
frozen while a tree-routed pendant path is diametral, and finishes with
a binary search for the first placement where a wedge-shortcut-wedge
path becomes diametral.

Continuous motion is realized by root-finding on monotone balance and
condition functions rather than closed-form trajectories; events are
located by sign probing, then by ITP root finding (bisection safeguarded
by regula falsi) inside the bracketing probe interval.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .caterpillar import Caterpillar, NEG
from .diameter_core import backbone
from .errors import NoRootInBracket
from .smawk import wedge_path_on_arcs
from .tree_model import Shortcut

__all__ = [
    "SweepState", "Event", "SpeedLaw", "OptimizeResult", "MotionSegment",
    "optimize", "balance_solve", "start_sweep", "run_phase1", "run_phase2",
    "run_phase3", "next_event", "SPEED_LAWS",
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
    """
    width = hi - lo
    if width <= eps:
        return hi
    if flo is None or fhi is None or not flo < 0.0 <= fhi:
        flo = fhi = None
    # ITP parameters k1 = 0.2 / width, k2 = 2, n0 = 1.  After step j the
    # bracket is at most eps * 2**(n_max - j - 1) wide.
    n_max = math.ceil(math.log2(width / eps)) + 1
    k1 = 0.2 / width
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
            delta = max(k1 * (hi - lo) ** 2, 0.25 * eps)
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


@dataclass
class SweepState:
    phase: str
    p_arc: float
    q_arc: float          # from b
    path_state: frozenset
    diameter: float
    best_p_arc: float
    best_q_arc: float
    best_diameter: float
    growing: bool
    engine: object = None
    cursor: int = 0


@dataclass(frozen=True)
class OptimizeResult:
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


# ---------------------------------------------------------------------------


class _Engine:
    PROBES = 6

    def __init__(self, tree, decomp, diagnostic=False, record_segments=True):
        self.tree = tree
        self.decomp = decomp
        self.cat = Caterpillar(tree, decomp)
        self.tol = tree.tol
        self.eps = 1e-12 * tree.scale
        self.diagnostic = diagnostic
        self.record_segments = record_segments
        self.events = []
        self.segments = []
        self.candidates = []       # dicts: frame, a, b, tag, traj_i
        self.traj = []             # phase-III trajectory (frame, a, b, D)
        self.diag_count = 0
        self._in_phase3 = False
        self.best_seen = math.inf
        self._junctures = set()
        self.phase_end = "phase1"
        self.event_cap = 400 + 80 * tree.n
        self._recent = {}

    # -- utilities -------------------------------------------------------

    def _to_base(self, frame, a, b):
        if frame is self.cat:
            return a, b
        return self.cat.L - b, self.cat.L - a

    def emit(self, kind, phase, frame, a, b, fv=None, payload=()):
        if len(self.events) >= self.event_cap:
            return
        ab, bb = self._to_base(frame, a, b)
        # Events carry the monitored family value; cross pairs and wedge
        # paths that the sweep deliberately ignores are reconciled when
        # candidates are re-evaluated exactly and in the state wrappers.
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
        g = max(self.tree.scale, 1.0) * 1e-7
        key = (tag, round(ab / g), round(bb / g))
        if key in self._junctures:
            return False
        self._junctures.add(key)
        return True

    def note_candidate(self, frame, a, b, tag, traj_i=None):
        ab, bb = self._to_base(frame, a, b)
        self.candidates.append({"a": ab, "b": bb, "tag": tag, "traj": traj_i})

    def note_if_better(self, frame, a, b, dval, tag, traj_i=None):
        """Record a candidate only when it improves the monitored best."""
        if dval < self.best_seen - 1e-12 * self.tree.scale:
            self.best_seen = dval
            self.note_candidate(frame, a, b, tag, traj_i)

    def families(self, frame, alpha, beta):
        """``frame.families(alpha, beta)``, remembering the last few points.

        The sweep often re-reads a point it has just evaluated: a balance
        solve ends on a point its root finder probed, and a segment's
        first probe is the previous segment's last.  Every flipped view
        of the caterpillar is the same function, so the key records only
        the side the frame is seen from.
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
        if not self.record_segments:
            return
        runs = []
        cur = []
        cur_sig = None
        for _, fv in states:
            parked = fv.beta >= frame.L - 64.0 * self.eps
            sig = (sig_fn(fv), parked)
            if sig != cur_sig:
                if len(cur) >= 3:
                    runs.append((cur_sig, cur))
                cur = []
                cur_sig = sig
            cur.append(fv)
        if len(cur) >= 3:
            runs.append((cur_sig, cur))
        flipped = frame is not self.cat
        for (sig, parked), fvs in runs:
            if parked:
                continue
            law = law_fn(fvs[len(fvs) // 2])
            if law is None:
                continue
            ok = True
            for fv in (fvs[0], fvs[-1]):
                exact = frame.evaluate(fv.alpha, fv.beta)
                if abs(exact - d_active(fv)) > 1e-9 * self.tree.scale:
                    ok = False
                    break
            if not ok:
                continue
            probes = tuple((fv.alpha, fv.beta, fv.e, d_active(fv))
                           for fv in fvs)
            self.segments.append(MotionSegment(phase, law, flipped, probes))

    # -- balance ---------------------------------------------------------

    def _residual(self, frame, alpha, pair):
        """g(beta) whose root balances the family pair at this alpha."""
        gap = _PAIR_GAP[pair]
        return lambda beta: gap(self.families(frame, alpha, beta))

    def balance(self, frame, alpha, guess, pair):
        """Solve for beta keeping the named family pair in balance."""
        lo_lim = max(alpha, frame.c_arc)
        hi_lim = frame.L
        g = self._residual(frame, alpha, pair)
        guess = min(max(guess, lo_lim), hi_lim)
        gv = g(guess)
        if abs(gv) <= 1e-3 * self.tol:
            return guess
        step = max(64.0 * self.eps, 1e-4 * frame.L)
        if gv > 0.0:
            # need smaller beta
            hi, ghi = guess, gv
            lo = max(lo_lim, guess - step)
            glo = g(lo)
            while lo > lo_lim and glo > 0.0:
                step *= 4.0
                hi, ghi = lo, glo
                lo = max(lo_lim, lo - step)
                glo = g(lo)
            if glo > 0.0:
                return lo_lim
            return itp_root(g, lo, hi, self.eps, glo, ghi)
        lo, glo = guess, gv
        hi = min(hi_lim, guess + step)
        ghi = g(hi)
        while hi < hi_lim and ghi < 0.0:
            step *= 4.0
            lo, glo = hi, ghi
            hi = min(hi_lim, hi + step)
            ghi = g(hi)
        if ghi < 0.0:
            return hi_lim
        return itp_root(g, lo, hi, self.eps, glo, ghi)

    def balance_roots(self, frame, alpha, pair, samples=64):
        """All beta values balancing the pair at this alpha.

        The balance function is only piecewise monotone: a kink where the
        achieving pendant switches can hide a second root, and a shift
        restarted at a juncture must consider every branch.
        """
        lo = max(alpha, frame.c_arc)
        hi = frame.L
        g = self._residual(frame, alpha, pair)
        if hi - lo <= self.eps:
            return [lo]
        bs = [lo + (hi - lo) * i / samples for i in range(samples + 1)]
        vals = [g(b) for b in bs]
        roots = []
        for i in range(samples):
            if vals[i] == 0.0:
                roots.append(bs[i])
            elif (vals[i] < 0.0 <= vals[i + 1]) or (vals[i + 1] < 0.0 <= vals[i]):
                sgn = 1.0 if vals[i] < 0.0 else -1.0
                roots.append(itp_root(lambda b: sgn * g(b), bs[i], bs[i + 1],
                                      self.eps, sgn * vals[i],
                                      sgn * vals[i + 1]))
        if vals[-1] == 0.0:
            roots.append(bs[-1])
        out = []
        for r in roots:
            if not out or r - out[-1] > 64.0 * self.eps:
                out.append(r)
        return out

    # -- generic segment scanning ----------------------------------------

    def _scan(self, state_at, s0, s1, conds, probes=None):
        """Find condition crossings in (s0, s1].

        Returns (hits, states) where hits is a list of (s, name) sorted by
        s for conditions whose value crosses from negative to >= 0, and
        states the probe evaluations [(s, fv)].
        """
        p = probes or self.PROBES
        if self.record_segments:
            p = max(p, 12)
        if self.diagnostic:
            p = max(p, 24)
        ss = [s0 + (s1 - s0) * i / p for i in range(p + 1)]
        states = [(s, state_at(s)) for s in ss]
        if self.diagnostic and self._in_phase3:
            self._diag_probe(states)
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

    def _diag_probe(self, states):
        """Count unsuppressed routing flips: every pendant whose antipodal
        boundary crossing re-routes its diametral path would be a
        processed event without the freeze rule."""
        prev = None
        for _, fv in states:
            ip = bisect_right(self.cat.t, fv.pbar)
            iq = bisect_left(self.cat.t, fv.qbar)
            sig = (ip, iq, fv.fx_branch, fv.fy_branch)
            if prev is not None:
                self.diag_count += abs(sig[0] - prev[0]) + abs(sig[1] - prev[1])
                if sig[2:] != prev[2:]:
                    self.diag_count += 1
            prev = sig

    def _interior_min(self, state_at, s0, s1, key):
        """Golden-section minimum of key(state) over [s0, s1].

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
        return s, key(state_at(s))

    # -- phase I ---------------------------------------------------------

    def phase1(self):
        cat = self.cat
        c, L = cat.c_arc, cat.L
        t_end = max(c, L - c)
        pos = lambda t: (max(0.0, c - t), min(L, c + t))
        state_at = lambda t: self.families(cat, *pos(t))

        labels = {}

        def mark(t, label):
            if 0.0 < t <= t_end:
                labels.setdefault(round(t, 12), []).append(label)

        for arc in cat.arcs:
            if arc < c - self.eps:
                mark(c - arc, ("vertex-p", arc))
            elif arc > c + self.eps:
                mark(arc - c, ("vertex-q", arc))
        for i, (tj, hj) in enumerate(zip(cat.t, cat.h)):
            u_i = (tj + hj - cat.h_x) / 2.0
            if 0.0 < u_i < c:
                mark(c - u_i, ("midpoint-p", i))
            v_i = (L + cat.h_y + tj - hj) / 2.0
            if c < v_i < L:
                mark(v_i - c, ("midpoint-q", i))
        bps = sorted(labels)
        bps.append(t_end)
        thresholds = sorted((cat.h_x + tj + hj
                             for tj, hj in zip(cat.t, cat.h)), reverse=True)
        thr_i = 0

        conds = [
            ("x-side", lambda fv: fv.fx - fv.xy),
            ("y-side", lambda fv: fv.fy - fv.xy),
            ("antipodal", lambda fv: (fv.fanti - fv.xy)
             if fv.fanti_pendant >= 0 else NEG),
            ("delta-floor", lambda fv: cat.delta + self.tol - fv.xy),
        ]

        fv0 = state_at(0.0)
        start_ties = self.ties(fv0)
        if start_ties - {"xy"}:
            return "tie", 0.0
        t0 = 0.0
        d_prev = fv0.xy
        for t1 in bps:
            if t1 <= t0 + self.eps:
                continue
            hits, states = self._scan(state_at, t0, t1, conds)
            hard = [h for h in hits if h[0] > t0 + self.eps or h[0] == t0]
            if hard:
                tc, name = hard[0]
                fvc = state_at(tc)
                self._emit_thresholds(state_at, thresholds, thr_i, d_prev,
                                      fvc.xy, t0, tc, pos)
                a, b = pos(tc)
                if name == "delta-floor":
                    self.emit("terminal", "I", cat, a, b, fvc,
                              ("delta-floor",))
                    self.note_candidate(cat, a, b, "delta-floor")
                    return "delta", tc
                self.emit("path-state", "I", cat, a, b, fvc, (name,))
                return "tie", tc
            fv1 = states[-1][1]
            thr_i = self._emit_thresholds(state_at, thresholds, thr_i, d_prev,
                                          fv1.xy, t0, t1, pos)
            d_prev = fv1.xy
            a, b = pos(t1)
            for label in labels.get(round(t1, 12), []):
                kind = label[0]
                if kind.startswith("vertex"):
                    self.emit(kind.split("-")[0] + "-" + kind.split("-")[1],
                              "I", cat, a, b, fv1, (label[1],))
                else:
                    self.emit("midpoint", "I", cat, a, b, fv1, label)
            t0 = t1
        a, b = pos(t_end)
        fv = state_at(t_end)
        self.emit("terminal", "I", cat, a, b, fv, ("parked-ab",))
        self.note_candidate(cat, a, b, "phase1-ab")
        return "ab", t_end

    def _emit_thresholds(self, state_at, thresholds, thr_i, d_hi, d_lo,
                         t0, t1, pos):
        while thr_i < len(thresholds) and thresholds[thr_i] > d_hi:
            thr_i += 1
        while thr_i < len(thresholds) and thresholds[thr_i] > d_lo:
            thr = thresholds[thr_i]
            tc = itp_root(lambda t: thr - state_at(t).xy, t0, t1, self.eps,
                          thr - d_hi, thr - d_lo)
            a, b = pos(tc)
            self.emit("threshold", "I", self.cat, a, b, state_at(tc), (thr,))
            thr_i += 1
        return thr_i

    # -- phase II (shift toward x; y handled by frame flip) --------------

    def phase2x(self, frame, a0, b0, pair):
        """Shift toward x balancing `pair`; returns (status, a, b).

        status: "phase3" (y-side tied), "optimal" (blocked on all sides),
        "parked" (p reached a), "delta".
        """
        phase = "II-x" if pair == "x-xy" else "II-o"
        barcs = sorted(set(list(frame.arcs) + list(frame.t)))
        beta_mem = [b0]

        def state_at(alpha):
            beta = self.balance(frame, alpha, beta_mem[0], pair)
            beta_mem[0] = beta
            return self.families(frame, alpha, beta)

        def d_active(fv):
            if pair == "x-xy":
                return max(fv.fx, fv.xy)
            return max(fv.fanti, fv.xy)

        # Entering from a juncture can leave another family exactly tied;
        # the margin keeps its watch from re-firing before motion starts.
        margin = 2.0 * self.tol
        conds = [
            ("y-side", lambda fv: fv.fy - d_active(fv)),
            ("delta-floor", lambda fv: frame.delta + self.tol - d_active(fv)),
        ]
        if pair == "x-xy":
            conds.append(("antipodal",
                          lambda fv: (fv.fanti - d_active(fv) - margin)
                          if fv.fanti_pendant >= 0 else NEG))
        else:
            conds.append(("x-side", lambda fv: fv.fx - d_active(fv)))
        soft = [
            ("x-branch", lambda fv: -1.0 if fv.fx_branch == "via" else 1.0),
            ("xy-branch", lambda fv: -1.0 if fv.xy_branch == "via" else 1.0),
        ]
        if pair == "x-xy":
            sig_fn = lambda fv: (fv.fx_branch, fv.fx_pendant, fv.xy_branch)

            def law_fn(fv):
                if fv.xy_branch != "via":
                    return None
                return SPEED_LAWS[("t1", fv.fx_branch)]
        else:
            sig_fn = lambda fv: (fv.fanti_pendant, fv.xy_branch)

            def law_fn(fv):
                if fv.xy_branch != "via":
                    return None
                return SPEED_LAWS[("t1", "anti-balance")]

        state_at(a0)
        alpha = a0
        idx = bisect_left(barcs, alpha - self.eps) - 1
        while True:
            target = barcs[idx] if idx >= 0 else 0.0
            target = max(target, 0.0)
            if alpha - target <= self.eps:
                if target <= 0.0 + self.eps and alpha <= self.eps:
                    break
                idx -= 1
                continue
            # drive alpha downward across [target, alpha]
            seg_state = lambda s: state_at(alpha - s)
            span = alpha - target
            hits, states = self._scan(seg_state, 0.0, span, conds)
            if hits:
                sc, name = hits[0]
                fvc = seg_state(sc)
                ac, bc = alpha - sc, beta_mem[0]
                if name == "delta-floor":
                    self.emit("terminal", phase, frame, ac, bc, fvc,
                              ("delta-floor",))
                    self.note_candidate(frame, ac, bc, "delta-floor")
                    return "delta", ac, bc
                self.emit("path-state", phase, frame, ac, bc, fvc, (name,))
                if pair == "x-xy" and name == "y-side":
                    self.note_if_better(frame, ac, bc, d_active(fvc),
                                        "phase2-handoff")
                    return "phase3", ac, bc
                self.note_candidate(frame, ac, bc, "juncture")
                if name == "antipodal" or (pair == "anti-xy"
                                           and name in ("x-side", "y-side")):
                    # The x-y family drops out; keep the antipodal family
                    # balanced against the side family that just tied.
                    if name == "x-side" or name == "antipodal":
                        fl = frame.flip()
                        a2, b2 = frame.L - bc, frame.L - ac
                        if self._novel_juncture(fl, a2, b2, "side"):
                            self.phase2side(fl, a2, b2)
                    else:
                        if self._novel_juncture(frame, ac, bc, "side"):
                            self.phase2side(frame, ac, bc)
                    if pair == "anti-xy" and name in ("x-side", "y-side"):
                        # Alternatively the antipodal family drops out
                        # and the sideways shift continues with the side
                        # family that just tied kept in balance.  The
                        # balance may have several branches here; each
                        # one is restarted separately.
                        if name == "x-side":
                            fr2, a3 = frame, ac
                        else:
                            fr2 = frame.flip()
                            a3 = frame.L - bc
                        for b3 in self.balance_roots(fr2, a3, "x-xy"):
                            if self._novel_juncture(fr2, a3, b3, "x-xy"):
                                st2, a4, b4 = self.phase2x(fr2, a3, b3,
                                                           "x-xy")
                                if st2 == "phase3":
                                    self.phase3(fr2, a4, b4)
                    return "optimal", ac, bc
                # blocked in every direction
                self.emit("terminal", phase, frame, ac, bc, fvc,
                          ("corollary-11", name))
                self.note_candidate(frame, ac, bc, "corollary-11")
                return "optimal", ac, bc
            self._soft_events(phase, frame, seg_state, states, soft)
            self._record_lawful(phase, frame, states, d_active, sig_fn,
                                law_fn)
            if pair == "anti-xy":
                s_min, _ = self._interior_min(seg_state, 0.0, span,
                                              lambda fv: fv.e)
                fvm = seg_state(s_min)
                self.note_candidate(frame, alpha - s_min, beta_mem[0],
                                    "interior-min")
                self.emit("grow-shrink", phase, frame, alpha - s_min,
                          beta_mem[0], fvm, ("e-min",))
            fv1 = states[-1][1]
            a1, b1 = target, beta_mem[0]
            self.note_if_better(frame, a1, b1, d_active(fv1), "segment-end")
            if idx >= 0:
                self.emit("vertex-p", phase, frame, a1, b1, fv1,
                          (barcs[idx],))
            alpha = target
            idx -= 1
            if alpha <= self.eps:
                break
        fv = state_at(0.0)
        a1, b1 = 0.0, beta_mem[0]
        self.emit("terminal", phase, frame, a1, b1, fv, ("parked-p",))
        self.note_candidate(frame, a1, b1, "parked-p")
        ties = self.ties(fv)
        if pair == "x-xy" and "y" in ties:
            return "phase3", a1, b1
        return "parked", a1, b1

    def _soft_events(self, phase, frame, seg_state, states, soft):
        prev = None
        for s, fv in states:
            sig = tuple(fn(fv) > 0 for _, fn in soft)
            if prev is not None and sig != prev[1]:
                self.emit("path-state", phase, frame, fv.alpha, fv.beta, fv,
                          ("branch-change",))
            prev = (s, sig)

    def phase2side(self, frame, a0, b0):
        """Shift balancing the antipodal family against the y family.

        Entered when a side family ties during the antipodal-balance
        shift: the x-y family leaves the diametral set, and the motion
        continues along fanti = fy.  Both drive directions of p are
        explored; q follows from the balance.
        """
        for sign in (-1, +1):
            self._phase2side_dir(frame, a0, b0, sign)

    def _phase2side_dir(self, frame, a0, b0, sign):
        phase = "II-o"
        lo, hi = 0.0, frame.c_arc
        barcs = sorted(set(list(frame.arcs) + list(frame.t)))
        beta_mem = [b0]

        def state_at(alpha):
            beta = self.balance(frame, alpha, beta_mem[0], "anti-y")
            beta_mem[0] = beta
            return self.families(frame, alpha, beta)

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
        alpha = a0
        end = hi if sign > 0 else lo
        while abs(end - alpha) > self.eps:
            if sign > 0:
                nxt = [v for v in barcs if v > alpha + self.eps and v < end]
                target = min(nxt) if nxt else end
            else:
                nxt = [v for v in barcs if v < alpha - self.eps and v > end]
                target = max(nxt) if nxt else end
            span = abs(target - alpha)
            seg_state = lambda s: state_at(alpha + sign * s)
            hits, states = self._scan(seg_state, 0.0, span, conds)
            if hits:
                sc, name = hits[0]
                fvc = seg_state(sc)
                ac, bc = alpha + sign * sc, beta_mem[0]
                self.emit("terminal", phase, frame, ac, bc, fvc,
                          ("corollary-11", name))
                self.note_candidate(frame, ac, bc, "corollary-11")
                if name == "x-side":
                    # Both side families tie; drop the antipodal family
                    # and balance them directly in an out-shift.
                    for b3 in self.balance_roots(frame, ac, "x-y"):
                        if self._novel_juncture(frame, ac, b3, "p3"):
                            self.phase3(frame, ac, b3)
                elif name == "xy-retie":
                    # The x-y family rejoins the y family; drop the
                    # antipodal family and shift toward y.
                    fl = frame.flip()
                    a3 = frame.L - bc
                    for b3 in self.balance_roots(fl, a3, "x-xy"):
                        if self._novel_juncture(fl, a3, b3, "x-xy"):
                            st2, a4, b4 = self.phase2x(fl, a3, b3, "x-xy")
                            if st2 == "phase3":
                                self.phase3(fl, a4, b4)
                return
            dvals = [d_active(fv_) for _, fv_ in states]
            spacing = span / max(len(states) - 1, 1)
            if min(dvals) - 8.0 * spacing < self.best_seen:
                s_min, dmin = self._interior_min(seg_state, 0.0, span,
                                                 d_active)
                if dmin < self.best_seen:
                    self.note_if_better(frame, alpha + sign * s_min,
                                        beta_mem[0], dmin, "interior-min")
            fv1 = states[-1][1]
            a1, b1 = target, beta_mem[0]
            self.note_if_better(frame, a1, b1, d_active(fv1), "segment-end")
            if target not in (lo, hi):
                self.emit("vertex-p", phase, frame, a1, b1, fv1, (target,))
            alpha = target
        fv = state_at(alpha)
        self.emit("terminal", phase, frame, alpha, beta_mem[0], fv,
                  ("parked-p",))
        self.note_candidate(frame, alpha, beta_mem[0], "parked-p")

    # -- phase III -------------------------------------------------------

    def phase3(self, frame, a0, b0):
        phase = "III"
        self._in_phase3 = True
        barcs = sorted(set(list(frame.arcs) + list(frame.t)))
        beta_mem = [b0]

        def state_at_alpha(alpha):
            fv_probe = self.families(frame, alpha, beta_mem[0])
            if fv_probe.fx_branch == "tree" and fv_probe.fy_branch == "tree":
                # Both components frozen: mirror the driven motion.
                beta = beta_mem[0]
            else:
                beta = self.balance(frame, alpha, beta_mem[0], "x-y")
            beta_mem[0] = beta
            return self.families(frame, alpha, beta)

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

        fv = self.families(frame, a0, b0)
        self.traj.append((frame, a0, b0, d_active(fv)))
        self.note_if_better(frame, a0, b0, d_active(fv), "phase3-start", 0)
        alpha = a0
        idx = bisect_left(barcs, alpha - self.eps) - 1
        status = "ab"
        while True:
            target = barcs[idx] if idx >= 0 else 0.0
            target = max(target, 0.0)
            if alpha - target <= self.eps:
                idx -= 1
                if idx < -1 or (alpha <= self.eps and target <= self.eps):
                    break
                continue
            seg_state = lambda s: state_at_alpha(alpha - s)
            span = alpha - target
            hits, states = self._scan(seg_state, 0.0, span, conds)
            if hits:
                sc, name = hits[0]
                fvc = seg_state(sc)
                ac, bc = alpha - sc, beta_mem[0]
                self.traj.append((frame, ac, bc, d_active(fvc)))
                if name == "delta-floor":
                    self.emit("terminal", phase, frame, ac, bc, fvc,
                              ("delta-floor",))
                    self.note_candidate(frame, ac, bc, "delta-floor",
                                        len(self.traj) - 1)
                    status = "delta"
                else:
                    self.emit("terminal", phase, frame, ac, bc, fvc,
                              ("corollary-11", name))
                    self.note_candidate(frame, ac, bc, "corollary-11",
                                        len(self.traj) - 1)
                    status = "optimal"
                alpha, b_end = ac, bc
                break
            self._soft_events(phase, frame, seg_state, states, soft)
            self._record_lawful(phase, frame, states, d_active, sig_fn,
                                law_fn)
            # Track the interior diameter minimum of the segment; the
            # diameter is unimodal between events, so a golden-section
            # search suffices and also covers shallow dips the probe
            # grid would miss.  A Lipschitz bound on the probe values
            # skips segments that cannot beat the best seen so far.
            dvals = [d_active(fv_) for _, fv_ in states]
            spacing = span / max(len(states) - 1, 1)
            if min(dvals) - 8.0 * spacing < self.best_seen:
                s_min, dmin = self._interior_min(seg_state, 0.0, span,
                                                 d_active)
                if dmin < self.best_seen:
                    self.note_if_better(frame, alpha - s_min, beta_mem[0],
                                        dmin, "interior-min", len(self.traj))
                if min(dvals[1:-1], default=dvals[0]) < min(dvals[0],
                                                            dvals[-1]):
                    self.emit("grow-shrink", phase, frame, alpha - s_min,
                              beta_mem[0], seg_state(s_min), ("d-min",))
            fv1 = states[-1][1]
            a1, b1 = target, beta_mem[0]
            self.traj.append((frame, a1, b1, d_active(fv1)))
            self.note_if_better(frame, a1, b1, d_active(fv1), "segment-end",
                                len(self.traj) - 1)
            if idx >= 0:
                self.emit("vertex-p", phase, frame, a1, b1, fv1, (barcs[idx],))
            alpha = target
            idx -= 1
            if alpha <= self.eps:
                break
        else:
            pass
        if status == "ab":
            # p parked; drive q outward to b.
            alpha = max(alpha, 0.0)
            b_end = self._phase3_drive_q(frame, alpha, beta_mem[0],
                                         conds, d_active)
            fve = self.families(frame, alpha, b_end)
            self.emit("terminal", phase, frame, alpha, b_end, fve,
                      ("parked-ab",))
            self.note_candidate(frame, alpha, b_end, "phase3-end",
                                len(self.traj) - 1)
        self._wedge_postprocess(frame)
        self.phase_end = "III"
        return status

    def _phase3_drive_q(self, frame, alpha, b0, conds, d_active):
        barcs = sorted(set(list(frame.arcs) + list(frame.t)))
        beta = b0
        idx = bisect_right(barcs, beta + self.eps)
        while beta < frame.L - self.eps:
            target = barcs[idx] if idx < len(barcs) else frame.L
            target = min(target, frame.L)
            if target - beta <= self.eps:
                idx += 1
                continue
            seg_state = lambda s: self.families(frame, alpha, beta + s)
            hits, states = self._scan(seg_state, 0.0, target - beta, conds)
            if hits:
                sc, name = hits[0]
                fvc = seg_state(sc)
                self.traj.append((frame, alpha, beta + sc, d_active(fvc)))
                self.emit("terminal", "III", frame, alpha, beta + sc, fvc,
                          ("q-drive", name))
                self.note_candidate(frame, alpha, beta + sc, "q-drive",
                                    len(self.traj) - 1)
                return beta + sc
            dvals = [d_active(fv_) for _, fv_ in states]
            spacing = (target - beta) / max(len(states) - 1, 1)
            if min(dvals) - 8.0 * spacing < self.best_seen:
                s_min, dmin = self._interior_min(seg_state, 0.0,
                                                 target - beta, d_active)
                if dmin < self.best_seen:
                    self.note_if_better(frame, alpha, beta + s_min, dmin,
                                        "interior-min", len(self.traj))
            fv1 = states[-1][1]
            self.traj.append((frame, alpha, target, d_active(fv1)))
            self.note_if_better(frame, alpha, target, d_active(fv1),
                                "segment-end", len(self.traj) - 1)
            if idx < len(barcs):
                self.emit("vertex-q", "III", frame, alpha, target, fv1,
                          (target,))
            beta = target
            idx += 1
        return frame.L

    def _wedge_value(self, frame, a, b):
        if frame.k < 2:
            return NEG
        got = wedge_path_on_arcs(frame.t, frame.h, frame.chord(a, b), a, b)
        return got[0] if got else NEG

    def _wedge_postprocess(self, frame):
        """Binary search for the first trajectory point where a
        wedge-shortcut-wedge path ties the monitored diameter; later
        candidates are discarded."""
        self.traj_cut = None
        if frame.k < 2 or len(self.traj) == 0:
            return
        def margin(i):
            fr, a, b, d = self.traj[i]
            return self._wedge_value(fr, a, b) - d
        last = len(self.traj) - 1
        if margin(last) < -self.tol:
            return
        if margin(0) >= -self.tol:
            cut = 0
        else:
            lo, hi = 0, last        # margin(lo) < 0 <= margin(hi)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if margin(mid) >= -self.tol:
                    hi = mid
                else:
                    lo = mid
            cut = hi
            # Refine between trajectory points lo and hi.
            fr, a_lo, b_lo, _ = self.traj[lo]
            fr2, a_hi, b_hi, _ = self.traj[hi]
            if fr is fr2 and a_lo - a_hi > self.eps:
                beta_mem = [b_lo]

                def gm(alpha):
                    beta = self.balance(fr, alpha, beta_mem[0], "x-y")
                    beta_mem[0] = beta
                    fv = self.families(fr, alpha, beta)
                    return self._wedge_value(fr, alpha, beta) \
                        - max(fv.fx, fv.fy) + self.tol

                ac = itp_root(lambda s: gm(a_lo - s), 0.0, a_lo - a_hi,
                              self.eps)
                self.note_candidate(fr, a_lo - ac, beta_mem[0],
                                    "wedge-crossing", cut)
                fvx = self.families(fr, a_lo - ac, beta_mem[0])
                self.emit("path-state", "III", fr, a_lo - ac, beta_mem[0],
                          fvx, ("wedge-crossing",))
        self.traj_cut = cut

    # -- driver ----------------------------------------------------------

    def run(self):
        self.traj_cut = None
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
        self.dispatch(cat, a, b, ties)

    def dispatch(self, frame, a, b, ties):
        if "x" in ties and "y" in ties:
            self.phase3(frame, a, b)
            return
        if "x" in ties and "anti" in ties:
            self.emit("terminal", "II", frame, a, b, None, ("corollary-11",))
            self.note_candidate(frame, a, b, "corollary-11")
            self.phase_end = "II"
            return
        if "y" in ties and "anti" in ties:
            self.emit("terminal", "II", frame, a, b, None, ("corollary-11",))
            self.note_candidate(frame, a, b, "corollary-11")
            self.phase_end = "II"
            return
        if "x" in ties:
            status, a1, b1 = self.phase2x(frame, a, b, "x-xy")
            if status == "phase3":
                self.phase3(frame, a1, b1)
            else:
                self.phase_end = "II"
            return
        if "y" in ties:
            fl = frame.flip()
            a2, b2 = frame.L - b, frame.L - a
            status, a1, b1 = self.phase2x(fl, a2, b2, "x-xy")
            if status == "phase3":
                self.phase3(fl, a1, b1)
            else:
                self.phase_end = "II"
            return
        if "anti" in ties:
            self.phase2x(frame, a, b, "anti-xy")
            fl = frame.flip()
            self.phase2x(fl, frame.L - b, frame.L - a, "anti-xy")
            self.phase_end = "II"
            return
        self.phase_end = "I"

    # -- final selection --------------------------------------------------

    def best(self):
        cat = self.cat
        valid = []
        for cd in self.candidates:
            if cd["traj"] is not None and self.traj_cut is not None \
                    and cd["traj"] > self.traj_cut:
                continue
            valid.append(cd)
        # Keep the cost bounded: evaluate the tagged points plus a spread
        # of segment ends.
        tagged = [cd for cd in valid if cd["tag"] != "segment-end"]
        seg = [cd for cd in valid if cd["tag"] == "segment-end"]
        if len(seg) > 24:
            step = len(seg) / 24.0
            seg = [seg[int(i * step)] for i in range(24)] + [seg[-1]]
        best_val = cat.diam_t
        best_ab = (cat.c_arc, cat.c_arc)
        for cd in tagged + seg:
            val = cat.evaluate(cd["a"], cd["b"])
            if val < best_val - 1e-3 * self.tol:
                best_val = val
                best_ab = (cd["a"], cd["b"])
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


def optimize(tree, diagnostic=False, record_segments=True) -> OptimizeResult:
    """Find a shortcut minimizing the continuous diameter of T + pq."""
    decomp = backbone(tree)
    diam = decomp.diameter
    from .augmented_eval import has_useful_shortcut
    if not has_useful_shortcut(decomp):
        c = decomp.center
        return OptimizeResult(Shortcut(c, c), diam, diam, False, (),
                              "degenerate", decomp.center_arc,
                              decomp.length - decomp.center_arc, (), 0, 0)
    eng = _Engine(tree, decomp, diagnostic=diagnostic,
                  record_segments=record_segments)
    eng.run()
    val, (a, b) = eng.best()
    useful = val < diam - tree.tol
    if not useful:
        c = decomp.center
        return OptimizeResult(Shortcut(c, c), diam, diam, False,
                              tuple(eng.events), eng.phase_end,
                              decomp.center_arc,
                              decomp.length - decomp.center_arc,
                              tuple(eng.segments), len(eng.events),
                              eng.diag_count)
    p = eng.cat.arc_to_treepoint(a)
    q = eng.cat.arc_to_treepoint(b)
    return OptimizeResult(Shortcut(p, q), diam, val, True,
                          tuple(eng.events), eng.phase_end, a,
                          decomp.length - b, tuple(eng.segments),
                          len(eng.events), eng.diag_count)


# -- public state-machine wrappers -----------------------------------------


def start_sweep(tree) -> SweepState:
    decomp = backbone(tree)
    eng = _Engine(tree, decomp)
    eng.run()
    c = decomp.center_arc
    return SweepState("I", c, decomp.length - c, frozenset(), decomp.diameter,
                      c, decomp.length - c, decomp.diameter, False, eng, 0)


def _advance(state, phases):
    eng = state.engine
    i = state.cursor
    last = None
    while i < len(eng.events) and eng.events[i].phase in phases:
        last = eng.events[i]
        i += 1
    state.cursor = i
    if last is not None:
        state.phase = last.phase
        state.p_arc = last.p_arc
        state.q_arc = last.q_arc
        state.diameter = eng.cat.evaluate(last.p_arc,
                                          eng.cat.L - last.q_arc)
        if state.diameter < state.best_diameter:
            state.best_diameter = state.diameter
            state.best_p_arc = last.p_arc
            state.best_q_arc = last.q_arc
    outcome = "handoff"
    if last is not None and last.kind == "terminal":
        outcome = last.payload[0] if last.payload else "terminal"
    return state, outcome


def run_phase1(state):
    return _advance(state, ("I",))


def run_phase2(state, direction="toward-x"):
    if direction not in ("toward-x", "toward-y"):
        raise ValueError("direction must be toward-x or toward-y")
    return _advance(state, ("II-x", "II-o", "II"))


def run_phase3(state):
    return _advance(state, ("III",))


def next_event(state) -> Event:
    eng = state.engine
    if state.cursor >= len(eng.events):
        return None
    ev = eng.events[state.cursor]
    state.cursor += 1
    state.phase = ev.phase
    state.p_arc = ev.p_arc
    state.q_arc = ev.q_arc
    state.diameter = eng.cat.evaluate(ev.p_arc, eng.cat.L - ev.q_arc)
    if state.diameter < state.best_diameter:
        state.best_diameter = state.diameter
        state.best_p_arc = ev.p_arc
        state.best_q_arc = ev.q_arc
    return ev


def balance_solve(tree, decomp, path_state, p_arc) -> float:
    """Arc position of q (measured from b) balancing the named families.

    `path_state` is an iterable of descriptors like "x-shortcut-y",
    "x-tree-wedge", or "wedge-p-interior"; it must name the x-y family
    together with an x-side or antipodal family, or both side families.
    """
    eng = _Engine(tree, decomp, record_segments=False)
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
    beta = eng.balance(cat, alpha, cat.c_arc, pair)
    return cat.L - beta
