"""Three-phase event-driven search for an optimal shortcut.

Phase I out-shifts the shortcut from the degenerate placement at the
absolute center, shrinking the x-y diametral paths at unit speed, until
a second family of diametral paths appears; its conditions never
decrease, so that is one root of their maximum, found without a walk.
That root fixes the whole motion, and one event at it is phase I's
trace.  Phase II shifts sideways (toward x or toward y, branching on an
antipodal tie) while a balance equation re-derives the trailing
endpoint.  Phase III out-shifts while balancing the x-side against the
y-side families; where both are tree-routed neither depends on q, and
the balance leaves q free.  Each phase-III run keeps the trajectory it
walked and finishes with a binary search on it for the first placement
where a path between two wedges becomes diametral, then a stop find
inside the bracketing step.  That path, by the tree or through the
shortcut, is the one part of the exact diameter the families leave
unmonitored; its length is one ``Caterpillar.pairs`` query.

Phases II and III run from one depth-first work list (``_Engine.run``)
of walks, all run by one handler, ``_Engine.walk``, from one table,
``_WALKS``: by pair, the walk's phase, watches, stop event and
signatures, and the walks that follow a stop on each watch, in the frame
or its flip, some with q from one balance solve started at the stop.
No walk calls another; each returns the tasks that follow it.
Every motion of phases II and III is one walk, ``_Engine._drive``: drive
one endpoint across the backbone breakpoints, let a balance equation
carry the other, and stop at the first event.  Every walk keeps one
named pair of families in balance (``_PAIRS``: x-xy, anti-xy, anti-y or
x-y), and the diameter it tracks is the larger of that pair.  The walk,
not its phase, owns the rules they share: it stops on the delta floor
(the largest B-sub-tree diameter, which no shortcut can shrink),
with one ``("delta-floor",)`` terminal, a watch for a family that
tied where the walk started must clear one entry margin, ``2 tol``, so
that it does not fire before the motion starts, and every stretch, the
one the walk stops in too, ends alike: each interval between two reads
where the diameter falls and rises again is searched for its dip, and
the stretch's last state is noted as its segment end.  No search moves
the walk: q's next balance solve starts from the walk's own path.  The
solves themselves can still move phase III's q back toward c, on a few
trees.  Continuous motion is realized cell by cell.  Inside a cell
every family's length is one term, w + A_alpha d alpha + A_beta d beta
+ k de, and ``Caterpillar.families`` reports each family's (A_alpha,
A_beta, k) and what bounds the cell, so the balance of two families
has a closed-form root there, one quadratic in q after squaring the
chord (``Caterpillar.balance_root``), and the cell's end along a line
is one more (``Caterpillar.cell_end``).  A walk reads once per cell,
the kinetic way (Basch, Guibas and Hershberger, "Data structures for
mobile data", SODA 1997): from each read it steps a tenth past the end
of the read's cell, where the diameter stops falling or a watch's rate
brings it to 0, whichever comes first, and reads the families once at
the root the cell of the last read predicts.  That read is the walk's
state even where the cell has changed under it: the pair is off balance
there, but the root of its own cell, which the next read starts from,
keeps the walk's path exact.  A balance solve that must balance (at a
stop, a dip, a juncture) steps to the closed-form root of each read's
cell until the residual is within the acceptance.  A step across the
root brackets it; where a step would leave the limits, is not defined
or fails to shrink the residual, a bracket grown from the guess, from
a fixed first step of 1e-4 L, does.  Inside the bracket
``newton_root``, the one root finder, takes Newton steps safeguarded by
bisection, each at least eps/4 long, and stops where |g| is within the
caller's acceptance, the bracket is eps wide or no float lies inside
it.  Every stop (phase I's end, a walk's first event on a stretch, the
wedge crossing) follows one rule, ``_Engine._first_stop``: take the
states read at points in order until the largest watch holds at one,
stop there or at the root ``newton_root`` finds of that largest watch
in the interval before it, keep the state the root finder read there,
and name the stop after the first watch that holds in it.  The same
terms give every watch its exact slope along the motion: a watch is a
family less the diameter the motion tracks, and along a walk that
balances g = u - v q moves by d beta / d alpha = -g_alpha / g_beta,
each partial A + k times the chord's partial (``FamilyView.de`` and
``de_alpha``).  The root finder takes Newton steps on that slope at
every read, about two reads a walk stop.  Phase I moves along a line
in (alpha, beta), so its watch has a closed-form root in each cell
(``Caterpillar.line_root``), and its Newton steps land there.  A dip
is found alike, as the root from - to + of the diameter's slope along
the walk, after a first read where the tangents of the interval's ends
cross.  The phases note candidate
placements in one list: phase I's end, phase III's starts, the walks'
dips and segment ends, and the wedge crossing; a stop notes none of
its own, its state ends the stretch it stops in.  Every distinct one is
evaluated exactly and the best is polished by a compass search on the exact
evaluator.  A stationarity certificate (``Caterpillar.safe_probes``)
shows which probes cannot improve, from lower bounds read at the probes
themselves; the search evaluates no such probe, so it ends where the
full search ends.  ``OptimizeResult.events`` is the inspectable trace
of a run.  Recording (``record_segments``, off by default) re-probes
the walk to fill the motion segments and the phase-III diagnostic
count; it never steers the sweep.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter

import numpy as np

from .augmented_eval import has_useful_shortcut
from .caterpillar import Caterpillar
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
    ``dq`` is None where the balance leaves q free.
    """

    name: str
    dq: object
    ddiam: object


def _laws():
    t1 = {
        "via": SpeedLaw("x-shortcut-wedge",
                        lambda d, de: 0.0, lambda d, de: d + de),
        # Never recorded: no segment of random_tree(s, 5 + s % 40, shape)
        # for s = 1000..1599 or of stress_family(1..40) follows this law.
        "anti": SpeedLaw("x-antipodal",
                         lambda d, de: (d + de) / 3.0,
                         lambda d, de: 2.0 * (d + de) / 3.0),
        "tree": SpeedLaw("x-tree-wedge",
                         lambda d, de: d + de, lambda d, de: 0.0),
        "anti-balance": SpeedLaw("wedge-interior",
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
        # Neither family depends on q here: the balance leaves q free.
        ("tree", "tree"): ("tree-tree", None, lambda d, de: 0.0),
    }
    laws = {("t1", key): law for key, law in t1.items()}
    for key, (name, dq, dd) in t2.items():
        laws[("t2",) + key] = SpeedLaw(name, dq, dd)
    return laws


SPEED_LAWS = _laws()

# The family pairs a balance keeps equal, as the names of the two lengths
# on a families view.  A balance's residual is their difference, its slope
# the difference of their slopes in beta, A_beta + k de from their terms,
# and the diameter a walk tracks is the larger of the two.
_PAIRS = {
    "x-xy": ("fx", "xy"),
    "anti-xy": ("fanti", "xy"),
    "anti-y": ("fanti", "fy"),
    "x-y": ("fx", "fy"),
}


# By pair: the two lengths and their terms on a families view.
_READS = {pair: attrgetter(u, v, u + "_term", v + "_term")
          for pair, (u, v) in _PAIRS.items()}


def _active(pair):
    """The diameter a walk balancing ``pair`` tracks: the larger of the
    pair."""
    both = attrgetter(*_PAIRS[pair])
    return lambda fv: max(both(fv))


# The family each watch of a stop watches, by the watch's name; the delta
# floor watches a constant.  A watch is that family less the diameter the
# motion tracks and a margin (``_Engine._watches``), so its slope along
# the motion is that of the difference of their terms.
_WATCHED = {"antipodal": "fanti", "x-side": "fx", "y-side": "fy",
            "xy-retie": "xy"}
# By watch name: its family's term on a families view, 0 for the floor.
_TERM = {"delta-floor": lambda fv: (0.0, 0.0, 0.0), **{
    name: attrgetter(fam + "_term") for name, fam in _WATCHED.items()}}


# A row of ``_WALKS``: how the walk that balances one pair runs.
# ``watches`` are its watches in naming order, ``tied`` those whose family
# ties where the walk starts.  A stop on a watch emits ``stop``, (kind,
# payload prefix), with the watch's name last.  ``branch`` and ``law`` are
# ``_Engine._drive``'s signatures.  Where ``toward_c``, p is walked toward c
# too, after what follows the walk toward a.  ``then`` gives, by watch, the
# walks that follow a stop on it, each as (pair, mirrored, solved): in the
# frame's flip where mirrored, and with q from one balance solve started
# at the stop where solved.  A parked p follows as a stop on ``park``
# where that watch's family ties there.
_Walk = namedtuple("_Walk", "phase watches tied stop branch law toward_c "
                   "park then")


def _via(law):
    """``law`` where the x-y family runs via the shortcut, else None."""
    return lambda fv: law(fv) if fv.xy_branch == "via" else None


_VIA = lambda fv: (fv.fx_branch == "via", fv.xy_branch == "via")
_PATH_STATE, _COROLLARY = ("path-state", ()), ("terminal", ("corollary-11",))

# The paper's phase II and III case analysis: by ``_PAIRS`` pair, the walk
# that keeps it in balance and the walks that follow each of its stops.
# The x-xy walk (phase II toward x; toward y in the flip) hands off to
# phase III where the y-side ties.  At a juncture of it, the x-y family
# drops out and the antipodal family is kept balanced against the side
# family that just tied (anti-y); from the anti-xy walk, alternatively,
# the antipodal family drops out and the x-xy walk goes on with that side
# family.  The anti-y walk ends where both side families tie, in a phase
# III out-shift, or where the x-y family rejoins, in an x-xy walk toward
# y.  Phase III ends its branch.
_WALKS = {
    "x-xy": _Walk(
        "II-x", ("y-side", "antipodal"), ("antipodal",), _PATH_STATE, _VIA,
        (lambda fv: (fv.fx_branch, fv.fx_pendant, fv.xy_branch),
         _via(lambda fv: SPEED_LAWS[("t1", fv.fx_branch)])), False,
        "y-side", {"y-side": (("x-y", False, False),),
                   "antipodal": (("anti-y", True, False),)}),
    "anti-xy": _Walk(
        "II-o", ("y-side", "x-side"), (), _PATH_STATE, _VIA,
        (lambda fv: (fv.fanti_pendant, fv.xy_branch),
         _via(lambda fv: SPEED_LAWS[("t1", "anti-balance")])), False, None,
        {"y-side": (("anti-y", False, False), ("x-xy", True, True)),
         "x-side": (("anti-y", True, False), ("x-xy", False, True))}),
    "anti-y": _Walk(
        "II-o", ("x-side", "xy-retie"), ("x-side", "xy-retie"), _COROLLARY,
        None, None, True, None,
        {"x-side": (("x-y", False, True),),
         "xy-retie": (("x-xy", True, True),)}),
    "x-y": _Walk(
        "III", ("antipodal",), ("antipodal",), _COROLLARY,
        lambda fv: (fv.fx_branch == "tree", fv.fy_branch == "tree"),
        (lambda fv: (fv.fx_branch, fv.fx_pendant, fv.fy_branch,
                     fv.fy_pendant),
         lambda fv: SPEED_LAWS[("t2", fv.fx_branch, fv.fy_branch)]), False,
        None, {"antipodal": ()}),
}


def _rate(fv, term, less, da, db):
    """The slope at the view ``fv`` along the motion (da, db) in (alpha,
    beta) of a length of term ``term`` less one of term ``less``, each
    (A_alpha, A_beta, k): the A's difference along the motion plus dk
    times the chord's, from ``FamilyView.de_alpha`` and ``de``.  Where dk
    is 0 the chord cancels, also where its slopes are NaN."""
    (a, b, k), (la, lb, lk) = term, less
    k -= lk
    return (a - la) * da + (b - lb) * db + (k and k * (
        fv.de_alpha * da + fv.de * db))


def newton_root(fn, lo, hi, eps, accept):
    """A root of fn inside the bracket of the reads ``lo`` and ``hi``.

    fn(x) gives (f, f'), the value and its slope, or None for the slope
    where the caller has none; ``lo`` and ``hi`` are such reads (x, f, f')
    with lo's x below hi's and f(lo) < 0 <= f(hi).  Returns a point where
    |f| <= accept, else the right end of a bracket at most eps wide (up
    to rounding) or with no float strictly inside.

    Newton's method safeguarded by bisection (Brent, "Algorithms for
    Minimization without Derivatives", 1973, ch. 4).  A read without a
    slope takes the secant through the bracket end it replaces; until an
    end is replaced, the bracket's own secant (regula falsi) serves.
    Each step is the Newton point of the end that predicts the shorter
    step, moved at least eps/4 as in Brent's method, so that a step that
    pins a root lands across it and the bracket closes.  Where accept is
    0 or less the search can only end on a read where f >= 0, so a step
    from an end with fn's own slope aims eps/8 past its Newton point: one
    that pins the root lands across it.  Where the Newton point lies
    outside the bracket or the slope there is not positive and finite,
    the step is the midpoint.  A Newton step that does not halve the
    bracket is followed by a midpoint step, except the first: on a
    residual with one kink inside the bracket and exact slopes, the end
    beyond the kink either predicts a step longer than the other end's
    exact one or lands on the root's side of the kink, where the next
    Newton step is exact, so at most two reads follow the bracket.  Every
    other read halves the bracket or precedes one that does, so the
    finder reads at most 2 ceil(log2((hi - lo) / eps)) + 1 points, about
    twice bisection's count, and never more than 200.
    """
    chord = (hi[1] - lo[1]) / (hi[0] - lo[0])
    # The reads where f < 0 and f >= 0, each with its slope and, as 1 or
    # 0, whether that slope is fn's own.
    ends = [(x, f, chord if s is None else s, s is not None)
            for x, f, s in (lo, hi)]
    for x, f, *_ in ends:
        if abs(f) <= accept:
            return x
    bias = 0.125 * eps if accept <= 0.0 else 0.0
    mid_next = False
    for i in range(200):
        (a, fa, sa, own_a), (b, fb, sb, own_b) = ends
        w = b - a
        if w <= eps or math.nextafter(a, b) == b:
            break
        d_lo = -fa / sa if 0.0 < sa < math.inf else math.inf
        d_hi = fb / sb if 0.0 < sb < math.inf else math.inf
        x = (a + max(d_lo + bias * own_a, 0.25 * eps) if d_lo <= d_hi
             else b - max(d_hi - bias * own_b, 0.25 * eps))
        newton = not mid_next and a < x < b
        x = x if newton else 0.5 * (a + b)
        f, s = fn(x)
        if abs(f) <= accept:
            return x
        side = f >= 0.0
        ends[side] = (x, f, s, True) if s is not None else (
            x, f, (f - ends[side][1]) / (x - ends[side][0]), False)
        mid_next = newton and i > 0 and ends[1][0] - ends[0][0] > 0.5 * w
    return ends[1][0]


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
    400 + 80n events, of which phase I gives at most one, at its end;
    ``event_count`` is its length.  ``segments`` and
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
    before it and ``state`` the families view read at the last solution,
    or by a probe whose cell the solution is the root of (None before
    the first).  A solve starts at the root that state's
    cell predicts (``Caterpillar.balance_root``): between events the cell
    holds, and its root is exact.  Where it predicts none, or the solve
    is at the last solution's alpha, the solve starts at the secant
    guess, the speed law's first-order prediction of q, whichever law
    holds; at the last solution's alpha that is its beta.  A search that
    reads the walk off its path (a re-probe, a dip search) saves this
    state first and restores it after, so that q's motion is the walk's
    alone.  ``slope`` is also d beta / d alpha along a walk where the
    balance leaves q free.
    """

    __slots__ = ("alpha", "beta", "slope", "floor", "state")

    def __init__(self, beta, floor):
        self.alpha, self.beta, self.slope = None, beta, 0.0
        self.floor = floor
        self.state = None

    def guess(self, alpha):
        if self.alpha is None:
            return self.beta
        return self.beta + self.slope * (alpha - self.alpha)

    def update(self, alpha, beta, state=None):
        """Record the solution ``beta`` at ``alpha``, read as ``state``.

        Solutions closer in alpha than 64 floors give no secant: their
        rounding would swamp it.
        """
        if (self.alpha is not None
                and abs(alpha - self.alpha) > 64.0 * self.floor):
            self.slope = (beta - self.beta) / (alpha - self.alpha)
        self.alpha, self.beta, self.state = alpha, beta, state

    def save(self):
        return self.alpha, self.beta, self.slope, self.state

    def restore(self, saved):
        self.alpha, self.beta, self.slope, self.state = saved


# ---------------------------------------------------------------------------


class _Engine:
    def __init__(self, tree, decomp, record_segments=False):
        self.tree = tree
        self.cat = Caterpillar(tree, decomp)
        self.tol = tree.tol
        self.eps = 1e-12 * tree.scale
        # The residual a balance solve accepts at its guess.
        self.accept = 1e-3 * self.tol
        # A walk that starts at a juncture starts with the family that
        # tied there exactly tied.  Its watch must rise past this margin
        # to fire, so it cannot fire before the motion starts.
        self.entry = 2.0 * self.tol
        # The first step of the bracket a balance solve grows when its
        # steps' guards fail.
        self.step = max(64.0 * self.eps, 1e-4 * self.cat.L)
        self.record_segments = record_segments
        self.events = []
        self.segments = []
        self.candidates = []       # (a, b, tag), in base coordinates
        self.diag_count = 0
        self.best_seen = math.inf
        self._junctures = set()
        self.phase_end = "phase1"
        self.event_cap = 400 + 80 * tree.n
        # What ``best`` read at the candidate it hands to ``_polish``.
        self._best_read = None

    # -- utilities -------------------------------------------------------

    @staticmethod
    def _mirror(frame, a, b):
        """The placement (a, b) of ``frame`` as seen from its flip."""
        return frame.flip(), frame.L - b, frame.L - a

    def _to_base(self, frame, a, b):
        return (a, b) if frame is self.cat else self._mirror(frame, a, b)[1:]

    def emit(self, kind, phase, frame, fv, payload=()):
        """An event at the placement of ``fv``, carrying its diameter.

        Events carry the monitored family value read at their placement;
        the wedge-wedge paths the sweep does not monitor are reconciled
        when candidates are re-evaluated exactly.
        """
        if len(self.events) >= self.event_cap:
            return
        ab, bb = self._to_base(frame, fv.alpha, fv.beta)
        if self.events:
            last = self.events[-1]
            if (last.kind == kind and abs(last.p_arc - ab) <= self.eps
                    and abs(last.q_arc - (self.cat.L - bb)) <= self.eps):
                return
        self.events.append(Event(kind, phase, ab, self.cat.L - bb,
                                 fv.diameter, payload))

    def note_candidate(self, frame, a, b, tag):
        self.candidates.append((*self._to_base(frame, a, b), tag))

    def note_if_better(self, frame, a, b, dval, tag):
        """Record a candidate only when it improves the monitored best."""
        if dval < self.best_seen - 1e-12 * self.tree.scale:
            self.best_seen = dval
            self.note_candidate(frame, a, b, tag)

    def ties(self, fv):
        """The families within tol of the diameter of ``fv``; the
        antipodal family is -inf where it has no pendant."""
        d = fv.diameter - self.tol
        return {name for name, w in (("xy", fv.xy), ("x", fv.fx),
                                     ("y", fv.fy), ("anti", fv.fanti))
                if w >= d}

    def _record_lawful(self, phase, frame, states, active, sig_fn, law_fn):
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
                    abs(frame.evaluate(fv.alpha, fv.beta) - active(fv))
                    > 1e-9 * self.tree.scale for fv in (fvs[0], fvs[-1])):
                continue
            probes = tuple((fv.alpha, fv.beta, fv.e, active(fv))
                           for fv in fvs)
            self.segments.append(
                MotionSegment(phase, law, frame is not self.cat, probes))

    # -- balance ---------------------------------------------------------

    def balance(self, frame, alpha, warm, pair, probe=False):
        """Solve for beta keeping the named family pair in balance.

        The solve (``_solve``) starts at the root the last solved state of
        the ``_WarmStart`` ``warm`` predicts, or at its secant guess, and
        records the solution and the state read there in it; a ``probe``
        may record a read off balance, with its cell's root.
        """
        lo_lim, hi_lim = max(alpha, frame.c_arc), frame.L
        u, v = _PAIRS[pair]
        guess = math.nan if warm.state is None or alpha == warm.alpha else \
            frame.balance_root(warm.state, alpha, u, v)
        guess = warm.guess(alpha) if math.isnan(guess) else guess
        fv, beta = self._solve(frame, alpha, pair, min(max(
            guess, lo_lim), hi_lim), lo_lim, hi_lim, probe)
        warm.update(alpha, beta, fv)
        return beta

    def _warm(self, b0):
        """A warm start at q = b0 that knows nothing of q's motion yet."""
        return _WarmStart(b0, 64.0 * self.eps)

    def _solve(self, frame, alpha, pair, guess, lo_lim, hi_lim, probe=False):
        """(fv, beta): the state at a root beta of the balance of the
        family ``pair`` near the guess, or at the limit reached without a
        sign change.

        Inside a cell each family of the pair is one term (A_alpha, A_beta,
        k) of ``Caterpillar.families``, so the residual g, their
        difference, has a closed-form root there
        (``Caterpillar.balance_root``), exact while the cell holds.  The
        solve reads the guess; where |g| <= ``accept`` that read is the
        solution.  Else it steps to the root of the cell of each read
        while the step is defined, each iterate stays in [lo_lim, hi_lim]
        and |g| strictly decreases, for at most four reads in all.  A step
        across the root brackets it with the point it started from.
        Without one, stepping away from the guess, from a first step of
        ``_Engine.step`` growing fourfold, brackets it.  Either way
        ``newton_root`` finds it inside the bracket from the residual's
        exact slope at each read, the difference of the two A_beta + k
        de/dbeta.  A ``probe`` takes the first read with a root in its cell
        inside the limits, and that root: where the cell has changed under
        the read, the pair is off balance there, the walk's path stays
        exact, and the state is off it by that much in beta.
        """
        u, v = _PAIRS[pair]
        terms, reads = _READS[pair], {}

        def g(beta):
            fv = reads[beta] = frame.families(alpha, beta)
            wu, wv, (_, bu, ku), (_, bv, kv) = terms(fv)
            return wu - wv, (bu + ku * fv.de) - (bv + kv * fv.de)

        start = read = (guess, *g(guess))
        for i in range(4):
            beta, gb, _ = read
            if abs(gb) <= self.accept:
                return reads[beta], beta
            nxt = frame.balance_root(reads[beta], alpha, u, v)
            if probe and lo_lim <= nxt <= hi_lim:
                return reads[beta], nxt
            if i == 3 or not lo_lim <= nxt <= hi_lim:
                break
            after = (nxt, *g(nxt))
            if (after[1] >= 0.0) != (gb >= 0.0):
                x = newton_root(g, *sorted([read, after]), self.eps,
                                self.accept)
                return reads[x], x
            if not abs(after[1]) < abs(gb):
                break
            read = after
        # Step away from the guess, downward where g > 0, by growing steps
        # until g changes sign or the bracket limit is reached.
        d, lim = (-1.0, lo_lim) if start[1] > 0.0 else (1.0, hi_lim)
        near = far = start
        step = self.step
        while d * far[1] < 0.0:
            if far[0] == lim:
                return reads[lim], lim
            near, x = far, max(lo_lim, min(hi_lim, far[0] + d * step))
            far = (x, *g(x))
            step *= 4.0
        x = newton_root(g, *sorted([near, far]), self.eps, self.accept)
        return reads[x], x

    # -- the stop rule ----------------------------------------------------

    def _first_stop(self, state_at, reads, watches, slope=None):
        """Where a motion stops: the first placement where a watch holds.

        ``watches`` is a list of (name, fn); a watch holds where fn >= 0.
        ``slope(fv, name, v)`` gives the slope along the motion of the
        watch ``name``, which reads v at ``fv``; without it the watches
        give no slopes.
        ``reads`` yields the states (s, fv) at ascending points; they are
        taken in order, up to the first where the largest watch holds;
        none after it.  The stop
        is that point or, when it is not the first, the root of the
        largest watch inside the interval before it: a read where it is 0
        or the right end of a bracket at most eps wide, found by
        ``newton_root`` from the largest watch's slope at every read, at
        the two points that bracket it too, or from the secants of its
        reads without slopes; the root finder reads ``state_at(s)``.
        Where a watch holds at a read and its slope
        puts the root within eps/4 before the read, the read is the root.
        Its state is the one the root finder read there, never a second
        read, since a balance solve started from another warm start can
        land elsewhere; the stop is named after the first watch, in list
        order, that holds in it.  Returns (s, name, fv, states) with
        states the reads [(s, fv)] taken; s, name and fv are None where no
        watch holds at any of them, and every read is taken.
        """
        def top(fv):
            # The largest watch, the first of equals, and its slope; a
            # read whose slope puts the root within eps/4 before it is the
            # root.
            v, i = max((fn(fv), -i) for i, (_, fn) in enumerate(watches))
            r = slope and slope(fv, watches[-i][0], v)
            return (0.0 if r and 0.0 <= v <= 0.25 * self.eps * r else v), r

        states, prev = [], None
        for s, fv in reads:
            states.append((s, fv))
            if max(fn(fv) for _, fn in watches) >= 0.0:
                break
            prev = s, fv
        else:
            return None, None, None, states
        if prev is not None:
            # With accept 0 the root finder returns the right end or a
            # point it read where g = 0; either way g >= 0.  It never
            # reads a point twice.
            read = {}
            g = lambda x: top(read.setdefault(x, state_at(x)))
            s = newton_root(g, (prev[0], *top(prev[1])), (s, *top(fv)),
                            self.eps, 0.0)
            fv = read.get(s, fv)
        name = next(nm for nm, fn in watches if fn(fv) >= 0.0)
        return s, name, fv, states

    def _diag_probe(self, frame, states):
        """Count the routing changes a re-probe passes: every pendant that
        pbar or qbar crosses (``FamilyView.cell``) and every branch change
        of a side family.  The walk processes none of them as events."""
        sigs = [(*fv.cell[1:], fv.fx_branch, fv.fy_branch) for _, fv in states]
        for a, b in zip(sigs, sigs[1:]):
            self.diag_count += abs(a[0] - b[0]) + abs(a[1] - b[1]) + (
                a[2:] != b[2:])

    def _dip(self, state_at, lo, hi, key, dslope):
        """The lowest state a search for the bottom of a dip reads.

        ``lo`` and ``hi`` are reads (s, fv) of a walk, lo before hi, where
        the diameter falls from lo on and rises again; ``key(fv)`` is the
        diameter and ``dslope(fv)`` its slope along the motion.  Where the
        slopes at the ends turn from - to +, the point where their
        tangents cross is read first, the bottom of a kink where the
        tracked family changes or q crosses a vertex; else, an end being
        flat or rising, the middle is.  The bottom is the root, from - to
        +, of the slope beside the lowest read, found by ``newton_root``
        on the secants of its reads to 1e-6 of the interval.  A read
        above the lowest lies on the far side of the bottom from it,
        whatever its own slope: between them the diameter turns down.
        Without a sign change the lowest read is the dip.
        """
        (a, fa), (b, fb) = lo, hi
        ra, rb = dslope(fa), dslope(fb)
        m = min(max((key(fb) - key(fa) + ra * a - rb * b) / (ra - rb), a),
                b) if ra < 0.0 < rb else 0.5 * (a + b)
        read = {a: fa, b: fb, m: state_at(m)}
        low, s = min((key(fv), x) for x, fv in read.items())

        def g(x):
            fv = read.get(x) or read.setdefault(x, state_at(x))
            d, up = dslope(fv), key(fv) - low
            return (math.copysign(abs(d) or up, x - s) if up > 0.0 else d,
                    None)

        ends = [(x, *g(x)) for x in sorted(read)]
        for left, right in zip(ends, ends[1:]):
            if left[1] < 0.0 <= right[1]:
                newton_root(g, left, right, max(self.eps, 1e-6 * (b - a)),
                            0.0)
                break
        return min(read.values(), key=key)

    # -- phase I ---------------------------------------------------------

    def phase1(self):
        """Out-shift p = c - t, q = c + t until a second family ties.

        No probing is needed: every condition is non-decreasing in t,
        because the x-y family shrinks at least as fast as each other
        family.  While both ends move, alpha + beta = 2c and the chord
        cancels in each gap; while one end is parked, |de/dt| <= 1.  The
        first crossing is therefore the one root of the maximum of the
        conditions, the stop ``_first_stop`` finds on [0, t_end], with
        the point where the first end parks between, since there every
        condition's slope in t changes.  p and q move along a line in
        (alpha, beta), so inside a cell each condition, its family's term
        less the x-y family's, has a closed-form root
        (``Caterpillar.line_root``); a read's slope is the one whose Newton
        step lands there, and where the cell has no root it is the exact
        slope, -d/d alpha + d/d beta while both ends move.  Its t fixes
        the whole motion, so phase I's
        trace is one event at its end, a terminal or a path state, and
        none where a second family ties at t = 0.  Returns (status, fv):
        status "tie" where a second family ties, "ab" where p and q park
        at a and b first, "delta" on the delta floor; fv is the state read
        at the end, by the root finder where the end is a root.
        """
        cat = self.cat
        c, L = cat.c_arc, cat.L
        t_end = max(c, L - c)
        state_at = lambda t: cat.families(max(0.0, c - t),
                                          min(L, c + t))
        # In sorted order: a stop is named after the first that holds.
        conds = self._watches(cat, attrgetter("xy"), (
            "antipodal", "delta-floor", "x-side", "y-side"))

        def slope(fv, name, v):
            # d/dt from the left: p moves up to t = c, q up to t = L - c.
            # Where the read's cell has a root, the slope is the one whose
            # Newton step lands on it (``Caterpillar.line_root``).
            t = max(c - fv.alpha, fv.beta - c)
            da, db = -float(t <= c), float(t <= L - c)
            term = _TERM[name](fv)
            dt = cat.line_root(fv, fv.alpha, v, term, fv.xy_term, da, db)
            return (-v / dt if dt and math.isfinite(dt)
                    else _rate(fv, term, fv.xy_term, da, db))

        fv = state_at(0.0)
        if self.ties(fv) - {"xy"}:
            return "tie", fv
        # Every condition's slope changes where the first end parks.
        points = sorted({0.0, min(c, L - c), t_end})
        _, name, fvc, states = self._first_stop(state_at, (
            (t, state_at(t) if t else fv) for t in points), conds, slope)
        if name is None:
            fv = states[-1][1]
            self.emit("terminal", "I", cat, fv, ("parked-ab",))
            return "ab", fv
        if name == "delta-floor":
            self.emit("terminal", "I", cat, fvc, ("delta-floor",))
            return "delta", fvc
        self.emit("path-state", "I", cat, fvc, (name,))
        return "tie", fvc

    # -- the walk shared by phases II and III -----------------------------

    def _watches(self, frame, ref, names, tied=()):
        """The watches ``names`` of a motion that tracks the diameter
        ``ref(fv)`` in ``frame``, as (name, fn) pairs: each is the family
        it watches (``_WATCHED``) less ``ref``, less the entry margin for
        the names in ``tied``, families that tied where the motion
        starts; the delta floor is the largest B-sub-tree diameter, plus
        tol, less ``ref``.  A family without a pendant is -inf."""
        def watch(name):
            if name == "delta-floor":
                return lambda fv: frame.delta + self.tol - ref(fv)
            get = attrgetter(_WATCHED[name])
            margin = self.entry if name in tied else 0.0
            return lambda fv: get(fv) - ref(fv) - margin
        return [(name, watch(name)) for name in names]

    def _drive(self, phase, frame, state_at, x0, end, conds, pair, warm,
               drive_q=False, branch_sig=None, law=None, track=None):
        """Drive one endpoint from x0 to end; stop at the first event.

        ``state_at(x, probe=False)`` gives the families with the driven
        endpoint (p, or q when ``drive_q``) at x; the other endpoint
        follows its balance equation, whose solves share the
        ``_WarmStart`` ``warm``, or stays put.  The motion is cut at the
        breakpoints of the frame into stretches, and on each stretch the
        walk reads once per cell of ``families``: from each read it steps
        a tenth past the end of the read's cell along the walk
        (``Caterpillar.cell_end``), past where the diameter stops falling
        (``Caterpillar.turn``) or past where a watch's rate there brings
        it to 0, whichever comes first, to the stretch's end exactly at
        the last.  The stretch's first read is the last one's end.  Each
        read is a probe (``balance``): where the cell has changed under
        it, it is off the walk's path by d beta, and where that leaves a
        watch within 4 d beta of holding it is solved.  ``_first_stop``
        takes the reads up to the first where the walk's watches
        ``conds`` or the delta floor hold, and finds where they first
        hold, on each watch's exact slope along the walk: q moves by d
        beta / d alpha = -g_alpha / g_beta, g the difference of the pair,
        by the walk's secant where the balance leaves q free and not at
        all where it is parked at a limit.  Returns (name, x, fv) at that
        stop, in the state its root finder read there, so the watch
        ``name`` holds in ``fv``; else (None, x, None) once x has reached
        end.

        Every walk shares its rules.  Its diameter is the larger of the
        family ``pair`` it keeps in balance (``_PAIRS``).  It stops on the
        delta floor, where that diameter falls to the largest B-sub-tree
        diameter; the walk then emits the ``("delta-floor",)`` terminal,
        and nothing follows it.  A watch for a family tied where the walk
        started subtracts the entry margin ``_Engine.entry``.

        Every stretch, the one the walk stops in too, ends with one tail.
        Its states are the reads taken before the stop and the stop's own
        state.  The tail reports changes of ``branch_sig(fv)``, the
        branches of the diametral paths, between them.  Each interval
        between two reads where the diameter's slope at the first is
        negative and the diameter is back up by the second, or its slope
        there is not negative, holds a dip; where the tangent at the first
        leaves room to beat the best seen, ``_dip`` searches it for the
        bottom, the root of the diameter's slope along the walk, and the
        lowest state the search read is noted as a candidate; a walk with
        a law reports a dip below both stretch ends as a grow-shrink
        event.  The search's solves are the walk's own.  No search moves
        the walk: the warm start the stop find left is restored after it,
        so q's next solve starts from the walk's own path.  The last state
        is appended to ``track`` as (alpha, beta, diameter) when a list is
        given, and noted as a segment-end candidate; a stop notes no
        candidate of its own.  Candidates are noted only where they beat
        the best seen (``note_if_better``).  The walk records the motion
        segments that obey ``law = (sig_fn, law_fn)`` on the stretches it
        crosses.  When recording, the segments and, on phase-III stretches
        only, the diagnostic count read a re-probe of the stretch at 24
        points, from the warm start the stop find started from.
        """
        active, terms = _active(pair), _READS[pair]
        conds = [*conds, *self._watches(frame, active, ("delta-floor",))]
        bps, sign = frame.bps_pad, 1 if end > x0 else -1

        def motion(fv):
            # (ref, da, db): along the walk q keeps g = u - v at 0, so d beta
            # / d alpha is -g_alpha / g_beta, or the walk's secant where q
            # is free, and u and v move alike, the one with the lesser chord
            # term the most exactly; ref is its term.  q parked at a limit,
            # where g is not 0, stays; a probe off balance moves on.
            wu, wv, tu, tv = terms(fv)
            ref, da, db = tu if wu >= wv else tv, 1.0 - drive_q, 1.0 * drive_q
            if not (drive_q or abs(wu - wv) > self.accept and fv.beta in (
                    frame.L, max(fv.alpha, frame.c_arc))):
                gb = _rate(fv, tu, tv, 0.0, 1.0)
                db = (-_rate(fv, tu, tv, 1.0, 0.0) / gb
                      if gb and math.isfinite(gb) else warm.slope)
                ref = tu if tu[2] < tv[2] else tv
            return ref, sign * da, sign * db

        slope = lambda fv, name, v=None: _rate(fv, _TERM[name](fv),
                                               *motion(fv))

        def step(fv, rest):
            # To the end of the read's cell, to where the diameter stops
            # falling, or to where a watch's rate there brings it to 0,
            # whichever comes first.  The diameter's slope at the read is
            # kept for the stretch's tail.
            ref, da, db = motion(fv)
            de = fv.de_alpha * da + fv.de * db
            rate = lambda t: t[0] * da + t[1] * db + (t[2] and t[2] * de)
            rates.append(r := rate(ref))
            out = min(frame.cell_end(fv, da, db, rest), frame.turn(
                fv, ref, da, db) if r < 0.0 and ref[2] else math.inf)
            for name, fn in conds:
                v, w = fn(fv), rate(_TERM[name](fv)) - r
                if -v < w * out:
                    out = -v / w
            return out

        x, fv0 = x0, None
        while sign * (end - x) > self.eps:
            i = bisect_right(bps, x + self.eps) if sign > 0 else \
                bisect_left(bps, x - self.eps) - 1
            at_bp = sign * (end - bps[i]) >= 0.0
            target = bps[i] if at_bp else end
            span = abs(target - x)
            # The stretch's last point is its end exactly: x + span can
            # round off the breakpoint, even out of [0, L].
            at = lambda s: target if s == span else x + sign * s
            seg = lambda s, probe=False: state_at(at(s), probe)
            rates = []

            def reads():
                # From each read on to a tenth past the end of its cell, so
                # that the next read is in the next cell; the first read is
                # the last stretch's end.  A read is a probe: off the path
                # by d beta it reads each watch to within 4 d beta, and
                # where that leaves one near holding, the balance is solved.
                s, fv = 0.0, fv0 or seg(0.0)
                while s < span:
                    yield s, fv
                    s += 1.1 * step(fv, span - s) + 0.125 * self.eps
                    s = span if s > span - self.eps else s
                    fv = seg(s, True)
                    off = (not drive_q) * abs(warm.beta - fv.beta)
                    if off and max(fn(fv) for _, fn in conds) >= -4.0 * off:
                        fv = seg(s)
                yield s, fv

            start = warm.save()
            sc, name, fvc, states = self._first_stop(seg, reads(), conds,
                                                     slope)
            left = warm.save()
            record, diag = law is not None and name is None, phase == "III"
            if self.record_segments and (record or diag):
                # The re-probe starts from where the stop find started:
                # where the balance leaves q free, only the walk's own warm
                # start reproduces the walk's path.
                warm.restore(start)
                fine = [(s, seg(s)) for s in [span * i / 24 for i in range(
                    24)] + [span]]
                warm.restore(left)
                if diag:
                    self._diag_probe(frame, fine)
                if record:
                    self._record_lawful(phase, frame, fine, active, *law)
            if name is not None:
                # A stopped stretch ends in the stop's own state.
                states[-1] = (sc, fvc)
            sigs = [branch_sig(fv) for _, fv in states] if branch_sig else []
            for (_, fv), prev, sig in zip(states[1:], sigs, sigs[1:]):
                if sig != prev:
                    self.emit("path-state", phase, frame, fv,
                              ("branch-change",))
            # An interval holds a dip where the diameter falls from its
            # start and rises again: by its end, or from its end on.  It
            # is searched where the tangent at its start, which a dip lies
            # above, leaves room to beat the best seen.
            dslope = lambda fv: -slope(fv, "delta-floor")
            rates.append(dslope(states[-1][1]))
            dvals = [active(fv) for _, fv in states]
            for k, ((a, lo), (b, hi)) in enumerate(zip(states, states[1:])):
                (ra, rb), d = rates[k:k + 2], dvals[k]
                if ra < 0.0 and (dvals[k + 1] >= d or rb >= 0.0) and \
                        d + ra * (b - a) < self.best_seen:
                    fvm = self._dip(seg, (a, lo), (b, hi), active, dslope)
                    self.note_if_better(frame, fvm.alpha, fvm.beta,
                                        active(fvm), "interior-min")
                    # A dip within tol of the stretch's ends is rounding
                    # on a flat stretch, not a grow-shrink turn.
                    if law is not None and active(fvm) < min(
                            dvals[0], dvals[-1]) - self.tol:
                        self.emit("grow-shrink", phase, frame, fvm,
                                  ("d-min",))
                    warm.restore(left)
            fv0 = fv1 = states[-1][1]
            if track is not None:
                track.append((fv1.alpha, fv1.beta, dvals[-1]))
            self.note_if_better(frame, fv1.alpha, fv1.beta, dvals[-1],
                                "segment-end")
            if name is not None:
                if name == "delta-floor":
                    self.emit("terminal", phase, frame, fvc, (name,))
                return name, at(sc), fvc
            if at_bp:
                self.emit("vertex-q" if drive_q else "vertex-p", phase,
                          frame, fv1, (target,))
            x = target
        return None, x, None

    def _balanced(self, frame, pair, b0):
        """State function of p with q keeping `pair` in balance, and the
        ``_WarmStart`` its solves share, starting at q = b0.

        Each solve starts from the last solved state or the secant
        through the previous two solutions, so the order of calls
        matters.
        """
        warm = self._warm(b0)

        def state_at(alpha, probe=False):
            self.balance(frame, alpha, warm, pair, probe=probe)
            return warm.state
        return state_at, warm

    # -- phases II and III: one walk per pair (toward y by frame flip) -----

    def walk(self, frame, a0, b0, pair, end=0.0):
        """Walk p from a0 toward ``end`` keeping ``pair`` in balance, q
        from b0; returns the tasks that follow.

        ``_WALKS[pair]`` gives the walk's phase, watches, signatures and
        what follows each stop: the stop emits its row's event, and the
        walks of its row's entry follow from the stop's state.  A parked
        p emits a ``parked-p`` terminal.  Phase III (x-y) notes its start
        as a candidate.  Every solve balances the pair, also where both
        side families are tree-routed; neither depends on q there, so the
        balance leaves q free: the cell predicts no root
        (``Caterpillar.balance_root``), the solve accepts its secant guess
        from the walk's last solutions, and ``SPEED_LAWS`` fixes no dq for
        that row.  Once p parks, phase III drives q outward to b with p
        held, then searches its trajectory for the wedge crossing; it
        ends the branch it runs on.
        """
        row = _WALKS[pair]
        phase, active = row.phase, _active(pair)
        state_at, warm = self._balanced(frame, pair, b0)
        conds = self._watches(frame, active, row.watches, row.tied)
        track = None
        if pair == "x-y":
            d0 = active(frame.families(a0, b0))
            track = [(a0, b0, d0)]
            self.note_if_better(frame, a0, b0, d0, "phase3-start")
        name, x, fv = self._drive(phase, frame, state_at, a0, end, conds,
                                  pair, warm, branch_sig=row.branch,
                                  law=row.law, track=track)
        if name is None and pair == "x-y":
            name, _, fv = self._drive(
                phase, frame, lambda b, probe=False: frame.families(x, b),
                warm.beta, frame.L, conds, pair, warm, drive_q=True,
                track=track)
            if name == "antipodal":
                self.emit("terminal", phase, frame, fv, ("q-drive", name))
            self.emit("terminal", phase, frame, frame.families(
                x, frame.L if fv is None else fv.beta), ("parked-ab",))
        elif name is None:
            fv = state_at(x)
            self.emit("terminal", phase, frame, fv, ("parked-p",))
            if row.park and getattr(
                    fv, _WATCHED[row.park]) >= fv.diameter - self.tol:
                name = row.park
        elif name != "delta-floor":
            kind, prefix = row.stop
            self.emit(kind, phase, frame, fv, (*prefix, name))
        if pair == "x-y":
            self._wedge_crossing(frame, track)
        tasks = []
        for nxt, mirrored, solved in row.then.get(name, ()):
            fr, a, b = (self._mirror(frame, fv.alpha, fv.beta) if mirrored
                        else (frame, fv.alpha, fv.beta))
            if solved:
                # q is one balance solve started at the stop's q; nothing
                # follows where it stops at a limit short of a root.
                solve, (u, v) = self._warm(b), _PAIRS[nxt]
                b = self.balance(fr, a, solve, nxt)
                gap = getattr(solve.state, u) - getattr(solve.state, v)
                if b in (max(a, fr.c_arc), fr.L) and abs(gap) > self.accept:
                    continue
            tasks.append((fr, a, b, nxt, nxt, 0.0))
        if row.toward_c and end == 0.0:
            tasks.append((frame, a0, b0, pair, None, frame.c_arc))
        return tasks

    def _wedge_crossing(self, frame, traj):
        """Note the first placement on phase III's trajectory where a
        path between two wedges ties the monitored diameter.

        ``traj`` holds the (alpha, beta, diameter) points of one phase-III
        run in ``frame``.  Wedge-wedge paths, by the tree or through the
        shortcut, are what the monitored families leave out of the exact
        diameter; ``Caterpillar.pairs`` gives the longest.  A binary
        search finds the first point where it ties; it passes ``pairs``
        the floor d - tol, so the pairs inside the cycle are gathered only
        where they could tie.  Between that point and its predecessor,
        ``_first_stop`` finds where "pairs minus diameter" first rises to
        -tol with q keeping the x-y balance; where it does not, no
        candidate is noted.
        """
        def margin(i):
            a, b, d = traj[i]
            return frame.pairs(a, b, frame.chord(a, b) + (b - a),
                               d - self.tol) - d
        n = len(traj) - 1             # margin(0) < -tol <= margin(n)
        if margin(n) < -self.tol or margin(0) >= -self.tol:
            return
        hi = bisect_left(range(n), True, 1,
                         key=lambda i: margin(i) >= -self.tol)
        (a_lo, b_lo, _), (a_hi, b_hi, _) = traj[hi - 1], traj[hi]
        width = a_lo - a_hi
        if width <= self.eps:
            return
        state_at, warm = self._balanced(frame, "x-y", b_hi)
        # q's first guesses follow the secant through the two ends.
        warm.update(a_hi, b_hi)
        warm.update(a_lo, b_lo)
        watch = ("wedge-crossing",
                 lambda fv: frame.pairs(fv.alpha, fv.beta, fv.cyc)
                 - max(fv.fx, fv.fy) + self.tol)
        at = lambda s: state_at(a_lo - s)
        _, name, fv, _ = self._first_stop(
            at, ((s, at(s)) for s in (0.0, width)), [watch])
        if name is not None:
            self.note_candidate(frame, fv.alpha, fv.beta, name)
            self.emit("path-state", "III", frame, fv, (name,))

    # -- driver ----------------------------------------------------------

    def run(self):
        """Phase I, then phases II and III as one depth-first work list.

        A task is (frame, p, q, pair, juncture tag, drive end); each walk
        (``walk``) returns the tasks that follow it, which are pushed in
        reverse so that the first runs next.  A task with a juncture tag
        runs only if its position, on a grid of ``1e-7 scale``, is novel
        under that tag: junctures can chain into each other, and this
        keeps the exploration finite.

        ``phase_end`` is "III" when phase III runs on the main chain:
        straight after phase I, or after the x-xy shift that phase I
        hands off to.  Phase III runs reached from a juncture leave it
        "II".
        """
        status, fv = self.phase1()
        cat = self.cat
        a, b = fv.alpha, fv.beta
        self.note_candidate(cat, a, b, "phase1-end")
        if status != "tie":
            self.phase_end = "I"
            return
        ties = self.ties(fv)
        tasks = []
        if "x" in ties and "y" in ties:
            tasks = [(cat, a, b, "x-y", None, 0.0)]
        elif "anti" in ties and ties & {"x", "y"}:
            self.emit("terminal", "II", cat, fv, ("corollary-11",))
        elif "x" in ties or "y" in ties:
            tasks = self.walk(*(self._mirror(cat, a, b) if "y" in ties
                                else (cat, a, b)), "x-xy")
        elif "anti" in ties:
            tasks = [(cat, a, b, "anti-xy", None, 0.0),
                     (*self._mirror(cat, a, b), "anti-xy", None, 0.0)]
        else:
            self.phase_end = "I"
            return
        self.phase_end = "III" if tasks and tasks[0][3] == "x-y" else "II"
        stack, g = tasks[::-1], 1e-7 * self.tree.scale
        while stack:
            frame, a, b, pair, tag, end = stack.pop()
            if tag is not None:
                ab, bb = self._to_base(frame, a, b)
                key = (tag, round(ab / g), round(bb / g))
                if key in self._junctures:
                    continue
                self._junctures.add(key)
            stack += self.walk(frame, a, b, pair, end)[::-1]

    # -- final selection --------------------------------------------------

    def best(self):
        """The best candidate, polished.  Each placement is evaluated
        once: a repeat scores what it scored before, which cannot beat
        the best by ``1e-3 tol``."""
        cat = self.cat
        best_val, best_ab = cat.diam_t, (cat.c_arc, cat.c_arc)
        for a, b in dict.fromkeys((a, b) for a, b, _ in self.candidates):
            val = cat.evaluate(a, b)
            if val < best_val - 1e-3 * self.tol:
                best_val, best_ab, self._best_read = val, (a, b), cat.last_read
        return self._polish(best_val, best_ab)

    def _polish(self, val, ab):
        """Compass-search refinement of the exact evaluator around ab.

        The evaluator is exact, so this can only improve the answer; it
        tightens the root-finding residue left by the event sweep and
        rescues the answers the sweep misses.  The step halves from
        ``L/64`` while no probe improves, down to ``tol/4``.  Wherever the
        center changes, ``Caterpillar.safe_probes`` shows which probes,
        by step level and direction, cannot improve on ``val``.  Such a
        probe is not evaluated, and a step level where every probe is safe
        is halved without evaluating.  Nor is a point read before, the
        center included: ``val`` only falls, so such a point cannot beat
        it now.  Only probes that could not move the search are skipped,
        so it visits the centers, and ends with the answer, of the full
        compass search.  The certificate takes the center's families view
        and cross pair from the ``evaluate`` that read it, by ``best`` or
        as the accepted probe.
        """
        cat = self.cat
        read = self._best_read
        a, b = ab
        a = min(max(a, 0.0), cat.c_arc)
        b = min(max(b, cat.c_arc), cat.L)
        # The step levels, smallest first, as a column.
        levels = []
        step = max(cat.L / 64.0, 4.0 * self.eps)
        while step > 0.25 * self.tol:
            levels.append(step)
            step *= 0.5
        levels.reverse()
        steps = np.array(levels)[:, None]
        k = len(levels) - 1             # the current level
        seen = {(a, b)}                 # the points read, and the center
        safe = None                     # per level and direction, safe
        while k >= 0:
            if safe is None:
                safe = cat.safe_probes(a, b, val, steps[:k + 1],
                                       read).tolist()
            step = levels[k]
            moved = False
            for (da, db), certified in zip(cat.COMPASS, safe[k]):
                if not moved and certified:
                    continue            # certified from this center
                a2 = min(max(a + step * da, 0.0), cat.c_arc)
                b2 = min(max(b + step * db, cat.c_arc), cat.L)
                if (a2, b2) in seen:
                    continue            # read before: cannot beat val now
                seen.add((a2, b2))
                v2 = cat.evaluate(a2, b2)
                if v2 < val - 1e-15 * cat.L:
                    val, a, b, read = v2, a2, b2, cat.last_read
                    moved = True
            if moved:
                safe = None
            else:
                k -= 1
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
    beta = eng.balance(cat, alpha, eng._warm(cat.c_arc), pair)
    return cat.L - beta
