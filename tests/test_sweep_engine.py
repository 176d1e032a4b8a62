import math
from bisect import bisect_right
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treecut import (
    GeometricTree,
    NoRootInBracket,
    Shortcut,
    augmented_diameter_value,
    backbone,
    balance_solve,
    optimize,
)
from treecut import smawk, sweep_engine
from treecut.augmented_eval import has_useful_shortcut
from treecut.caterpillar import NEG, Caterpillar
from treecut.oracle import (
    grid_search, polished_grid_optimum, random_tree, stress_family,
)
from treecut.sweep_engine import (
    _WALKS, SPEED_LAWS, _Engine, _active, newton_root,
)


def arc_of(cat, point):
    """Backbone arc (from a) of a returned shortcut endpoint."""
    from treecut.smawk import _backbone_arc
    return _backbone_arc(cat.decomp, point)


def test_optimize_right_angle_closed_form(t_l):
    res = optimize(t_l)
    assert res.useful
    assert res.diameter_after == pytest.approx(1.5469182, abs=1e-6)
    # both endpoints sit 0.2265410 from their backbone ends
    assert res.p_arc == pytest.approx(0.2265410, abs=1e-5)
    assert res.q_arc == pytest.approx(0.2265410, abs=1e-5)
    assert res.phase_end == "III"


def test_optimize_point_backbone_degenerate(t_hook):
    res = optimize(t_hook)
    assert not res.useful
    assert res.shortcut.is_degenerate
    assert res.diameter_after == pytest.approx(8.0)


def test_optimize_straight_backbone_degenerate():
    t = GeometricTree({0: (0.0, 0.0), 1: (2.0, 0.0)}, [(0, 1)])
    res = optimize(t)
    assert not res.useful
    assert res.diameter_after == pytest.approx(2.0)


def test_optimize_backbone_ends_on_one_point():
    # A square path whose ends are two vertices at one point: the shortcut
    # between them has length 0 and halves the diameter, and the polish
    # certificate reads a chord of 0 there.
    coords = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (1.0, 1.0), 3: (0.0, 1.0),
              4: (0.0, 0.0)}
    t = GeometricTree(coords, [(i, i + 1) for i in range(4)])
    res = optimize(t)
    assert res.useful
    assert res.diameter_after == pytest.approx(2.0)
    assert (res.p_arc, res.q_arc) == (0.0, 0.0)


def test_optimize_never_worse_than_grid():
    for seed in range(8):
        t = random_tree(seed, 10, "uniform")
        d = backbone(t)
        res = optimize(t, record_segments=False)
        h = d.diameter / 200.0
        g = grid_search(t, h)
        assert res.diameter_after <= g.best_diameter + 4 * h
        assert res.diameter_after >= d.delta - 1e-9 * t.scale


def test_returned_value_is_reevaluable():
    for seed in range(6):
        t = random_tree(seed, 11, "caterpillar")
        res = optimize(t, record_segments=False)
        if not res.useful:
            continue
        exact = augmented_diameter_value(t, res.shortcut)
        assert exact == pytest.approx(res.diameter_after, abs=1e-9 * t.scale)


def test_endpoints_bracket_center():
    for seed in range(10):
        t = random_tree(seed, 12, "uniform")
        d = backbone(t)
        res = optimize(t, record_segments=False)
        if not res.useful:
            continue
        assert 0.0 - 1e-9 <= res.p_arc <= d.center_arc + 1e-9
        assert 0.0 - 1e-9 <= res.q_arc <= d.length - d.center_arc + 1e-9


def test_event_trace_phases_ordered():
    t = random_tree(3, 9, "uniform")
    res = optimize(t)
    order = {"I": 0, "II": 1, "II-x": 1, "II-o": 1, "III": 2}
    ranks = [order[ev.phase] for ev in res.events]
    assert ranks == sorted(ranks)


def test_event_positions_reach_the_answer():
    # The trace is the inspectable record of a run: its best position,
    # evaluated exactly, is the answer (the unimproved tree when the
    # sweep finds no useful shortcut).
    t = random_tree(3, 9, "uniform")
    res = optimize(t)
    d = backbone(t)
    cat = Caterpillar(t, d)
    best = min([d.diameter] + [cat.evaluate(ev.p_arc, d.length - ev.q_arc)
                               for ev in res.events])
    assert best == pytest.approx(res.diameter_after, abs=1e-9 * t.scale)


def test_event_count_matches_trace():
    t = random_tree(5, 10, "caterpillar")
    res = optimize(t)
    assert res.events
    assert res.event_count == len(res.events)


def test_event_positions_bounded():
    for seed in (2, 4, 6):
        t = random_tree(seed, 10, "uniform")
        d = backbone(t)
        res = optimize(t)
        assert res.events
        for ev in res.events:
            assert ev.p_arc <= d.center_arc + 1e-9
            assert ev.q_arc <= d.length - d.center_arc + 1e-9


def test_balance_solve_symmetric(t_l):
    d = backbone(t_l)
    q = balance_solve(t_l, d, ["x-shortcut-y", "x-shortcut-wedge"],
                      0.2265410)
    assert q == pytest.approx(0.2265410, abs=1e-5)


def test_balance_solve_unbalanceable(t_l):
    d = backbone(t_l)
    with pytest.raises(NoRootInBracket):
        balance_solve(t_l, d, ["x-shortcut-y"], 0.2)


@pytest.mark.parametrize("path_state, gap", [
    (["x-shortcut-y", "x-shortcut-wedge"], lambda fv: fv.fx - fv.xy),
    (["x-shortcut-y", "wedge-interior"], lambda fv: fv.fanti - fv.xy),
    (["x-tree-wedge", "wedge-shortcut-y"], lambda fv: fv.fx - fv.fy),
], ids=["x-xy", "anti-xy", "x-y"])
def test_balance_solve_balances_the_named_pair(path_state, gap):
    # On this tree the three pairs balance at three different q, where
    # the other pairs' gaps are at least 0.11 (scale 7.5): a family
    # swapped in the pair table would miss.
    t = random_tree(3, 20, "caterpillar")
    d = backbone(t)
    p = 0.2 * d.center_arc
    q = balance_solve(t, d, path_state, p)
    fv = Caterpillar(t, d).families(p, d.length - q)
    assert abs(gap(fv)) <= t.tol


def test_balance_solve_degenerate_bracket(t_l):
    d = backbone(t_l)
    # p at the center leaves a zero-width alpha bracket; still answers
    q = balance_solve(t_l, d, ["x-shortcut-y", "x-shortcut-wedge"],
                      d.center_arc)
    assert 0.0 <= q <= d.length - d.center_arc + 1e-9


def test_speed_law_table_shapes():
    # one speed law per balance row of the sideways and out-shift tables
    t1 = [k for k in SPEED_LAWS if k[0] == "t1"]
    t2 = [k for k in SPEED_LAWS if k[0] == "t2"]
    assert len(t1) == 4
    assert len(t2) == 9
    # stationary far endpoint while a shortcut-routed path is diametral
    law = SPEED_LAWS[("t1", "via")]
    assert law.dq(0.3, 0.06) == pytest.approx(0.0)
    assert law.ddiam(0.3, 0.06) == pytest.approx(0.36)
    # one-third split when the antipodal family joins
    law = SPEED_LAWS[("t1", "anti")]
    assert law.dq(0.3, 0.06) == pytest.approx(0.12)
    assert law.ddiam(0.3, 0.06) == pytest.approx(0.24)
    # tree-routed paths on both sides: plateau, and q is free
    law = SPEED_LAWS[("t2", "tree", "tree")]
    assert law.ddiam(0.5, 0.1) == pytest.approx(0.0)
    assert law.dq is None
    # both sides through the shortcut: full chord gain
    law = SPEED_LAWS[("t2", "via", "via")]
    assert law.ddiam(0.5, 0.1) == pytest.approx(0.1)
    # antipodal on both sides: half the chord gain
    law = SPEED_LAWS[("t2", "anti", "anti")]
    assert law.ddiam(0.5, 0.1) == pytest.approx(0.05)


def test_speed_laws_balance_their_terms():
    # Each row balances two terms (A_alpha, A_beta, k), lengths that move
    # by A_alpha d alpha + A_beta d beta + k de (``Caterpillar.families``):
    # t1 rows an x-side family against the x-y via route, t2 rows the x
    # side against the y side.  A side family's via route here ends at a
    # wedge inside the cycle.  p moves toward a by d (d alpha = -d) and
    # the chord shrinks by de; q moves toward c by dq in t1 rows (d beta =
    # -dq) and toward b in t2 rows (d beta = dq).  Equal changes fix dq,
    # and minus the change is ddiam.
    x = {"via": (1.0, 1.0, 1.0), "anti": (0.5, 0.5, 0.5),
         "tree": (0.0, 0.0, 0.0)}
    y = {"via": (-1.0, -1.0, 1.0), "anti": (-0.5, -0.5, 0.5),
         "tree": (0.0, 0.0, 0.0)}
    xy_via = (1.0, -1.0, 1.0)
    rows = {("t1", key): (x[key], xy_via) for key in x}
    rows[("t1", "anti-balance")] = ((-0.5, 0.5, 0.5), xy_via)
    rows.update({("t2", u, v): (x[u], y[v]) for u in x for v in y})
    assert rows.keys() == SPEED_LAWS.keys()
    for key, (u, v) in rows.items():
        law = SPEED_LAWS[key]
        sign = -1.0 if key[0] == "t1" else 1.0
        for d, de in ((0.3, 0.06), (0.5, -0.1), (1.0, 0.0), (0.2, 0.25)):
            # Each term moves by c + m dq.
            cu, cv = (-w[0] * d - w[2] * de for w in (u, v))
            mu, mv = (sign * w[1] for w in (u, v))
            if mu == mv:
                # Neither term depends on q.
                assert law.dq is None and cu == cv, key
                dq = 0.0
            else:
                dq = (cv - cu) / (mu - mv)
                assert law.dq(d, de) == pytest.approx(dq, abs=1e-12), key
            assert law.ddiam(d, de) == pytest.approx(-(cu + mu * dq),
                                                     abs=1e-12), key


def test_recorded_segments_obey_their_law():
    checked = 0
    laws = set()
    for seed in range(60):
        if checked >= 25:
            break
        t = random_tree(seed, 5 + seed % 10,
                        ["uniform", "caterpillar"][seed % 2])
        d = backbone(t)
        if d.is_point or d.is_straight:
            continue
        res = optimize(t, record_segments=True)
        for sg in res.segments:
            if len(sg.probes) < 3:
                continue
            a0, b0, e0, d0 = sg.probes[0]
            for a1, b1, e1, d1 in sg.probes[1:]:
                drv = max(abs(a1 - a0), abs(b1 - b0))
                de = e0 - e1
                pred = sg.law.ddiam(drv, de)
                assert pred == pytest.approx(d0 - d1,
                                             abs=1e-6 * max(1.0, d0))
                # p is the driven end; the law's dq, where it fixes one,
                # is how far q trails.
                if sg.law.dq is not None:
                    assert sg.law.dq(abs(a1 - a0), de) == pytest.approx(
                        abs(b1 - b0), abs=1e-6 * max(1.0, d0))
            laws.add(sg.law.name)
            checked += 1
    assert checked >= 20
    assert len(laws) >= 5


# Trees whose recorded segments together cover every speed law the sweep
# reaches: recording random_tree(s, 5 + s % 40, shape) for s = 1000..1599
# and stress_family(1..40) shows 12 of the 13 laws, all but x-antipodal.
# wedge-interior appears on tree 1248 only.  tree-tree appears on stress
# trees only, three times on stress_family(4).
LAW_SEEDS = (1010, 1056, 1248, 1477, 1566)


def test_every_reachable_speed_law_is_recorded_and_obeyed():
    laws = set()
    trees = [random_tree(seed, 5 + seed % 40, CORPUS_SHAPES[seed % 3])
             for seed in LAW_SEEDS] + [stress_family(4)]
    for t in trees:
        tol = 1e-9 * t.scale
        for sg in optimize(t, record_segments=True).segments:
            a0, b0, e0, d0 = sg.probes[0]
            for a1, b1, e1, d1 in sg.probes[1:]:
                # p is the driven end; the law's dq, where it fixes one,
                # is how far q trails.
                d, de = abs(a1 - a0), e0 - e1
                assert d0 - d1 == pytest.approx(sg.law.ddiam(d, de), abs=tol)
                if sg.law.dq is not None:
                    assert abs(b1 - b0) == pytest.approx(sg.law.dq(d, de),
                                                         abs=tol)
            laws.add(sg.law.name)
    assert laws == {law.name for law in SPEED_LAWS.values()} \
        - {"x-antipodal"}, laws


@pytest.mark.parametrize("seed", [1067, 1071, 1253, 1388, 1550])
def test_phase3_never_moves_q_back_toward_c(monkeypatch, seed):
    # No search moves phase III's q.  When an interior-minimum search ran
    # its balance solves through the walk's warm start, phase III's next
    # solve started where the search stopped, and q jumped back toward c
    # by up to 0.23 * scale (tree 1388).  This does not say that q only
    # moves toward b: on a few other trees the walk's own solves move it
    # back between the probes of a stretch, by up to 0.27 * scale
    # between segment ends on random_tree(1000234, 30, "uniform").
    trajs = []
    crossing = _Engine._wedge_crossing

    def spied(self, frame, traj):
        trajs.append(list(traj))
        return crossing(self, frame, traj)

    monkeypatch.setattr(_Engine, "_wedge_crossing", spied)
    t = random_tree(seed, 5 + seed % 40, CORPUS_SHAPES[seed % 3])
    optimize(t)
    assert trajs
    back = max((b0 - b1 for traj in trajs
                for (_, b0, _), (_, b1, _) in zip(traj, traj[1:])),
               default=0.0)
    assert back <= 1e-9 * t.scale, back / t.scale


def test_blocked_at_optimum():
    for seed in range(6):
        t = random_tree(seed, 10, "uniform")
        d = backbone(t)
        res = optimize(t, record_segments=False)
        if not res.useful:
            continue
        cat = Caterpillar(t, d)
        alpha, beta = res.p_arc, d.length - res.q_arc
        h = 1e-4 * t.scale
        base = cat.evaluate(alpha, beta)
        for da, db in ((h, 0), (-h, 0), (0, h), (0, -h),
                       (h, h), (-h, -h), (h, -h), (-h, h)):
            a2 = min(max(alpha + da, 0.0), d.center_arc)
            b2 = min(max(beta + db, d.center_arc), d.length)
            assert cat.evaluate(a2, b2) >= base - 1e-9 * t.scale


def _root_case(fn, lo, hi, eps, root, accept=-1.0):
    """``newton_root`` on a fn that gives no slopes, as a stop's watch: the
    result holds, lies within eps of the first root ``root``, and takes at
    most 2 ceil(log2((hi - lo) / eps)) + 1 reads.  Returns the reads.

    A stop accepts a read where fn is 0; the default accepts none, so
    that on a stretch where fn is 0 the bracket still closes on its
    start."""
    reads = []

    def counted(x):
        reads.append(x)
        return fn(x), None

    got = newton_root(counted, (lo, fn(lo), None), (hi, fn(hi), None), eps,
                      accept)
    assert fn(got) >= 0.0
    slack = 4 * math.ulp(root)      # bracket ends are rounded floats
    assert root - slack <= got <= root + eps + slack
    assert len(reads) <= 2 * math.ceil(math.log2((hi - lo) / eps)) + 1
    return reads


ROOT_CASES = {
    "smooth": (lambda x: math.expm1(3.0 * (x - 0.61)), 0.0, 2.0, 0.61),
    "kinked": (lambda x: (x - 0.37) * (0.5 if x < 0.37 else 40.0), -3.0, 1.0,
               0.37),
    "step": (lambda x: -1.0 if x < 0.37 else 1.0, 0.0, 1.0, 0.37),
    # An end where fn is -inf gives no secant: the steps bisect.
    "infinite-end": (lambda x: NEG if x < 0.25 else x - 0.5, 0.0, 1.0, 0.5),
}


@pytest.mark.parametrize("case", sorted(ROOT_CASES))
def test_newton_root_without_slopes_brackets_first_root(case):
    fn, lo, hi, root = ROOT_CASES[case]
    eps = 1e-12
    reads = _root_case(fn, lo, hi, eps, root)
    if case == "smooth":
        # The secant steps pay off where the function is smooth: at most
        # half of bisection's reads.
        bisection = math.ceil(math.log2((hi - lo) / eps)) + 1
        assert 2 * len(reads) <= bisection, reads


def test_newton_root_without_slopes_on_one_kink():
    # Slope 1, then 3 past the kink at 0.7, and the root at 0.37: the
    # bracket's secant lands on the first piece, the secant through the
    # end it replaced has that piece's slope, and the Newton step from it
    # is exact.  Regula falsi on the bracket alone keeps the steep end and
    # creeps up on the root.  As in a stop, a read where fn is 0 ends the
    # search.
    fn = lambda x: x - 0.37 if x < 0.7 else 0.33 + 3.0 * (x - 0.7)
    reads = _root_case(fn, 0.0, 1.0, 1e-12, 0.37, accept=0.0)
    assert len(reads) <= 2, reads


def test_newton_root_stops_where_no_float_lies_between_its_ends():
    # eps far below the ulp of the bracket: once its ends are adjacent
    # floats the midpoint is one of them, and the finder stops rather than
    # read it again up to its cap of 200 reads.
    u = math.ulp(1.0)
    fn = lambda x: (x - 1.0 - 1.5 * u, 1.0)
    reads = []

    def counted(x):
        reads.append(x)
        return fn(x)

    ends = [(x, *fn(x)) for x in (1.0, 1.0 + 4 * u)]
    assert newton_root(counted, *ends, 1e-20, 0.0) == 1.0 + 2 * u
    assert len(reads) <= 3, reads


@st.composite
def monotone_pieces(draw):
    """A non-decreasing piecewise-linear fn with kinks and steps, and its
    bracket (lo, hi) with fn(lo) < 0 <= fn(hi)."""
    lo = draw(st.floats(-10.0, 10.0))
    hi = lo + draw(st.floats(0.01, 10.0))
    m = draw(st.integers(1, 6))
    cuts = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=m - 1,
                                max_size=m - 1)))
    knots = [lo] + [lo + (hi - lo) * c for c in cuts]
    slopes = draw(st.lists(st.sampled_from((0.0, 0.1, 1.0, 3.0))
                           | st.floats(0.1, 10.0), min_size=m, max_size=m))
    jumps = draw(st.lists(st.just(0.0) | st.floats(0.01, 10.0),
                          min_size=m - 1, max_size=m - 1))
    starts = [0.0]
    for i in range(1, m):
        starts.append(starts[-1] + slopes[i - 1] * (knots[i] - knots[i - 1])
                      + jumps[i - 1])
    top = starts[-1] + slopes[-1] * (hi - knots[-1])
    assume(top > 0.0)
    c = top * draw(st.floats(0.0, 1.0, exclude_min=True))
    assume(c > 0.0)

    def fn(x):
        i = max(bisect_right(knots, x) - 1, 0)
        return starts[i] + slopes[i] * (x - knots[i]) - c
    return fn, lo, hi


def _first_float_root(fn, lo, hi):
    """The first float in [lo, hi] where the monotone fn is >= 0."""
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            mid = math.nextafter(lo, hi)
        lo, hi = (lo, mid) if fn(mid) >= 0.0 else (mid, hi)
    return hi


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(monotone_pieces(), st.integers(1, 9))
def test_newton_root_without_slopes_on_monotone_piecewise_linear(case,
                                                                 digits):
    # fn(result) >= 0, the result within eps of the first root, and no more
    # reads than the bound of the docstring, on kinks, steps and flats.
    fn, lo, hi = case
    eps = (hi - lo) * 10.0 ** -digits
    _root_case(fn, lo, hi, eps, _first_float_root(fn, lo, hi))


@st.composite
def kinked_residuals(draw):
    """A continuous non-decreasing piecewise-linear residual with up to 40
    kinks, as (fn, lo, hi, kinks): fn(x) gives its value and its exact
    slope on the piece that holds x, and fn(lo) < 0 <= fn(hi).  The
    slopes are drawn, sorted into a convex or a concave residual, or grow
    geometrically over even pieces, either way: there Newton steps from
    the steep end creep a few kinks at a time."""
    lo = draw(st.floats(-10.0, 10.0))
    hi = lo + draw(st.floats(0.01, 10.0))
    m = draw(st.integers(1, 40))
    shape = draw(st.sampled_from(("drawn", "convex", "concave", "geometric",
                                  "geometric-concave")))
    if shape.startswith("geometric"):
        cuts = [i / m for i in range(1, m)]
        r = draw(st.floats(1.05, 2.0))
        slopes = [r ** i for i in range(m)]
    else:
        cuts = sorted(draw(st.lists(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            min_size=m - 1, max_size=m - 1, unique=True)))
        slopes = draw(st.lists(st.just(0.0) | st.floats(-8.0, 8.0).map(
            lambda e: 2.0 ** e), min_size=m, max_size=m))
    if shape != "drawn":
        slopes.sort(reverse=shape.endswith("concave"))
    knots = [lo] + [lo + (hi - lo) * c for c in cuts]
    assume(all(a < b for a, b in zip(knots, knots[1:] + [hi])))
    starts = [0.0]
    for i in range(1, m):
        starts.append(starts[-1] + slopes[i - 1] * (knots[i] - knots[i - 1]))
    top = starts[-1] + slopes[-1] * (hi - knots[-1])
    # The root anywhere, or near lo, where the steep end is far from it.
    c = top * draw(st.floats(0.0, 1.0, exclude_min=True)
                   | st.floats(-6.0, 0.0).map(lambda e: 10.0 ** e))
    assume(0.0 < c <= top)

    def fn(x):
        i = max(bisect_right(knots, x) - 1, 0)
        return starts[i] + slopes[i] * (x - knots[i]) - c, slopes[i]
    return fn, lo, hi, m - 1


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kinked_residuals(), st.integers(1, 9))
def test_newton_root_on_kinked_residuals(case, digits):
    # The result is within accept of a root or the right end of an
    # eps-wide bracket of the first root, after no more reads than the
    # bound the docstring states; with one kink, at most two reads.
    fn, lo, hi, kinks = case
    eps = (hi - lo) * 10.0 ** -digits
    ends = [(x, *fn(x)) for x in (lo, hi)]
    accept = 1e-10 * (ends[1][1] - ends[0][1])
    reads = []

    def counted(x):
        reads.append(x)
        return fn(x)

    got = newton_root(counted, *ends, eps, accept)
    g = fn(got)[0]
    if abs(g) > accept:
        root = _first_float_root(lambda x: fn(x)[0], lo, hi)
        slack = 4 * math.ulp(root)
        assert g >= 0.0 and root - slack <= got <= root + eps + slack
    assert len(reads) <= 2 * math.ceil(math.log2((hi - lo) / eps)) + 1
    if kinks == 1:
        assert len(reads) <= 2, (reads, got)


def test_newton_root_steps_again_after_the_first_step_past_a_kink():
    # Slope 1 left of the kink at 0.8, 10 right of it, root at 0.6.  The
    # steep end predicts the shorter step and lands at 0.78, beside the
    # root and short of halving the bracket; the next Newton step, from
    # the root's piece, is exact.  A midpoint there would cost a read.
    fn = lambda x: (x - 0.6, 1.0) if x < 0.8 else (0.2 + 10.0 * (x - 0.8),
                                                  10.0)
    reads = []

    def counted(x):
        reads.append(x)
        return fn(x)

    ends = [(x, *fn(x)) for x in (0.0, 1.0)]
    assert newton_root(counted, *ends, 1e-12, 1e-12) == 0.6
    assert reads == [pytest.approx(0.78), 0.6]


def test_balance_stays_in_bracket(monkeypatch):
    # On corpus trees 155 and 197 an unclamped first expansion step of a
    # balance solve drives q past b in phase III.
    out = []
    balance = _Engine.balance

    def checked(self, frame, alpha, guess, pair, **kwargs):
        beta = balance(self, frame, alpha, guess, pair, **kwargs)
        out.append((max(alpha, frame.c_arc), beta, frame.L))
        return beta

    monkeypatch.setattr(_Engine, "balance", checked)
    for seed in (155, 197):
        optimize(random_tree(seed, 14, "balanced"), record_segments=False)
    assert out
    assert all(lo <= beta <= hi for lo, beta, hi in out)


def test_families_calls_per_vertex_bounded(monkeypatch):
    """Deterministic work gate beside criterion 9's wall-clock gate.

    Walks that read once per cell of ``families``, each read at the root
    its last state's cell predicts, balance solves that step to the roots
    of their reads' cells, with a bracketed Newton fallback, dip searches
    only where the diameter's slope turns, stop finds that read no point
    past the first where a watch holds, a phase I that is one root find
    and a phase III that reads nothing outside its solves leave about
    0.46 and 0.56 families calls per vertex at n = 2000 and 4000 (1.00
    and 1.10 with six probes a stretch, 1.72 and 1.92 with solves by
    Newton steps from a secant guess, 2.20 and 2.49 with a bracket
    fallback that read no slopes and every probe read).
    """
    calls = [0]
    families = Caterpillar.families

    def counted(self, alpha, beta):
        calls[0] += 1
        return families(self, alpha, beta)

    monkeypatch.setattr(Caterpillar, "families", counted)
    per_vertex = {}
    for n in (2000, 4000):
        t = random_tree(11, n, "caterpillar")
        calls[0] = 0
        optimize(t, record_segments=False)
        per_vertex[n] = calls[0] / t.n
    assert max(per_vertex.values()) <= 0.9, per_vertex


def test_large_families_calls_bounded(monkeypatch):
    # Work gate on the benchmark's ``optimize-large`` trees: a walk reads
    # once per cell of ``families`` and takes each read as its state
    # with its own cell's balance root, about 3,400 calls on the three
    # trees (6,769 with six probes a stretch).
    calls, families = [0], Caterpillar.families

    def counted(self, alpha, beta):
        calls[0] += 1
        return families(self, alpha, beta)

    monkeypatch.setattr(Caterpillar, "families", counted)
    for seed in range(3):
        optimize(random_tree(seed, 2000, "caterpillar"))
    assert calls[0] <= 4500, calls[0]


def test_balance_families_per_solve(monkeypatch):
    # Work gate on the balance: a walk's probe reads once, at the root its
    # last state's cell predicts, and takes its own cell's root; a solve
    # that must balance steps to the roots of its reads' cells, and where
    # that fails searches a bracket by Newton steps on the slopes of its
    # reads (``newton_root``).  That leaves about 1.36 and 1.38 families
    # calls per solve at n = 2000 and 4000, and 1.46 on the three trees of
    # the benchmark's ``optimize-large`` pool (1.22, 1.25 and 1.30 with a
    # solve at each of six probes a stretch, 2.06, 1.98 and 2.16 with
    # Newton steps from a secant guess; with a search of the bracket that
    # read no slopes it was 2.55 and 2.56 at n = 2000 and 4000, and about
    # 5.5 with the bracket and that search alone).
    calls, solves, depth = [0], [0], [0]
    families, balance = Caterpillar.families, _Engine.balance

    def counted(self, alpha, beta):
        calls[0] += depth[0] > 0
        return families(self, alpha, beta)

    def traced(self, frame, alpha, guess, pair, **kwargs):
        solves[0] += 1
        depth[0] += 1
        try:
            return balance(self, frame, alpha, guess, pair, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(Caterpillar, "families", counted)
    monkeypatch.setattr(_Engine, "balance", traced)
    per_solve = {}
    pools = {2000: [11], 4000: [11], "optimize-large": [0, 1, 2]}
    for name, seeds in pools.items():
        calls[0] = solves[0] = 0
        for seed in seeds:
            n = 2000 if name == "optimize-large" else name
            optimize(random_tree(seed, n, "caterpillar"),
                     record_segments=False)
        per_solve[name] = calls[0] / solves[0]
    assert max(per_solve.values()) <= 1.5, per_solve


def test_corpus_families_calls_bounded(monkeypatch):
    # Work gate on the small trees, where fixed per-run costs dominate: a
    # juncture continues from one balance solve, not from a scan of the
    # balance for every root, a walk reads once per cell, a solve steps to
    # the closed-form root of the cell it reads, a dip is searched only
    # where the diameter turns in an interval, phase I is one root find, a
    # stop find reads no point past the first where a watch holds, a
    # failed solve searches its bracket by Newton steps, a stop's root
    # find and a dip search take Newton steps on the watch's and the
    # diameter's exact slopes along the motion, phase I's on the root of
    # the read's cell, and the polish certificate reads no families of
    # its own.  About 2,610 calls (3,270 with six probes a stretch, 4,587
    # with stop roots on the secants of their reads and a golden-section
    # dip search, 6,244 with solves by Newton steps from a secant guess,
    # 7,872 with the stops' search safeguarded by regula falsi on the
    # bracket too, 11,482 with every probe read as well).  Phase I reads
    # about 280 of them (787 on secants, 1,945 before).
    calls, phase1_calls, inside = [0], [0], [False]
    families, phase1 = Caterpillar.families, _Engine.phase1

    def counted(self, alpha, beta):
        calls[0] += 1
        phase1_calls[0] += inside[0]
        return families(self, alpha, beta)

    def traced(self):
        inside[0] = True
        try:
            return phase1(self)
        finally:
            inside[0] = False

    monkeypatch.setattr(Caterpillar, "families", counted)
    monkeypatch.setattr(_Engine, "phase1", traced)
    for seed in range(70):
        optimize(corpus_tree(seed))
    assert calls[0] <= 3900, calls[0]
    assert phase1_calls[0] <= 400, phase1_calls[0]


def test_corpus_reads_per_stop_root_and_dip_bounded(monkeypatch):
    # Work gate on the root finds themselves, on corpus trees 0..69: the
    # families calls inside each root find of ``_first_stop`` (not those
    # of its probes), split into walk stops and phase I's end, and inside
    # each dip search.  With the watch's exact slope along the motion a
    # walk stop's root reads about 2.4 and phase I's about 2.0; a dip
    # search, a read where the tangents of its interval's ends cross and
    # a root find of the diameter's slope, about 7.6 (5 with six probes a
    # stretch, whose dips sat between probes two intervals wide).  On the
    # secants of their reads with a golden-section dip search it was 4.3,
    # 9.2 and 35.4.  Phase I's conditions bend with the chord, so a
    # Newton step on their exact slope lands short of the root; a step to
    # the root of the read's cell (``Caterpillar.line_root``) lands on it
    # where the cell holds there.
    roots, reads, stack = Counter(), Counter(), []
    families, newton = Caterpillar.families, sweep_engine.newton_root

    def counted(self, alpha, beta):
        for key in reversed(stack):         # the innermost root find
            if key in ("walk", "phase I", "dip"):
                reads[key] += 1
                break
        return families(self, alpha, beta)

    def entered(key, fn):
        def traced(*args, **kwargs):
            roots[key] += 1
            stack.append(key)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
        return traced

    def root(*args):
        # A stop's root find is the newton_root call of _first_stop itself,
        # not one of a balance solve inside it.
        if stack and stack[-1] == "stop":
            key = "phase I" if "phase1" in stack else "walk"
            return entered(key, newton)(*args)
        return newton(*args)

    monkeypatch.setattr(Caterpillar, "families", counted)
    monkeypatch.setattr(sweep_engine, "newton_root", root)
    for name, key in (("_first_stop", "stop"), ("balance", "solve"),
                      ("phase1", "phase1"), ("_dip", "dip")):
        monkeypatch.setattr(_Engine, name, entered(key, getattr(_Engine,
                                                                name)))
    for seed in range(70):
        optimize(corpus_tree(seed))
    per = {key: reads[key] / roots[key] for key in ("walk", "phase I", "dip")}
    assert roots["walk"] > 100 and roots["phase I"] > 50, roots
    assert roots["dip"] > 5, roots
    assert per["walk"] <= 3.0, per
    assert per["phase I"] <= 3.0, per
    assert per["dip"] <= 8.0, per


def full_compass(eng, val, ab):
    """The polish without its stationarity stop: every step level from
    L/64 down to tol/4, eight probes each."""
    cat = eng.cat
    a, b = ab
    a = min(max(a, 0.0), cat.c_arc)
    b = min(max(b, cat.c_arc), cat.L)
    dirs = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0),
            (1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0))
    step = max(cat.L / 64.0, 4.0 * eng.eps)
    while step > 0.25 * eng.tol:
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


def polish_start(t):
    """The engine after its sweep, and the (val, (a, b)) that ``best``
    hands to ``_polish``; None where no shortcut is useful."""
    decomp = backbone(t)
    if not has_useful_shortcut(decomp):
        return None
    eng = _Engine(t, decomp)
    eng.run()
    seen = []
    eng._polish = lambda val, ab: seen.append((val, ab)) or (val, ab)
    eng.best()
    del eng._polish
    return eng, *seen[0]


@pytest.mark.parametrize("trees", [
    "criterion-1",
    "hold-out",
    "mixed",
])
def test_polish_ends_where_the_full_compass_search_ends(trees):
    # The certificate only skips probes that cannot improve, so the
    # polish returns bitwise what the full compass search returns: from
    # the sweep's best candidate, and from the middle of the box, where
    # the search walks far before it stops and meets the breakpoints and
    # branch changes that bound the certificate.  The hold-out trees are
    # built as ``tools/answers.py`` builds them.  On each set ``pairs``,
    # which only the wedge-pair witness follows, is within tol of the
    # families, where the certificate takes that witness
    # (``Caterpillar._witnesses``), at 40 starts or more (96, 101 and 44).
    # Counting only where ``pairs`` exceeds the families counted sweep
    # starts where it does so by rounding, 4e-16 to 5e-12 * scale.
    if trees == "criterion-1":
        specs = [(s, CORPUS_SIZES[s % 3], CORPUS_SHAPES[s % 3])
                 for s in range(210)]
    elif trees == "hold-out":
        specs = [(1000000 + i, CORPUS_SIZES[i % 3], CORPUS_SHAPES[i % 3])
                 for i in range(210)]
    else:
        specs = [(s, 5 + s % 96, CORPUS_SHAPES[s % 3])
                 for s in range(1000, 1100)]
    moved = paired = 0
    for spec in specs:
        start = polish_start(random_tree(*spec))
        if start is None:
            continue
        eng, val, ab = start
        cat = eng.cat
        mid = (0.5 * cat.c_arc, 0.5 * (cat.c_arc + cat.L))
        for val, ab in ((val, ab), (cat.evaluate(*mid), mid)):
            want = full_compass(eng, val, ab)
            assert eng._polish(val, ab) == want, (spec, ab)
            moved += want != (val, ab)
            fv = cat.families(*ab)
            paired += cat.pairs(*ab, fv.cyc) >= fv.diameter - eng.tol
    assert moved >= 50, moved
    assert paired >= 40, paired


def test_sweep_rescues_bounded():
    # The sweep should find the optimum by itself: a rescue is a tree on
    # which the polish moves the sweep's best candidate by more than
    # 1e-6 * scale.  On the 210 criterion-1 and 210 hold-out trees there
    # are 8 (28 when a walk's stop noted its own state but the stretch it
    # stopped in was never searched for its dip).
    specs = [(s, CORPUS_SIZES[s % 3], CORPUS_SHAPES[s % 3])
             for s in range(210)]
    specs += [(1000000 + i, CORPUS_SIZES[i % 3], CORPUS_SHAPES[i % 3])
              for i in range(210)]
    rescues = []
    for spec in specs:
        t = random_tree(*spec)
        start = polish_start(t)
        if start is None:
            continue
        eng, val, ab = start
        gap = (val - eng._polish(val, ab)[0]) / t.scale
        if gap > 1e-6:
            rescues.append((spec[0], gap))
    assert len(rescues) <= 10, rescues


def test_corpus_evaluate_calls_bounded(monkeypatch):
    # Work gate on ``optimize``'s exact evaluations over corpus trees
    # 0..69: every distinct candidate once, then the polish.  About 960
    # calls; 1,212 while every stop noted its own state unconditionally
    # and the stretch it stopped in was not searched, so that the polish
    # started farther from the optimum.
    calls, evaluate = [0], Caterpillar.evaluate

    def counted(self, alpha, beta):
        calls[0] += 1
        return evaluate(self, alpha, beta)

    monkeypatch.setattr(Caterpillar, "evaluate", counted)
    for seed in range(70):
        optimize(corpus_tree(seed))
    assert calls[0] <= 1050, calls[0]


def test_polish_evaluate_calls_bounded():
    # Work gate: on most corpus trees the sweep's best candidate is
    # already stationary, and the polish skips every step level that
    # safe_probes shows no probe can improve on.  The full compass search
    # makes a median of 216 evaluate calls here; a certificate that reads
    # each witness's tangent, and has no wedge-pair witness, a mean of
    # 86.6.  No point is read twice: ``val`` only falls, so a point read
    # before cannot beat it.  Repeats would come from probes back onto a
    # center left before and from probes clamped onto a box edge: corpus
    # tree 9's best candidate sits 8.9e-16 below beta = L, so three
    # directions clamp onto one point at every step level.
    calls = []
    for seed in range(70):
        eng, val, ab = polish_start(corpus_tree(seed))
        points = []
        evaluate = eng.cat.evaluate

        def counted(a, b):
            points.append((a, b))
            return evaluate(a, b)

        eng.cat.evaluate = counted
        eng._polish(val, ab)
        assert len(set(points)) == len(points), seed
        calls.append(len(points))
    assert np.median(calls) <= 110, sorted(calls)
    assert np.mean(calls) <= 45, sorted(calls)


def test_phase_end_follows_the_main_chain():
    # Corpus tree 1 runs phase III from a juncture of phase II; only a
    # phase III on the main chain (phase I, then the x-xy shift) ends
    # the run in phase III.
    res = optimize(corpus_tree(1))
    assert any(ev.phase == "III" for ev in res.events)
    assert any(ev.phase == "II-o" for ev in res.events)
    assert res.phase_end == "II"


def test_noted_values_match_their_position(monkeypatch):
    # Every candidate the sweep weighs by its monitored diameter must
    # carry the value of the position it records: one of the balanced
    # family pairs the phases monitor, read at that position.
    notes = []
    note = _Engine.note_if_better

    def checked(self, frame, a, b, dval, tag, *rest):
        fv = frame.families(a, b)
        pairs = ((fv.fx, fv.xy), (fv.fanti, fv.xy), (fv.fanti, fv.fy),
                 (fv.fx, fv.fy))
        off = min(abs(max(pair) - dval) for pair in pairs)
        notes.append((tag, off / self.tree.scale))
        return note(self, frame, a, b, dval, tag, *rest)

    monkeypatch.setattr(_Engine, "note_if_better", checked)
    shapes, sizes = ("uniform", "caterpillar", "balanced"), (5, 9, 14)
    for seed in range(12):
        optimize(random_tree(seed, sizes[seed % 3], shapes[seed % 3]),
                 record_segments=False)
    assert any(tag == "segment-end" for tag, _ in notes)
    bad = [(tag, off) for tag, off in notes if off > 1e-9]
    assert not bad, bad


def test_stretch_ends_land_on_their_breakpoints(monkeypatch):
    # A walk reads each stretch's last point at the breakpoint itself:
    # x + (target - x) can round off it, and out of [0, L] where the
    # breakpoint is a backbone end.  Every vertex event sits on the
    # breakpoint its payload names, and every candidate in [0, L].
    emit, best = _Engine.emit, _Engine.best
    off, outside, vertices = [], [], [0]

    def traced_emit(self, kind, phase, frame, fv, payload=()):
        if kind in ("vertex-p", "vertex-q"):
            vertices[0] += 1
            at = fv.alpha if kind == "vertex-p" else fv.beta
            if at != payload[0]:
                off.append((self.tree.n, kind, at - payload[0]))
        return emit(self, kind, phase, frame, fv, payload)

    def traced_best(self):
        outside.extend((self.tree.n, a, b) for a, b, _ in self.candidates
                       if not (0.0 <= a <= self.cat.L
                               and 0.0 <= b <= self.cat.L))
        return best(self)

    monkeypatch.setattr(_Engine, "emit", traced_emit)
    monkeypatch.setattr(_Engine, "best", traced_best)
    for seed in range(210):
        optimize(corpus_tree(seed))
    for seed in range(1000, 1100):
        optimize(random_tree(seed, 5 + seed % 96, CORPUS_SHAPES[seed % 3]))
    assert vertices[0] >= 500, vertices
    assert not off, off
    assert not outside, outside


def test_polish_reads_no_families_beyond_its_evaluates(monkeypatch):
    # The polish certificate takes the center's families view and cross
    # pair from the evaluate that read the center, in ``best`` or as the
    # accepted probe, so a polish reads families once per evaluate.
    calls = {"families": 0, "evaluate": 0, "_cross_pair": 0}
    inside = [False]
    originals = {name: getattr(Caterpillar, name) for name in calls}

    def counting(name):
        def counted(self, *args):
            calls[name] += inside[0]
            return originals[name](self, *args)
        return counted

    polish = _Engine._polish

    def traced_polish(self, val, ab):
        inside[0] = True
        try:
            return polish(self, val, ab)
        finally:
            inside[0] = False

    for name in calls:
        monkeypatch.setattr(Caterpillar, name, counting(name))
    monkeypatch.setattr(_Engine, "_polish", traced_polish)
    for seed in range(210):
        optimize(corpus_tree(seed))
    assert calls["evaluate"] >= 1000, calls
    assert calls["families"] == calls["evaluate"], calls
    assert calls["_cross_pair"] <= calls["evaluate"], calls


def test_recording_does_not_steer_the_sweep():
    # Recorded segments and the diagnostic count read a re-probe of the
    # walk; the walk itself, and so the answer and the trace, must not
    # depend on recording.
    shapes, sizes = ("uniform", "caterpillar", "balanced"), (5, 9, 14)
    recorded = 0
    for seed in range(30):
        t = random_tree(seed, sizes[seed % 3], shapes[seed % 3])
        rec, res = optimize(t, record_segments=True), optimize(t)
        recorded += len(rec.segments)
        assert not res.segments and not res.diagnostic_phase3_changes
        assert res.shortcut == rec.shortcut, seed
        assert res.diameter_after == rec.diameter_after, seed
        assert res.phase_end == rec.phase_end, seed
        assert res.events == rec.events, seed
    assert recorded > 0


def test_diagnostic_count_reads_phase_three_walks_only(monkeypatch):
    # ``diagnostic_phase3_changes`` counts phase-III stretches; phase-II
    # juncture walks that run after a phase-III call must not add to it.
    walking, probed = [], []
    drive, probe = _Engine._drive, _Engine._diag_probe

    def traced_drive(self, phase, *args, **kwargs):
        walking.append(phase)
        try:
            return drive(self, phase, *args, **kwargs)
        finally:
            walking.pop()

    def traced_probe(self, frame, states):
        probed.append(walking[-1])
        return probe(self, frame, states)

    monkeypatch.setattr(_Engine, "_drive", traced_drive)
    monkeypatch.setattr(_Engine, "_diag_probe", traced_probe)
    shapes, sizes = ("uniform", "caterpillar", "balanced"), (5, 9, 14)
    for seed in range(210):
        t = random_tree(seed, sizes[seed % 3], shapes[seed % 3])
        optimize(t, record_segments=True)
    assert probed
    assert set(probed) == {"III"}, sorted(set(probed))


CORPUS_SHAPES, CORPUS_SIZES = ("uniform", "caterpillar", "balanced"), (5, 9, 14)


def corpus_tree(seed):
    """Tree ``seed`` of the criterion-1 corpus."""
    return random_tree(seed, CORPUS_SIZES[seed % 3], CORPUS_SHAPES[seed % 3])


def test_phase1_conditions_never_decrease():
    # Phase I is one root find, not a walk, because each of its conditions
    # is non-decreasing along the out-shift p = c - t, q = c + t.
    worst = 0.0
    for seed in range(210):
        t = corpus_tree(seed)
        d = backbone(t)
        if not has_useful_shortcut(d):
            continue
        cat = Caterpillar(t, d)
        c, L = cat.c_arc, cat.L
        t_end = max(c, L - c)
        prev = None
        for i in range(400):
            s = t_end * i / 399
            fv = cat.families(max(0.0, c - s), min(L, c + s))
            now = (fv.fx - fv.xy, fv.fy - fv.xy,
                   fv.fanti - fv.xy if fv.fanti_pendant >= 0 else NEG,
                   cat.delta + t.tol - fv.xy)
            if prev is not None:
                for before, after in zip(prev, now):
                    if before > NEG:
                        worst = max(worst, (before - after) / t.scale)
            prev = now
    assert worst <= 1e-12, worst


def test_phase1_families_calls_bounded(monkeypatch):
    # Phase I reads the families only at t = 0, at t_end and in the root
    # find for its end, 45 calls on these trees however large they are.
    calls, counting = [0], [False]
    families, phase1 = Caterpillar.families, _Engine.phase1

    def counted(self, alpha, beta):
        calls[0] += counting[0]
        return families(self, alpha, beta)

    def traced(self):
        counting[0] = True
        try:
            return phase1(self)
        finally:
            counting[0] = False

    monkeypatch.setattr(Caterpillar, "families", counted)
    monkeypatch.setattr(_Engine, "phase1", traced)
    per_tree = {}
    for n in (2000, 4000):
        calls[0] = 0
        optimize(random_tree(11, n, "caterpillar"), record_segments=False)
        per_tree[n] = calls[0]
    assert max(per_tree.values()) <= 60, per_tree


def test_phase1_trace_is_its_end(monkeypatch):
    # With p = c - t and q = c + t, phase I's end fixes its whole motion,
    # so its trace is at most one event, placed at that end.
    ends, phase1 = [], _Engine.phase1

    def traced(self):
        out = phase1(self)
        ends.append(out)
        return out

    monkeypatch.setattr(_Engine, "phase1", traced)
    for seed in range(210):
        t = corpus_tree(seed)
        ends.clear()
        res = optimize(t, record_segments=False)
        assert not {"midpoint", "threshold"} & {ev.kind for ev in res.events}
        first = [ev for ev in res.events if ev.phase == "I"]
        assert len(first) <= 1, (seed, first)
        if first:
            (_, fv), = ends
            d = backbone(t)
            assert res.events[0] is first[0], seed
            assert (first[0].p_arc, first[0].q_arc) == \
                (fv.alpha, d.length - fv.beta), seed


@pytest.mark.parametrize("factor", [1e-300, 1e-9, 1e6, 1e200])
def test_optimize_is_scale_invariant(factor):
    # Every length the sweep compares scales with the tree: junctures are
    # told apart, and phase I's end found, relative to its scale.
    for seed in range(30):
        t = corpus_tree(seed)
        big = GeometricTree({v: (factor * x, factor * y)
                             for v, (x, y) in t.coords.items()}, t.edges)
        plain = optimize(t, record_segments=False)
        scaled = optimize(big, record_segments=False)
        got = scaled.diameter_after / factor
        assert abs(got - plain.diameter_after) <= 1e-9 * t.scale, seed
        assert scaled.phase_end == plain.phase_end, seed
        phase1 = [sum(ev.phase == "I" for ev in res.events)
                  for res in (plain, scaled)]
        assert phase1[0] == phase1[1], (seed, phase1)


def test_wedge_crossing_queries_bounded(monkeypatch):
    # Work gate on the wedge crossing: a stop's root find, on the
    # caterpillar's ``pairs`` query.  SMAWK is only a reference for the
    # tests; optimize never calls it.
    def forbidden(*args, **kwargs):
        raise AssertionError("optimize called SMAWK")

    monkeypatch.setattr(smawk, "wedge_path_on_arcs", forbidden)
    monkeypatch.setattr(smawk, "row_maxima", forbidden)
    queries, per_call = [0], []
    pairs, crossing = Caterpillar.pairs, _Engine._wedge_crossing

    def counted(self, alpha, beta, cyc, floor=NEG):
        queries[0] += 1
        return pairs(self, alpha, beta, cyc, floor)

    def traced(self, frame, traj):
        queries[0] = 0
        crossing(self, frame, traj)
        per_call.append(queries[0])

    monkeypatch.setattr(Caterpillar, "pairs", counted)
    monkeypatch.setattr(_Engine, "_wedge_crossing", traced)
    for n in (2000, 4000):
        optimize(random_tree(11, n, "caterpillar"), record_segments=False)
    assert per_call and max(per_call) <= 25, per_call


def gate_trees():
    """The trees the wedge-pair gate is checked on: the 210 criterion-1
    trees, the three n = 2000 caterpillars and one of n = 4000."""
    yield from map(corpus_tree, range(210))
    for s in range(3):
        yield random_tree(s, 2000, "caterpillar")
    yield random_tree(11, 4000, "caterpillar")


def test_wedge_crossing_margin_reads_the_same_with_its_floor(monkeypatch):
    # The crossing's bisection reads ``pairs`` with the floor d - tol.  On
    # every phase-III trajectory of the gate trees each point's test,
    # pairs - d >= -tol, reads the same with the floor as without it, so
    # the bisection finds the same index; the floor skips in-cycle blocks.
    runs, blocks = [], [0]
    crossing, wedge_pairs = _Engine._wedge_crossing, Caterpillar._wedge_pairs

    def recorded(self, frame, traj):
        runs.append((self.tol, frame, list(traj)))
        return crossing(self, frame, traj)

    def counted(self, *args):
        blocks[0] += 1
        return wedge_pairs(self, *args)

    monkeypatch.setattr(_Engine, "_wedge_crossing", recorded)
    for t in gate_trees():
        optimize(t, record_segments=False)
    monkeypatch.setattr(Caterpillar, "_wedge_pairs", counted)
    saved = 0
    for tol, frame, traj in runs:
        reads, ran = [], []
        for floor in (False, True):
            blocks[0] = 0
            reads.append([frame.pairs(a, b, frame.chord(a, b) + (b - a),
                                      d - tol if floor else NEG) - d >= -tol
                          for a, b, d in traj])
            ran.append(blocks[0])
        assert reads[0] == reads[1], traj
        saved += ran[0] - ran[1]
    assert len(runs) > 100 and saved > 0, (len(runs), saved)


def test_wedge_pair_blocks_bounded(monkeypatch):
    # Work gate on the in-cycle wedge-pair kernel: ``evaluate`` and the
    # crossing's bisection run it only where its bound reaches their
    # floor.  Ungated, the three large trees ran 371 blocks, 306 of them
    # inside ``best`` and ``_polish``.
    blocks, inside = {"all": 0, "best": 0}, [False]
    wedge_pairs, best = Caterpillar._wedge_pairs, _Engine.best

    def counted(self, *args):
        blocks["all"] += 1
        blocks["best"] += inside[0]
        return wedge_pairs(self, *args)

    def traced(self):
        inside[0] = True
        try:
            return best(self)
        finally:
            inside[0] = False

    monkeypatch.setattr(Caterpillar, "_wedge_pairs", counted)
    monkeypatch.setattr(_Engine, "best", traced)
    for s in range(3):
        optimize(random_tree(s, 2000, "caterpillar"), record_segments=False)
    assert blocks["best"] <= 10 and blocks["all"] <= 60, blocks


def item1_tree(i):
    """Tree ``i`` of the ROADMAP's item-1 trees."""
    return (1000000 + i, (5, 9, 14, 20, 30)[i % 5], CORPUS_SHAPES[i % 3])


@pytest.mark.parametrize("spec", [
    *(item1_tree(i) for i in (41, 219, 609, 704, 752, 627)),
    (1000179, 14, "balanced"),
], ids=["41", "219", "609", "704", "752", "627", "hold-out-1000179"])
def test_sweep_finds_the_wedge_pair_optimum(spec):
    # Item-1 trees on which the only tight term at the optimum is a wedge
    # pair the families do not monitor: before phase III watched
    # ``pairs`` the sweep ended 2e-3 to 3.7e-2 * scale above the grid
    # optimum on the first five.  On tree 627, and on hold-out tree
    # 1000179, whose optimum ties the two side families, phase III's
    # diameter dips and rises again to the antipodal stop within one
    # stretch; before the stretch a walk stops in was searched for its
    # dip the sweep ended 6.5e-2 and 3.6e-2 * scale above it.
    t = random_tree(*spec)
    res = optimize(t)
    assert res.diameter_after <= polished_grid_optimum(t) + 1e-6 * t.scale


@pytest.mark.parametrize("spec, before", [
    ((1003, 48, "caterpillar"), "0x1.f411dd775f4e8p+3"),
    ((1053, 98, "uniform"), "0x1.a7766be1a5408p+3"),
    ((1101, 50, "uniform"), "0x1.4f80744ceef2ep+3"),
    ((1001227, 14, "uniform"), "0x1.89fc962d7cb08p+2"),
], ids=["caterpillar-1003", "uniform-1053", "uniform-1101", "uniform-1001227"])
def test_interior_min_survives_two_sided_balance_residue(spec, before):
    # A walk's diameter can be flat and then dip, and the balance's
    # residue, on either side of its root, can tip a flat stretch either
    # way, so the lowest probe of such a stretch need not lie beside the
    # dip, nor its slope point to it.  ``_dip`` takes every read above the
    # lowest to lie on the far side of the bottom from it, and where the
    # lowest probe is flat it reads between the flat probes first: on the
    # last tree the stretch reads flat, slope 0, at its first four probes
    # and dips by 4.4e-3 * scale between the third and the fourth.
    # ``before`` is the answer of the bracket balance, which read no
    # slopes, on the first three trees, and of the golden-section search
    # that ``_dip`` replaced on the last.
    t = random_tree(*spec)
    assert optimize(t).diameter_after \
        <= float.fromhex(before) + 1e-9 * t.scale


def test_sweep_finds_the_grid_optimum_of_tree_1001053():
    # With the bracket balance that read no slopes this tree ended
    # 7.4e-4 * scale above the polished grid optimum, while rotated and
    # scaled copies of it found the optimum through an interior minimum
    # the original missed.
    t = random_tree(1001053, 20, "uniform")
    res = optimize(t)
    assert res.diameter_after <= polished_grid_optimum(t) + 1e-6 * t.scale


def test_d_min_events_mark_real_dips(monkeypatch):
    # A ("d-min",) grow-shrink event marks a stretch whose active diameter
    # dips inside it below both of its ends by more than tol; rounding on
    # a flat stretch is no turn of the motion.
    actives, scanned, dips = [], [None], []
    drive, first_stop, emit = _Engine._drive, _Engine._first_stop, _Engine.emit

    def traced_drive(self, phase, frame, state_at, x0, end, conds, pair,
                     *args, **kwargs):
        actives.append(_active(pair))
        try:
            return drive(self, phase, frame, state_at, x0, end, conds,
                         pair, *args, **kwargs)
        finally:
            actives.pop()

    def traced_first_stop(self, *args):
        out = first_stop(self, *args)
        scanned[0] = out[3]
        return out

    def traced_emit(self, kind, phase, frame, fv, payload=()):
        if payload == ("d-min",):
            # The event's state is the lowest the dip search read.
            dvals = [actives[-1](state) for _, state in scanned[0]]
            depth = min(dvals[0], dvals[-1]) - actives[-1](fv)
            dips.append((self.tree.n, depth / self.tree.tol))
        return emit(self, kind, phase, frame, fv, payload)

    monkeypatch.setattr(_Engine, "_drive", traced_drive)
    monkeypatch.setattr(_Engine, "_first_stop", traced_first_stop)
    monkeypatch.setattr(_Engine, "emit", traced_emit)
    for seed in range(1000, 1100):
        optimize(random_tree(seed, 5 + seed % 96, CORPUS_SHAPES[seed % 3]),
                 record_segments=False)
    assert dips
    flat = [(n, depth) for n, depth in dips if depth <= 1.0]
    assert not flat, flat


@pytest.mark.parametrize("seed, frac, walks", [
    (0, 0.5, {("III", "x-y")}),
    (1, 0.5, {("II-x", "x-xy")}),
    (1, 0.9, {("II-o", "anti-xy")}),
    # The anti-xy walk touches the floor between two probes, inside the
    # probe interval where the y-side family ties, so it stops on the floor
    # before the juncture (p_arc 0.1117 against 0.0919) that would lead to
    # the anti-y and x-xy walks.
    (172, 0.01, {("II-o", "anti-xy")}),
])
def test_delta_floor_stop_is_one_terminal(monkeypatch, seed, frac, walks):
    # No corpus tree ends a walk on the delta floor, so raise the floor
    # between the diameter at the end of phase I and the answer: the
    # walks after phase I then fall to it.  Every floor stop, whichever
    # walk makes it, is one ("delta-floor",) terminal.  It notes no
    # candidate of its own: its state ends the stretch it stops in, and
    # is noted as that stretch's segment-end.
    t = corpus_tree(seed)
    after = optimize(t).diameter_after
    probe = _Engine(t, backbone(t))
    end_of_phase1 = probe.phase1()[1].diameter
    eng = _Engine(t, backbone(t))
    eng.cat.delta = eng.cat.flip().delta = (
        after + frac * (end_of_phase1 - after))

    walking, stops, terminals, noted = [None], [], [], []
    walk, drive, emit = _Engine.walk, _Engine._drive, _Engine.emit

    def entered(self, frame, a0, b0, pair, end=0.0):
        walking[0] = pair
        return walk(self, frame, a0, b0, pair, end)

    def traced_drive(self, phase, frame, *args, **kwargs):
        out = drive(self, phase, frame, *args, **kwargs)
        if out[0] == "delta-floor":
            stops.append((phase, walking[0]))
            fv = out[2]
            noted.append((*self._to_base(frame, fv.alpha, fv.beta),
                          "segment-end") in self.candidates)
        return out

    def traced_emit(self, kind, phase, frame, fv, payload=()):
        if kind == "terminal":
            terminals.append(payload)
        return emit(self, kind, phase, frame, fv, payload)

    monkeypatch.setattr(_Engine, "walk", entered)
    monkeypatch.setattr(_Engine, "_drive", traced_drive)
    monkeypatch.setattr(_Engine, "emit", traced_emit)
    eng.run()
    assert set(stops) == walks
    floor = [payload for payload in terminals if "delta-floor" in payload]
    assert floor == [("delta-floor",)] * len(stops)
    assert noted == [True] * len(stops)
    assert not any(tag == "delta-floor" for *_, tag in eng.candidates)
    # ``emit`` merges a repeated terminal at one placement, so the trace
    # can hold fewer, all with the one label.
    assert {ev.payload for ev in eng.events
            if "delta-floor" in ev.payload} == {("delta-floor",)}


def test_anti_y_walk_stops_on_the_delta_floor(monkeypatch):
    # No corpus tree gives an anti-y walk that stops on the floor, so
    # start the walk toward a from tree 172's first juncture with the
    # floor raised into the range of that walk's diameter.  The diameter
    # only rises toward a, so the walk stops on the floor where it starts,
    # in a state where the floor holds, with one ("delta-floor",) terminal;
    # only the walk toward c follows it.  The one candidate is the stop's
    # state, noted as the segment-end of the stretch it stops in.
    t = corpus_tree(172)
    junctures = []
    walk_, first_stop = _Engine.walk, _Engine._first_stop

    def entered(self, frame, a0, b0, pair, end=0.0):
        if pair == "anti-y":
            junctures.append((frame is self.cat, a0, b0))
        return walk_(self, frame, a0, b0, pair, end)

    monkeypatch.setattr(_Engine, "walk", entered)
    optimize(t)
    monkeypatch.setattr(_Engine, "walk", walk_)
    base, a0, b0 = junctures[0]
    active = _active("anti-y")
    read, stops = [], []

    def traced_first_stop(self, *args):
        out = first_stop(self, *args)
        read.extend(active(fv) for _, fv in out[3])
        return out

    def walk(delta=None):
        eng = _Engine(t, backbone(t))
        if delta is not None:
            eng.cat.delta = eng.cat.flip().delta = delta
        frame = eng.cat if base else eng.cat.flip()
        return eng, frame, eng.walk(frame, a0, b0, "anti-y")

    drive = _Engine._drive

    def traced_drive(self, *args, **kwargs):
        stops.append(drive(self, *args, **kwargs))
        return stops[-1]

    monkeypatch.setattr(_Engine, "_first_stop", traced_first_stop)
    monkeypatch.setattr(_Engine, "_drive", traced_drive)
    walk()
    assert stops.pop()[0] is None        # parked at a, with no floor
    assert read[0] == min(read) and max(read) > read[0] + 1e-3 * t.scale
    delta = read[0] + 0.5 * (max(read) - read[0])
    eng, frame, tasks = walk(delta)
    name, x, fv = stops.pop()
    assert (name, x) == ("delta-floor", a0)
    assert active(fv) <= delta + t.tol
    assert [task[3::2] for task in tasks] == [("anti-y", frame.c_arc)]
    assert [ev.payload for ev in eng.events
            if ev.kind == "terminal"] == [("delta-floor",)]
    assert eng.candidates == [(*eng._to_base(frame, fv.alpha, fv.beta),
                               "segment-end")]


def test_criterion_one_trees_reach_every_follow_on_of_the_walk_table(
        monkeypatch):
    # Every (pair, watch) entry of ``_WALKS`` that names walks to follow a
    # stop is reached on the criterion-1 trees: some walk of that pair
    # stops on that watch, and the tasks it returns, the walk toward c
    # aside, are walks of that entry.
    walk, drive = _Engine.walk, _Engine._drive
    stopped, reached = [], set()

    def traced_walk(self, frame, a0, b0, pair, end=0.0):
        stopped.append(None)
        try:
            tasks = walk(self, frame, a0, b0, pair, end)
        finally:
            name = stopped.pop()
        follow = _WALKS[pair].then.get(name)
        if follow:
            reached.add((pair, name))
            assert {task[3] for task in tasks if task[4] is not None} <= {
                nxt for nxt, *_ in follow}, (pair, name, tasks)
        return tasks

    def traced_drive(self, *args, **kwargs):
        out = drive(self, *args, **kwargs)
        stopped[-1] = out[0]
        return out

    monkeypatch.setattr(_Engine, "walk", traced_walk)
    monkeypatch.setattr(_Engine, "_drive", traced_drive)
    for seed in range(210):
        optimize(corpus_tree(seed))
    entries = {(pair, name) for pair, row in _WALKS.items()
               for name, follow in row.then.items() if follow}
    assert len(entries) == 6
    assert reached == entries


# Trees with phase-III antipodal stops where solving q again at the root,
# from the warm start the root finder's last step left, lands in a state
# where the watch does not hold: by -0.22, -0.053, -0.11, -0.19 and
# -0.026 times the scale.  A stop keeps the state its root finder read.
STOP_TREES = [
    (1000617, 14, "balanced"), (1000294, 30, "uniform"),
    (1000644, 30, "balanced"), (1001353, 20, "uniform"),
    (26, 14, "balanced"),
]


@pytest.mark.parametrize("spec", STOP_TREES,
                         ids=[str(spec[0]) for spec in STOP_TREES])
def test_every_walk_stop_holds_its_watch(monkeypatch, spec):
    t = random_tree(*spec)
    drive, stops = _Engine._drive, []

    def traced_drive(self, phase, frame, state_at, x0, end, conds, pair,
                     *args, **kwargs):
        out = drive(self, phase, frame, state_at, x0, end, conds, pair,
                    *args, **kwargs)
        name, _, fv = out
        if name is not None:
            active = _active(pair)
            watches = dict(conds, **{
                "delta-floor":
                    lambda fv: frame.delta + self.tol - active(fv)})
            stops.append((phase, name, watches[name](fv) / t.scale))
        return out

    monkeypatch.setattr(_Engine, "_drive", traced_drive)
    optimize(t, record_segments=False)
    assert ("III", "antipodal") in {(phase, name) for phase, name, _ in stops}
    missed = [stop for stop in stops if stop[2] < 0.0]
    assert not missed, missed


class _Read:
    """A synthetic state: the point it was read at."""

    def __init__(self, s):
        self.s = s


def _stop_case(points, watches):
    """``_first_stop`` on synthetic states, and every state it read."""
    eng = _Engine(corpus_tree(0), backbone(corpus_tree(0)))
    made = []

    def state_at(s):
        made.append(_Read(s))
        return made[-1]

    reads = ((s, state_at(s)) for s in points)
    return eng, eng._first_stop(state_at, reads, watches), made


def test_first_stop_at_the_first_point_that_holds():
    watches = [("a", lambda st: st.s - 1.0), ("b", lambda st: 0.5 - st.s)]
    _, (s, name, fv, states), made = _stop_case([0.0, 1.0, 2.0], watches)
    # b holds at the first point: no root find, and no point read after
    # it.
    assert (s, name) == (0.0, "b")
    assert fv is made[0] and len(made) == 1
    assert [(x, st.s) for x, st in states] == [(0.0, 0.0)]


def test_first_stop_inside_the_first_interval_whose_end_holds():
    # The largest watch first holds at the point 2.0; the stop is its root
    # in (1.0, 2.0].  The point 3.0, where the watch b holds as well, is
    # never read.
    watches = [("a", lambda st: st.s - 1.3 * math.pi / 3.0),
               ("b", lambda st: st.s - 2.5)]
    eng, (s, name, fv, states), made = _stop_case([0.0, 1.0, 2.0, 3.0],
                                                  watches)
    root = 1.3 * math.pi / 3.0
    assert name == "a"
    assert root <= s <= root + 2.0 * eng.eps
    # The state is one the root finder read, at s, and the last read with
    # the watch holding: no read follows to re-derive it.
    reads = [0]

    def counted(x):
        reads[0] += 1
        return max(fn(_Read(x)) for _, fn in watches), None

    newton_root(counted, (1.0, 1.0 - root, None), (2.0, 2.0 - root, None),
                eng.eps, 0.0)
    assert len(made) == 3 + reads[0]
    assert fv in made[3:] and fv.s == s
    assert [x for x, _ in states] == [0.0, 1.0, 2.0]


def test_first_stop_is_named_after_the_first_watch_that_holds():
    # Both watches cross at 1.5; b is larger, but a comes first.
    watches = [("a", lambda st: st.s - 1.5),
               ("b", lambda st: 2.0 * (st.s - 1.5))]
    _, (s, name, fv, _), _ = _stop_case([0.0, 1.0, 2.0], watches)
    assert name == "a" and s >= 1.5
    # Where only the later watch holds, the stop takes its name.
    watches = [("a", lambda st: st.s - 1.8), ("b", lambda st: st.s - 1.2)]
    _, (s, name, fv, _), _ = _stop_case([0.0, 1.0, 2.0], watches)
    assert name == "b" and 1.2 <= s < 1.8


def test_first_stop_where_nothing_holds():
    watches = [("a", lambda st: -1.0 - st.s), ("b", lambda st: NEG)]
    _, (s, name, fv, states), made = _stop_case([0.0, 0.5, 1.0], watches)
    assert (s, name, fv) == (None, None, None)
    assert [st for _, st in states] == made and len(made) == 3


def test_cell_end_is_exact_on_the_walks(monkeypatch):
    # On every walk state of corpus trees 0..69 the end of the cell that
    # ``Caterpillar.cell_end`` reports along the walk's motion is exact:
    # a read just inside it, at 1 - 1e-6 of the step, is in the cell of a
    # read just past the state, and one just past it, at 1 + 1e-6, is
    # not.  The cell is where q, pbar and qbar keep their pendants, q its
    # edge and p its breakpoints.
    steps, cell_end = [], Caterpillar.cell_end

    def recorded(self, fv, da, db, end=math.inf):
        s = cell_end(self, fv, da, db, end)
        steps.append((self, fv, da, db, s))
        return s

    monkeypatch.setattr(Caterpillar, "cell_end", recorded)
    for seed in range(70):
        optimize(corpus_tree(seed))
    monkeypatch.undo()
    checked = 0
    for frame, fv, da, db, s in steps:
        sig = lambda x: (lambda v: (v.cell, v.q_edge, bisect_right(
            frame.bps, v.alpha)))(frame.families(fv.alpha + da * x,
                                                 fv.beta + db * x))
        past = s * (1.0 + 1e-6)
        if not (math.isfinite(s) and s * 1e-6 > 1e-9 * frame.L
                and 0.0 <= fv.alpha + da * past <= frame.c_arc
                and frame.c_arc <= fv.beta + db * past <= frame.L):
            continue
        checked += 1
        first = sig(s * 1e-6)
        assert sig(s * (1.0 - 1e-6)) == first, (fv.alpha, fv.beta, s)
        assert sig(past) != first, (fv.alpha, fv.beta, s)
    assert checked > 150, checked          # 190 states
