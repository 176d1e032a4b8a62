import math
from bisect import bisect_right

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
from treecut import smawk
from treecut.augmented_eval import has_useful_shortcut
from treecut.caterpillar import NEG, Caterpillar
from treecut.oracle import grid_search, random_tree
from treecut.sweep_engine import SPEED_LAWS, _Engine, itp_root


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
    # tree-routed paths on both sides: plateau
    law = SPEED_LAWS[("t2", "tree", "tree")]
    assert law.ddiam(0.5, 0.1) == pytest.approx(0.0)
    # both sides through the shortcut: full chord gain
    law = SPEED_LAWS[("t2", "via", "via")]
    assert law.ddiam(0.5, 0.1) == pytest.approx(0.1)
    # antipodal on both sides: half the chord gain
    law = SPEED_LAWS[("t2", "anti", "anti")]
    assert law.ddiam(0.5, 0.1) == pytest.approx(0.05)


def test_recorded_segments_obey_their_law():
    checked = 0
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
            checked += 1
    assert checked >= 20


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


def _root_case(fn, lo, hi, eps, root, ends):
    calls = []

    def counted(x):
        calls.append(x)
        return fn(x)

    flo, fhi = (fn(lo), fn(hi)) if ends else (None, None)
    got = itp_root(counted, lo, hi, eps, flo, fhi)
    assert fn(got) >= 0.0
    slack = 4 * math.ulp(root)      # bracket ends are rounded floats
    assert root - slack <= got <= root + eps + slack
    assert len(calls) <= math.ceil(math.log2((hi - lo) / eps)) + 1
    return len(calls)


ROOT_CASES = {
    "smooth": (lambda x: math.expm1(3.0 * (x - 0.61)), 0.0, 2.0, 0.61),
    "kinked": (lambda x: (x - 0.37) * (0.5 if x < 0.37 else 40.0), -3.0, 1.0,
               0.37),
    "step": (lambda x: -1.0 if x < 0.37 else 1.0, 0.0, 1.0, 0.37),
}


@pytest.mark.parametrize("case", sorted(ROOT_CASES))
def test_itp_root_brackets_first_root(case):
    fn, lo, hi, root = ROOT_CASES[case]
    eps = 1e-12
    with_ends = _root_case(fn, lo, hi, eps, root, ends=True)
    plain = _root_case(fn, lo, hi, eps, root, ends=False)
    if case == "smooth":
        # The regula-falsi step pays off where the function is smooth.
        assert 2 * with_ends <= plain, (with_ends, plain)


def test_itp_root_unusable_end_values_fall_back_to_bisection():
    fn = lambda x: NEG if x < 0.25 else x - 0.5
    _root_case(fn, 0.0, 1.0, 1e-9, 0.5, ends=True)
    # End values that do not bracket a sign change are ignored.
    got = itp_root(lambda x: x - 0.5, 0.0, 1.0, 1e-9, 0.3, 0.7)
    assert 0.5 <= got <= 0.5 + 1e-9


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
@given(monotone_pieces(), st.integers(1, 9), st.booleans())
def test_itp_root_on_monotone_piecewise_linear(case, digits, ends):
    # fn(result) >= 0, the result within eps of the first root, and no more
    # evaluations than bisection's bound, with and without end values.
    fn, lo, hi = case
    eps = (hi - lo) * 10.0 ** -digits
    _root_case(fn, lo, hi, eps, _first_float_root(fn, lo, hi), ends)


def test_balance_stays_in_bracket(monkeypatch):
    # On corpus trees 155 and 197 an unclamped first expansion step of a
    # balance solve drives q past b in phase III.
    out = []
    balance = _Engine.balance

    def checked(self, frame, alpha, guess, pair):
        beta = balance(self, frame, alpha, guess, pair)
        out.append((max(alpha, frame.c_arc), beta, frame.L))
        return beta

    monkeypatch.setattr(_Engine, "balance", checked)
    for seed in (155, 197):
        optimize(random_tree(seed, 14, "balanced"), record_segments=False)
    assert out
    assert all(lo <= beta <= hi for lo, beta, hi in out)


def test_families_calls_per_vertex_bounded(monkeypatch):
    """Deterministic work gate beside criterion 9's wall-clock gate."""
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
    assert max(per_vertex.values()) <= 12.0, per_vertex


def test_balance_families_per_solve(monkeypatch):
    # Work gate on the balance: a secant warm start and a first bracket
    # step sized by the last correction leave about five families calls
    # per solve.
    calls, solves, depth = [0], [0], [0]
    families, balance = Caterpillar.families, _Engine.balance

    def counted(self, alpha, beta):
        calls[0] += depth[0] > 0
        return families(self, alpha, beta)

    def traced(self, frame, alpha, guess, pair):
        solves[0] += 1
        depth[0] += 1
        try:
            return balance(self, frame, alpha, guess, pair)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(Caterpillar, "families", counted)
    monkeypatch.setattr(_Engine, "balance", traced)
    per_solve = {}
    for n in (2000, 4000):
        calls[0] = solves[0] = 0
        optimize(random_tree(11, n, "caterpillar"), record_segments=False)
        per_solve[n] = calls[0] / solves[0]
    assert max(per_solve.values()) <= 6.5, per_solve


def test_corpus_families_calls_bounded(monkeypatch):
    # Work gate on the small trees, where fixed per-run costs dominate: a
    # juncture continues from one balance solve, not from a scan of the
    # balance for every root.
    calls = [0]
    families = Caterpillar.families

    def counted(self, alpha, beta):
        calls[0] += 1
        return families(self, alpha, beta)

    monkeypatch.setattr(Caterpillar, "families", counted)
    for seed in range(70):
        optimize(corpus_tree(seed))
    assert calls[0] <= 43000, calls[0]


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


def test_phase1_families_calls_per_event(monkeypatch):
    # Phase I reads the families once per stop, plus the root finds for
    # its end and its thresholds; it does not probe stretches.
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
    per_event = {}
    for n in (2000, 4000):
        calls[0] = 0
        res = optimize(random_tree(11, n, "caterpillar"),
                       record_segments=False)
        stops = sum(ev.phase == "I" and ev.kind in
                    ("vertex-p", "vertex-q", "midpoint") for ev in res.events)
        per_event[n] = calls[0] / stops
    assert max(per_event.values()) <= 4.0, per_event


@pytest.mark.parametrize("factor", [1e-300, 1e-9, 1e6, 1e200])
def test_optimize_is_scale_invariant(factor):
    # Every length the sweep compares scales with the tree: junctures are
    # told apart, and phase-I stops placed, relative to its scale.
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
    # Work gate on the wedge crossing: ITP with its end values, on the
    # caterpillar's closed-form wedge query.  SMAWK is only the reference
    # the tests compare that query with; optimize never calls it.
    def forbidden(*args, **kwargs):
        raise AssertionError("optimize called SMAWK")

    monkeypatch.setattr(smawk, "wedge_path_on_arcs", forbidden)
    monkeypatch.setattr(smawk, "row_maxima", forbidden)
    queries, per_call = [0], []
    wedge, crossing = Caterpillar.wedge, _Engine._wedge_crossing

    def counted(self, alpha, beta):
        queries[0] += 1
        return wedge(self, alpha, beta)

    def traced(self, frame, traj):
        queries[0] = 0
        crossing(self, frame, traj)
        per_call.append(queries[0])

    monkeypatch.setattr(Caterpillar, "wedge", counted)
    monkeypatch.setattr(_Engine, "_wedge_crossing", traced)
    for n in (2000, 4000):
        optimize(random_tree(11, n, "caterpillar"), record_segments=False)
    assert per_call and max(per_call) <= 25, per_call


def test_d_min_events_mark_real_dips(monkeypatch):
    # A ("d-min",) grow-shrink event marks a stretch whose active diameter
    # dips inside it below both of its ends by more than tol; rounding on
    # a flat stretch is no turn of the motion.
    actives, scanned, dips = [], [None], []
    drive, scan, emit = _Engine._drive, _Engine._scan, _Engine.emit

    def traced_drive(self, phase, frame, state_at, x0, end, conds, d_active,
                     *args, **kwargs):
        actives.append(d_active)
        try:
            return drive(self, phase, frame, state_at, x0, end, conds,
                         d_active, *args, **kwargs)
        finally:
            actives.pop()

    def traced_scan(self, *args):
        hits, states = scan(self, *args)
        scanned[0] = states
        return hits, states

    def traced_emit(self, kind, phase, frame, a, b, fv=None, payload=()):
        if payload == ("d-min",):
            dvals = [actives[-1](state) for _, state in scanned[0]]
            depth = min(dvals[0], dvals[-1]) - min(dvals[1:-1])
            dips.append((self.tree.n, depth / self.tree.tol))
        return emit(self, kind, phase, frame, a, b, fv, payload)

    monkeypatch.setattr(_Engine, "_drive", traced_drive)
    monkeypatch.setattr(_Engine, "_scan", traced_scan)
    monkeypatch.setattr(_Engine, "emit", traced_emit)
    for seed in range(1000, 1100):
        optimize(random_tree(seed, 5 + seed % 96, CORPUS_SHAPES[seed % 3]),
                 record_segments=False)
    assert dips
    flat = [(n, depth) for n, depth in dips if depth <= 1.0]
    assert not flat, flat
