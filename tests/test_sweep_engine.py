import math

import pytest

from treecut import (
    GeometricTree,
    NoRootInBracket,
    Shortcut,
    augmented_diameter_value,
    backbone,
    balance_solve,
    next_event,
    optimize,
    run_phase1,
    run_phase2,
    run_phase3,
    start_sweep,
)
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


def test_state_machine_mirrors_optimize():
    t = random_tree(3, 9, "uniform")
    res = optimize(t)
    st = start_sweep(t)
    st, o1 = run_phase1(st)
    assert o1 in ("handoff", "ab", "delta")
    st, _ = run_phase2(st)
    st, o3 = run_phase3(st)
    assert st.best_diameter == pytest.approx(res.diameter_after,
                                             abs=1e-9 * t.scale)


def test_next_event_steps_whole_trace():
    t = random_tree(5, 10, "caterpillar")
    res = optimize(t)
    st = start_sweep(t)
    seen = 0
    while next_event(st) is not None:
        seen += 1
    assert seen == len(res.events)
    assert next_event(st) is None


def test_state_best_diameter_non_increasing():
    t = random_tree(9, 12, "uniform")
    st = start_sweep(t)
    prev_best = st.best_diameter
    while next_event(st) is not None:
        assert st.best_diameter <= prev_best + 1e-12
        prev_best = st.best_diameter


def test_state_invariant_positions_bounded():
    for seed in (2, 4, 6):
        t = random_tree(seed, 10, "uniform")
        d = backbone(t)
        st = start_sweep(t)
        while next_event(st) is not None:
            assert st.p_arc <= d.center_arc + 1e-9
            assert st.q_arc <= d.length - d.center_arc + 1e-9


def test_run_phase2_validates_direction():
    t = random_tree(3, 9, "uniform")
    st = start_sweep(t)
    with pytest.raises(ValueError):
        run_phase2(st, "sideways")


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
    assert max(per_vertex.values()) <= 30.0, per_vertex
