"""Acceptance gate: ten end-to-end checks printing one line each.

Every test writes a single PASS/FAIL line to the real stdout so the
verdicts are visible regardless of pytest's capture settings.
"""

import math
import random
import sys
import time

import pytest

from treecut import (
    GeometricTree,
    ImplicitMatrix,
    Shortcut,
    TreePoint,
    augmented_diameter,
    augmented_diameter_value,
    backbone,
    classify_usefulness,
    grid_search,
    longest_wedge_path,
    optimize,
    row_maxima,
)
from treecut.caterpillar import Caterpillar
from treecut.oracle import (
    dense_sample_diameter,
    point_backbone_tree,
    random_tree,
    straight_backbone_tree,
    stress_family,
)


@pytest.fixture(autouse=True)
def _uncaptured(capfd):
    # pytest captures at the file-descriptor level, so writing to
    # sys.__stdout__ is not enough to reach the terminal.
    report.disabled = capfd.disabled
    yield
    report.disabled = None


def report(num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    line = f"acceptance criterion {num:2d}: {verdict} ({detail})\n"
    if report.disabled is not None:
        with report.disabled():
            sys.stdout.write(line)
            sys.stdout.flush()
    else:
        sys.stdout.write(line)
        sys.stdout.flush()


report.disabled = None


def make_t_l():
    return GeometricTree({0: (0.0, 0.0), 1: (1.0, 0.0), 2: (1.0, 1.0)},
                         [(0, 1), (1, 2)])


def make_t_hook():
    return GeometricTree(
        {0: (0.0, 0.0), 1: (4.0, 0.0), 2: (4.0, 4.0), 3: (4.0, -4.0)},
        [(0, 1), (1, 2), (1, 3)])


def corpus(count):
    """Deterministic mixed-shape corpus of small random trees."""
    shapes = ("uniform", "caterpillar", "balanced")
    sizes = (5, 9, 14)
    out = []
    seed = 0
    while len(out) < count:
        out.append(random_tree(seed, sizes[seed % 3], shapes[seed % 3]))
        seed += 1
    return out


def test_criterion_01_oracle_optimality():
    t0 = time.time()
    worst = -math.inf
    fails = []
    trees = corpus(210)
    for i, t in enumerate(trees):
        d = backbone(t)
        res = optimize(t, record_segments=False)
        h = d.diameter / 200.0
        g = grid_search(t, h)
        gap = res.diameter_after - g.best_diameter
        worst = max(worst, gap / h)
        if gap > 4 * h or res.diameter_after < d.delta - 1e-9 * t.scale:
            fails.append(i)
    elapsed = time.time() - t0
    ok = not fails and elapsed <= 300
    report(1, ok, f"{len(trees)} trees, worst gap {worst:.2f}h, "
                  f"{elapsed:.1f}s")
    assert ok, (fails, elapsed)


def test_criterion_02_closed_form_fixture():
    t = make_t_l()
    res = optimize(t)
    # confirm by grid before trusting the sweep
    g = grid_search(t, 1e-3)
    grid_ok = abs(g.best_diameter - 1.5469182) <= 4e-3
    val_ok = abs(res.diameter_after - 1.5469182) <= 1e-6
    lam_ok = (abs(res.p_arc - 0.2265410) <= 1e-5
              and abs(res.q_arc - 0.2265410) <= 1e-5)
    ok = grid_ok and val_ok and lam_ok
    report(2, ok, f"diameter {res.diameter_after:.7f}, "
                  f"endpoints {res.p_arc:.7f}/{res.q_arc:.7f}")
    assert ok


def test_criterion_03_theorem2_characterization():
    degenerate_fails = []
    for seed in range(25):
        for gen in (straight_backbone_tree, point_backbone_tree):
            t = gen(seed, 6 + seed % 4)
            d = backbone(t)
            res = optimize(t, record_segments=False)
            h = d.diameter / 40.0
            g = grid_search(t, h, restrict_to_backbone=False)
            if res.useful or not res.shortcut.is_degenerate:
                degenerate_fails.append((gen.__name__, seed, "not degenerate"))
            if g.best_diameter < d.diameter - 4 * h:
                degenerate_fails.append((gen.__name__, seed, "grid improves"))
    bent_fails = []
    bent = 0
    seed = 0
    while bent < 50:
        t = random_tree(seed, 6 + seed % 9,
                        ("uniform", "caterpillar", "balanced")[seed % 3])
        seed += 1
        d = backbone(t)
        if d.is_point or d.is_straight:
            continue
        bent += 1
        res = optimize(t, record_segments=False)
        if not res.useful or res.diameter_after >= d.diameter - t.tol:
            bent_fails.append(seed)
    ok = not degenerate_fails and not bent_fails
    report(3, ok, f"50 straight/point degenerate, {bent} bent useful")
    assert ok, (degenerate_fails, bent_fails)


def test_criterion_04_endpoints_bracket_center():
    fails = []
    trees = corpus(60) + [stress_family(l) for l in (1, 2, 3, 4)]
    for i, t in enumerate(trees):
        d = backbone(t)
        res = optimize(t, record_segments=False)
        if not res.useful:
            continue
        from treecut.smawk import _backbone_arc
        pa = _backbone_arc(d, res.shortcut.p)   # raises if off-backbone
        qa = _backbone_arc(d, res.shortcut.q)
        lo, hi = min(pa, qa), max(pa, qa)
        slack = 1e-9 * t.scale
        if not (lo - slack <= d.center_arc <= hi + slack):
            fails.append(i)
        if not (-slack <= res.p_arc <= d.center_arc + slack):
            fails.append(i)
        if not (-slack <= res.q_arc <= d.length - d.center_arc + slack):
            fails.append(i)
    ok = not fails
    report(4, ok, f"{len(trees)} instances, center bracketed by endpoints")
    assert ok, fails


def test_criterion_05_speed_laws():
    checked = 0
    worst = 0.0
    fails = []
    for seed in range(80):
        if checked >= 20:
            break
        t = random_tree(seed, 5 + seed % 10,
                        ("uniform", "caterpillar")[seed % 2])
        d = backbone(t)
        if d.is_point or d.is_straight:
            continue
        res = optimize(t, record_segments=True)
        cat = Caterpillar(t, d)
        for sg in res.segments:
            if checked >= 20 or len(sg.probes) < 10:
                continue
            step = max(1, len(sg.probes) // 10)
            probes = sg.probes[::step][:10]

            def base_arcs(alpha, beta):
                if sg.flipped:
                    return d.length - beta, d.length - alpha
                return alpha, beta

            a0, b0, e0, _ = probes[0]
            sc0 = Shortcut(*map(cat.arc_to_treepoint, base_arcs(a0, b0)))
            d_exact0 = augmented_diameter_value(t, sc0)
            seg_ok = True
            for a1, b1, e1, _ in probes[1:]:
                sc1 = Shortcut(*map(cat.arc_to_treepoint, base_arcs(a1, b1)))
                d_exact1 = augmented_diameter_value(t, sc1)
                drv = max(abs(a1 - a0), abs(b1 - b0))
                pred = sg.law.ddiam(drv, e0 - e1)
                err = abs(pred - (d_exact0 - d_exact1)) / max(1.0, d_exact0)
                worst = max(worst, err)
                if err > 1e-6:
                    seg_ok = False
            if not seg_ok:
                fails.append((seed, sg.phase, sg.law.name))
            checked += 1
    ok = checked >= 20 and not fails
    report(5, ok, f"{checked} segments, worst rel err {worst:.2e}")
    assert ok, (checked, fails)


def test_criterion_06_blocking_perturbations():
    fails = []
    count = 0
    for t in corpus(60):
        d = backbone(t)
        res = optimize(t, record_segments=False)
        if not res.useful:
            continue
        count += 1
        cat = Caterpillar(t, d)
        alpha, beta = res.p_arc, d.length - res.q_arc
        h = 1e-4 * t.scale
        base = cat.evaluate(alpha, beta)
        # in/out-shift and the two sideways shift directions
        for da, db in ((-h, h), (h, -h), (-h, -h), (h, h)):
            a2 = min(max(alpha + da, 0.0), d.center_arc)
            b2 = min(max(beta + db, d.center_arc), d.length)
            if cat.evaluate(a2, b2) < base - 1e-9 * t.scale:
                fails.append((t.n, da, db))
    ok = count >= 20 and not fails
    report(6, ok, f"{count} useful optima, no improving perturbation")
    assert ok, (count, fails)


def test_criterion_07_useless_shortcut():
    t = make_t_hook()
    sc = Shortcut(TreePoint.at_vertex(0), TreePoint.at_vertex(2))
    diag = augmented_diameter(t, backbone(t), sc)
    expected = 8 + 2 * math.sqrt(2)
    cls = classify_usefulness(t, sc).classification
    ok = abs(diag.diameter - expected) <= 1e-9 and cls == "useless"
    report(7, ok, f"diameter {diag.diameter:.9f} vs {expected:.9f}, {cls}")
    assert ok


def test_criterion_08_smawk():
    rng = random.Random(2024)
    mism = 0
    for _ in range(500):
        rows = rng.randrange(1, 51)
        cols = rng.randrange(1, 51)
        xs = sorted(rng.uniform(0, 10) for _ in range(rows))
        ys = sorted(rng.uniform(0, 10) for _ in range(cols))
        rr = [rng.uniform(-5, 5) for _ in range(rows)]
        cc = [rng.uniform(-5, 5) for _ in range(cols)]

        def entry(i, j):
            return -(xs[i] - ys[j]) ** 2 + rr[i] + cc[j]

        got = row_maxima(ImplicitMatrix(rows, cols, entry))
        for i in range(rows):
            best, arg = -math.inf, 0
            for j in range(cols):
                v = entry(i, j)
                if v > best:
                    best, arg = v, j
            if got[i] != (arg, best):
                mism += 1

    wedge_mism = 0
    instances = 0
    seed = 0
    while instances < 100:
        t = random_tree(seed, 13, "caterpillar")
        seed += 1
        d = backbone(t)
        if d.is_point or len(d.secondary) < 2:
            continue
        instances += 1
        sec = sorted(d.secondary, key=lambda s: s.arc)
        cat = Caterpillar(t, d)
        alpha = rng.uniform(0, d.center_arc)
        beta = rng.uniform(d.center_arc, d.length)
        sc = Shortcut(cat.arc_to_treepoint(alpha), cat.arc_to_treepoint(beta))
        e = cat.chord(alpha, beta)
        got = longest_wedge_path(t, d, sc)
        best = None
        ts = [s.arc for s in sec]
        hs = [s.height for s in sec]
        for i in range(len(ts)):
            for j in range(len(ts)):
                if i == j:
                    continue
                ci, cj = abs(ts[i] - alpha), abs(ts[j] - beta)
                if ci + e + cj < abs(ts[j] - ts[i]):
                    v = hs[i] + ci + e + cj + hs[j]
                    if best is None or v > best:
                        best = v
        if (got is None) != (best is None):
            wedge_mism += 1
        elif got is not None and abs(got[0] - best) > 1e-9:
            wedge_mism += 1
    ok = mism == 0 and wedge_mism == 0
    report(8, ok, f"500 matrices exact, {instances} wedge instances exact")
    assert ok, (mism, wedge_mism)


def test_criterion_09_event_counts_and_scaling():
    over = []
    for l in (5, 10, 20):
        t = stress_family(l)
        res = optimize(t, record_segments=False)
        if res.event_count > 40 * t.n:
            over.append(("stress", l, res.event_count))
    times = []
    for n in (1000, 2000, 4000, 8000):
        t = random_tree(11, n, "caterpillar")
        t0 = time.time()
        res = optimize(t, record_segments=False)
        times.append(time.time() - t0)
        if res.event_count > 40 * t.n:
            over.append(("random", n, res.event_count))
    ratios = [times[i + 1] / times[i] for i in range(len(times) - 1)]
    geo = math.prod(ratios) ** (1.0 / len(ratios))
    # diagnostic counter: unsuppressed path-state changes grow superlinearly
    diag = {}
    for l in (5, 10, 20):
        t = stress_family(l)
        res = optimize(t, record_segments=True)
        diag[l] = res.diagnostic_phase3_changes
    superlinear = (diag[10] >= 2 * 10 * 10
                   and diag[20] / max(diag[10], 1) >= 2.5)
    ok = not over and geo <= 2.4 and superlinear
    report(9, ok, f"events within 40n, doubling ratio {geo:.2f}, "
                  f"diag counts {diag[5]}/{diag[10]}/{diag[20]}")
    assert not over, over
    assert superlinear, diag
    # wall-clock scaling is an informative check, not a hard gate, but
    # a large regression here should fail loudly
    assert geo <= 2.4, ratios


def test_criterion_10_evaluator_ground_truth():
    rng = random.Random(99)
    fails = []
    for seed in range(100):
        t = random_tree(seed, 6 + seed % 7, "uniform")
        edges = t.edges
        e1 = edges[rng.randrange(len(edges))]
        e2 = edges[rng.randrange(len(edges))]
        sc = Shortcut(TreePoint(e1[0], e1[1], rng.random()),
                      TreePoint(e2[0], e2[1], rng.random()))
        val = augmented_diameter_value(t, sc)
        approx, spacing = dense_sample_diameter(t, sc)
        if abs(val - approx) > 3 * spacing:
            fails.append(seed)
    ok = not fails
    report(10, ok, "100 instances within 3x sample spacing")
    assert ok, fails
