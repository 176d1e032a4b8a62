import gc
import math
import random
import tracemalloc
import weakref

import numpy as np
import pytest

from treecut import Shortcut, augmented_diameter_value, backbone
from treecut.caterpillar import NEG, Caterpillar, RangeMax
from treecut.oracle import random_tree, stress_family


def brute_range_max(vals, lo, hi):
    lo, hi = max(lo, 0), min(hi, len(vals))
    if hi <= lo:
        return NEG, -1
    best = max(vals[lo:hi])
    return best, vals.index(best, lo, hi)


def test_range_max_matches_brute_force():
    rng = random.Random(5)
    arrays = [[float(rng.randrange(-3, 4)) for _ in range(n)]
              for n in list(range(0, 18)) + [31, 32, 33, 64, 100]]
    # Few distinct values above, so most ranges hold ties for the maximum;
    # the last array has distinct non-integer values.
    arrays.append([rng.gauss(0.0, 1e3) for _ in range(97)])
    for vals in arrays:
        n = len(vals)
        rm = RangeMax(vals)
        for lo in range(-2, n + 3):
            for hi in range(-2, n + 3):
                got = rm.query(lo, hi)
                assert got == brute_range_max(vals, lo, hi), (n, lo, hi)
                assert type(got[0]) is float and type(got[1]) is int


def test_evaluate_grid_bounded_memory():
    t = random_tree(7, 960, "caterpillar")
    cat = Caterpillar(t, backbone(t))
    assert cat.k >= 300
    rng = random.Random(1)
    pts = [(rng.uniform(0.0, cat.c_arc), rng.uniform(cat.c_arc, cat.L))
           for _ in range(200)]
    alphas, betas = (np.array(v) for v in zip(*pts))
    tracemalloc.start()
    try:
        grid = cat.evaluate_grid(alphas, betas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2 ** 20, peak
    for (a, b), g in zip(pts[::10], grid[::10]):
        assert g == pytest.approx(cat.evaluate(a, b), abs=1e-9 * t.scale)
    assert all(math.isfinite(g) for g in grid)


FLIP_TREES = [(3, 30, "caterpillar"), (4, 14, "balanced"), (5, 20, "uniform"),
              (8, 60, "caterpillar"), (9, 9, "uniform")]


def _swapped_pendant(cat, i):
    return cat.k - 1 - i if i >= 0 else -1


@pytest.mark.parametrize("spec", FLIP_TREES, ids=lambda s: f"{s[2]}-{s[1]}")
def test_flip_is_the_caterpillar_seen_from_b(spec):
    t = random_tree(*spec)
    cat = Caterpillar(t, backbone(t))
    fl = cat.flip()
    assert type(fl) is Caterpillar
    assert fl is cat.flip() and fl.flip() is cat
    L, tol = cat.L, 1e-12 * t.scale
    assert fl.L == L and fl.k == cat.k
    assert (fl.h_x, fl.h_y) == (cat.h_y, cat.h_x)
    assert fl.h == cat.h[::-1]
    rng = random.Random(spec[0])
    pts = [sorted((rng.uniform(0.0, L), rng.uniform(0.0, L)))
           for _ in range(60)]
    pts += [(rng.uniform(0.0, cat.c_arc), rng.uniform(cat.c_arc, L))
            for _ in range(60)]
    for a, b in pts:
        f, g = cat.families(a, b), fl.families(L - b, L - a)
        for x, y in ((f.e, g.e), (f.darc, g.darc), (f.cyc, g.cyc),
                     (f.pbar, L - g.qbar), (f.qbar, L - g.pbar),
                     (f.xy, g.xy), (f.fx, g.fy), (f.fy, g.fx),
                     (f.fanti, g.fanti), (f.diameter, g.diameter)):
            assert x == pytest.approx(y, abs=tol), (a, b)
        assert f.xy_branch == g.xy_branch
        assert (f.fx_branch, f.fy_branch) == (g.fy_branch, g.fx_branch)
        assert f.fx_pendant == _swapped_pendant(cat, g.fy_pendant)
        assert f.fy_pendant == _swapped_pendant(cat, g.fx_pendant)
        assert f.fanti_pendant == _swapped_pendant(cat, g.fanti_pendant)
        assert cat.chord(a, b) == pytest.approx(fl.chord(L - b, L - a),
                                                abs=tol)
        assert cat.evaluate(a, b) == pytest.approx(fl.evaluate(L - b, L - a),
                                                   abs=tol)
        assert cat.pairs(a, b) == pytest.approx(fl.pairs(L - b, L - a),
                                                abs=tol)
    alphas, betas = (np.array(v) for v in zip(*pts))
    np.testing.assert_allclose(cat.evaluate_grid(alphas, betas),
                               fl.evaluate_grid(L - betas, L - alphas),
                               rtol=0.0, atol=tol)


def test_flip_pair_forms_no_reference_cycle():
    t = random_tree(3, 30, "caterpillar")
    cat = Caterpillar(t, backbone(t))
    fl = cat.flip()
    maker = weakref.ref(cat)
    gc.disable()
    try:
        del cat
        # Freed by reference counting alone: the flip holds it weakly.
        assert maker() is None
    finally:
        gc.enable()
    again = fl.flip()
    assert again.flip() is fl
    assert (again.h_x, again.h, again.t) == (fl.h_y, fl.h[::-1],
                                              [fl.L - x for x in fl.t[::-1]])


def brute_pairs(cat, alpha, beta):
    """Longest wedge-wedge path at (alpha, beta), pair by pair."""
    e = cat.chord(alpha, beta)
    best = NEG
    for i in range(cat.k):
        for j in range(i + 1, cat.k):
            ti, tj = cat.t[i], cat.t[j]
            tree = abs(tj - ti)
            via = e + min(abs(ti - alpha) + abs(tj - beta),
                          abs(ti - beta) + abs(tj - alpha))
            best = max(best, cat.h[i] + cat.h[j] + min(tree, via))
    return best


PAIR_TREES = [pytest.param(random_tree(n, n, shape), id=f"{shape}-{n}")
              for n in (2, 3, 6, 11, 20, 45)
              for shape in ("caterpillar", "uniform", "balanced")]
PAIR_TREES += [pytest.param(stress_family(l), id=f"stress-{l}")
               for l in (1, 2, 4)]


@pytest.mark.parametrize("t", PAIR_TREES)
def test_pairs_matches_brute_force(t):
    cat = Caterpillar(t, backbone(t))
    rng = random.Random(t.n)
    for frame in (cat, cat.flip()):
        c, L = frame.c_arc, frame.L
        pts = [(0.0, L), (c, c), (0.0, c), (c, L)]
        pts += [(a, a) for a in frame.t]
        pts += [(frame.t[i], frame.t[j]) for i in range(frame.k)
                for j in range(i, frame.k)][:40]
        pts += [sorted((rng.uniform(0.0, L), rng.uniform(0.0, L)))
                for _ in range(40)]
        for a, b in pts:
            want = brute_pairs(frame, a, b)
            got = frame.pairs(a, b)
            if want == NEG:
                assert got == NEG, (a, b)
            else:
                assert got == pytest.approx(want, abs=1e-12 * t.scale), (a, b)


@pytest.mark.parametrize("t", PAIR_TREES[::2])
def test_evaluate_matches_the_exact_evaluator(t):
    # evaluate is the monitored families plus ``pairs``; on backbone
    # placements it must read what the leaf-table evaluator reads.
    cat = Caterpillar(t, backbone(t))
    rng = random.Random(t.n)
    c, L = cat.c_arc, cat.L
    pts = [(0.0, L), (c, c), (0.0, c), (c, L)]
    pts += [sorted((rng.uniform(0.0, L), rng.uniform(0.0, L)))
            for _ in range(30)]
    for a, b in pts:
        sc = Shortcut(cat.arc_to_treepoint(a), cat.arc_to_treepoint(b))
        want = augmented_diameter_value(t, sc)
        assert cat.evaluate(a, b) == pytest.approx(want, abs=1e-12 * t.scale)


def test_chord_memo_is_exact():
    # ``chord`` keeps the embedding of the last alpha; a run of calls that
    # repeats, changes and returns to alphas (as balance solves and the
    # pairs query do) must give exactly the embed-based chord.
    t = random_tree(3, 40, "uniform")
    cat = Caterpillar(t, backbone(t))
    rng = random.Random(7)
    alphas = [rng.uniform(0.0, cat.c_arc) for _ in range(5)] + [0.0, -0.0]
    for _ in range(400):
        alpha = rng.choice(alphas)
        beta = rng.uniform(cat.c_arc, cat.L)
        xa, ya = cat.embed(alpha)
        xb, yb = cat.embed(beta)
        assert cat.chord(alpha, beta) == math.hypot(xa - xb, ya - yb)
        if rng.random() < 0.2:
            cat.pairs(rng.choice(alphas), beta)
