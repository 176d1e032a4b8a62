import gc
import math
import random
import tracemalloc
import weakref

import numpy as np
import pytest

from treecut import GeometricTree, backbone
from treecut.caterpillar import NEG, Caterpillar, RangeMax
from treecut.oracle import random_tree
from treecut.smawk import wedge_path_on_arcs


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


@pytest.mark.parametrize("shape", ["caterpillar", "uniform", "balanced"])
def test_wedge_matches_the_smawk_reference(shape):
    # The closed form and SMAWK read the same pairs except at ties, where
    # rounding decides; placements saving less than 1e-9*scale are left
    # to the straight-run test below.
    rng = random.Random(shape)
    compared = found = 0
    for n in (6, 8, 11, 15, 20, 30, 45, 70, 100, 150, 250, 400):
        t = random_tree(n, n, shape)
        cat = Caterpillar(t, backbone(t))
        for frame in (cat, cat.flip()):
            for _ in range(20):
                a, b = sorted((rng.uniform(0.0, frame.L),
                               rng.uniform(0.0, frame.L)))
                e = frame.chord(a, b)
                got = frame.wedge(a, b)
                if b - a - e <= 1e-9 * t.scale:
                    continue
                want = wedge_path_on_arcs(frame.t, frame.h, e, a, b)
                compared += 1
                if want is None:
                    assert got is None, (n, a, b)
                    continue
                found += 1
                assert got is not None, (n, a, b)
                assert got[0] == pytest.approx(want[0], abs=1e-12 * t.scale)
                assert got[1] == want[1], (n, a, b)
    assert compared >= 300 and found >= 100, (compared, found)


def test_wedge_is_none_on_a_straight_run():
    # On a straight backbone the route through the shortcut is the tree
    # route: a pair only "qualifies" there by rounding in the chord.
    ux, uy = math.cos(0.3), math.sin(0.3)
    coords = {k: (2.0 * k * ux, 2.0 * k * uy) for k in range(6)}
    edges = [(k, k + 1) for k in range(5)]
    for k, h in ((1, 0.5), (2, 1.0), (3, 1.2), (4, 0.7)):
        coords[10 + k] = (coords[k][0] + h * uy, coords[k][1] - h * ux)
        edges.append((k, 10 + k))
    t = GeometricTree(coords, edges)
    cat = Caterpillar(t, backbone(t))
    assert cat.k == 4
    rng = random.Random(1)
    for frame in (cat, cat.flip()):
        # Both ends on one backbone edge, then anywhere on the run.
        pts = [sorted((rng.uniform(2.0, 4.0), rng.uniform(2.0, 4.0)))
               for _ in range(50)]
        pts += [sorted((rng.uniform(0.0, frame.L), rng.uniform(0.0, frame.L)))
                for _ in range(200)]
        for a, b in pts:
            assert frame.wedge(a, b) is None, (a, b)


def test_chord_memo_is_exact():
    # ``chord`` keeps the embedding of the last alpha; a run of calls that
    # repeats, changes and returns to alphas (as balance solves and the
    # wedge query do) must give exactly the embed-based chord.
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
            cat.wedge(rng.choice(alphas), beta)
