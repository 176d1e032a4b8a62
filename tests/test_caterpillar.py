import gc
import math
import random
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treecut.caterpillar as caterpillar_module
from treecut import (GeometricTree, Shortcut, augmented_diameter_value,
                     backbone, optimize)
from treecut.caterpillar import (_KERNEL_MIN_WEDGES, NEG, Caterpillar,
                                 RangeMax, _cross_pair_max)
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


def test_range_max_gather_matches_query():
    rng = random.Random(6)
    for n in (1, 2, 3, 7, 8, 9, 64, 100):
        vals = [float(rng.randrange(-3, 4)) for _ in range(n)]
        rm = RangeMax(vals)
        lo, hi = zip(*[(i, j) for i in range(n + 1) for j in range(i, n + 1)])
        got = rm.gather(np.array(lo), np.array(hi))
        assert list(got) == [rm.query(i, j)[0] for i, j in zip(lo, hi)]


@pytest.mark.parametrize("n", [0, 1, 2, 33])
def test_prefix_and_suffix_tables_match_range_max(n):
    # Entry i of a prefix table is RangeMax.query(0, i), of a suffix table
    # query(i, n), in value and in leftmost argmax.  Few distinct integer
    # values, so that most windows hold ties for the maximum.
    rng = random.Random(8 + n)
    for _ in range(20):
        vals = [float(rng.randrange(-3, 4)) for _ in range(n)]
        rm = RangeMax(vals)
        arr = np.asarray(vals, dtype=float)
        pre, pre_arg = caterpillar_module._prefix_max(arr)
        suf, suf_arg = caterpillar_module._suffix_max(arr)
        for i in range(n + 1):
            assert (pre[i], pre_arg[i]) == rm.query(0, i), (vals, i)
            assert (suf[i], suf_arg[i]) == rm.query(i, n), (vals, i)
            assert type(pre[i]) is float and type(pre_arg[i]) is int
            assert type(suf[i]) is float and type(suf_arg[i]) is int


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


def wedge_pairs(frame, a, b):
    """``pairs`` at (a, b), with the cycle length ``evaluate`` hands it."""
    return frame.pairs(a, b, frame.chord(a, b) + (b - a))


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
        assert wedge_pairs(cat, a, b) == pytest.approx(
            wedge_pairs(fl, L - b, L - a), abs=tol)
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
            got = wedge_pairs(frame, a, b)
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
    # repeats, changes and returns to alphas (as balance solves and
    # evaluate do) must give exactly the embed-based chord.
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
            cat.evaluate(rng.choice(alphas), beta)


def assert_kernel_matches_scan(frame, a, b, scale):
    # The numpy kernel, called directly, against the Python scan over the
    # same cycle points.
    i_a, i_b = frame._in_cycle(a, b)
    cyc = frame.chord(a, b) + (b - a)
    got = frame._cross_pairs(a, b, i_a, i_b, cyc)
    want = _cross_pair_max(frame._cycle_points(a, b, i_a, i_b), cyc,
                           cyc / 2.0)
    if want == NEG:
        assert got == NEG, (a, b)
    else:
        assert got == pytest.approx(want, abs=1e-12 * scale), (a, b)


def kernel_placements(frame, rng, count):
    """Random placements, both ends on pendants, p = q on a pendant, and
    placements that leave one or both end groups empty."""
    L, t = frame.L, frame.t
    pts = [(0.0, L), (frame.c_arc, frame.c_arc)]
    pts += [sorted((rng.uniform(0.0, L), rng.uniform(0.0, L)))
            for _ in range(count)]
    pts += [tuple(sorted(rng.sample(t, 2))) for _ in range(count)]
    pts += [(x, x) for x in rng.sample(t, min(5, frame.k))]
    pts += [(0.0, x) for x in rng.sample(t, min(5, frame.k))]
    pts += [(x, L) for x in rng.sample(t, min(5, frame.k))]
    # Short cycles: a few wedges inside, under the kernel threshold.
    for _ in range(count):
        i = rng.randrange(frame.k)
        j = min(frame.k - 1, i + rng.randrange(1, _KERNEL_MIN_WEDGES))
        pts.append((t[i] - 1e-3, t[j] + 1e-3))
    return pts


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cross_pair_kernel_matches_the_scan(seed):
    t = random_tree(seed, 2000, "caterpillar")
    cat = Caterpillar(t, backbone(t))
    assert cat.k >= 600
    rng = random.Random(seed)
    sizes = set()
    for frame in (cat, cat.flip()):
        for a, b in kernel_placements(frame, rng, 40):
            i_a, i_b = frame._in_cycle(a, b)
            sizes.add(i_b - i_a >= _KERNEL_MIN_WEDGES)
            assert_kernel_matches_scan(frame, a, b, t.scale)
    assert sizes == {False, True}


def l_tree():
    """An L-shaped backbone of quarter-unit edges, legs 8 and 6, with a
    pendant of height 1/8, 1/4 or 3/8 at every vertex but two at each
    end.  All arcs and heights are exact, and the chord between the two
    ends is 10."""
    bb = [(x / 4, 0.0) for x in range(33)] + [(8.0, y / 4) for y in
                                              range(1, 25)]
    coords, edges = dict(enumerate(bb)), [(i - 1, i) for i in
                                          range(1, len(bb))]
    for i in range(2, len(bb) - 2):
        (x, y), h, v = bb[i], (0.125, 0.25, 0.375)[i % 3], len(coords)
        coords[v] = (x, -h) if y == 0.0 and x < 8.0 else (8.0 + h, y)
        edges.append((i, v))
    return GeometricTree(coords, edges)


def test_cross_pair_kernel_on_route_ties():
    # With p and q at the two ends, cyc = 14 + 10 and half = 12: the
    # wedge pairs 12 apart tie between the tree and the cycle route.
    # At (2, 9) in one frame the chord is 5, so half = 6, and the end
    # groups tie with the wedges 6 from them.
    t = l_tree()
    cat = Caterpillar(t, backbone(t))
    assert cat.L == 14.0 and cat.k >= _KERNEL_MIN_WEDGES
    for frame in (cat, cat.flip()):
        assert frame.chord(0.0, 14.0) == 10.0
        assert {0.5, 12.5} <= set(frame.t)
        pts = [(0.0, 14.0), (2.0, 9.0), (5.0, 12.0), (0.5, 12.5),
               (0.5, 0.5), (7.0, 7.0), (0.0, 0.0), (14.0, 14.0)]
        for a, b in pts:
            assert_kernel_matches_scan(frame, a, b, t.scale)
    assert 5.0 in (cat.chord(2.0, 9.0), cat.chord(5.0, 12.0))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 400),
       st.sampled_from(("uniform", "caterpillar", "balanced")),
       st.booleans(), st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8),
       st.lists(st.integers(0, 10 ** 6), max_size=4))
def test_cross_pair_kernel_matches_the_scan_on_random_trees(
        seed, n, shape, flipped, fracs, picks):
    t = random_tree(seed, n, shape)
    cat = Caterpillar(t, backbone(t))
    frame = cat.flip() if flipped else cat
    # Placements at the fractions of L, and on the picked pendants.
    arcs = [f * frame.L for f in fracs]
    if frame.k:
        arcs += [frame.t[i % frame.k] for i in picks]
    for a, b in zip(arcs, arcs[1:] + arcs[:1]):
        a, b = min(a, b), max(a, b)
        assert_kernel_matches_scan(frame, a, b, t.scale)


def test_pairs_takes_the_kernel_from_the_threshold(monkeypatch):
    # Every ``pairs`` call with at least _KERNEL_MIN_WEDGES wedges inside
    # the cycle runs the numpy kernel and every other call the scan: on
    # the n = 2000 caterpillar both occur, on the small corpus trees only
    # the scan.
    pairs, kernel = Caterpillar.pairs, Caterpillar._cross_pairs
    calls = {"big": 0, "small": 0, "kernel": 0, "scan": 0}

    def counted_pairs(self, alpha, beta, cyc):
        i_a, i_b = self._in_cycle(alpha, beta)
        calls["big" if i_b - i_a >= _KERNEL_MIN_WEDGES else "small"] += 1
        return pairs(self, alpha, beta, cyc)

    def counted_kernel(self, *args):
        calls["kernel"] += 1
        return kernel(self, *args)

    def counted_scan(*args):
        calls["scan"] += 1
        return _cross_pair_max(*args)

    monkeypatch.setattr(Caterpillar, "pairs", counted_pairs)
    monkeypatch.setattr(Caterpillar, "_cross_pairs", counted_kernel)
    monkeypatch.setattr(caterpillar_module, "_cross_pair_max", counted_scan)
    optimize(random_tree(0, 2000, "caterpillar"), record_segments=False)
    assert calls["big"] > 0
    assert (calls["kernel"], calls["scan"]) == (calls["big"], calls["small"])
    calls.update(big=0, small=0, kernel=0, scan=0)
    shapes = ("uniform", "caterpillar", "balanced")
    for s in range(70):
        optimize(random_tree(s, (5, 9, 14)[s % 3], shapes[s % 3]),
                 record_segments=False)
    assert calls["small"] > 0
    assert calls == {"big": 0, "small": calls["small"], "kernel": 0,
                     "scan": calls["small"]}


def slope_rows(frame, fv):
    """The row of the slope table each family's winning term is on."""
    side = lambda i: "t<=beta" if frame.t[i] <= fv.beta else "t>beta"
    rows = {("xy", fv.xy_branch), ("fy", fv.fy_branch)}
    rows.add(("fx", fv.fx_branch) if fv.fx_branch != "via"
             else ("fx", "via", side(fv.fx_pendant)))
    if fv.fanti_pendant >= 0:
        rows.add(("fanti", side(fv.fanti_pendant)))
    return rows


def test_family_slopes_match_central_differences():
    # Each ``*_db`` is the exact slope in beta of its family's winning
    # term.  Compare it with a central difference at +-1e-7 L wherever
    # the branches, the argmax pendants and the edge under q are the same
    # at both ends of the difference, so that the term is one smooth
    # function there.  Slopes are dimensionless and of order 1.
    trees = [random_tree(s, (5, 9, 14)[s % 3],
                         ("uniform", "caterpillar", "balanced")[s % 3])
             for s in range(0, 210, 7)]
    trees.append(random_tree(0, 2000, "caterpillar"))
    rng = random.Random(16)
    seen = set()
    for t in trees:
        d = backbone(t)
        if d.is_point or d.is_straight:
            continue
        cat = Caterpillar(t, d)
        for frame in (cat, cat.flip()):
            L = frame.L
            h = 1e-7 * L
            sig = lambda fv: (fv.xy_branch, fv.fx_branch, fv.fx_pendant,
                              fv.fy_branch, fv.fy_pendant, fv.fanti_pendant,
                              frame._locate(fv.beta)[2])
            for _ in range(150):
                a, b = sorted((rng.uniform(0.0, L), rng.uniform(0.0, L)))
                if not (a < b - h and b + h < L):
                    continue
                lo, mid, hi = (frame.families(a, b + s) for s in (-h, 0.0, h))
                if not sig(lo) == sig(mid) == sig(hi):
                    continue
                for name in ("xy", "fx", "fy", "fanti"):
                    if name == "fanti" and mid.fanti_pendant < 0:
                        continue
                    diff = (getattr(hi, name) - getattr(lo, name)) / (2 * h)
                    assert getattr(mid, name + "_db") == pytest.approx(
                        diff, rel=1e-5, abs=1e-5), (t.n, name, a, b)
                seen |= slope_rows(frame, mid)
    # Every row of the slope table was checked.
    assert seen == {("xy", "via"), ("xy", "tree"),
                    ("fx", "anti"), ("fx", "tree"),
                    ("fx", "via", "t<=beta"), ("fx", "via", "t>beta"),
                    ("fy", "anti"), ("fy", "tree"), ("fy", "via"),
                    ("fanti", "t<=beta"), ("fanti", "t>beta")}, seen


def compass_probes(cat, a, b, s):
    """The eight compass probes at step s, clamped as the polish clamps."""
    for da in (-1.0, 0.0, 1.0):
        for db in (-1.0, 0.0, 1.0):
            if da or db:
                yield (min(max(a + s * da, 0.0), cat.c_arc),
                       min(max(b + s * db, cat.c_arc), cat.L))


def test_chord_alpha_slope_matches_central_differences():
    # ``e_da`` is the exact slope in alpha of the chord, wherever p stays
    # on its backbone edge for the difference.
    rng = random.Random(24)
    checked = 0
    for s in range(0, 60, 3):
        t = random_tree(s, (5, 9, 14)[s % 3],
                        ("uniform", "caterpillar", "balanced")[s % 3])
        cat = Caterpillar(t, backbone(t))
        h = 1e-7 * cat.L
        for _ in range(20):
            a, b = sorted((rng.uniform(0.0, cat.L), rng.uniform(0.0, cat.L)))
            edge = cat._locate(a)[2]
            if not (h < a < b - h and cat._locate(a - h)[2] == edge
                    == cat._locate(a + h)[2]):
                continue
            diff = (cat.chord(a + h, b) - cat.chord(a - h, b)) / (2 * h)
            assert cat.families(a, b).e_da == pytest.approx(
                diff, rel=1e-5, abs=1e-5), (s, a, b)
            checked += 1
    assert checked >= 100, checked


def test_still_step_bounds_every_probe_it_certifies():
    # Wherever still_step certifies s*, every compass probe at a step in
    # [s_min, s*] evaluates at least ``val``.  ``val`` is the value at the
    # center less a random gap, so that inactive witnesses certify too.
    rng = random.Random(7)
    fired = 0
    for s in range(0, 120, 2):
        t = random_tree(s, (5, 9, 14, 30)[s % 4],
                        ("uniform", "caterpillar", "balanced")[s % 3])
        d = backbone(t)
        if d.is_point or d.is_straight:
            continue
        cat = Caterpillar(t, d)
        for _ in range(16):
            a = rng.choice([0.0, rng.uniform(0.0, cat.c_arc)])
            b = rng.choice([cat.L, rng.uniform(cat.c_arc, cat.L)])
            val = cat.evaluate(a, b) - rng.choice([0.0, 1e-3, 0.05]) * cat.L
            s_min = rng.choice([1e-9, 1e-4]) * cat.L
            far = cat.still_step(a, b, val, s_min)
            if far == 0.0:
                continue
            assert far >= s_min
            fired += 1
            far = min(far, cat.L)
            for step in (s_min, (s_min + far) / 2.0, far,
                         rng.uniform(s_min, far)):
                for a2, b2 in compass_probes(cat, a, b, step):
                    assert cat.evaluate(a2, b2) >= val - 1e-12 * t.scale, (
                        s, a, b, step, a2, b2)
    assert fired >= 100, fired
