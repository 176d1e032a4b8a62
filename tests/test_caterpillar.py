import gc
import math
import random
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treecut.caterpillar as caterpillar_module
from treecut import (GeometricTree, Shortcut, augmented_diameter_value,
                     backbone, optimize)
from treecut.caterpillar import (_KERNEL_MIN_WEDGES, NEG, Caterpillar,
                                 RangeMax, _cross_pair_arg)
from treecut.augmented_eval import has_useful_shortcut
from treecut.oracle import random_tree, stress_family
from treecut.sweep_engine import _PAIRS, _Engine


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
        for x, y in ((f.e, g.e), (f.cyc, g.cyc),
                     (f.pbar, L - g.qbar), (f.qbar, L - g.pbar),
                     (f.xy, g.xy), (f.fx, g.fy), (f.fy, g.fx),
                     (f.fanti, g.fanti), (f.diameter, g.diameter)):
            assert x == pytest.approx(y, abs=tol), (a, b)
        assert f.xy_branch == g.xy_branch
        assert (f.fx_branch, f.fy_branch) == (g.fy_branch, g.fx_branch)
        assert f.fx_pendant == _swapped_pendant(cat, g.fy_pendant)
        assert f.fy_pendant == _swapped_pendant(cat, g.fx_pendant)
        assert f.fanti_pendant == _swapped_pendant(cat, g.fanti_pendant)
        # A term (A_alpha, A_beta, k) read from b is (-A_beta, -A_alpha, k):
        # alpha there is L - beta here, and beta is L - alpha.
        mirror = lambda term: (-term[1], -term[0], term[2])
        assert (f.xy_term, f.fx_term, f.fy_term, f.fanti_term) == tuple(
            map(mirror, (g.xy_term, g.fy_term, g.fx_term, g.fanti_term)))
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


def cross_pair_length(frame, a, b, cyc, i, j):
    """The length of the pair (i, j) that ``_cross_pair`` names: wedges,
    or i = -1 for the group left of p and j = k for the group right of
    q, on the cycle at their positions, by the shorter way round."""
    i_a, i_b = frame._in_cycle(a, b)

    def point(n):
        if n < 0:
            return 0.0, frame.hmt_pre[0][i_a] + a
        if n == frame.k:
            return b - a, frame.hpt_suf[0][i_b] - b
        assert i_a <= n < i_b
        return frame.t[n] - a, frame.h[n]

    (ui, hi), (uj, hj) = point(i), point(j)
    assert ui <= uj
    return hi + hj + min(uj - ui, cyc - (uj - ui))


def assert_kernel_matches_scan(frame, a, b, scale):
    # The numpy kernel, called directly, against the Python scan over the
    # same cycle points; the kernel and ``_cross_pair`` (the scan below
    # the threshold) each name a pair of the length they give.
    i_a, i_b = frame._in_cycle(a, b)
    cyc = frame.chord(a, b) + (b - a)
    want = _cross_pair_arg(frame._cycle_points(a, b, i_a, i_b), cyc,
                           cyc / 2.0)[0]
    for got in (frame._cross_pairs(a, b, i_a, i_b, cyc),
                frame._cross_pair(a, b, i_a, i_b, cyc)):
        if want == NEG:
            assert got == (NEG, -1, -1), (a, b)
            continue
        assert got[0] == pytest.approx(want, abs=1e-12 * scale), (a, b)
        assert cross_pair_length(frame, a, b, cyc, *got[1:]) == (
            pytest.approx(got[0], abs=1e-12 * scale)), (a, b, got)


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


def square_tree():
    """A square path of unit edges whose two ends are distinct vertices
    at (0, 0), with a pendant into the square at each of its three
    corners: at (0, L) the chord is 0."""
    coords = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (1.0, 1.0), 3: (0.0, 1.0),
              4: (0.0, 0.0), 5: (0.875, 0.125), 6: (0.75, 0.75),
              7: (0.125, 0.875)}
    return GeometricTree(coords, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5),
                                  (2, 6), (3, 7)])


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
    # Every cross-pair read (by ``pairs`` or by the polish certificate)
    # with at least _KERNEL_MIN_WEDGES wedges inside the cycle runs the
    # numpy kernel and every other one the scan: on the n = 2000
    # caterpillar both occur, on the small corpus trees only the scan.
    cross, kernel = Caterpillar._cross_pair, Caterpillar._cross_pairs
    calls = {"big": 0, "small": 0, "kernel": 0, "scan": 0}

    def counted_cross(self, alpha, beta, i_a, i_b, cyc, floor=NEG):
        calls["big" if i_b - i_a >= _KERNEL_MIN_WEDGES else "small"] += 1
        return cross(self, alpha, beta, i_a, i_b, cyc, floor)

    def counted_kernel(self, *args):
        calls["kernel"] += 1
        return kernel(self, *args)

    def counted_scan(*args):
        calls["scan"] += 1
        return _cross_pair_arg(*args)

    monkeypatch.setattr(Caterpillar, "_cross_pair", counted_cross)
    monkeypatch.setattr(Caterpillar, "_cross_pairs", counted_kernel)
    monkeypatch.setattr(caterpillar_module, "_cross_pair_arg", counted_scan)
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


def gate_trees():
    """The trees the wedge-pair gate is checked on: the 210 criterion-1
    trees, the three n = 2000 caterpillars and one of n = 4000."""
    shapes = ("uniform", "caterpillar", "balanced")
    for s in range(210):
        yield random_tree(s, (5, 9, 14)[s % 3], shapes[s % 3])
    for s in range(3):
        yield random_tree(s, 2000, "caterpillar")
    yield random_tree(11, 4000, "caterpillar")


def test_evaluate_skips_only_wedge_pairs_below_its_floor(monkeypatch):
    # Every placement ``optimize`` evaluates on the gate trees, and random
    # ones on the large trees, against the value with the in-cycle pairs
    # forced (``pairs`` without a floor): equal to the bit.  Where
    # ``evaluate`` skipped the in-cycle block, those pairs are at most the
    # bound, the bound is below the floor, and the cross pair it keeps in
    # ``last_read`` is a real path of its length.
    placements, blocks = [], [0]
    evaluate, wedge_pairs = Caterpillar.evaluate, Caterpillar._wedge_pairs

    def recorded(self, alpha, beta):
        placements.append((self, alpha, beta))
        return evaluate(self, alpha, beta)

    def counted(self, *args):
        blocks[0] += 1
        return wedge_pairs(self, *args)

    monkeypatch.setattr(Caterpillar, "evaluate", recorded)
    rng = random.Random(7)
    for t in gate_trees():
        optimize(t, record_segments=False)
        if t.n >= 2000:
            cat = Caterpillar(t, backbone(t))
            placements += [(cat, a, b) for a, b in
                           kernel_placements(cat, rng, 20)]
    monkeypatch.setattr(Caterpillar, "evaluate", evaluate)
    monkeypatch.setattr(Caterpillar, "_wedge_pairs", counted)
    big = skipped = 0
    for cat, alpha, beta in placements:
        blocks[0] = 0
        got = cat.evaluate(alpha, beta)
        ran, read = blocks[0], cat.last_read
        a, b = min(alpha, beta), max(alpha, beta)
        if b - a <= 0.0:
            assert got == cat.diam_t
            continue
        fv = cat.families(a, b)
        want = max(fv.diameter, cat.pairs(a, b, fv.cyc))
        assert got.hex() == want.hex(), (a, b)
        i_a, i_b = cat._in_cycle(a, b)
        big += i_b - i_a >= _KERNEL_MIN_WEDGES
        if i_b - i_a < _KERNEL_MIN_WEDGES or ran:
            continue
        skipped += 1
        bound = 2.0 * cat.rm_h.query(i_a, i_b)[0] + fv.cyc / 2.0
        floor = max(fv.diameter, cat._same_side_pair(i_a, i_b))
        inside = max(w for w, _, _ in cat._wedge_pairs(i_a, i_b, fv.cyc))
        assert inside <= bound < floor, (a, b)
        w, i, j = read[3]
        if w > NEG:
            assert cross_pair_length(cat, a, b, fv.cyc, i, j) == (
                pytest.approx(w, abs=1e-12 * cat.tree.scale)), (a, b)
    assert big > 0 and skipped >= 0.95 * big, (big, skipped)


def slope_rows(fv):
    """The rows of the slope table the families are on: each family's
    name and winning term."""
    names = ("xy", "fx", "fy") + (("fanti",) if fv.fanti_pendant >= 0 else ())
    return {(name, getattr(fv, name + "_term")) for name in names}


def test_family_slopes_match_central_differences():
    # Each family's winning term (A_alpha, A_beta, k) gives its exact
    # slopes: A_beta + k de in beta and A_alpha + k de_alpha in alpha, with
    # the chord's slopes de and de_alpha on the view.  Compare them, and
    # de_alpha itself, with central differences at +-1e-7 L wherever the
    # branches, the argmax pendants and the edges under p and q are the
    # same at both ends of the difference, so that the term is one smooth
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
                              frame._locate(fv.alpha)[2],
                              frame._locate(fv.beta)[2])
            for _ in range(150):
                a, b = sorted((rng.uniform(0.0, L), rng.uniform(0.0, L)))
                if not (h < a < b - 2 * h and b + h < L):
                    continue
                mid = frame.families(a, b)
                de_a = (frame.chord(a + h, b) - frame.chord(a - h, b)) / h / 2
                for axis, lo, hi, de in (
                        (1, frame.families(a, b - h), frame.families(a, b + h),
                         mid.de),
                        (0, frame.families(a - h, b), frame.families(a + h, b),
                         mid.de_alpha)):
                    if not sig(lo) == sig(mid) == sig(hi):
                        continue
                    if axis == 0:
                        assert mid.de_alpha == pytest.approx(
                            de_a, rel=1e-5, abs=1e-5), (t.n, a, b)
                    for name, term in slope_rows(mid):
                        diff = (getattr(hi, name) - getattr(lo, name)) / h / 2
                        assert term[axis] + term[2] * de == pytest.approx(
                            diff, rel=1e-5, abs=1e-5), (t.n, name, axis, a, b)
                        seen.add((axis, name, term))
    # Every row of the slope table was checked, in alpha and in beta.
    half, one = 0.5, 1.0
    tree = (0.0, 0.0, 0.0)
    rows = {("xy", (one, -one, one)), ("xy", tree),
            ("fx", (half, half, half)), ("fx", tree),
            ("fx", (one, one, one)), ("fx", (one, -one, one)),
            ("fy", (-half, -half, half)), ("fy", tree),
            ("fy", (-one, -one, one)), ("fy", (one, -one, one)),
            ("fanti", (half, half, half)), ("fanti", (-half, half, half)),
            ("fanti", (-half, -half, half))}
    assert seen == {(axis,) + row for row in rows for axis in (0, 1)}, seen


def walk_solves(monkeypatch):
    """Every balance solve of the sweep on the 210 criterion-1 trees and
    the mixed trees ``random_tree(s, 5 + s % 96, shape)`` for s =
    1000..1099 that starts from a walk's last solved state, a walk's
    probes included: (engine, frame, alpha, pair, state, secant guess)."""
    out = []
    balance = _Engine.balance

    def recorded(self, frame, alpha, warm, pair, **kwargs):
        if warm.state is not None:
            out.append((self, frame, alpha, pair, warm.state,
                        warm.guess(alpha)))
        return balance(self, frame, alpha, warm, pair, **kwargs)

    monkeypatch.setattr(_Engine, "balance", recorded)
    shapes = ("uniform", "caterpillar", "balanced")
    specs = [(s, (5, 9, 14)[s % 3], shapes[s % 3]) for s in range(210)]
    specs += [(s, 5 + s % 96, shapes[s % 3]) for s in range(1000, 1100)]
    for spec in specs:
        t = random_tree(*spec)
        d = backbone(t)
        if has_useful_shortcut(d):
            _Engine(t, d).run()
    monkeypatch.undo()
    return out


def cell(fv, u, v):
    """What ``balance_root`` assumes of the families u and v: their
    terms and argmax pendants, and the edge under q."""
    return tuple(getattr(fv, name + field, None) for name in (u, v)
                 for field in ("_term", "_pendant")) + (fv.q_edge,)


def newton_balance(frame, alpha, pair, beta, lo, accept):
    """Newton's method on the balance g = u - v of ``pair`` in q at fixed
    alpha, from ``beta``, on g's exact slope, the difference of the two
    A_beta + k de: the read where |g| <= accept, or None where a step is
    not defined or leaves [lo, L] first."""
    u, v = _PAIRS[pair]
    for _ in range(20):
        fv = frame.families(alpha, beta)
        g = getattr(fv, u) - getattr(fv, v)
        if abs(g) <= accept:
            return fv
        (_, bu, ku), (_, bv, kv) = (getattr(fv, u + "_term"),
                                    getattr(fv, v + "_term"))
        slope = bu - bv + (ku - kv and (ku - kv) * fv.de)
        if not 0.0 < abs(slope) < math.inf:
            return None
        beta -= g / slope
        if not lo <= beta <= frame.L:
            return None
    return None


def test_balance_root_balances_where_the_cell_holds(monkeypatch):
    # From a walk's last solved state the root its cell predicts at the
    # next alpha, and halfway to it, balances the pair, to the solve's
    # acceptance, wherever the read there is in the same cell.  Where
    # Newton's method from the secant guess ends in that cell too, it
    # finds the same root.
    checked = newton = 0
    for eng, frame, alpha, pair, state, guess in walk_solves(monkeypatch):
        u, v = _PAIRS[pair]
        for a in (0.5 * (state.alpha + alpha), alpha):
            beta = frame.balance_root(state, a, u, v)
            if not 0.0 <= beta <= frame.L:      # NaN too
                continue
            fv = frame.families(a, beta)
            if cell(fv, u, v) != cell(state, u, v):
                continue
            checked += 1
            assert abs(getattr(fv, u) - getattr(fv, v)) <= eng.accept
            lo = max(a, frame.c_arc)
            fn = newton_balance(frame, a, pair, min(max(guess, lo), frame.L),
                                lo, eng.accept)
            if fn is not None and cell(fn, u, v) == cell(state, u, v):
                newton += 1
                assert abs(fn.beta - beta) <= 1e-9 * eng.tree.scale
    # 10,101 and 9,535 cases (9,923 and 9,766 on the criterion-1 trees
    # alone, when a walk solved the balance at six probes a stretch).
    assert checked >= 9000 and newton >= 9000, (checked, newton)


def test_balance_root_cases():
    # The closed form on one view with its terms and values replaced:
    # no root where q is free or where every root of the squared
    # equation has e < 0, and the linear cases, dk = 0 and a zero
    # quadratic coefficient (dk^2 = dA_beta^2).
    t = random_tree(4, 14, "uniform")
    cat = Caterpillar(t, backbone(t))
    i = max(range(len(cat.arcs) - 1),
            key=lambda i: cat.arcs[i + 1] - cat.arcs[i]
            if cat.arcs[i] >= cat.c_arc else 0.0)
    b0 = 0.5 * (cat.arcs[i] + cat.arcs[i + 1])      # mid-edge, right of c
    a0 = 0.5 * cat.c_arc
    fv = cat.families(a0, b0)
    tree, via, x_in, y_in = ((0.0, 0.0, 0.0), (1.0, -1.0, 1.0),
                             (1.0, 1.0, 1.0), (-1.0, -1.0, 1.0))
    view = lambda g, tu, tv: replace(fv, fx=fv.fy + g, fx_term=tu,
                                     fy_term=tv)
    assert math.isnan(cat.balance_root(view(1.0, tree, tree), a0, "fx",
                                       "fy"))
    # r(x) = e(x) + e0: squared, e(x) = e0 at x = 0, where e = -e0 < 0.
    assert math.isnan(cat.balance_root(
        view(2.0 * fv.e, (0.0, 0.0, 1.0), tree), a0, "fx", "fy"))
    assert cat.balance_root(view(0.25, x_in, y_in), a0, "fx", "fy") == (
        b0 - 0.125)
    g = 1e-3 * (cat.arcs[i + 1] - cat.arcs[i])
    for sign in (1.0, -1.0):
        beta = cat.balance_root(view(sign * g, via, tree), a0, "fx", "fy")
        x = beta - b0
        assert 0.0 < abs(x) < 0.5 * (cat.arcs[i + 1] - cat.arcs[i])
        r = sign * g - x + (cat.chord(a0, beta) - fv.e)
        assert abs(r) <= 1e-12 * t.scale, (sign, r)


def certificate_centers(cat, rng, count):
    """Polish centers for the certificate: (0, L), then random ones,
    each end anywhere in its box, on a box edge or on a breakpoint."""
    bps_a = [x for x in cat.bps if x <= cat.c_arc]
    bps_b = [x for x in cat.bps if x >= cat.c_arc]
    yield 0.0, cat.L
    for _ in range(count):
        yield (rng.choice([0.0, rng.uniform(0.0, cat.c_arc),
                           rng.choice(bps_a)]),
               rng.choice([cat.L, rng.uniform(cat.c_arc, cat.L),
                           rng.choice(bps_b)]))


def polish_steps(t, cat):
    """The polish's step ladder as ``_Engine._polish`` builds it, a
    column, smallest first."""
    levels, step = [], max(cat.L / 64.0, 4e-12 * t.scale)
    while step > 0.25 * t.tol:
        levels.append(step)
        step *= 0.5
    return np.array(levels[::-1])[:, None]


def test_safe_probes_bounds_every_probe_it_certifies():
    # Over the polish's own step ladder, L/64 down to tol/4, every compass
    # probe safe_probes certifies, clamped as the polish clamps it,
    # evaluates at least ``val``.  ``val`` is the value at the center less
    # a random gap, so that witnesses below it certify too.  The centers
    # are random, on breakpoints, at (0, L), at the optimum, where
    # ``pairs`` often sets the value, and with one end on a box edge or
    # less than L/64 inside it, where a probe that moves that end clamps
    # it there.  On the L-shaped tree p and q lie on one line and some
    # probes move them along it, toward each other until the chord is 0
    # where both clamp at c_arc; on the square tree (0, L) puts them on
    # one point.  Of each center's certified probes, those clamped inside
    # a step, the longest step of each direction and a few others are
    # evaluated.  The pair witness fires where the certificate without
    # it certifies fewer probes.
    rng = random.Random(7)
    trees = [random_tree(s, (5, 9, 14, 30)[s % 4],
                         ("uniform", "caterpillar", "balanced")[s % 3])
             for s in range(0, 120, 2)] + [l_tree(), square_tree()]
    certified = clamped = paired = 0
    for t in trees:
        d = backbone(t)
        if d.is_point or d.is_straight:
            continue
        cat = Caterpillar(t, d)
        res = optimize(t)
        steps = polish_steps(t, cat)
        centers = list(certificate_centers(cat, rng, 16))
        if res.useful:
            centers.append((res.p_arc, cat.L - res.q_arc))
        if t.n > 100:                       # the L-shaped tree
            centers += [(rng.uniform(0.0, cat.c_arc),
                         rng.uniform(cat.c_arc, 8.0)) for _ in range(16)]
            for _ in range(4):              # closing in until both clamp
                gap = rng.uniform(0.0, cat.L / 128.0)
                centers.append((cat.c_arc - gap, cat.c_arc + gap))
        inside = rng.uniform(0.0, cat.L / 64.0)
        centers += [(cat.c_arc, rng.uniform(cat.c_arc, cat.L)),
                    (rng.uniform(0.0, cat.c_arc), cat.c_arc),
                    (cat.c_arc - inside, rng.uniform(cat.c_arc, cat.L)),
                    (rng.uniform(0.0, cat.c_arc), cat.L - inside)]
        for a, b in centers:
            val = cat.evaluate(a, b) - rng.choice([0.0, 1e-3, 0.05]) * cat.L
            safe = cat.safe_probes(a, b, val, steps)
            assert safe.shape == (len(steps), len(cat.COMPASS))
            probes, longest = [], {}
            for k, i in np.argwhere(safe):
                step, (da, db) = float(steps[k, 0]), cat.COMPASS[i]
                a2 = min(max(a + step * da, 0.0), cat.c_arc)
                b2 = min(max(b + step * db, cat.c_arc), cat.L)
                # An end that moved, but less than the step: clamped
                # inside it.
                probes.append((a != a2 != a + step * da
                               or b != b2 != b + step * db, a2, b2))
                longest[i] = probes[-1]
            certified += len(probes)
            inner = [probe for probe in probes if probe[0]]
            clamped += len(inner)
            for _, a2, b2 in [*longest.values(), *inner,
                              *rng.sample(probes, min(4, len(probes)))]:
                assert cat.evaluate(a2, b2) >= val - 1e-12 * t.scale, (
                    t.n, a, b, a2, b2)
            cat._pair_witnesses = lambda *args: []
            without = cat.safe_probes(a, b, val, steps)
            del cat._pair_witnesses
            paired += bool((safe & ~without).any())
    assert certified >= 100000, certified
    assert clamped >= 200, clamped
    assert paired >= 20, paired
