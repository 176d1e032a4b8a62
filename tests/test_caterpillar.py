import math
import random
import tracemalloc

import numpy as np
import pytest

from treecut import backbone
from treecut.caterpillar import NEG, Caterpillar, RangeMax
from treecut.oracle import random_tree


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
