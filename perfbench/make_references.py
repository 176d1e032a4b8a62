"""Regenerate perfbench/references.json from the program in src/.

    python3 perfbench/make_references.py

Run it from the repository root, only on a commit whose answers are
trusted: the stored values are what later runs must match (evaluate) or
not fall behind (optimize).  Every value is validated on the way:

* the copied generator must reproduce ``treecut.oracle.random_tree``;
* optimize answers must agree with both the benchmark's checker and
  ``augmented_diameter_value``; on the corpus, trees whose answer is
  more than 4h above the restricted grid optimum (h = diameter / 200,
  as in criterion 1) are listed under ``validation``;
* evaluate answers must agree with the checker and with
  ``dense_sample_diameter`` at 10 samples per edge.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from treecut import (  # noqa: E402
    augmented_diameter_value,
    backbone,
    classify_usefulness,
    grid_search,
    load_tree,
    optimize,
)
from treecut.oracle import dense_sample_diameter, random_tree  # noqa: E402
from treecut.tree_model import Shortcut, parse_tree_point  # noqa: E402

from workloads import (  # noqa: E402
    REFERENCES,
    WORKLOADS,
    TreeMetric,
    random_shortcut,
    random_tree_data,
    tree_spec,
)

DENSE_SAMPLES_PER_EDGE = 10


def reference(workload, seed, n, shape, stats):
    data = random_tree_data(seed, n, shape)
    expected = random_tree(seed, n, shape).to_json_data()
    if data != expected:
        raise SystemExit(f"generator differs from oracle.random_tree at {seed}")
    tree = load_tree(json.dumps(data))
    metric = TreeMetric(data)
    tol = 1e-9 * tree.scale
    ref = {"seed": seed, "n": n, "scale": tree.scale}

    def agree(name, a, b, limit=tol):
        gap = abs(a - b)
        stats[name] = max(stats.get(name, 0.0), gap / tree.scale)
        if gap > limit:
            raise SystemExit(f"{workload} seed {seed}: {name} {a} vs {b}")

    if workload == "evaluate-shortcuts":
        raw = random_shortcut(seed, data)
        sc = Shortcut(parse_tree_point(tree, raw["p"]),
                      parse_tree_point(tree, raw["q"]))
        use = classify_usefulness(tree, sc, backbone(tree))
        agree("checker_vs_program", metric.shortcut_diameter(raw),
              use.diameter_after)
        dense, spacing = dense_sample_diameter(
            tree, sc, samples_per_edge=DENSE_SAMPLES_PER_EDGE)
        # Sampling can only miss length, by at most one sample spacing.
        agree("dense_below_exact", max(dense - use.diameter_after, 0.0), 0.0)
        agree("dense_gap_over_spacing", use.diameter_after - dense, 0.0,
              limit=spacing)
        ref.update(diameter_before=use.diameter_before,
                   diameter_after=use.diameter_after,
                   usefulness=use.classification)
        stats["usefulness." + use.classification] = \
            stats.get("usefulness." + use.classification, 0) + 1
        return ref

    res = optimize(tree, record_segments=False)
    sc_json = {"p": res.shortcut.p.to_json(), "q": res.shortcut.q.to_json()}
    agree("checker_diameter", metric.diameter(), res.diameter_before)
    agree("checker_vs_optimize", metric.shortcut_diameter(sc_json),
          res.diameter_after)
    agree("program_evaluator_vs_optimize",
          augmented_diameter_value(tree, res.shortcut), res.diameter_after)
    ref.update(diameter_before=res.diameter_before,
               diameter_after=res.diameter_after)
    if workload == "optimize-corpus":
        h = res.diameter_before / 200.0
        grid = grid_search(tree, h).best_diameter
        gap = (res.diameter_after - grid) / h
        stats["worst_grid_gap_h"] = max(stats.get("worst_grid_gap_h", gap),
                                        gap)
        if gap > 4.0:
            # Kept, not skipped: the benchmark then reports this tree as
            # wrong until the sweep finds a better answer.
            stats.setdefault("grid_gap_above_4h", []).append(seed)
        ref["grid_best"] = grid
    return ref


def main():
    doc = {"main": {}, "holdout": {}, "validation": {}}
    for pool, holdout in (("main", False), ("holdout", True)):
        for name, wl in WORKLOADS.items():
            t0 = time.perf_counter()
            stats = {}
            size = wl.size(holdout)
            doc[pool][name] = [reference(name, *tree_spec(name, i, holdout),
                                         stats)
                               for i in range(size)]
            doc["validation"][f"{pool}/{name}"] = stats
            print(f"{pool}/{name}: {size} trees in "
                  f"{time.perf_counter() - t0:.1f}s {stats}", flush=True)
    doc["validation"]["note"] = (
        "gaps are maxima over the pool, as a share of the tree's scale; "
        f"dense sampling used {DENSE_SAMPLES_PER_EDGE} samples per edge")
    REFERENCES.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
