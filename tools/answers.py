"""Dump the sweep's answers on the ROADMAP trees, compare two dumps,
check answers under motions, or scan for misses.

    python tools/answers.py dump OUT.json
    python tools/answers.py compare BEFORE.json AFTER.json
    python tools/answers.py motions SEED N SHAPE
    python tools/answers.py motions --scan
    python tools/answers.py misses

``dump`` runs ``optimize`` from the ``src/`` beside this file on every
tree of ``trees()`` and ``augmented_diameter`` on every tree and seeded
shortcut of ``evaluations()``, in two worker processes (one where there
is one core), and writes one record a tree: its answer, its scale and
the work ``COUNTS`` counts.  To compare two versions of the program, run
each version's copy of this file.

``compare`` prints the ROADMAP identity verdict: ``phase_end`` identical
on every tree, no ``diameter_after`` worse than before by more than
1e-9 * scale, and no evaluate diameter moved, either way, by more than
1e-9 * scale.  It exits 1 when the verdict fails.  Outside the verdict
it prints, per set, the changed answers and event traces and the rows
of ``COLUMNS`` before and after, and per evaluate pool the rows of
``POOL_COLUMNS``.  A row prints where every record of both dumps holds
its fields, and otherwise says it is not compared.

``motions`` runs ``optimize`` on ``random_tree(SEED, N, SHAPE)`` and on
40 moved copies of it (``moved``).  The answer's measure is
``diameter_after / diameter_before``, which a similarity keeps; the
tree's scale, a bounding-box diagonal, changes under rotation.  It
prints how many copies answer better and how many worse than the
original by more than 1e-9, and the least and largest difference of the
measure.  ``motions --scan`` runs that check on every criterion-1,
hold-out and item-1 tree (1,920 trees), in two worker processes like
``dump``, and prints per set the frame-decided trees, where some copy
answers beyond 1e-9.  It is a report, not a gate: it exits 0.

``misses`` runs ``optimize`` on the 360 trees of the ROADMAP scale set
(``scale_set()``), the 1,500 item-1 trees and the 210 hold-out trees,
in two worker processes like ``dump``, and prints per set the trees
whose answer lies more than 1e-6 * scale above a grid optimum of the
exact evaluator.  The small sets are checked against the polished
optimum of a 161 x 161 backbone grid
(``treecut.oracle.polished_grid_optimum``), the scale set against its
loop grid (``loop_grid_optimum``).  It is a report, not a gate: it
exits 0.  It takes about 90 s on two cores.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import random
import statistics
import sys
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from treecut.augmented_eval import (  # noqa: E402
    augmented_diameter,
    classify_usefulness,
)
from treecut.caterpillar import Caterpillar  # noqa: E402
from treecut.diameter_core import backbone  # noqa: E402
from treecut import sweep_engine  # noqa: E402
from treecut.oracle import polished_grid_optimum, random_tree  # noqa: E402
from treecut.sweep_engine import _Engine, optimize  # noqa: E402
from treecut.tree_model import (  # noqa: E402
    GeometricTree,
    Shortcut,
    TreePoint,
)

SHAPES, SIZES = ("uniform", "caterpillar", "balanced"), (5, 9, 14)
WORSE = 1e-9        # the largest loss allowed, in units of the tree's scale
RESCUE = 1e-6       # a sweep_gap above this, in units of scale, is a rescue
GAP = 1e-9          # the sweep_gap line whose crossings ``compare`` names
EVALUATE = "evaluate/"      # the name prefix of the evaluate records
MOTIONS = 40        # the moved copies ``motions`` checks
MOVED = 1e-9        # a moved copy's measure differs beyond this
MISS = 1e-6         # an answer this far above the grid optimum, in scale
LOOP = 121          # the loop grid's placements per side

# The methods ``answer`` counts the calls of, by name.
OWNERS = {name: owner for owner, names in (
    (Caterpillar, "families evaluate _wedge_pairs"),
    (_Engine, "balance phase1 _first_stop _dip _drive _polish"),
    (sweep_engine, "newton_root")) for name in names.split()}

# The work counters of an optimize record, each (method, inside, outside):
# the calls of ``method`` made while a call named ``inside`` is open and
# none named ``outside`` (None: any).  A call is named by its method and
# by each counter that counts it.
COUNTS = {
    "families": ("families", None, None),
    "evaluate_calls": ("evaluate", None, None),
    "solves": ("balance", None, None),      # balance solves
    "solve_families": ("families", "balance", None),
    "phase1_families": ("families", "phase1", None),
    # Stop root finds: the newton_root calls of _first_stop, phase I's
    # included, not those of the balance solves inside it.
    "stop_roots": ("newton_root", "_first_stop", "balance"),
    # The families calls inside them; the stops' probes are not counted.
    "stop_families": ("families", "stop_roots", None),
    "dips": ("_dip", None, None),           # dip searches
    "dip_families": ("families", "_dip", None),
    # The stretches the walks cross: the stop finds of a walk itself.
    "stretches": ("_first_stop", "_drive", None),
    # Probe reads: the stops' reads of their points outside their root
    # finds, phase I's and the wedge crossing's included.
    "probe_families": ("families", "_first_stop", "stop_roots"),
    # Blocks of the numpy kernel over the pairs of two wedges inside the
    # cycle.
    "pair_blocks": ("_wedge_pairs", None, None),
    "polish_evaluates": ("evaluate", "_polish", None),
}


def per(top, bottom):
    """The text of sum(top) / sum(bottom), 0 where sum(bottom) is."""
    return f"{sum(top) / sum(bottom) if sum(bottom) else 0.0:.2f}"


# The rows ``compare`` prints per set, each (title, fields, text): text
# maps the lists of the set's values of each field to what one dump
# reads.  None is part of the verdict.
COLUMNS = (
    ("evaluate calls, total / mean / median per tree", ("evaluate_calls",),
     lambda n: f"{sum(n)} / {statistics.mean(n):.1f} / "
               f"{statistics.median(n):g}"),
    ("balance solves / families calls per solve",
     ("solves", "solve_families"), lambda n, f: f"{sum(n)} / {per(f, n)}"),
    ("families calls inside phase I", ("phase1_families",), sum),
    ("families calls per stop root / per dip search",
     ("stop_roots", "stop_families", "dips", "dip_families"),
     lambda sr, sf, d, df: f"{per(sf, sr)} / {per(df, d)}"),
    ("families calls per stretch outside stop roots",
     ("stretches", "probe_families"), lambda n, f: per(f, n)),
    ("in-cycle wedge-pair kernel blocks", ("pair_blocks",), sum),
    ("evaluate calls inside the polish", ("polish_evaluates",), sum),
    # A rescue: the polish found an answer the sweep did not.
    (f"rescues (sweep_gap > {RESCUE:g} scale)", ("sweep_gap",),
     lambda g: sum(x > RESCUE for x in g)),
    # A tree that reads 9.999998e-10 in one dump and 1.0000002e-09 in the
    # other moves this count by rounding alone; ``compare`` names it.
    (f"trees with sweep_gap > {GAP:g} scale", ("sweep_gap",),
     lambda g: sum(x > GAP for x in g)),
)
# The rows ``compare`` prints per evaluate pool.  pair_leaves: the leaves
# the diagnosis' pass over the leaf pairs read.
POOL_COLUMNS = (
    ("leaves read by the leaf-pair pass", ("pair_leaves",), sum),
)


def trees():
    """(set, name, (seed, n, shape)) of every tree, the large ones first:
    the ROADMAP comparison set (the 210 criterion-1 trees, the 210
    hold-out corpus trees, ``random_tree(s, 5 + s % 96, shape)`` for s =
    1000..1299 and ``random_tree(s, 2000, "caterpillar")`` for s =
    0..2) and the 1,500 item-1 trees."""
    for s in range(3):
        yield "large", f"large/{s}", (s, 2000, "caterpillar")
    for s in range(210):
        yield "criterion-1", f"criterion-1/{s}", (s, SIZES[s % 3],
                                                  SHAPES[s % 3])
    for i in range(210):
        yield "hold-out", f"hold-out/{i}", (1000000 + i, SIZES[i % 3],
                                            SHAPES[i % 3])
    for s in range(1000, 1300):
        yield "mixed", f"mixed/{s}", (s, 5 + s % 96, SHAPES[s % 3])
    for i in range(1500):
        yield "item-1", f"item-1/{i}", (1000000 + i, (5, 9, 14, 20, 30)[i % 5],
                                        SHAPES[i % 3])


def evaluations():
    """(set, name, (seed, n, shape)) of every evaluate record: the 120
    trees of the benchmark's ``evaluate-shortcuts`` pool and the mixed
    trees, each with its ``seeded_shortcut``."""
    for s in range(120):
        yield "evaluate", f"{EVALUATE}shortcuts/{s}", (s, 300, "uniform")
    for s in range(1000, 1300):
        yield "evaluate", f"{EVALUATE}mixed/{s}", (s, 5 + s % 96,
                                                   SHAPES[s % 3])


def scale_set():
    """(set, name, (seed, n, shape)) of the ROADMAP scale set, the large
    ones first: ``random_tree(s, n, shape)`` for n = 2000, 500 and 100,
    the three shapes and s = 2000..2039."""
    for n in (2000, 500, 100):
        for shape in SHAPES:
            for s in range(2000, 2040):
                yield "scale", f"scale/{s}/{n}/{shape}", (s, n, shape)


def seeded_shortcut(tree, seed):
    """Interior points of two distinct random edges: the shortcut the
    benchmark's ``evaluate-shortcuts`` pool draws for the same seed."""
    rng = random.Random(f"perfbench-shortcut:{seed}")
    i, j = rng.sample(range(len(tree.edges)), 2)
    (a, b), (c, d) = tree.edges[i], tree.edges[j]
    return Shortcut(TreePoint(a, b, rng.uniform(0.05, 0.95)),
                    TreePoint(c, d, rng.uniform(0.05, 0.95)))


def pairs_digest(pairs):
    """A digest of the achieving pairs: both ends, types, routes and the
    distance to the bit, in order."""
    h = hashlib.sha256()
    for ap in pairs:
        end2 = ap.end2
        if isinstance(end2, dict):
            end2 = (end2["kind"], end2["cycle_position"].hex())
        h.update(repr((ap.end1, end2, ap.subtype, ap.pair_type,
                       sorted(ap.path_types), ap.distance.hex())).encode())
    return h.hexdigest()[:16]


def trace_digest(events):
    """A digest of the event trace: kind, phase, both arcs to the bit and
    payload of every event, in order."""
    h = hashlib.sha256()
    for ev in events:
        h.update(repr((ev.kind, ev.phase, ev.p_arc.hex(), ev.q_arc.hex(),
                       ev.payload)).encode())
    return h.hexdigest()[:16]


def answer(job):
    """(name, record) of ``optimize`` on one tree: ``phase_end``,
    ``diameter_after`` as ``float.hex``, the scale, ``event_count``, the
    ``COUNTS``, ``sweep_gap``, the value ``best`` hands to
    ``_Engine._polish`` less the value the polish returns, in units of
    scale (0 where nothing is polished), and ``events``, a digest of the
    event trace."""
    group, name, spec = job
    counts, open_ = Counter(), Counter()    # calls made and open, by name
    originals = {method: getattr(owner, method)
                 for method, owner in OWNERS.items()}

    def counting(method):
        rows = [(field, inside, outside)
                for field, (of, inside, outside) in COUNTS.items()
                if of == method]

        def counted(*args, **kwargs):
            fields = [field for field, inside, outside in rows
                      if (inside is None or open_[inside])
                      and not open_[outside]]
            counts.update(fields)
            open_.update([method, *fields])
            try:
                return originals[method](*args, **kwargs)
            finally:
                open_.subtract([method, *fields])
        return counted

    for method, owner in OWNERS.items():
        setattr(owner, method, counting(method))
    polish, gap = _Engine._polish, [0.0]

    def polished(self, val, ab):
        out = polish(self, val, ab)
        gap[0] = val - out[0]
        return out

    _Engine._polish = polished
    try:
        t = random_tree(*spec)
        res = optimize(t)
    finally:
        for method, owner in OWNERS.items():
            setattr(owner, method, originals[method])
    return name, {"set": group, "phase_end": res.phase_end,
                  "diameter_after": res.diameter_after.hex(),
                  "scale": t.scale, "event_count": res.event_count,
                  **{field: counts[field] for field in COUNTS},
                  "sweep_gap": gap[0] / t.scale,
                  "events": trace_digest(res.events)}


def evaluation(job):
    """(name, record) of ``augmented_diameter`` on one tree and its
    ``seeded_shortcut``: the diameter as ``float.hex``, the scale, the
    usefulness, a digest of the achieving pairs and ``pair_leaves``, the
    number of indices ``augmented_diameter`` hands to
    ``GeometricTree.rows`` (0 where no pair pass runs)."""
    group, name, spec = job
    t = random_tree(*spec)
    sc = seeded_shortcut(t, spec[0])
    decomp = backbone(t)
    rows, read = GeometricTree.rows, [0]

    def counted(tree, index):
        read[0] += len(index)
        return rows(tree, index)

    GeometricTree.rows = counted
    try:
        diag = augmented_diameter(t, decomp, sc)
    finally:
        GeometricTree.rows = rows
    use = classify_usefulness(t, sc, decomp)
    return name, {"set": group, "diameter": diag.diameter.hex(),
                  "scale": t.scale, "usefulness": use.classification,
                  "pairs": pairs_digest(diag.achieving_pairs),
                  "pair_leaves": read[0]}


def run(job):
    return (evaluation if job[1].startswith(EVALUATE) else answer)(job)


def run_all(fn, jobs):
    """{name: record} of fn over the jobs, in two worker processes (one
    where there is one core)."""
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(min(2, os.cpu_count() or 1)) as pool:
        return dict(pool.imap_unordered(fn, jobs, 8))


def dump(out):
    jobs = list(trees()) + list(evaluations())
    records = run_all(run, jobs)
    order = [name for _, name, _ in jobs]
    Path(out).write_text(json.dumps({name: records[name] for name in order},
                                    indent=0) + "\n")


def split(records):
    """The optimize records and the evaluate records of a dump."""
    evaluate = {k: v for k, v in records.items() if k.startswith(EVALUATE)}
    return ({k: v for k, v in records.items() if k not in evaluate},
            evaluate)


def groups(records, key):
    """{group: names} of ``records``, ``key(name, record)`` naming each
    one's group, in the order of their first records."""
    out = {}
    for name, rec in records.items():
        out.setdefault(key(name, rec), []).append(name)
    return out


def held(fields, *dumps):
    """Whether every record of ``dumps`` holds every one of ``fields``."""
    return all(field in rec for dump in dumps for rec in dump.values()
               for field in fields)


def print_rows(rows, sets, before, after):
    """Print each of ``rows`` per group of ``sets``, before -> after,
    where every record of both dumps holds its fields; else one line
    says it is not compared."""
    for title, fields, text in rows:
        if not held(fields, before, after):
            print(f"{title}: a dump without {', '.join(fields)}, not "
                  "compared")
            continue
        print(f"{title}, before -> after:")
        for group, names in sets.items():
            old, new = (text(*([dump[name][field] for name in names]
                               for field in fields))
                        for dump in (before, after))
            print(f"  {group:<12}{old:>20} -> {new}")


def compare_evaluate(before, after):
    """The evaluate part of the verdict: no diameter moved by more than
    WORSE * scale.  Counts the bitwise changes outside the verdict."""
    if not before:
        print("evaluate records: none in the older dump, not compared")
        return True
    if before.keys() != after.keys():
        print("the dumps hold different evaluate records")
        return False
    ok, moved, counts = True, 0.0, {"diameter": 0, "usefulness": 0,
                                    "pairs": 0}
    for name, old in before.items():
        new = after[name]
        for field in counts:
            counts[field] += old[field] != new[field]
        move = abs(float.fromhex(new["diameter"])
                   - float.fromhex(old["diameter"])) / old["scale"]
        moved = max(moved, move)
        if move > WORSE:
            ok = False
            print(f"{name}: diameter moved by {move:.3g} scale")
    print(f"evaluate records: {len(before)}; changed: "
          f"{counts['diameter']} diameters bitwise (largest move "
          f"{moved:.2e} scale), {counts['usefulness']} usefulness, "
          f"{counts['pairs']} achieving pairs")
    pools = groups(before, lambda name, rec: name.split("/")[1])
    print_rows(POOL_COLUMNS, pools, before, after)
    return ok


def compare(before_path, after_path):
    before, before_evaluate = split(json.loads(Path(before_path).read_text()))
    after, after_evaluate = split(json.loads(Path(after_path).read_text()))
    if before.keys() != after.keys():
        print("the dumps hold different trees")
        return False
    ok, change = True, {}   # change: diameter_after's, in units of scale
    for name, old in before.items():
        new = after[name]
        if old["phase_end"] != new["phase_end"]:
            ok = False
            print(f"{name}: phase_end {old['phase_end']} -> "
                  f"{new['phase_end']}")
        change[name] = (float.fromhex(new["diameter_after"])
                        - float.fromhex(old["diameter_after"])) / old["scale"]
        if change[name] > WORSE:
            ok = False
            print(f"{name}: diameter_after worse by {change[name]:.3g} "
                  "scale")
    sets, traces = groups(before, lambda name, rec: rec["set"]), 0
    print(f"{'set':<12}{'trees':>6}{'phase_end':>10}{'bitwise':>8}"
          f"{'traces':>7}{'worst':>11}{'best':>11}{'families':>20}"
          f"{'events':>16}")
    for group, names in sets.items():
        pairs = [(before[name], after[name]) for name in names]
        moves = [change[name] for name in names]
        changed = [sum(old.get(field) != new.get(field) for old, new in pairs)
                   for field in ("phase_end", "diameter_after", "events")]
        traces += changed[-1]
        totals = [sum(rec[field] for rec in dump)
                  for field in ("families", "event_count")
                  for dump in zip(*pairs)]
        print(f"{group:<12}{len(names):>6}"
              + "".join(f"{n:>{w}}" for n, w in zip(changed, (10, 8, 7)))
              + f"{max(0.0, *moves):>11.2e}{max(0.0, -min(moves)):>11.2e}"
              + "".join(f"{n:>{w}}" for n, w in zip(totals, (10, 10, 8, 8))))
    print("worst and best: the largest loss and gain of diameter_after, "
          "in units of scale; families and events: the totals before and "
          "after")
    print_rows(COLUMNS, sets, before, after)
    if held(("sweep_gap",), before, after):
        for name, old in before.items():
            gaps = old["sweep_gap"], after[name]["sweep_gap"]
            if (gaps[0] > GAP) != (gaps[1] > GAP):
                print(f"  {name} crosses {GAP:g}: {gaps[0]:.8g} -> "
                      f"{gaps[1]:.8g}")
    if held(("events",), before, after):
        print(f"event traces changed on {traces} trees (not part of the "
              "verdict)")
    else:
        print("event traces: a dump without trace digests, not compared")
    ok = compare_evaluate(before_evaluate, after_evaluate) and ok
    print("verdict:", "PASS" if ok else "FAIL",
          f"(phase_end identical, no answer worse and no evaluate diameter "
          f"moved by more than {WORSE:g} scale)")
    return ok


def moved(tree, rng):
    """A copy of ``tree`` moved by a similarity drawn from ``rng``: a
    rotation, a mirror half the time, a scaling by 10^u with u uniform in
    [-3, 3], and a translation by up to ten times the moved scale; its
    vertex ids are relabelled by a permutation drawn from ``rng``."""
    turn = rng.uniform(0.0, 2.0 * math.pi)
    cos, sin = math.cos(turn), math.sin(turn)
    mirror = -1.0 if rng.random() < 0.5 else 1.0
    factor = 10.0 ** rng.uniform(-3.0, 3.0)
    dx, dy = (rng.uniform(-10.0, 10.0) * factor * tree.scale
              for _ in range(2))
    label = dict(zip(tree.coords, rng.sample(list(tree.coords),
                                             len(tree.coords))))
    coords = {label[v]: (factor * (cos * x - sin * mirror * y) + dx,
                         factor * (sin * x + cos * mirror * y) + dy)
              for v, (x, y) in tree.coords.items()}
    return GeometricTree(coords, [(label[u], label[v])
                                  for u, v in tree.edges])


def measure(tree):
    """``diameter_after / diameter_before`` of ``optimize`` on ``tree``."""
    res = optimize(tree)
    return res.diameter_after / res.diameter_before


def differences(seed, n, shape):
    """(measure, diffs): the measure of ``random_tree(seed, n, shape)``
    and how far each of its ``MOTIONS`` moved copies answers from it, the
    copies drawn from a stream seeded by ``seed``."""
    tree = random_tree(seed, n, shape)
    base = measure(tree)
    rng = random.Random(f"motions:{seed}")
    return base, [measure(moved(tree, rng)) - base for _ in range(MOTIONS)]


def beyond(diffs):
    """The text of how many ``diffs`` are better and worse beyond
    ``MOVED`` and of their range."""
    better = sum(d < -MOVED for d in diffs)
    worse = sum(d > MOVED for d in diffs)
    return (f"{better} better, {worse} worse (beyond {MOVED:g}); difference "
            f"from {min(diffs):.3g} to {max(diffs):.3g}")


def motions(seed, n, shape):
    """Print how ``MOTIONS`` moved copies of ``random_tree(seed, n,
    shape)`` answer against the original; returns the differences of
    their measures."""
    base, diffs = differences(seed, n, shape)
    print(f"random_tree({seed}, {n}, {shape!r}): diameter_after / "
          f"diameter_before {base!r}")
    print(f"{MOTIONS} moved copies: {beyond(diffs)}")
    return diffs


def motion(job):
    """(name, diffs) of one tree of the motion scan."""
    group, name, spec = job
    return name, differences(*spec)[1]


def motion_scan(jobs=None, scan=run_all):
    """Print the frame-decided trees among ``jobs``, by default the
    criterion-1, hold-out and item-1 trees, per set; returns their
    differences as {name: diffs}."""
    if jobs is None:
        jobs = [job for job in trees()
                if job[0] in ("criterion-1", "hold-out", "item-1")]
    records = scan(motion, jobs)
    found = {}
    for group in dict.fromkeys(job[0] for job in jobs):
        names = [name for g, name, _ in jobs if g == group]
        hits = [name for name in names
                if max(map(abs, records[name])) > MOVED]
        print(f"{group}: {len(hits)} frame-decided trees (a moved copy "
              f"answers beyond {MOVED:g}) of {len(names)}")
        for name in hits:
            found[name] = records[name]
            print(f"  {name}  {beyond(records[name])}")
    return found


def loop_grid_optimum(tree):
    """The least ``Caterpillar.evaluate`` over a ``LOOP`` x ``LOOP``
    backbone grid, from that point polished by ``optimize``'s compass
    search.

    The grid is ``polished_grid_optimum``'s, read one placement at a
    time: ``evaluate_grid`` is O(k^2) per placement, too slow at the
    scale set's sizes."""
    eng = _Engine(tree, backbone(tree))
    cat, best = eng.cat, (math.inf, None)
    for a in np.linspace(0.0, cat.c_arc, LOOP).tolist():
        for b in np.linspace(cat.c_arc, cat.L, LOOP).tolist():
            val = cat.evaluate(a, b)
            if val < best[0]:
                best, eng._best_read = (val, (a, b)), cat.last_read
    return eng._polish(*best)[0]


def miss(job):
    """(name, record) of one tree of ``misses``: its set, how far the
    answer lies above its grid optimum in units of scale, and its
    ``phase_end``; the record is None where no shortcut helps."""
    group, name, spec = job
    t = random_tree(*spec)
    res = optimize(t)
    if res.phase_end == "degenerate":
        return name, None
    grid = loop_grid_optimum if group == "scale" else polished_grid_optimum
    gap = (res.diameter_after - grid(t)) / t.scale
    return name, {"set": group, "gap": gap, "phase_end": res.phase_end}


def misses(jobs=None, scan=run_all):
    """Print the misses among ``jobs``, by default the scale-set, item-1
    and hold-out trees, per set; returns them as {name: record}."""
    if jobs is None:
        jobs = list(scale_set()) + [job for job in trees()
                                    if job[0] in ("item-1", "hold-out")]
    records = scan(miss, jobs)
    found = {}
    for group in dict.fromkeys(job[0] for job in jobs):
        names = [name for g, name, _ in jobs if g == group]
        useful = [name for name in names if records[name] is not None]
        hits = [name for name in useful if records[name]["gap"] > MISS]
        print(f"{group}: {len(hits)} misses (above the grid optimum by "
              f"more than {MISS:g} scale) of {len(useful)} trees with a "
              f"useful shortcut")
        for name in hits:
            rec = found[name] = records[name]
            print(f"  {name}  gap {rec['gap']:.3g}  phase_end "
                  f"{rec['phase_end']}")
    return found


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    d = sub.add_parser("dump", help="run optimize and evaluate on every "
                       "tree")
    d.add_argument("out")
    c = sub.add_parser("compare", help="the identity verdict of two dumps")
    c.add_argument("before")
    c.add_argument("after")
    m = sub.add_parser("motions", help="one tree's answer under moved "
                       "copies, or with --scan every criterion-1, hold-out "
                       "and item-1 tree's")
    m.add_argument("seed", type=int, nargs="?")
    m.add_argument("n", type=int, nargs="?")
    m.add_argument("shape", choices=SHAPES, nargs="?")
    m.add_argument("--scan", action="store_true",
                   help="print the frame-decided trees")
    sub.add_parser("misses", help="answers above the grid optimum on the "
                   "scale-set, item-1 and hold-out trees")
    args = ap.parse_args(argv)
    if args.command == "dump":
        dump(args.out)
        return 0
    if args.command == "motions":
        spec = (args.seed, args.n, args.shape)
        if spec.count(None) != 3 * args.scan:
            m.error("give either SEED N SHAPE or --scan")
        if args.scan:
            motion_scan()
        else:
            motions(*spec)
        return 0
    if args.command == "misses":
        misses()
        return 0
    return 0 if compare(args.before, args.after) else 1


if __name__ == "__main__":
    sys.exit(main())
