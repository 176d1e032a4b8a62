"""Dump the sweep's answers on the ROADMAP trees, compare two dumps,
check answers under motions, or scan for misses.

    python tools/answers.py dump OUT.json
    python tools/answers.py compare BEFORE.json AFTER.json
    python tools/answers.py motions SEED N SHAPE
    python tools/answers.py motions --scan
    python tools/answers.py misses

``dump`` runs ``optimize`` from the ``src/`` beside this file on the
ROADMAP comparison set (the 210 criterion-1 trees, the 210 hold-out
corpus trees, ``random_tree(s, 5 + s % 96, shape)`` for s = 1000..1299
and ``random_tree(s, 2000, "caterpillar")`` for s = 0..2) and on the
1,500 item-1 trees.  Each tree gets one record: ``phase_end``,
``diameter_after`` as ``float.hex``, the tree's scale, ``event_count``,
the number of ``Caterpillar.families`` calls, the number of
``Caterpillar.evaluate`` calls (``evaluate_calls``), the number of
balance solves (``_Engine.balance`` calls, ``solves``) and of the
``families`` calls made inside them (``solve_families``), the number of
``families`` calls made inside ``_Engine.phase1`` (``phase1_families``),
the number of stop root finds (``stop_roots``: the ``newton_root`` calls
of ``_Engine._first_stop``, phase I's included, not those of the balance
solves inside it) and of the ``families`` calls inside them
(``stop_families``; the stops' probes are not counted), the number of
dip searches (``dips``, calls of ``_Engine._dip``) and of the
``families`` calls inside them (``dip_families``), the number of
stretches the walks cross (``stretches``: the ``_Engine._first_stop``
calls of ``_Engine._drive``) and of the ``families`` calls inside
``_first_stop`` outside its root finds (``probe_families``: the reads
of its points, phase I's and the wedge crossing's included), the number
of blocks of the numpy kernel over the pairs of two wedges inside the
cycle (``pair_blocks``: the ``Caterpillar._wedge_pairs`` calls), the
number of ``Caterpillar.evaluate`` calls made inside ``_Engine._polish``
(``polish_evaluates``), ``sweep_gap``, the value ``best`` hands to
``_Engine._polish`` minus the value the polish returns, in units of the
tree's scale (0 where no shortcut helps and nothing is polished), and
``events``, a digest of the event trace (each event's kind, phase,
``p_arc`` and ``q_arc`` as ``float.hex`` and payload; not its
diameter).  ``dump`` also runs ``augmented_diameter`` on the 120 trees
of the benchmark's ``evaluate-shortcuts`` pool, ``random_tree(s, 300, "uniform")`` for
s = 0..119, and on the mixed trees, each with one seeded random
shortcut (``seeded_shortcut``).  Each of these gets an ``evaluate/...`` record:
the diameter as ``float.hex``, the scale, the usefulness, a digest of
the achieving pairs and ``pair_leaves``, the leaves the diagnosis' pass
over the leaf pairs read (the length of the ``depth`` handed to
``augmented_eval._distance_blocks``; 0 where no pair pass runs).  It
runs two worker processes (one where there is one core).  To compare
two versions of the program, run each version's copy of this file.

``compare`` prints the ROADMAP identity verdict: ``phase_end`` identical
on every tree, no ``diameter_after`` worse than before by more than
1e-9 * scale, and no evaluate diameter moved, either way, by more than
1e-9 * scale.  It exits 1 when the verdict fails.  It also counts the
trees whose event trace changed and the evaluate records whose diameter,
usefulness or achieving pairs changed at all, and prints each set's
totals of ``families`` calls, ``evaluate`` calls and events before and
after, each set's mean and median ``evaluate`` calls per tree, each
set's balance solves and ``families`` calls per solve, each set's
``families`` calls inside phase I, each set's ``families`` calls per stop
root and per dip search, each set's ``families`` calls per stretch
outside the stop roots (probe reads), each set's total of in-cycle
kernel blocks (``pair_blocks``), each set's total of the polish's
``evaluate`` calls (``polish_evaluates``), and each set's rescues, the
trees whose sweep_gap exceeds 1e-6 (the polish found an answer the sweep did
not), and its trees whose sweep_gap exceeds 1e-9, naming each tree that
crosses that line with both values, and each evaluate pool's total of
``pair_leaves``, none of which is part of the verdict: a tree that reads
9.999998e-10 in one dump and 1.0000002e-09 in the other moves the count
by rounding alone.
A dump from before the evaluate records were added has none;
``compare`` then says so and checks the optimize records alone.  A dump
from before ``evaluate_calls``, the solves, ``phase1_families``, the stop
roots and dips, the stretches and probe reads, ``pair_blocks``,
``polish_evaluates``, ``pair_leaves`` or ``sweep_gap`` were recorded is
treated the same way: ``compare`` says so and leaves those columns out.

``motions`` runs ``optimize`` on ``random_tree(SEED, N, SHAPE)`` and on
40 moved copies of it (``moved``): each rotated, mirrored half the time,
scaled by 10^u with u uniform in [-3, 3] and translated, from a stream
seeded by SEED.  The answer's measure is ``diameter_after /
diameter_before``, which a similarity keeps; the tree's scale, a
bounding-box diagonal, changes under rotation.  It prints how many
copies answer better and how many worse than the original by more than
1e-9, and the least and largest difference of the measure.

``motions --scan`` runs that check on every criterion-1, hold-out and
item-1 tree (1,920 trees), in two worker processes like ``dump``, each
tree's copies drawn from the stream its own seed seeds.  A tree is
frame-decided where some moved copy answers better or worse than the
original by more than 1e-9.  It prints, per set, the frame-decided
trees, each with its counts of better and worse copies and the least
and largest difference.  It is a report, not a gate: it exits 0.

``misses`` runs ``optimize`` on the 1,500 item-1 trees and the 210
hold-out trees, in two worker processes like ``dump``, and for each tree
with a useful shortcut computes how far the answer lies above the
polished optimum of a 161 x 161 backbone grid of the exact evaluator
(``treecut.oracle.polished_grid_optimum``), in units of the tree's
scale.  It prints, per set, the misses, the trees more than 1e-6 * scale
above it, each with its gap and ``phase_end``.  It is a report, not a
gate: it exits 0.  It takes about 36 s on one core.
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
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from treecut import augmented_eval  # noqa: E402
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
# The counts of stop root finds and dip searches and their families calls.
ROOTS = ("stop_roots", "stop_families", "dips", "dip_families")
# The walks' stretches and the families calls of their stops outside roots.
PROBES = ("stretches", "probe_families")
MOTIONS = 40        # the moved copies ``motions`` checks
MOVED = 1e-9        # a moved copy's measure differs beyond this
MISS = 1e-6         # an answer this far above the grid optimum, in scale


def trees():
    """(set, name, (seed, n, shape)) of every tree, the large ones first."""
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
    """(set, name, (seed, n, shape)) of every evaluate record."""
    for s in range(120):
        yield "evaluate", f"{EVALUATE}shortcuts/{s}", (s, 300, "uniform")
    for s in range(1000, 1300):
        yield "evaluate", f"{EVALUATE}mixed/{s}", (s, 5 + s % 96,
                                                   SHAPES[s % 3])


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
    group, name, spec = job
    calls = {"families": 0, "evaluate": 0, "balance": 0, "phase1": 0,
             "_first_stop": 0, "_dip": 0, "newton_root": 0, "_drive": 0,
             "solve_families": 0, "phase1_families": 0, "stop_roots": 0,
             "stop_families": 0, "dip_families": 0, "stretches": 0,
             "probe_families": 0, "_wedge_pairs": 0, "polish_evaluates": 0}
    targets = {"families": Caterpillar, "evaluate": Caterpillar,
               "_wedge_pairs": Caterpillar,
               "balance": _Engine, "phase1": _Engine, "_first_stop": _Engine,
               "_dip": _Engine, "newton_root": sweep_engine,
               "_drive": _Engine}
    depth = dict.fromkeys(targets, 0)       # open calls of each method
    originals = {method: getattr(cls, method)
                 for method, cls in targets.items()}
    polish, gap = _Engine._polish, [0.0]

    def polished(self, val, ab):
        before = calls["evaluate"]
        out = polish(self, val, ab)
        gap[0] = val - out[0]
        calls["polish_evaluates"] += calls["evaluate"] - before
        return out

    def counting(method):
        def counted(*args, **kwargs):
            calls[method] += 1
            if method == "families":
                calls["solve_families"] += depth["balance"] > 0
                calls["phase1_families"] += depth["phase1"] > 0
                calls["stop_families"] += depth["stop"] > 0
                calls["dip_families"] += depth["_dip"] > 0
                calls["probe_families"] += (depth["_first_stop"] > 0
                                            and depth["stop"] == 0)
            # A stretch: a stop find of a walk itself.
            calls["stretches"] += (method == "_first_stop"
                                   and depth["_drive"] > 0)
            # A stop's root find: ``newton_root`` called by ``_first_stop``
            # itself, not by a balance solve inside it.
            stop = (method == "newton_root" and depth["_first_stop"] > 0
                    and depth["balance"] == 0)
            calls["stop_roots"] += stop
            depth[method] += 1
            depth["stop"] += stop
            try:
                return originals[method](*args, **kwargs)
            finally:
                depth[method] -= 1
                depth["stop"] -= stop
        return counted

    depth["stop"] = 0
    for method, cls in targets.items():
        setattr(cls, method, counting(method))
    _Engine._polish = polished
    try:
        t = random_tree(*spec)
        res = optimize(t)
    finally:
        for method, cls in targets.items():
            setattr(cls, method, originals[method])
        _Engine._polish = polish
    return name, {"set": group, "phase_end": res.phase_end,
                  "diameter_after": res.diameter_after.hex(),
                  "scale": t.scale, "event_count": res.event_count,
                  "families": calls["families"],
                  "evaluate_calls": calls["evaluate"],
                  "solves": calls["balance"],
                  "solve_families": calls["solve_families"],
                  "phase1_families": calls["phase1_families"],
                  "stop_roots": calls["stop_roots"],
                  "stop_families": calls["stop_families"],
                  "dips": calls["_dip"],
                  "dip_families": calls["dip_families"],
                  "stretches": calls["stretches"],
                  "probe_families": calls["probe_families"],
                  "pair_blocks": calls["_wedge_pairs"],
                  "polish_evaluates": calls["polish_evaluates"],
                  "sweep_gap": gap[0] / t.scale,
                  "events": trace_digest(res.events)}


def evaluation(job):
    group, name, spec = job
    t = random_tree(*spec)
    sc = seeded_shortcut(t, spec[0])
    decomp = backbone(t)
    blocks, read = augmented_eval._distance_blocks, [0]

    def counted(depth, gaps):
        read[0] += len(depth)
        return blocks(depth, gaps)

    augmented_eval._distance_blocks = counted
    try:
        diag = augmented_diameter(t, decomp, sc)
    finally:
        augmented_eval._distance_blocks = blocks
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
    if all("pair_leaves" in rec
           for rec in (*before.values(), *after.values())):
        pools = {}      # [before, after] totals by pool: shortcuts, mixed
        for name, old in before.items():
            total = pools.setdefault(name.split("/")[1], [0, 0])
            total[0] += old["pair_leaves"]
            total[1] += after[name]["pair_leaves"]
        print("leaves read by the leaf-pair pass, before -> after:")
        for pool, (old, new) in pools.items():
            print(f"  {pool:<12}{old:>16} -> {new}")
    else:
        print("pair leaves: a dump without pair_leaves, not compared")
    return ok


def compare(before_path, after_path):
    before, before_evaluate = split(json.loads(Path(before_path).read_text()))
    after, after_evaluate = split(json.loads(Path(after_path).read_text()))
    if before.keys() != after.keys():
        print("the dumps hold different trees")
        return False
    ok = True
    sets = {}
    evaluates = all("evaluate_calls" in rec
                    for rec in (*before.values(), *after.values()))
    solves = all("solves" in rec and "solve_families" in rec
                 for rec in (*before.values(), *after.values()))
    phase1 = all("phase1_families" in rec
                 for rec in (*before.values(), *after.values()))
    roots = all(all(field in rec for field in ROOTS)
                for rec in (*before.values(), *after.values()))
    probes = all(all(field in rec for field in PROBES)
                 for rec in (*before.values(), *after.values()))
    blocks = all("pair_blocks" in rec
                 for rec in (*before.values(), *after.values()))
    polished = all("polish_evaluates" in rec
                   for rec in (*before.values(), *after.values()))
    rescues = all("sweep_gap" in rec
                  for rec in (*before.values(), *after.values()))
    crossed = []            # (name, gap before, gap after) across GAP
    for name, old in before.items():
        new = after[name]
        row = sets.setdefault(old["set"], {
            "trees": 0, "phase_end": 0, "bitwise": 0, "traces": 0,
            "worse": 0.0, "better": 0.0, "families": [0, 0],
            "evaluate_calls": ([], []), "events": [0, 0],
            "solves": [0, 0], "solve_families": [0, 0],
            "phase1_families": [0, 0], "pair_blocks": [0, 0],
            "polish_evaluates": [0, 0],
            "rescues": [0, 0], "gaps": [0, 0],
            **{field: [0, 0] for field in ROOTS + PROBES}})
        row["trees"] += 1
        row["families"][0] += old["families"]
        row["families"][1] += new["families"]
        if evaluates:
            for calls, rec in zip(row["evaluate_calls"], (old, new)):
                calls.append(rec["evaluate_calls"])
        fields = (("solves", "solve_families") if solves else ()) + (
            ("phase1_families",) if phase1 else ()) + (
            ROOTS if roots else ()) + (PROBES if probes else ()) + (
            ("pair_blocks",) if blocks else ()) + (
            ("polish_evaluates",) if polished else ())
        for field in fields:
            row[field][0] += old[field]
            row[field][1] += new[field]
        if rescues:
            gaps = old["sweep_gap"], new["sweep_gap"]
            for i, gap in enumerate(gaps):
                row["rescues"][i] += gap > RESCUE
                row["gaps"][i] += gap > GAP
            if (gaps[0] > GAP) != (gaps[1] > GAP):
                crossed.append((name, *gaps))
        row["events"][0] += old["event_count"]
        row["events"][1] += new["event_count"]
        if old["phase_end"] != new["phase_end"]:
            row["phase_end"] += 1
            ok = False
            print(f"{name}: phase_end {old['phase_end']} -> "
                  f"{new['phase_end']}")
        d0 = float.fromhex(old["diameter_after"])
        d1 = float.fromhex(new["diameter_after"])
        if d0 != d1:
            row["bitwise"] += 1
        if old.get("events") != new.get("events"):
            row["traces"] += 1
        change = (d1 - d0) / old["scale"]
        row["worse"] = max(row["worse"], change)
        row["better"] = max(row["better"], -change)
        if change > WORSE:
            ok = False
            print(f"{name}: diameter_after worse by {change:.3g} scale")
    print(f"{'set':<12}{'trees':>6}{'phase_end':>10}{'bitwise':>8}"
          f"{'traces':>7}{'worst':>11}{'best':>11}{'families':>20}"
          + (f"{'evaluate':>20}" if evaluates else "") + f"{'events':>16}")
    for group, row in sets.items():
        calls = list(map(sum, row["evaluate_calls"]))
        print(f"{group:<12}{row['trees']:>6}{row['phase_end']:>10}"
              f"{row['bitwise']:>8}{row['traces']:>7}{row['worse']:>11.2e}"
              f"{row['better']:>11.2e}"
              f"{row['families'][0]:>10}{row['families'][1]:>10}"
              + (f"{calls[0]:>10}{calls[1]:>10}" if evaluates else "")
              + f"{row['events'][0]:>8}{row['events'][1]:>8}")
    print("worst and best: the largest loss and gain of diameter_after, "
          "in units of scale; families, evaluate and events: the totals "
          "before and after")
    if evaluates:
        print("evaluate calls per tree, mean / median, before -> after:")
        for group, row in sets.items():
            old, new = (f"{statistics.mean(calls):.1f} / "
                        f"{statistics.median(calls):g}"
                        for calls in row["evaluate_calls"])
            print(f"  {group:<12}{old:>16} -> {new}")
    else:
        print("evaluate calls: a dump without them, not compared")
    if solves:
        print("balance solves / families calls per solve, before -> after:")
        for group, row in sets.items():
            old, new = (f"{n} / {f / n if n else 0.0:.2f}" for n, f in
                        zip(row["solves"], row["solve_families"]))
            print(f"  {group:<12}{old:>16} -> {new}")
    else:
        print("balance solves: a dump without them, not compared")
    if phase1:
        print("families calls inside phase I, before -> after:")
        for group, row in sets.items():
            old, new = row["phase1_families"]
            print(f"  {group:<12}{old:>16} -> {new}")
    else:
        print("phase I families calls: a dump without them, not compared")
    if roots:
        print("families calls per stop root / per dip search, before -> "
              "after:")
        for group, row in sets.items():
            old, new = (f"{sf / sr if sr else 0.0:.2f} / "
                        f"{df / d if d else 0.0:.2f}"
                        for sr, sf, d, df in zip(*(row[f] for f in ROOTS)))
            print(f"  {group:<12}{old:>16} -> {new}")
    else:
        print("stop roots and dips: a dump without them, not compared")
    if probes:
        print("families calls per stretch outside stop roots, before -> "
              "after:")
        for group, row in sets.items():
            old, new = (f"{f / n if n else 0.0:.2f}" for n, f in
                        zip(*(row[field] for field in PROBES)))
            print(f"  {group:<12}{old:>16} -> {new}")
    else:
        print("probe reads: a dump without stretches, not compared")
    if blocks:
        print("in-cycle wedge-pair kernel blocks, before -> after:")
        for group, row in sets.items():
            old, new = row["pair_blocks"]
            print(f"  {group:<12}{old:>16} -> {new}")
    else:
        print("pair blocks: a dump without pair_blocks, not compared")
    if polished:
        print("evaluate calls inside the polish, before -> after:")
        for group, row in sets.items():
            old, new = row["polish_evaluates"]
            print(f"  {group:<12}{old:>16} -> {new}")
    else:
        print("polish evaluates: a dump without polish_evaluates, not "
              "compared")
    if rescues:
        print(f"rescues (sweep_gap > {RESCUE:g} scale), before -> after:")
        for group, row in sets.items():
            old, new = row["rescues"]
            print(f"  {group:<12}{old:>16} -> {new}")
        print(f"trees with sweep_gap > {GAP:g} scale, before -> after:")
        for group, row in sets.items():
            old, new = row["gaps"]
            print(f"  {group:<12}{old:>16} -> {new}")
        for name, old, new in crossed:
            print(f"  {name} crosses {GAP:g}: {old:.8g} -> {new:.8g}")
    else:
        print("rescues: a dump without sweep_gap, not compared")
    changed = sum(row["traces"] for row in sets.values())
    if all("events" in rec for rec in (*before.values(), *after.values())):
        print(f"event traces changed on {changed} trees (not part of the "
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
    [-3, 3], and a translation by up to ten times the moved scale."""
    turn = rng.uniform(0.0, 2.0 * math.pi)
    cos, sin = math.cos(turn), math.sin(turn)
    mirror = -1.0 if rng.random() < 0.5 else 1.0
    factor = 10.0 ** rng.uniform(-3.0, 3.0)
    dx, dy = (rng.uniform(-10.0, 10.0) * factor * tree.scale
              for _ in range(2))
    coords = {v: (factor * (cos * x - sin * mirror * y) + dx,
                  factor * (sin * x + cos * mirror * y) + dy)
              for v, (x, y) in tree.coords.items()}
    return GeometricTree(coords, tree.edges)


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


def miss(job):
    """(name, record) of one tree of ``misses``: its set, how far the
    answer lies above the polished grid optimum in units of scale, and
    its ``phase_end``; the record is None where no shortcut helps."""
    group, name, spec = job
    t = random_tree(*spec)
    res = optimize(t)
    if res.phase_end == "degenerate":
        return name, None
    gap = (res.diameter_after - polished_grid_optimum(t)) / t.scale
    return name, {"set": group, "gap": gap, "phase_end": res.phase_end}


def misses(jobs=None, scan=run_all):
    """Print the misses among ``jobs``, by default the item-1 and hold-out
    trees, per set; returns them as {name: record}."""
    if jobs is None:
        jobs = [job for job in trees() if job[0] in ("item-1", "hold-out")]
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
                   "item-1 and hold-out trees")
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
