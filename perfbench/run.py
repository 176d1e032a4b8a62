"""Treecut benchmark: one client calling the ``treecut`` CLI in a closed loop.

    python3 perfbench/run.py --workload optimize-corpus --seed 1 \\
        --seconds 30 --trace 0 [--holdout]
    python3 perfbench/run.py --workload all    # every workload, one process each

Run from the repository root; the program is imported from ``src/``.
Each request is one in-process ``treecut.cli.main([...])`` call on a tree
file written during set-up, so it pays argparse, ``load_tree``, the
solver and the JSON output, like a ``treecut`` user.  The client sends
the next request when the last one returns (one client, one thread).

A run makes whole passes over the workload's pool, in the seed's order,
and starts another pass only if it would end within ``--seconds``.
Every output of every pass is checked after the timed region.

End-to-end times are scaled to a reference core speed measured while
the requests run (coreclock.py), because on a shared machine the speed
of one core drifts by tens of percent over seconds and minutes.  A
request's latency is its median scaled time over the run's passes.
Unscaled figures are printed too.

With ``--trace 1`` the run makes one pass in which each request runs
untraced and then traced (tracer.py) back to back, and reports
per-layer metrics and the tracing overhead.  Counts depend only on the
inputs, so two traced runs of one seed report the same counts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it name every metric with its unit, including the ones the JSON leaves
out (``request_p90_ms``, ``failed_share``, ``wrong_share``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(HERE))

from coreclock import REF_KERNEL_S, CoreClock  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Request,
    TreeMetric,
    build_pool,
    check_output,
    load_references,
    random_shortcut,
    random_tree_data,
    tree_spec,
    visit_order,
)

IMPORT_CMD = [sys.executable, "-I", "-c",
              "import sys, time; sys.path.insert(0, sys.argv[1]); "
              "t = time.perf_counter(); import treecut; "
              "print(time.perf_counter() - t)", str(SRC)]
# Layer -> the spans and counted calls whose self time belongs to it.
LAYERS = {
    "cli": ("cli.main",),
    "tree_model": ("tree_model.load_tree", "tree_model.distances_from"),
    "diameter_core": ("diameter_core.backbone",),
    "caterpillar": ("caterpillar.build", "caterpillar.families",
                    "caterpillar.evaluate"),
    "sweep_engine": ("sweep_engine.optimize",),
    "smawk": ("smawk.wedge_path_on_arcs",),
    "augmented_eval": ("augmented_eval.augmented_diameter",
                       "augmented_eval.augmented_diameter_value",
                       "augmented_eval.classify_usefulness"),
}
PHASES = ("I", "II", "III", "degenerate", "other")


class Result(NamedTuple):
    req: object         # workloads.Request
    code: object        # 0, or the failure as text
    seconds: float      # wall time, less time in the clock's handler
    start: float        # perf_counter when the request started
    end: float
    out: str            # standard output


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_cli():
    package = SRC / "treecut"
    if not (package / "__init__.py").is_file():
        die(f"no treecut package under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import treecut.cli
    if Path(treecut.__file__).resolve().parent != package.resolve():
        die(f"imported treecut from {treecut.__file__}, not {package}")
    return treecut.cli


def import_seconds():
    """Seconds ``import treecut`` takes in a fresh interpreter."""
    return float(subprocess.run(IMPORT_CMD, check=True, capture_output=True,
                                text=True, timeout=120).stdout)


def call(cli, req, clock=None):
    """One CLI request, timed by clock when one is given."""
    out, err = io.StringIO(), io.StringIO()

    def request():
        try:
            return cli.main(req.argv)
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            return f"exception {exc!r}"

    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if clock is None:
            start = time.perf_counter()
            code = request()
            end = time.perf_counter()
            seconds = end - start
        else:
            code, start, end, seconds = clock.measure(request)
    if code != 0 and not isinstance(code, str):
        code = f"exit {code}: {err.getvalue().strip()}"
    return Result(req, code, seconds, start, end, out.getvalue())


def run_passes(cli, requests, seconds):
    """Results of whole passes, the pass count, set-up samples, the clock.

    A fresh-process import is timed before the first pass and after each
    pass, so that the set-up samples, like the passes, spread over the run.
    """
    results, imports, passes = [], [], 0
    with CoreClock() as clock:
        imports.append(clock.measure(import_seconds))
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            results += [call(cli, req, clock) for req in requests]
            took = time.perf_counter() - pass_start
            passes += 1
            imports.append(clock.measure(import_seconds))
            if time.perf_counter() - start + took > seconds:
                return results, passes, imports, clock


def run_traced(cli, requests):
    """Each request untraced, then traced: (tracer, untraced, traced)."""
    tracer = Tracer()
    untraced, traced = [], []
    for rid, req in enumerate(requests):
        untraced.append(call(cli, req))
        tracer.install()
        try:
            tracer.begin(rid)
            traced.append(call(cli, req))
        finally:
            tracer.uninstall()
    return tracer, untraced, traced


def check(workload, results, refs):
    """(failed, wrong, first problem) over all results."""
    verdicts, metrics = {}, {}
    failed = wrong = 0
    first = None
    for req, code, _, _, _, out in results:
        if code != 0:
            failed += 1
            first = first or f"tree {req.index}: {code}"
            continue
        key = (req.index, out)
        if key not in verdicts:
            def metric(req=req):
                if req.index not in metrics:
                    metrics[req.index] = TreeMetric(req.data)
                return metrics[req.index]
            try:
                verdicts[key] = check_output(workload, json.loads(out),
                                             refs[req.index], metric)
            except (ValueError, KeyError, TypeError) as exc:
                verdicts[key] = [f"unreadable output: {exc!r}"]
        if verdicts[key]:
            wrong += 1
            first = first or f"tree {req.index}: {verdicts[key][0]}"
    return failed, wrong, first


def latencies(results, clock=None):
    """Request index -> median seconds over the run's passes, scaled to
    the reference core when a clock is given."""
    samples = {}
    for r in results:
        scale = 1.0 if clock is None else clock.speed(r.start, r.end)
        samples.setdefault(r.req.index, []).append(r.seconds * scale)
    return {i: statistics.median(v) for i, v in samples.items()}


def end_to_end(results, imports, clock):
    lat = latencies(results, clock)
    busy = sum(lat.values())
    vertices = sum({r.req.index: r.req.n for r in results}.values())
    return {
        "request_p50_ms": (1e3 * statistics.median(lat.values()), "ms"),
        "requests_per_s": (len(lat) / busy, "1/s"),
        "vertices_per_s": (vertices / busy, "vertices/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "setup_s": (statistics.median(seconds * clock.speed(start, end)
                                      for seconds, start, end, _ in imports),
                    "s"),
    }


def p90_line(results, clock):
    """The 90th percentile of all scaled latencies, if ten lie above it."""
    lat = [1e3 * r.seconds * clock.speed(r.start, r.end) for r in results]
    if len(lat) >= 2:
        p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1]
        above = sum(1 for x in lat if x > p90)
        if above >= 10:
            return f"{p90:>16.6g} ms ({above} of {len(lat)} requests above it)"
    return f"{'n/a':>16} ms (fewer than 10 of {len(lat)} requests above it)"


def leaf_count(data):
    degree = {}
    for u, v in data["edges"]:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    return sum(1 for d in degree.values() if d == 1)


def per_layer(tracer, untraced, traced):
    totals = tracer.totals()

    def get(name, field):
        return totals.get(name, (0, 0.0, 0.0))[field]

    vertices = sum(r.req.n for r in traced)
    events = cap_hits = 0
    phases = dict.fromkeys(PHASES, 0)
    for req, code, _, _, _, out in traced:
        if code != 0 or req.argv[0] != "optimize":
            continue
        doc = json.loads(out)
        events += doc["event_count"]
        cap_hits += doc["event_count"] >= 400 + 80 * req.n
        phase = doc["phase_end"]
        phases[phase if phase in phases else "other"] += 1
    # Leaf pairs the O(leaves^2) evaluators visit, computed from the inputs.
    leaf_pairs = 0
    for span in tracer.spans:
        if span["name"] in ("augmented_eval.augmented_diameter",
                            "augmented_eval.augmented_diameter_value"):
            leaves = leaf_count(traced[span["request"]].req.data)
            leaf_pairs += leaves * (leaves - 1) // 2

    untraced_s = sum(r.seconds for r in untraced)
    traced_s = sum(r.seconds for r in traced)
    fam, ev = "caterpillar.families", "caterpillar.evaluate"
    wedge = "smawk.wedge_path_on_arcs"
    aval = "augmented_eval.augmented_diameter_value"
    metrics = {
        "caterpillar.families.calls": (get(fam, 0), "count"),
        "caterpillar.families.s": (get(fam, 1), "s"),
        "caterpillar.families_per_vertex": (get(fam, 0) / vertices,
                                            "calls/vertex"),
        "caterpillar.evaluate.calls": (get(ev, 0), "count"),
        "caterpillar.evaluate.s": (get(ev, 1), "s"),
        "caterpillar.build.s": (get("caterpillar.build", 1), "s"),
        "sweep_engine.optimize.s": (get("sweep_engine.optimize", 1), "s"),
        "sweep_engine.self_s": (get("sweep_engine.optimize", 2), "s"),
        "sweep_engine.events": (events, "count"),
        "sweep_engine.events_per_vertex": (events / vertices, "events/vertex"),
        "sweep_engine.event_cap_hits": (cap_hits, "count"),
    }
    for phase, count in phases.items():
        metrics[f"sweep_engine.phase_end.{phase}"] = (count, "count")
    metrics.update({
        "smawk.wedge_path_on_arcs.calls": (get(wedge, 0), "count"),
        "smawk.wedge_path_on_arcs.s": (get(wedge, 1), "s"),
        "augmented_eval.augmented_diameter.s":
            (get("augmented_eval.augmented_diameter", 1), "s"),
        "augmented_eval.augmented_diameter_value.calls": (get(aval, 0),
                                                          "count"),
        "augmented_eval.augmented_diameter_value.s": (get(aval, 1), "s"),
        "augmented_eval.leaf_pairs": (leaf_pairs, "pairs-computed"),
        "tree_model.load_tree.s": (get("tree_model.load_tree", 1), "s"),
        "tree_model.distances_from.calls":
            (get("tree_model.distances_from", 0), "count"),
        "tree_model.distances_from.s":
            (get("tree_model.distances_from", 1), "s"),
        "diameter_core.backbone.calls": (get("diameter_core.backbone", 0),
                                         "count"),
        "diameter_core.backbone.s": (get("diameter_core.backbone", 1), "s"),
        "cli.self_s": (get("cli.main", 2), "s"),
        "trace.requests": (len(traced), "count"),
        "trace.untraced_s": (untraced_s, "s"),
        "trace.traced_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    })
    request_s = get("cli.main", 1)
    shares = {layer: sum(get(name, 2) for name in names) / request_s
              for layer, names in LAYERS.items()}
    return metrics, shares


def warm_up(cli, command, workdir):
    """Two untimed requests on a small tree, so lazy set-up is done."""
    data = random_tree_data(7, 9, "caterpillar")
    path = workdir / "warmup.json"
    path.write_text(json.dumps(data))
    argv = [command, str(path)]
    if command == "evaluate":
        argv += ["--shortcut", json.dumps(random_shortcut(7, data))]
    for _ in range(2):
        code = call(cli, Request(-1, argv, len(data["vertices"]), data)).code
        if code != 0:
            die(f"warm-up request failed: {code}")
    import_seconds()    # fills the bytecode cache before any sample


def run_one(args):
    wl = WORKLOADS[args.workload]
    cli = import_cli()
    refs = load_references(args.workload, args.holdout)
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="inputs-", dir=WORK))
    try:
        pool = build_pool(args.workload, args.holdout, workdir)
        expected = [(tree_spec(args.workload, r.index, args.holdout)[0], r.n)
                    for r in pool]
        if [(r["seed"], r["n"]) for r in refs] != expected:
            die("references.json does not match the pool; "
                "run perfbench/make_references.py")
        requests = [pool[i] for i in visit_order(len(pool), args.seed)]
        warm_up(cli, wl.command, workdir)
        label = (f"{args.workload} seed={args.seed} "
                 f"pool={'holdout' if args.holdout else 'main'}")
        gc.collect()
        if args.trace:
            tracer, untraced, traced = run_traced(cli, requests)
            results = untraced + traced
            metrics, shares = per_layer(tracer, untraced, traced)
            (WORK / "traces").mkdir(exist_ok=True)
            tracer.write(WORK / "traces" / (label.replace(" ", "_")
                                            .replace("=", "-") + ".json"))
            header = f"{label} traced requests={len(traced)}"
        else:
            results, passes, imports, clock = run_passes(cli, requests,
                                                         args.seconds)
            metrics = end_to_end(results, imports, clock)
            header = f"{label} passes={passes} requests={len(results)}"
        failed, wrong, first = check(args.workload, results, refs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(results)
    print(f"perfbench {header}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<46} {value:>16.6g} {unit}")
    if args.trace:
        for layer, share in shares.items():
            print(f"  self-time share {layer:<30} {100 * share:>15.1f} %")
    else:
        raw = latencies(results)
        print(f"  {'request_p50_ms, unscaled wall time':<46} "
              f"{1e3 * statistics.median(raw.values()):>16.6g} ms")
        print(f"  {'calibration kernel, median':<46} "
              f"{1e3 * statistics.median(clock.kernel_s):>16.6g} ms "
              f"(reference {1e3 * REF_KERNEL_S:g} ms, "
              f"{len(clock.kernel_s)} samples)")
        print(f"  {'request_p90_ms':<46} {p90_line(results, clock)}")
    print(f"  {'failed_share':<46} {failed / attempted:>16.6g} "
          f"({failed}/{attempted})")
    print(f"  {'wrong_share':<46} {wrong / attempted:>16.6g} "
          f"({wrong}/{attempted})")
    if first:
        print(f"  first problem: {first}")
    print(json.dumps({
        "correct": failed == 0 and wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.holdout:
            cmd.append("--holdout")
        status = max(status, subprocess.run(cmd, timeout=900).returncode)
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--holdout", action="store_true",
                    help="use the hold-out pool: same shapes, unseen trees")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    run_one(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
