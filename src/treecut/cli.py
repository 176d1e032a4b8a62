"""Command-line front end.

Subcommands: analyze, evaluate, optimize, oracle, gen, render.  Machine
output is a single JSON document (12 significant digits) on standard
output or the --output path; SVG rendering is opt-in via --svg.  Exit
codes: 0 success, 2 input/usage error, 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import oracle as oracle_mod
from .augmented_eval import _usefulness, augmented_diameter
from .diameter_core import backbone, continuous_diameter
from .errors import TreecutError
from .sweep_engine import optimize
from .tree_model import (
    GeometricTree,
    Shortcut,
    load_tree,
    parse_tree_point,
    point_coordinates,
)

__all__ = ["main", "render_svg"]


def _round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _emit(doc, args):
    text = json.dumps(_round12(doc), indent=2, sort_keys=False) + "\n"
    if args.output and args.output != "-":
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_tree(args) -> GeometricTree:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input) as fh:
            text = fh.read()
    tree = load_tree(text)
    scale = getattr(args, "tolerance_scale", None)
    if scale is not None:
        tree.scale = _positive(scale, "--tolerance-scale")
    return tree


def _positive(value, flag):
    """``value`` if it is a finite number greater than 0."""
    if not (math.isfinite(value) and value > 0):
        raise TreecutError(f"{flag} must be finite and positive, got {value}")
    return value


def _parse_shortcut(tree, text) -> Shortcut:
    try:
        data = json.loads(text)
        p = parse_tree_point(tree, data["p"])
        q = parse_tree_point(tree, data["q"])
    except (KeyError, TypeError, ValueError) as exc:
        raise TreecutError(f"bad --shortcut value: {exc}") from exc
    sc = Shortcut(p, q)
    tree.check_shortcut(sc)
    return sc


def _decomp_json(decomp):
    return {
        "a": decomp.a.to_json(),
        "b": decomp.b.to_json(),
        "length": decomp.length,
        "is_point": decomp.is_point,
        "is_straight": decomp.is_straight,
        "center": decomp.center.to_json(),
        "center_arc": decomp.center_arc,
        "h_x": decomp.h_x,
        "h_y": decomp.h_y,
        "x_leaf": decomp.x_leaf,
        "y_leaf": decomp.y_leaf,
        "delta": decomp.delta,
        "h_max_secondary": decomp.h_max_secondary,
        "secondary": [
            {"root": s.root_id, "arc": s.arc, "height": s.height,
             "far_leaf": s.far_leaf, "diameter": s.diameter}
            for s in decomp.secondary
        ],
    }


def _diagnosis_json(diag):
    pairs = []
    for ap in diag.achieving_pairs:
        pairs.append({
            "end1": ap.end1,
            "end2": ap.end2,
            "subtype": ap.subtype,
            "pair_type": ap.pair_type,
            "path_types": sorted(ap.path_types),
            "distance": ap.distance,
        })
    return {
        "diameter": diag.diameter,
        "cycle_length": diag.cycle_length,
        "pair_state": sorted(diag.pair_state),
        "path_state": sorted(diag.path_state),
        "achieving_pairs": pairs,
    }


def _maybe_svg(args, tree, decomp=None, shortcut=None, diagnosis=None):
    if getattr(args, "svg", None):
        doc = render_svg(tree, shortcut=shortcut, diagnosis=diagnosis,
                         decomp=decomp)
        with open(args.svg, "w") as fh:
            fh.write(doc)


# -- subcommands ------------------------------------------------------------


def _cmd_analyze(args):
    tree = _read_tree(args)
    diam = continuous_diameter(tree)
    decomp = backbone(tree)
    doc = {
        "diameter": diam.diameter,
        "diametral_leaf_pairs": [list(p) for p in diam.diametral_leaf_pairs],
        "backbone": _decomp_json(decomp),
    }
    _maybe_svg(args, tree, decomp=decomp)
    _emit(doc, args)
    return 0


def _cmd_evaluate(args):
    tree = _read_tree(args)
    if not args.shortcut:
        raise TreecutError("evaluate requires --shortcut")
    sc = _parse_shortcut(tree, args.shortcut)
    decomp = backbone(tree)
    diag = augmented_diameter(tree, decomp, sc)
    use = _usefulness(decomp.diameter, diag.diameter, tree.tol)
    doc = {
        "shortcut": {"p": sc.p.to_json(), "q": sc.q.to_json()},
        "usefulness": use.classification,
        "diameter_before": use.diameter_before,
        "diameter_after": use.diameter_after,
        "diagnosis": _diagnosis_json(diag),
    }
    _maybe_svg(args, tree, decomp=decomp, shortcut=sc, diagnosis=diag)
    _emit(doc, args)
    return 0


def _cmd_optimize(args):
    tree = _read_tree(args)
    res = optimize(tree)
    doc = {
        "shortcut": {"p": res.shortcut.p.to_json(),
                     "q": res.shortcut.q.to_json()},
        "diameter_before": res.diameter_before,
        "diameter_after": res.diameter_after,
        "useful": res.useful,
        "p_arc": res.p_arc,
        "q_arc": res.q_arc,
        "phase_end": res.phase_end,
        "event_count": res.event_count,
    }
    if args.trace:
        doc["events"] = [
            {"kind": ev.kind, "phase": ev.phase, "p_arc": ev.p_arc,
             "q_arc": ev.q_arc, "diameter": ev.diameter,
             "payload": [str(x) for x in ev.payload]}
            for ev in res.events
        ]
    if getattr(args, "svg", None):
        decomp = backbone(tree)
        diag = None
        if res.useful:
            diag = augmented_diameter(tree, decomp, res.shortcut)
        _maybe_svg(args, tree, decomp=decomp,
                   shortcut=res.shortcut if res.useful else None,
                   diagnosis=diag)
    _emit(doc, args)
    return 0


def _cmd_oracle(args):
    tree = _read_tree(args)
    res = oracle_mod.grid_search(tree, _positive(args.resolution,
                                                 "--resolution"),
                                 restrict_to_backbone=args.restrict_backbone)
    doc = {
        "best_shortcut": {"p": res.best_shortcut.p.to_json(),
                          "q": res.best_shortcut.q.to_json()},
        "best_diameter": res.best_diameter,
        "resolution": res.resolution,
        "evaluations": res.evaluations,
        "restricted": res.restricted,
    }
    _emit(doc, args)
    return 0


def _cmd_gen(args):
    shape = args.shape or "uniform"
    n = args.count
    try:
        if shape in ("uniform", "caterpillar", "balanced"):
            tree = oracle_mod.random_tree(args.seed, n, shape)
        elif shape == "straight":
            tree = oracle_mod.straight_backbone_tree(args.seed, n)
        elif shape == "point":
            tree = oracle_mod.point_backbone_tree(args.seed, n)
        elif shape == "stress":
            tree = oracle_mod.stress_family(n)
        else:
            raise TreecutError(f"unknown shape {shape!r}")
    except ValueError as exc:
        raise TreecutError(f"gen: {exc}") from exc
    _emit(tree.to_json_data(), args)
    return 0


def _cmd_render(args):
    tree = _read_tree(args)
    decomp = backbone(tree)
    sc = None
    diag = None
    if args.shortcut:
        sc = _parse_shortcut(tree, args.shortcut)
        diag = augmented_diameter(tree, decomp, sc)
    doc = render_svg(tree, shortcut=sc, diagnosis=diag, decomp=decomp)
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(doc)
        _emit({"svg": args.svg, "bytes": len(doc)}, args)
    else:
        sys.stdout.write(doc)
    return 0


# -- SVG --------------------------------------------------------------------


def _f(x):
    return f"{x:.6f}"


def render_svg(tree, shortcut=None, diagnosis=None, decomp=None) -> str:
    """Deterministic SVG 1.1 picture of the tree.

    Edges are thin lines, backbone edges (when a decomposition is given)
    are highlighted, the shortcut is a dashed line, and achieving pair
    endpoints from the diagnosis get circular markers.  Byte-identical
    output for identical inputs.
    """
    xs = [x for x, _ in tree.coords.values()]
    ys = [y for _, y in tree.coords.values()]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span = max(x1 - x0, y1 - y0, 1e-9)
    margin = 0.08 * span
    width = 640.0
    scale = (width - 2.0) / (span + 2.0 * margin)

    def pt(x, y):
        # Flip y so the picture is in the usual orientation.
        return ((x - x0 + margin) * scale + 1.0,
                (y1 - y + margin) * scale + 1.0)

    height = (y1 - y0 + 2.0 * margin) * scale + 2.0
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_f(width)}" height="{_f(height)}" '
        f'viewBox="0 0 {_f(width)} {_f(height)}">',
    ]
    bedges = set()
    if decomp is not None and len(decomp.backbone_ids) > 1:
        ids = decomp.backbone_ids
        for u, v in zip(ids, ids[1:]):
            bedges.add((min(u, v), max(u, v)))
    for u, v in sorted(tree.edges):
        (ax, ay), (bx, by) = pt(*tree.coords[u]), pt(*tree.coords[v])
        if (u, v) in bedges:
            style = 'stroke="#d08000" stroke-width="3.0"'
        else:
            style = 'stroke="#404040" stroke-width="1.2"'
        lines.append(f'<line x1="{_f(ax)}" y1="{_f(ay)}" '
                     f'x2="{_f(bx)}" y2="{_f(by)}" {style}/>')
    if shortcut is not None and not shortcut.is_degenerate:
        (ax, ay) = pt(*point_coordinates(tree, shortcut.p))
        (bx, by) = pt(*point_coordinates(tree, shortcut.q))
        lines.append(f'<line x1="{_f(ax)}" y1="{_f(ay)}" '
                     f'x2="{_f(bx)}" y2="{_f(by)}" stroke="#2060c0" '
                     f'stroke-width="2.0" stroke-dasharray="6,4"/>')
    if diagnosis is not None:
        marks = set()
        for ap in diagnosis.achieving_pairs:
            for end in (ap.end1, ap.end2):
                if isinstance(end, int) and end in tree.coords:
                    marks.add(end)
        for vid in sorted(marks):
            (cx, cy) = pt(*tree.coords[vid])
            lines.append(f'<circle cx="{_f(cx)}" cy="{_f(cy)}" r="4.0" '
                         f'fill="none" stroke="#c02020" '
                         f'stroke-width="1.5"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# -- entry point ------------------------------------------------------------


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="treecut",
        description="Shortcuts minimizing the continuous diameter of a "
                    "geometric tree.")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("input", help="tree JSON path, or - for stdin")
        p.add_argument("--output", default=None,
                       help="write JSON here instead of stdout")
        p.add_argument("--tolerance-scale", type=float, default=None,
                       dest="tolerance_scale",
                       help="override the length scale used for tolerances")

    p = sub.add_parser("analyze", help="diameter, center, backbone")
    common(p)
    p.add_argument("--svg", default=None)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("evaluate", help="diameter of T + pq for a shortcut")
    common(p)
    p.add_argument("--shortcut", required=True,
                   help='JSON {"p": {...}, "q": {...}}')
    p.add_argument("--svg", default=None)
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("optimize", help="find an optimal shortcut")
    common(p)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--svg", default=None)
    p.set_defaults(fn=_cmd_optimize)

    p = sub.add_parser("oracle", help="brute-force grid search")
    common(p)
    p.add_argument("--resolution", type=float, required=True,
                   help="arc-length grid spacing")
    p.add_argument("--restrict-backbone", action="store_true",
                   dest="restrict_backbone",
                   help="restrict placements to the backbone halves")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("gen", help="generate a random tree")
    common(p, needs_input=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", "-n", type=int, default=10,
                   help="vertex count (stress: family parameter l)")
    p.add_argument("--shape", default="uniform",
                   choices=["uniform", "caterpillar", "balanced",
                            "straight", "point", "stress"])
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("render", help="render the tree as SVG")
    common(p)
    p.add_argument("--shortcut", default=None)
    p.add_argument("--svg", default=None, help="SVG output path")
    p.set_defaults(fn=_cmd_render)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (TreecutError, FileNotFoundError, IsADirectoryError,
            PermissionError, json.JSONDecodeError) as exc:
        print(f"treecut: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal invariant violation
        print(f"treecut: internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
