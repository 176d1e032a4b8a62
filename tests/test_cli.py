import argparse
import json
import math
import time
from functools import cached_property

import pytest

from treecut import (GeometricTree, InvalidEdgeReference, augmented_eval, cli,
                     tree_from_data)
from treecut.cli import _read_tree, main, render_svg
from treecut.oracle import random_tree


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_tree(tmp_path, tree, name="tree.json"):
    return write_tree_data(tmp_path, tree.to_json_data(), name)


def write_tree_data(tmp_path, data, name="tree.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_analyze(tmp_path, capsys, t_l):
    path = write_tree(tmp_path, t_l)
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["diameter"] == pytest.approx(2.0)
    assert doc["backbone"]["is_point"] is False


def test_analyze_missing_file(capsys):
    code, _, err = run_cli(capsys, "analyze", "/no/such/file.json")
    assert code == 2
    assert "treecut:" in err


def test_analyze_bad_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2


@pytest.mark.parametrize("xs", [(0.0, math.nan, 2.0, 3.0),
                                (0.0, math.inf, 2.0, 3.0),
                                (-1e308, 0.0, 1.0, 1e308)],
                         ids=["nan", "inf", "overflow"])
def test_non_finite_coordinates_are_input_errors(tmp_path, capsys, xs):
    # json.dumps writes NaN and Infinity, which the JSON reader accepts.
    doc = {"vertices": [{"id": i, "x": x, "y": float(i % 2)}
                        for i, x in enumerate(xs)],
           "edges": [[0, 1], [1, 2], [2, 3]]}
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "optimize", str(path))
    assert code == 2
    assert "internal error" not in err


@pytest.mark.parametrize("doc", [
    {"vertices": 5, "edges": []},
    {"vertices": [{"id": 0, "x": 0.0, "y": 0.0},
                  {"id": 1, "x": 1.0, "y": 0.0}], "edges": 3},
], ids=["vertices-int", "edges-int"])
def test_tree_fields_must_be_lists(tmp_path, capsys, doc):
    code, _, err = run_cli(capsys, "analyze", write_tree_data(tmp_path, doc))
    assert code == 2
    assert "must be a list" in err


@pytest.mark.parametrize("value", ["nan", "inf", "0"])
def test_tolerance_scale_must_be_finite_and_positive(tmp_path, capsys, t_l,
                                                     value):
    path = write_tree(tmp_path, t_l)
    code, _, err = run_cli(capsys, "analyze", path,
                           "--tolerance-scale", value)
    assert code == 2
    assert "--tolerance-scale" in err


@pytest.mark.parametrize("value", ["nan", "inf", "0"])
def test_oracle_resolution_must_be_finite_and_positive(tmp_path, capsys, t_l,
                                                       value):
    path = write_tree(tmp_path, t_l)
    code, _, err = run_cli(capsys, "oracle", path, "--resolution", value)
    assert code == 2
    assert "--resolution" in err


@pytest.mark.parametrize("count", ["1", "0", "-3"])
def test_gen_too_few_vertices_is_input_error(capsys, count):
    code, out, err = run_cli(capsys, "gen", "-n", count)
    assert code == 2
    assert not out
    assert "internal error" not in err


@pytest.mark.parametrize("shape, count", [
    ("point", "0"), ("point", "1"), ("stress", "0"), ("stress", "-2"),
    ("straight", "1"), ("straight", "0"),
])
def test_gen_count_checked_for_every_shape(capsys, shape, count):
    code, out, err = run_cli(capsys, "gen", "--shape", shape, "-n", count)
    assert code == 2
    assert not out
    assert "internal error" not in err


def test_gen_smallest_stress_family(capsys):
    code, out, _ = run_cli(capsys, "gen", "--shape", "stress", "-n", "1")
    assert code == 0
    assert json.loads(out)["vertices"]


PATH3 = [{"id": 0, "x": 0.0, "y": 0.0}, {"id": 1, "x": 1.0, "y": 0.0},
         {"id": 2, "x": 1.0, "y": 1.0}]


@pytest.mark.parametrize("doc", [
    {"vertices": [dict(v, id=v["id"] + 0.9) for v in PATH3],
     "edges": [[0, 1], [1, 2]]},
    {"vertices": PATH3, "edges": [[0, 1, 2], [1, 2]]},
], ids=["float-id", "extra-edge-entry"])
def test_malformed_ids_and_edges_are_input_errors(tmp_path, capsys, doc):
    code, out, err = run_cli(capsys, "analyze", write_tree_data(tmp_path, doc))
    assert code == 2
    assert not out
    assert "internal error" not in err


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def test_kept_parser_answers_as_a_fresh_one(tmp_path, capsys, t_l):
    # main builds its parser once and keeps it; a run of commands through
    # the kept parser gives the outputs and exit codes of fresh parsers.
    path = write_tree(tmp_path, t_l)
    sc = json.dumps({"p": {"edge": [0, 1], "lambda": 0.5},
                     "q": {"edge": [1, 2], "lambda": 0.5}})
    commands = [("analyze", path), ("evaluate", path, "--shortcut", sc),
                ("optimize", path, "--trace"), ("optimize", "--frobnicate"),
                ("analyze", path)]
    fresh = []
    for argv in commands:
        cli._build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    cli._build_parser.cache_clear()
    kept = [run_cli(capsys, *argv) for argv in commands]
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(commands) - 1)
    assert [code for code, _, _ in kept] == [0, 0, 0, 2, 0]
    assert kept == fresh


def test_analyze_and_evaluate_run_one_double_sweep(tmp_path, capsys,
                                                  monkeypatch):
    # The double sweep is the tree's cached ``poles``: ``analyze`` reads
    # it in ``continuous_diameter`` and ``backbone``, and ``evaluate`` in
    # ``backbone`` and the evaluator's leaf bound, one sweep each.
    sweeps, poles = [], GeometricTree.poles.func

    def counted(tree):
        sweeps.append(tree)
        return poles(tree)

    prop = cached_property(counted)
    prop.__set_name__(GeometricTree, "poles")
    monkeypatch.setattr(GeometricTree, "poles", prop)
    t = random_tree(3, 40, "uniform")
    path = write_tree(tmp_path, t)
    (a, b), (c, d) = t.edges[0], t.edges[-1]
    sc = json.dumps({"p": {"edge": [a, b], "lambda": 0.5},
                     "q": {"edge": [c, d], "lambda": 0.5}})
    for argv in (("analyze", path), ("evaluate", path, "--shortcut", sc)):
        sweeps.clear()
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(sweeps) == 1, argv


def test_evaluate_hook_useless(tmp_path, capsys, t_hook):
    path = write_tree(tmp_path, t_hook)
    sc = json.dumps({"p": {"edge": [0, 1], "lambda": 0.0},
                     "q": {"edge": [1, 2], "lambda": 1.0}})
    code, out, _ = run_cli(capsys, "evaluate", path, "--shortcut", sc)
    assert code == 0
    doc = json.loads(out)
    assert doc["usefulness"] == "useless"
    assert doc["diameter_after"] == pytest.approx(8 + 2 * math.sqrt(2),
                                                  abs=1e-9)


def test_evaluate_rejects_bad_shortcut(tmp_path, capsys, t_l):
    # A bad point is an input error, exit 2, whose message names its
    # fault.
    path = write_tree(tmp_path, t_l)
    cases = [
        ({"edge": [0, 2], "lambda": 0.5}, {"edge": [1, 2], "lambda": 0.5},
         "edge 0-2 not in tree"),
        ({"edge": [0, 1], "lambda": 0.5}, {"edge": [1, 2], "lambda": 1.5},
         "lambda 1.5 outside [0, 1]"),
        ({"edge": [0, 1]}, {"edge": [7, 7]}, "unknown vertex 7"),
        ({"edge": "x"}, {"edge": [1, 2]}, "bad point record {'edge': 'x'}"),
    ]
    for p, q, message in cases:
        code, out, err = run_cli(capsys, "evaluate", path, "--shortcut",
                                 json.dumps({"p": p, "q": q}))
        assert (code, out, err) == (2, "", f"treecut: {message}\n")


def test_optimize_l(tmp_path, capsys, t_l):
    path = write_tree(tmp_path, t_l)
    code, out, _ = run_cli(capsys, "optimize", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["useful"] is True
    assert doc["diameter_after"] == pytest.approx(1.5469182, abs=1e-6)
    assert "events" not in doc


def test_optimize_trace(tmp_path, capsys, t_l):
    path = write_tree(tmp_path, t_l)
    code, out, _ = run_cli(capsys, "optimize", path, "--trace")
    assert code == 0
    doc = json.loads(out)
    assert isinstance(doc["events"], list) and doc["events"]


def test_oracle(tmp_path, capsys, t_l):
    path = write_tree(tmp_path, t_l)
    code, out, _ = run_cli(capsys, "oracle", path, "--resolution", "0.01",
                           "--restrict-backbone")
    assert code == 0
    doc = json.loads(out)
    assert doc["best_diameter"] == pytest.approx(1.5469182, abs=4e-2)
    assert doc["restricted"] is True


def test_oracle_coarse_resolution_is_input_error(tmp_path, capsys, t_l):
    path = write_tree(tmp_path, t_l)
    code, _, err = run_cli(capsys, "oracle", path, "--resolution", "5.0")
    assert code == 2


def test_gen_round_trip(tmp_path, capsys):
    out_path = tmp_path / "gen.json"
    code, _, _ = run_cli(capsys, "gen", "--shape", "caterpillar",
                         "--seed", "2", "-n", "11",
                         "--output", str(out_path))
    assert code == 0
    raw = out_path.read_text()
    from treecut import load_tree
    from treecut.cli import _round12
    t = load_tree(raw)
    again = json.dumps(_round12(t.to_json_data()), indent=2) + "\n"
    assert raw == again


def test_gen_all_shapes(tmp_path, capsys):
    for shape in ("uniform", "caterpillar", "balanced", "straight",
                  "point", "stress"):
        out_path = tmp_path / f"{shape}.json"
        code, _, _ = run_cli(capsys, "gen", "--shape", shape, "--seed", "1",
                             "-n", "8", "--output", str(out_path))
        assert code == 0
        json.loads(out_path.read_text())


def test_stdin_input(tmp_path, capsys, monkeypatch, t_l):
    import io
    import sys
    doc = json.dumps(t_l.to_json_data())
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    code, out, _ = run_cli(capsys, "analyze", "-")
    assert code == 0
    assert json.loads(out)["diameter"] == pytest.approx(2.0)


def test_tolerance_scale_flag(tmp_path, capsys, t_l):
    path = write_tree(tmp_path, t_l)
    code, out, _ = run_cli(capsys, "analyze", path,
                           "--tolerance-scale", "100.0")
    assert code == 0
    code, _, _ = run_cli(capsys, "analyze", path, "--tolerance-scale", "-1")
    assert code == 2
    # The flag sets the one length scale; the tolerance follows it.
    tree = _read_tree(argparse.Namespace(input=path, tolerance_scale=100.0))
    assert tree.scale == 100.0
    assert tree.tol == 1e-9 * 100.0
    tree = _read_tree(argparse.Namespace(input=path, tolerance_scale=None))
    assert tree.scale == t_l.scale
    assert tree.tol == t_l.tol


@pytest.mark.parametrize("factor", [1e200, 1e300])
def test_optimize_huge_coordinates(tmp_path, capsys, factor):
    for args in ((3, 9, "uniform"), (4, 30, "caterpillar"),
                 (5, 14, "balanced")):
        data = random_tree(*args).to_json_data()
        code, out, _ = run_cli(capsys, "optimize",
                               write_tree_data(tmp_path, data))
        assert code == 0
        plain = json.loads(out)["diameter_after"]
        for v in data["vertices"]:
            v["x"] *= factor
            v["y"] *= factor
        code, out, _ = run_cli(capsys, "optimize",
                               write_tree_data(tmp_path, data))
        assert code == 0
        scaled = json.loads(out)["diameter_after"] / factor
        assert scaled == pytest.approx(plain, rel=1e-9)


@pytest.mark.parametrize("n", [40, 400])
def test_evaluate_distance_calls_do_not_grow_with_leaves(tmp_path, capsys,
                                                         monkeypatch, n):
    # The leaf-pair distances come from the tree's preorder, so evaluate
    # reads the distances from p and q only.
    t = random_tree(2, n, "uniform")
    path = write_tree(tmp_path, t)
    ends = [e for e in t.edges if t.leaves()[0] not in e][:2]
    sc = json.dumps({"p": {"edge": list(ends[0]), "lambda": 0.3},
                     "q": {"edge": list(ends[1]), "lambda": 0.6}})
    calls = []
    real = augmented_eval._point_distances
    monkeypatch.setattr(augmented_eval, "_point_distances",
                        lambda *a: calls.append(a) or real(*a))
    code, _, _ = run_cli(capsys, "evaluate", path, "--shortcut", sc)
    assert code == 0
    assert len(calls) <= 3


def test_evaluate_huge_coordinates(tmp_path, capsys):
    factor = 1e300
    for args in ((3, 9, "uniform"), (4, 30, "caterpillar"),
                 (5, 14, "balanced")):
        t = random_tree(*args)
        data = t.to_json_data()
        sc = json.dumps({"p": {"edge": list(t.edges[0]), "lambda": 0.3},
                         "q": {"edge": list(t.edges[-1]), "lambda": 0.6}})
        code, out, _ = run_cli(capsys, "evaluate",
                               write_tree_data(tmp_path, data),
                               "--shortcut", sc)
        assert code == 0
        plain = json.loads(out)["diameter_after"]
        for v in data["vertices"]:
            v["x"] *= factor
            v["y"] *= factor
        code, out, _ = run_cli(capsys, "evaluate",
                               write_tree_data(tmp_path, data),
                               "--shortcut", sc)
        assert code == 0
        scaled = json.loads(out)["diameter_after"] / factor
        assert abs(scaled - plain) <= 1e-9 * t.scale


def test_numbers_have_12_significant_digits(tmp_path, capsys, t_l):
    path = write_tree(tmp_path, t_l)
    code, out, _ = run_cli(capsys, "optimize", path)
    doc = json.loads(out)
    val = doc["diameter_after"]
    assert val == float(f"{val:.12g}")


def test_render_deterministic(tmp_path, capsys, t_forkbent):
    path = write_tree(tmp_path, t_forkbent)
    svg1 = tmp_path / "a.svg"
    svg2 = tmp_path / "b.svg"
    assert run_cli(capsys, "render", path, "--svg", str(svg1))[0] == 0
    assert run_cli(capsys, "render", path, "--svg", str(svg2))[0] == 0
    assert svg1.read_bytes() == svg2.read_bytes()
    text = svg1.read_text()
    assert text.startswith('<?xml version="1.0"')
    assert 'version="1.1"' in text
    assert text.count("<line") == len(t_forkbent.edges)


def test_render_shortcut_dashed(tmp_path, capsys, t_l):
    path = write_tree(tmp_path, t_l)
    svg = tmp_path / "s.svg"
    sc = json.dumps({"p": {"edge": [0, 1], "lambda": 0.25},
                     "q": {"edge": [1, 2], "lambda": 0.75}})
    code, _, _ = run_cli(capsys, "render", path, "--shortcut", sc,
                         "--svg", str(svg))
    assert code == 0
    assert "stroke-dasharray" in svg.read_text()


def test_render_empty_diagnosis_matches_no_diagnosis(t_forkbent):
    from treecut import AugmentedDiagnosis, backbone
    d = backbone(t_forkbent)
    plain = render_svg(t_forkbent, decomp=d)
    empty = AugmentedDiagnosis(diameter=0.0, cycle_length=0.0,
                               achieving_pairs=(), pair_state=frozenset(),
                               path_state=frozenset())
    with_empty = render_svg(t_forkbent, diagnosis=empty, decomp=d)
    assert plain == with_empty


PATH_TREE = {"vertices": [{"id": i, "x": x, "y": y}
                          for i, (x, y) in enumerate([(0, 0), (1, 0),
                                                      (1, 1), (2, 1)])],
             "edges": [[0, 1], [1, 2], [2, 3]]}


def scaled_path_tree(s):
    """PATH_TREE with every coordinate multiplied by ``s``."""
    return {"vertices": [{**v, "x": v["x"] * s, "y": v["y"] * s}
                         for v in PATH_TREE["vertices"]],
            "edges": PATH_TREE["edges"]}


def command_argv(cmd, path, resolution):
    """``cmd`` on a PATH_TREE document at ``path``: evaluate gets a fixed
    shortcut and oracle the grid ``resolution``."""
    argv = [cmd, path]
    if cmd == "evaluate":
        argv += ["--shortcut", json.dumps({"p": {"edge": [0, 1]},
                                           "q": {"edge": [2, 3]}})]
    if cmd == "oracle":
        argv += ["--resolution", repr(resolution)]
    return argv


@pytest.mark.parametrize("value", ["1e-320", "1e-300", "1e15", "1e308"])
@pytest.mark.parametrize("cmd", ["analyze", "evaluate", "optimize", "oracle"])
def test_extreme_tolerance_scale_is_an_answer_or_input_error(
        tmp_path, capsys, cmd, value):
    # Far from the tree's own length scale the tolerance either swallows
    # the tree (the center snapped onto a leaf) or drops out of the float
    # range (the root finder's bracket count overflowed).
    argv = command_argv(cmd, write_tree_data(tmp_path, PATH_TREE), 0.5)
    code, _, err = run_cli(capsys, *argv, "--tolerance-scale", value)
    assert code in (0, 2), err
    if code == 2:
        assert "--tolerance-scale" in err


@pytest.mark.parametrize("end", [lambda s: s / 1e6, lambda s: s * 1e6],
                         ids=["low", "high"])
@pytest.mark.parametrize("coords", [1.0, 1e-300, 1e300])
def test_tolerance_scale_range_ends_give_answers(tmp_path, capsys, end,
                                                 coords):
    # The accepted range is relative to the tree's own scale, so its ends
    # work for trees of any size.
    data = random_tree(3, 20, "caterpillar").to_json_data()
    for v in data["vertices"]:
        v["x"], v["y"] = v["x"] * coords, v["y"] * coords
    path = write_tree_data(tmp_path, data)
    scale = _read_tree(argparse.Namespace(input=path,
                                          tolerance_scale=None)).scale
    code, out, err = run_cli(capsys, "optimize", path, "--tolerance-scale",
                             repr(end(scale)))
    assert code == 0, err
    assert json.loads(out)["diameter_after"] > 0.0


@pytest.mark.parametrize("s", [1e-300, 1e-310, 1e-312, 5e-324])
@pytest.mark.parametrize("cmd", ["analyze", "evaluate", "optimize", "oracle"])
def test_subnormal_coordinates_are_an_answer_or_input_error(
        tmp_path, capsys, cmd, s):
    # Below a length scale of about 2.5e-312 the sweep's finest step,
    # 1e-12 of the scale, underflows to 0; such trees are rejected when
    # they are read, by every command alike.
    path = write_tree_data(tmp_path, scaled_path_tree(s))
    code, out, err = run_cli(capsys, *command_argv(cmd, path, s / 2))
    if s >= 1e-310:
        assert code == 0, err
        assert json.loads(out)
    else:
        assert code == 2, err
        assert "underflows" in err


@pytest.mark.parametrize("value, code", [("2.4e-312", 2), ("2.5e-312", 0)])
@pytest.mark.parametrize("cmd", ["analyze", "evaluate", "optimize", "oracle"])
def test_tolerance_scale_whose_step_underflows_is_input_error(
        tmp_path, capsys, cmd, value, code):
    # Inside the accepted range of the tree's scale (about 2.2e-306 here),
    # but 1e-12 of 2.4e-312 rounds to 0 while 1e-12 of 2.5e-312 does not.
    path = write_tree_data(tmp_path, scaled_path_tree(1e-306))
    argv = command_argv(cmd, path, 0.5e-306) + ["--tolerance-scale", value]
    got, _, err = run_cli(capsys, *argv)
    assert got == code, err
    if code == 2:
        assert "--tolerance-scale" in err


@pytest.mark.parametrize("restrict", [[], ["--restrict-backbone"]],
                         ids=["full", "backbone"])
def test_oracle_resolution_finer_than_the_floor_is_input_error(
        tmp_path, capsys, t_l, restrict):
    # Rejected before any placement is built: 1e-300 would ask for about
    # 1e300 placements per edge.
    path = write_tree(tmp_path, t_l)
    code, out, err = run_cli(capsys, "oracle", path, "--resolution",
                             "1e-300", *restrict)
    assert code == 2
    assert not out
    assert "--resolution" in err


def test_full_oracle_at_the_floor_is_input_error(tmp_path, capsys, t_l):
    # The resolution floor admits diameter / 4096, but the full grid there
    # has 8.4M placement pairs; it is refused before any evaluation.
    path = write_tree(tmp_path, t_l)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "oracle", path, "--resolution",
                             repr(2.0 / 4096))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert not out
    assert "placement pairs" in err and "--resolution" in err


def _relabelled(data, name):
    """The tree document with vertex i named ``name(i)``, in the same order."""
    return {"vertices": [{**v, "id": name(v["id"])} for v in data["vertices"]],
            "edges": [[name(u), name(v)] for u, v in data["edges"]]}


# Sparse, negative, huge and integral-float ids; 3.0 reads as the id 3.
SPARSE_IDS = (-7, 10 ** 15, 3.0, -2 ** 40, 12, 0)


@pytest.mark.parametrize("args", [(3, 9, "uniform"), (4, 30, "caterpillar"),
                                  (5, 14, "balanced")])
def test_sparse_ids_give_the_same_answers(tmp_path, capsys, args):
    # Vertex ids are labels: the arrays index vertices by their preorder
    # position, so any ids give the numbers of the same tree named 0..n-1.
    data = random_tree(*args).to_json_data()
    n = len(data["vertices"])
    name = dict(zip(range(n), SPARSE_IDS + tuple(97 * i + 5 for i in range(n))))
    sparse = _relabelled(data, name.__getitem__)
    back = {int(v): i for i, v in name.items()}
    (u, v), (x, y) = data["edges"][1], data["edges"][-1]
    shortcut = {"p": {"edge": [u, v], "lambda": 0.3},
                "q": {"edge": [x, y], "lambda": 0.6}}
    sparse_shortcut = {"p": {"edge": [name[u], name[v]], "lambda": 0.3},
                       "q": {"edge": [name[x], name[y]], "lambda": 0.6}}
    for cmd, extra, extra_sparse in (
            ("analyze", [], []), ("optimize", [], []),
            ("evaluate", ["--shortcut", json.dumps(shortcut)],
             ["--shortcut", json.dumps(sparse_shortcut)])):
        code, out, err = run_cli(capsys, cmd, write_tree_data(tmp_path, data),
                                 *extra)
        assert code == 0, err
        code, out2, err = run_cli(capsys, cmd,
                                  write_tree_data(tmp_path, sparse), *extra_sparse)
        assert code == 0, err
        want, got = json.loads(out), json.loads(out2)
        if cmd == "analyze":
            assert got["diameter"] == want["diameter"]
            assert sorted(sorted(back[v] for v in p)
                          for p in got["diametral_leaf_pairs"]) == sorted(
                sorted(p) for p in want["diametral_leaf_pairs"])
            gb, wb = got["backbone"], want["backbone"]
            for key in ("length", "h_x", "h_y", "delta", "h_max_secondary",
                        "center_arc", "is_point", "is_straight"):
                assert gb[key] == wb[key], key
            assert [back[gb[k]] for k in ("x_leaf", "y_leaf")] == [
                wb[k] for k in ("x_leaf", "y_leaf")]
            assert [(back[s["root"]], back[s["far_leaf"]], s["height"],
                     s["diameter"]) for s in gb["secondary"]] == [
                (s["root"], s["far_leaf"], s["height"], s["diameter"])
                for s in wb["secondary"]]
        elif cmd == "optimize":
            for key in ("diameter_before", "diameter_after", "p_arc", "q_arc",
                        "phase_end", "event_count", "useful"):
                assert got[key] == want[key], key
        else:
            for key in ("usefulness", "diameter_before", "diameter_after"):
                assert got[key] == want[key], key
            assert got["diagnosis"]["pair_state"] == \
                want["diagnosis"]["pair_state"]


@pytest.mark.parametrize("cmd", ["analyze", "evaluate", "optimize"])
def test_unknown_id_far_past_n_is_an_input_error(tmp_path, capsys, cmd):
    # An edge naming an id far past n is an InvalidEdgeReference, exit 2:
    # never an IndexError or KeyError from the id -> index map.
    data = json.loads(json.dumps(PATH_TREE))
    data["edges"][1] = [1, 10 ** 18]
    with pytest.raises(InvalidEdgeReference):
        tree_from_data(data)
    argv = command_argv(cmd, write_tree_data(tmp_path, data), 0.5)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2, err
    assert "unknown vertex" in err
    # And a shortcut naming one, on a good tree.
    if cmd == "evaluate":
        path = write_tree_data(tmp_path, PATH_TREE)
        bad = json.dumps({"p": {"edge": [0, 1]}, "q": {"edge": [2, 10 ** 18]}})
        code, _, err = run_cli(capsys, "evaluate", path, "--shortcut", bad)
        assert code == 2, err
