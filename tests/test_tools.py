"""The tools that judge a change: ``answers.py compare`` and
``code_lines.py``."""

import dataclasses
import importlib.util
import json
import random
from pathlib import Path

import pytest

from treecut.oracle import random_tree

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


answers = load("answers")
code_lines = load("code_lines")


def record(**change):
    rec = {"set": "criterion-1", "phase_end": "III",
           "diameter_after": (3.0).hex(), "scale": 4.0, "event_count": 7,
           "families": 120, "evaluate_calls": 225, "solves": 40,
           "solve_families": 100, "phase1_families": 30, "stop_roots": 10,
           "stop_families": 30, "dips": 2, "dip_families": 40,
           "stretches": 5, "probe_families": 35, "pair_blocks": 6,
           "polish_evaluates": 40, "sweep_gap": 0.0,
           "events": "0123456789abcdef"}
    rec.update(change)
    return rec


def compare_dumps(tmp_path, capsys, before, after):
    """Exit code and output of ``compare`` on the dumps ``before`` and
    ``after``."""
    paths = []
    for name, dump in (("before", before), ("after", after)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dump))
        paths.append(str(path))
    code = answers.main(["compare", *paths])
    return code, capsys.readouterr().out


def compare(tmp_path, capsys, **change):
    """Exit code and output of ``compare`` on a dump of two trees against
    the same dump with ``change`` applied to its second tree."""
    before = {"criterion-1/0": record(), "criterion-1/1": record()}
    after = {"criterion-1/0": record(), "criterion-1/1": record(**change)}
    return compare_dumps(tmp_path, capsys, before, after)


def test_compare_fails_on_a_changed_phase_end(tmp_path, capsys):
    code, out = compare(tmp_path, capsys, phase_end="II")
    assert code == 1
    assert "criterion-1/1: phase_end III -> II" in out
    assert "verdict: FAIL" in out


@pytest.mark.parametrize("worse, code, verdict", [
    (2e-9, 1, "FAIL"),
    (5e-10, 0, "PASS"),
])
def test_compare_bounds_a_worse_answer_by_scale(tmp_path, capsys, worse,
                                                code, verdict):
    # The bound is 1e-9 of the tree's scale, here 4.
    got, out = compare(tmp_path, capsys,
                       diameter_after=(3.0 + worse * 4.0).hex())
    assert got == code
    assert f"verdict: {verdict}" in out


def test_compare_counts_a_changed_trace_outside_the_verdict(tmp_path,
                                                            capsys):
    code, out = compare(tmp_path, capsys, events="fedcba9876543210",
                        event_count=3)
    assert code == 0
    assert "event traces changed on 1 trees" in out
    assert "verdict: PASS" in out
    row = next(line.split() for line in out.splitlines()
               if line.startswith("criterion-1 "))
    # trees, phase_end, bitwise, traces, ..., events before and after.
    assert row[1:5] == ["2", "0", "0", "1"]
    assert row[-2:] == ["14", "10"]


def test_compare_totals_evaluate_calls_per_set(tmp_path, capsys):
    code, out = compare(tmp_path, capsys, evaluate_calls=40)
    assert code == 0
    row = next(line.split() for line in out.splitlines()
               if line.startswith("criterion-1 "))
    # families, evaluate calls and events, each before and after.
    assert row[-6:] == ["240", "240", "450", "265", "14", "14"]
    assert "evaluate calls: a dump without them" not in out


def test_compare_prints_mean_and_median_evaluate_calls_per_set(tmp_path,
                                                               capsys):
    # Two trees of 225 calls each, the second down to 40 after.
    code, out = compare(tmp_path, capsys, evaluate_calls=40)
    assert code == 0
    lines = out.splitlines()
    at = lines.index("evaluate calls per tree, mean / median, before -> "
                     "after:")
    assert lines[at + 1].split() == ["criterion-1", "225.0", "/", "225",
                                     "->", "132.5", "/", "132.5"]


def test_compare_skips_evaluate_calls_the_older_dump_lacks(tmp_path,
                                                           capsys):
    # A dump made before evaluate calls were counted: the column is left
    # out and the verdict does not read it.
    before = {"criterion-1/0": record()}
    for rec in before.values():
        del rec["evaluate_calls"]
    after = {"criterion-1/0": record(evaluate_calls=9)}
    code, out = compare_dumps(tmp_path, capsys, before, after)
    assert code == 0
    assert "evaluate calls: a dump without them, not compared" in out
    assert "evaluate calls per tree" not in out
    row = next(line.split() for line in out.splitlines()
               if line.startswith("criterion-1 "))
    assert row[-4:] == ["120", "120", "7", "7"]
    assert "verdict: PASS" in out


def test_compare_prints_solves_and_families_per_solve(tmp_path, capsys):
    # Two trees of 40 solves and 100 families calls inside them; after,
    # the second makes 20 solves that read 30.
    code, out = compare(tmp_path, capsys, solves=20, solve_families=30)
    assert code == 0
    lines = out.splitlines()
    at = lines.index("balance solves / families calls per solve, before "
                     "-> after:")
    assert lines[at + 1].split() == ["criterion-1", "80", "/", "2.50", "->",
                                     "60", "/", "2.17"]
    assert "balance solves: a dump without them" not in out


def test_compare_prints_phase1_families_per_set(tmp_path, capsys):
    # Two trees whose phase I reads 30 families each; after, the second
    # reads 12.
    code, out = compare(tmp_path, capsys, phase1_families=12)
    assert code == 0
    lines = out.splitlines()
    at = lines.index("families calls inside phase I, before -> after:")
    assert lines[at + 1].split() == ["criterion-1", "60", "->", "42"]
    assert "phase I families calls: a dump without them" not in out


def test_compare_prints_reads_per_stop_root_and_dip(tmp_path, capsys):
    # Two trees of 10 stop roots reading 30 families and 2 dip searches
    # reading 40; after, the second tree's 10 stop roots read 20 and its 4
    # dip searches 12.
    code, out = compare(tmp_path, capsys, stop_families=20, dips=4,
                        dip_families=12)
    assert code == 0
    lines = out.splitlines()
    at = lines.index("families calls per stop root / per dip search, "
                     "before -> after:")
    assert lines[at + 1].split() == ["criterion-1", "3.00", "/", "20.00",
                                     "->", "2.50", "/", "8.67"]
    assert "stop roots and dips: a dump without them" not in out


def test_compare_prints_probe_reads_per_stretch(tmp_path, capsys):
    # Two trees of 5 stretches whose stops read 35 families outside their
    # root finds; after, the second tree's 4 stretches read 10.
    code, out = compare(tmp_path, capsys, stretches=4, probe_families=10)
    assert code == 0
    lines = out.splitlines()
    at = lines.index("families calls per stretch outside stop roots, "
                     "before -> after:")
    assert lines[at + 1].split() == ["criterion-1", "7.00", "->", "5.00"]
    assert "probe reads: a dump without stretches" not in out


def test_compare_skips_probe_reads_the_older_dump_lacks(tmp_path, capsys):
    # A dump made before stretches were counted: the probe reads are left
    # out and the verdict does not read them.
    before = {"criterion-1/0": record()}
    for rec in before.values():
        del rec["stretches"], rec["probe_families"]
    after = {"criterion-1/0": record(stretches=9)}
    code, out = compare_dumps(tmp_path, capsys, before, after)
    assert code == 0
    assert "probe reads: a dump without stretches, not compared" in out
    assert "per stretch" not in out
    assert "verdict: PASS" in out


def test_compare_prints_pair_blocks_per_set(tmp_path, capsys):
    # Two trees that ran 6 in-cycle kernel blocks each; after, the second
    # runs 1.
    code, out = compare(tmp_path, capsys, pair_blocks=1)
    assert code == 0
    lines = out.splitlines()
    at = lines.index("in-cycle wedge-pair kernel blocks, before -> after:")
    assert lines[at + 1].split() == ["criterion-1", "12", "->", "7"]
    assert "pair blocks: a dump without pair_blocks" not in out


def test_compare_skips_pair_blocks_the_older_dump_lacks(tmp_path, capsys):
    # A dump made before the kernel blocks were counted: their block is
    # left out and the verdict does not read it.
    before = {"criterion-1/0": record()}
    for rec in before.values():
        del rec["pair_blocks"]
    after = {"criterion-1/0": record(pair_blocks=1)}
    code, out = compare_dumps(tmp_path, capsys, before, after)
    assert code == 0
    assert "pair blocks: a dump without pair_blocks, not compared" in out
    assert "kernel blocks" not in out
    assert "verdict: PASS" in out


def test_compare_prints_polish_evaluates_per_set(tmp_path, capsys):
    # Two trees whose polish made 40 evaluate calls each; after, the
    # second makes 25.
    code, out = compare(tmp_path, capsys, polish_evaluates=25)
    assert code == 0
    lines = out.splitlines()
    at = lines.index("evaluate calls inside the polish, before -> after:")
    assert lines[at + 1].split() == ["criterion-1", "80", "->", "65"]
    assert "polish evaluates: a dump without polish_evaluates" not in out


def test_compare_skips_polish_evaluates_the_older_dump_lacks(tmp_path,
                                                             capsys):
    # A dump made before the polish's evaluate calls were counted: their
    # block is left out and the verdict does not read it.
    before = {"criterion-1/0": record()}
    for rec in before.values():
        del rec["polish_evaluates"]
    after = {"criterion-1/0": record(polish_evaluates=25)}
    code, out = compare_dumps(tmp_path, capsys, before, after)
    assert code == 0
    assert ("polish evaluates: a dump without polish_evaluates, not "
            "compared") in out
    assert "inside the polish" not in out
    assert "verdict: PASS" in out


def test_dump_counts_pair_blocks():
    # The n = 2000 caterpillar runs the in-cycle kernel a few times, where
    # its bound reaches the floor; corpus tree 0 never has the 32 wedges
    # inside its cycle that the kernel needs.
    _, rec = answers.answer(("large", "large/0", (0, 2000, "caterpillar")))
    assert 0 < rec["pair_blocks"] <= 60
    _, rec = answers.answer(("criterion-1", "criterion-1/0",
                             (0, 5, "uniform")))
    assert rec["pair_blocks"] == 0


def test_compare_names_trees_that_cross_the_sweep_gap_line(tmp_path,
                                                           capsys):
    # The count of trees with sweep_gap above 1e-9 * scale moves by
    # rounding where one tree reads just below the line before and just
    # above it after; compare names it with both values.  A tree above
    # the line in both dumps is counted and not named.
    before = {"criterion-1/0": record(sweep_gap=9.999998e-10),
              "criterion-1/1": record(sweep_gap=3e-6),
              "criterion-1/2": record(sweep_gap=2e-9)}
    after = {"criterion-1/0": record(sweep_gap=1.0000002e-09),
             "criterion-1/1": record(sweep_gap=5e-6),
             "criterion-1/2": record()}
    code, out = compare_dumps(tmp_path, capsys, before, after)
    assert code == 0
    lines = out.splitlines()
    at = lines.index("trees with sweep_gap > 1e-09 scale, before -> after:")
    assert lines[at + 1].split() == ["criterion-1", "2", "->", "2"]
    assert lines[at + 2:at + 4] == [
        "  criterion-1/0 crosses 1e-09: 9.999998e-10 -> 1.0000002e-09",
        "  criterion-1/2 crosses 1e-09: 2e-09 -> 0"]
    assert "criterion-1/1 crosses" not in out
    assert "verdict: PASS" in out


def test_compare_skips_stop_roots_and_dips_the_older_dump_lacks(tmp_path,
                                                                capsys):
    # A dump made before stop roots and dips were counted: their block is
    # left out and the verdict does not read it.
    before = {"criterion-1/0": record()}
    for rec in before.values():
        for field in answers.ROOTS:
            del rec[field]
    after = {"criterion-1/0": record(dips=9)}
    code, out = compare_dumps(tmp_path, capsys, before, after)
    assert code == 0
    assert "stop roots and dips: a dump without them, not compared" in out
    assert "per stop root" not in out
    assert "verdict: PASS" in out


def test_compare_prints_rescues_per_set(tmp_path, capsys):
    # A rescue is a tree whose sweep_gap exceeds 1e-6 * scale: before, the
    # polish moved the second tree by 2e-6 * scale; after, the first by
    # 5e-7, which is no rescue.  Rescues are not part of the verdict.
    before = {"criterion-1/0": record(), "criterion-1/1":
              record(sweep_gap=2e-6), "hold-out/0": record(set="hold-out")}
    after = {"criterion-1/0": record(sweep_gap=5e-7),
             "criterion-1/1": record(), "hold-out/0": record(set="hold-out")}
    code, out = compare_dumps(tmp_path, capsys, before, after)
    assert code == 0
    lines = out.splitlines()
    at = lines.index("rescues (sweep_gap > 1e-06 scale), before -> after:")
    assert [line.split() for line in lines[at + 1:at + 3]] == [
        ["criterion-1", "1", "->", "0"], ["hold-out", "0", "->", "0"]]
    assert "rescues: a dump without sweep_gap" not in out


def test_compare_skips_rescues_the_older_dump_lacks(tmp_path, capsys):
    # A dump made before sweep_gap was recorded: the rescues are left out
    # and the verdict does not read them.
    before = {"criterion-1/0": record()}
    for rec in before.values():
        del rec["sweep_gap"]
    after = {"criterion-1/0": record(sweep_gap=1.0)}
    code, out = compare_dumps(tmp_path, capsys, before, after)
    assert code == 0
    assert "rescues: a dump without sweep_gap, not compared" in out
    assert "rescues (sweep_gap" not in out
    assert "verdict: PASS" in out


@pytest.mark.parametrize("spec, rescued", [((0, 5, "uniform"), False),
                                           ((1000024, 5, "uniform"), True)],
                         ids=["0-False", "1000024-True"])
def test_dump_records_the_sweep_gap(spec, rescued):
    # The polish can only improve on the sweep's best candidate, so the
    # gap is never negative; on corpus tree 0 it is below the rescue
    # bound, and on hold-out tree 24 the polish moves the sweep's best
    # candidate by about 3.7e-2 * scale.
    _, rec = answers.answer(("hold-out", f"tree/{spec[0]}", spec))
    assert rec["sweep_gap"] >= 0.0
    assert (rec["sweep_gap"] > answers.RESCUE) == rescued


def test_dump_counts_solves_beside_families():
    # One record of ``dump``: corpus tree 0 balances q at every probe, and
    # the families calls inside the solves, and those inside phase I, are
    # some of its calls.
    name, rec = answers.answer(("criterion-1", "criterion-1/0",
                                (0, 5, "uniform")))
    assert name == "criterion-1/0"
    assert rec["solves"] > 0
    assert 0 < rec["solve_families"] < rec["families"]
    assert 0 < rec["phase1_families"] < rec["families"]
    # Its stops' root finds, phase I's among them, read some of them too.
    assert rec["stop_roots"] > 0
    assert 0 < rec["stop_families"] < rec["families"]
    assert rec["dip_families"] >= rec["dips"] >= 0
    # Its walks cross stretches, whose stops read families outside their
    # root finds, as phase I's stop does.
    assert rec["stretches"] > 0
    assert 0 < rec["probe_families"] < rec["families"]
    # Its polish reads some probes; ``best`` reads the candidates.
    assert 0 < rec["polish_evaluates"] < rec["evaluate_calls"]


def test_compare_skips_solves_the_older_dump_lacks(tmp_path, capsys):
    # A dump made before solves were counted: their block is left out and
    # the verdict does not read it.
    before = {"criterion-1/0": record()}
    for rec in before.values():
        del rec["solves"], rec["solve_families"]
    after = {"criterion-1/0": record(solves=9)}
    code, out = compare_dumps(tmp_path, capsys, before, after)
    assert code == 0
    assert "balance solves: a dump without them, not compared" in out
    assert "families calls per solve" not in out
    assert "verdict: PASS" in out


def test_compare_skips_phase1_families_the_older_dump_lacks(tmp_path,
                                                           capsys):
    # A dump made before phase I's families calls were counted: their
    # block is left out and the verdict does not read it.
    before = {"criterion-1/0": record()}
    for rec in before.values():
        del rec["phase1_families"]
    after = {"criterion-1/0": record(phase1_families=9)}
    code, out = compare_dumps(tmp_path, capsys, before, after)
    assert code == 0
    assert "phase I families calls: a dump without them, not compared" in out
    assert "families calls inside phase I" not in out
    assert "verdict: PASS" in out


def evaluate_record(**change):
    rec = {"set": "evaluate", "diameter": (3.0).hex(), "scale": 4.0,
           "usefulness": "useful", "pairs": "0123456789abcdef",
           "pair_leaves": 151}
    rec.update(change)
    return rec


def compare_evaluate(tmp_path, capsys, old_records=True, **change):
    """``compare`` on dumps of one optimize and two evaluate records, the
    second evaluate record changed by ``change``; with ``old_records``
    false, the older dump has no evaluate records."""
    before = {"criterion-1/0": record(),
              "evaluate/shortcuts/0": evaluate_record(),
              "evaluate/mixed/1000": evaluate_record()}
    after = dict(before, **{"evaluate/mixed/1000": evaluate_record(**change)})
    if not old_records:
        before = {"criterion-1/0": record()}
    return compare_dumps(tmp_path, capsys, before, after)


@pytest.mark.parametrize("move, code, verdict, bitwise", [
    (2e-9, 1, "FAIL", 1),
    (-2e-9, 1, "FAIL", 1),
    (5e-10, 0, "PASS", 1),
    (0.0, 0, "PASS", 0),
])
def test_compare_bounds_a_moved_evaluate_diameter(tmp_path, capsys, move,
                                                  code, verdict, bitwise):
    # A diameter that moves either way by more than 1e-9 of the scale (4)
    # fails; a smaller move passes and counts as one bitwise change.
    got, out = compare_evaluate(tmp_path, capsys,
                                diameter=(3.0 + move * 4.0).hex())
    assert got == code
    assert f"verdict: {verdict}" in out
    assert f"evaluate records: 2; changed: {bitwise} diameters bitwise" in out
    assert ("evaluate/mixed/1000: diameter moved" in out) == (code == 1)


def test_compare_counts_changed_usefulness_and_pairs(tmp_path, capsys):
    code, out = compare_evaluate(tmp_path, capsys, usefulness="useless",
                                 pairs="fedcba9876543210")
    assert code == 0
    assert ("changed: 0 diameters bitwise (largest move 0.00e+00 scale), "
            "1 usefulness, 1 achieving pairs") in out


def test_compare_skips_evaluate_records_the_older_dump_lacks(tmp_path,
                                                             capsys):
    # A dump made before the evaluate records existed: the optimize
    # records are compared, the evaluate check is skipped and says so.
    code, out = compare_evaluate(tmp_path, capsys, old_records=False,
                                 diameter=(9.0).hex())
    assert code == 0
    assert "evaluate records: none in the older dump, not compared" in out
    assert "verdict: PASS" in out


def test_compare_prints_pair_leaves_per_pool(tmp_path, capsys):
    # Two evaluate records whose pair pass read 151 leaves each; after,
    # the mixed one reads 2.
    code, out = compare_evaluate(tmp_path, capsys, pair_leaves=2)
    assert code == 0
    lines = out.splitlines()
    at = lines.index("leaves read by the leaf-pair pass, before -> after:")
    assert lines[at + 1].split() == ["shortcuts", "151", "->", "151"]
    assert lines[at + 2].split() == ["mixed", "151", "->", "2"]
    assert "pair leaves: a dump without pair_leaves" not in out


def test_compare_skips_pair_leaves_the_older_dump_lacks(tmp_path, capsys):
    # A dump made before the pass's leaves were counted: their block is
    # left out and the verdict does not read it.
    before = {"criterion-1/0": record(),
              "evaluate/shortcuts/0": evaluate_record()}
    del before["evaluate/shortcuts/0"]["pair_leaves"]
    after = {"criterion-1/0": record(),
             "evaluate/shortcuts/0": evaluate_record(pair_leaves=2)}
    code, out = compare_dumps(tmp_path, capsys, before, after)
    assert code == 0
    assert "pair leaves: a dump without pair_leaves, not compared" in out
    assert "leaf-pair pass" not in out
    assert "verdict: PASS" in out


def test_dump_counts_pair_leaves():
    # Pool tree 0 of evaluate-shortcuts has 151 leaves; the bound keeps
    # two of them for the pair pass.
    _, rec = answers.evaluation(("evaluate", "evaluate/shortcuts/0",
                                 (0, 300, "uniform")))
    assert len(random_tree(0, 300, "uniform").leaves()) == 151
    assert 2 <= rec["pair_leaves"] < 15


def test_misses_prints_the_trees_above_the_grid_optimum(monkeypatch,
                                                        capsys):
    # A stubbed optimize answers hold-out tree 0 at its polished grid
    # optimum and hold-out tree 1 5.4e-3 * scale above it, in phase II,
    # whatever the sweep answers on them.  The scan runs in this process
    # here, in the order of the jobs.
    jobs = [job for job in answers.trees()
            if job[1] in ("hold-out/0", "hold-out/1")]
    gaps, sweep = iter([0.0, 5.4e-3]), answers.optimize

    def above(tree):
        return dataclasses.replace(
            sweep(tree), phase_end="II", diameter_after=(
                answers.polished_grid_optimum(tree) + next(gaps) * tree.scale))

    monkeypatch.setattr(answers, "optimize", above)
    found = answers.misses(jobs, scan=lambda fn, jobs: dict(map(fn, jobs)))
    out = capsys.readouterr().out
    assert list(found) == ["hold-out/1"]
    assert found["hold-out/1"]["phase_end"] == "II"
    assert 5e-3 < found["hold-out/1"]["gap"] < 6e-3
    lines = out.splitlines()
    assert lines[0] == ("hold-out: 1 misses (above the grid optimum by more "
                        "than 1e-06 scale) of 2 trees with a useful shortcut")
    assert lines[1].split()[:2] == ["hold-out/1", "gap"]
    assert lines[1].split()[-2:] == ["phase_end", "II"]


def test_seeded_shortcut_is_the_benchmark_request():
    # The evaluate records of the pool trees read the shortcut the
    # benchmark's evaluate-shortcuts workload sends for the same seed.
    import sys
    sys.path.insert(0, str(TOOLS.parent))
    try:
        from perfbench.workloads import random_shortcut, random_tree_data
    finally:
        sys.path.pop(0)
    for seed in (0, 7, 119):
        data = random_tree_data(seed, 300, "uniform")
        want = random_shortcut(seed, data)
        sc = answers.seeded_shortcut(answers.random_tree(seed, 300,
                                                         "uniform"), seed)
        got = {"p": {"edge": [sc.p.u, sc.p.v], "lambda": sc.p.lam},
               "q": {"edge": [sc.q.u, sc.q.v], "lambda": sc.q.lam}}
        assert json.loads(json.dumps(got)) == json.loads(json.dumps(want))


def test_motions_counts_copies_beyond_the_bound(monkeypatch, capsys):
    # The original reads 0.5; of the moved copies one is better and one
    # worse beyond 1e-9, and the rest are within it.
    reads = iter([0.5, 0.5 - 3e-9, 0.5 + 2e-9] + [0.5 + 5e-10] * 38)
    monkeypatch.setattr(answers, "measure", lambda tree: next(reads))
    assert answers.main(["motions", "0", "9", "caterpillar"]) == 0
    out = capsys.readouterr().out
    assert "random_tree(0, 9, 'caterpillar')" in out
    assert "40 moved copies: 1 better, 1 worse (beyond 1e-09); " \
        "difference from -3e-09 to 2e-09" in out


def test_motion_scan_prints_the_frame_decided_trees(monkeypatch, capsys):
    # A stubbed measure reads 0.5 on every tree and moved copy but the
    # third copy of hold-out tree 1, which reads 3e-9 lower: that tree
    # alone is frame-decided.  The scan runs in this process here.
    jobs = [job for job in answers.trees()
            if job[1] in ("criterion-1/0", "hold-out/0", "hold-out/1")]
    reads = iter([0.5] * 85 + [0.5 - 3e-9] + [0.5] * 37)
    monkeypatch.setattr(answers, "measure", lambda tree: next(reads))
    found = answers.motion_scan(jobs,
                                scan=lambda fn, jobs: dict(map(fn, jobs)))
    assert list(found) == ["hold-out/1"]
    assert capsys.readouterr().out.splitlines() == [
        "criterion-1: 0 frame-decided trees (a moved copy answers beyond "
        "1e-09) of 1",
        "hold-out: 1 frame-decided trees (a moved copy answers beyond "
        "1e-09) of 2",
        "  hold-out/1  1 better, 0 worse (beyond 1e-09); difference from "
        "-3e-09 to 0"]
    assert next(reads, None) is None


def test_motions_takes_a_tree_or_the_scan(monkeypatch, capsys):
    scanned = []
    monkeypatch.setattr(answers, "motion_scan", lambda: scanned.append(1))
    assert answers.main(["motions", "--scan"]) == 0
    assert scanned == [1]
    for argv in (["motions"], ["motions", "0", "9"],
                 ["motions", "--scan", "0", "9", "caterpillar"]):
        with pytest.raises(SystemExit) as exit_:
            answers.main(argv)
        assert exit_.value.code == 2


def test_moved_copies_are_similarities():
    # Every edge of a moved copy is scaled by one factor, and the answer's
    # measure, which a similarity keeps, holds on this tree.
    t = random_tree(5, 14, "balanced")
    base = answers.measure(t)
    rng = random.Random(3)
    for _ in range(8):
        m = answers.moved(t, rng)
        ratios = [a / b for a, b in zip(m.edge_len, t.edge_len)]
        assert max(ratios) == pytest.approx(min(ratios), rel=1e-9)
        assert answers.measure(m) == pytest.approx(base, abs=1e-9)


def test_code_lines_skips_docstrings_comments_and_blank_lines():
    source = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line


class Box:
    """Class docstring."""

    # A comment-only line.
    size = 1

    def area(self):
        """Function
        docstring.
        """
        text = """a string that is not a docstring"""
        return self.size * math.pi
'''
    # import, class, size, def, text, return.
    assert code_lines.code_lines(source) == 6
