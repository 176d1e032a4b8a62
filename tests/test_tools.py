"""The tools that judge a change: ``answers.py compare`` and
``code_lines.py``."""

import importlib.util
import json
from pathlib import Path

import pytest

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
           "families": 120, "events": "0123456789abcdef"}
    rec.update(change)
    return rec


def compare(tmp_path, capsys, **change):
    """Exit code and output of ``compare`` on a dump of two trees against
    the same dump with ``change`` applied to its second tree."""
    before = {"criterion-1/0": record(), "criterion-1/1": record()}
    after = {"criterion-1/0": record(), "criterion-1/1": record(**change)}
    paths = []
    for name, dump in (("before", before), ("after", after)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dump))
        paths.append(str(path))
    code = answers.main(["compare", *paths])
    return code, capsys.readouterr().out


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
