"""The README quickstart, its lists of campaign checks and of tolerances, and
the package exports stay in step with the code, the CI workflow's shell steps
can fail, and every source file parses on the oldest Python that CI runs."""

import ast
import contextlib
import dataclasses
import io
import re
from pathlib import Path

import pytest

import mrtest
from mrtest.tolerances import Tolerances

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def quickstart_block() -> str:
    text = README.read_text()
    section = text.split("## Library quickstart", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README: no python block under 'Library quickstart'"
    return match.group(1)


def test_readme_quickstart_runs_and_prints_three_false_verdicts():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quickstart_block(), str(README), "exec"), {})
    assert out.getvalue().split() == ["False", "False", "False"]


def test_every_exported_name_resolves():
    missing = [name for name in mrtest.__all__ if not hasattr(mrtest, name)]
    assert missing == []
    assert len(set(mrtest.__all__)) == len(mrtest.__all__)


def test_readme_campaign_section_names_every_check():
    section = README.read_text().split("## Campaign", 1)[1].split("\n## ", 1)[0]
    checks = mrtest.run_campaign(1, 10)["checks"]
    assert len(checks) == 13
    assert [name for name in checks if f"`{name}`" not in section] == []


def test_numerical_policy_names_every_tolerance():
    section = README.read_text().split("## Numerical policy", 1)[1].split("\n## ", 1)[0]
    fields = [field.name for field in dataclasses.fields(Tolerances)]
    assert len(fields) == 4
    assert [name for name in fields if f"`TOL.{name}`" not in section] == []


def run_lines(text: str) -> list[str]:
    """Every line of every ``run:`` value in a workflow: the value on the key's
    line, and each line of a block after it indented deeper than the key."""
    lines, found = text.splitlines(), []
    for k, line in enumerate(lines):
        match = re.match(r"(\s*(?:-\s+)?)run:(.*)", line)
        if not match:
            continue
        found.append(match.group(2))
        for block_line in lines[k + 1:]:
            if block_line.strip() and len(block_line) - len(block_line.lstrip()) <= len(match.group(1)):
                break
            found.append(block_line)
    return found


def test_workflow_joins_no_commands_with_and_or():
    # bash -e does not stop on a failing command joined by && or ||, so such a
    # line can hide a failed check
    lines = run_lines(WORKFLOW.read_text())
    assert any("python -m pytest" in line for line in lines)
    assert [line.strip() for line in lines if "&&" in line or "||" in line] == []


def test_every_source_file_parses_as_python_3_10():
    files = sorted(path for top in ("src", "tests", "bench") for path in (ROOT / top).rglob("*.py"))
    assert len(files) >= 23
    rejected = []
    for path in files:
        try:
            ast.parse(path.read_text(), str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            rejected.append(f"{path.relative_to(ROOT)}: {exc}")
    assert rejected == []
    # the guard rejects grammar newer than 3.10
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
