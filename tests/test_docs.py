"""The README quickstart and the package exports stay in step with the code."""

import contextlib
import io
import re
from pathlib import Path

import mrtest

README = Path(__file__).resolve().parents[1] / "README.md"


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
