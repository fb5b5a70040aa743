"""README's code examples run against the current package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block, "no python block under 'Library quick start'"
    exec(compile(block.group(1), "README.md", "exec"), {})


def test_expected_failures_paragraph_states_the_mirror_half():
    # R carries each alpha hat onto the mirror half of its image circle
    # (tests/test_crown.py pins it), so disagreeing R-partners are no
    # evidence of a grid artifact, and the paragraph must not say they are
    text = README.read_text(encoding="utf-8")
    paragraph = text.split("**Expected failures", 1)[1].split("\n## ", 1)[0]
    assert "*mirror* half" in paragraph and "2 − s" in paragraph
    assert "artifact" not in paragraph
