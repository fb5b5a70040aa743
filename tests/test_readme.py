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
