"""README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.DOTALL | re.MULTILINE)


def test_library_example_runs():
    blocks = python_blocks()
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
