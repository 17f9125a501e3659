"""README's library example runs as written, and its API list is ``gaudin.__all__``."""

import re
from pathlib import Path

import gaudin

README = Path(__file__).parent.parent / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.DOTALL | re.MULTILINE)


def test_library_example_runs():
    blocks = python_blocks()
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def public_api():
    """{name: module} from the bullets of the "Public API" section."""
    section = README.read_text().split("## Public API\n", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for module, names in re.findall(r"^\* `([\w.]+)`: (.*?)(?=^\* |\Z)", section, flags=re.DOTALL | re.MULTILINE):
        for name in re.findall(r"`(\w+)`", names):
            assert name not in listed, name
            listed[name] = module
    return listed


def test_public_api_section_is_all():
    listed = public_api()
    assert sorted(listed) == sorted(gaudin.__all__)
    assert len(gaudin.__all__) == len(set(gaudin.__all__))
    for name, module in listed.items():
        assert getattr(gaudin, name).__module__ == module, name
