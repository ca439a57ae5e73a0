"""Every python block of README.md runs, so its examples keep to the API."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
#: (first line number, source) of each ```python block
BLOCKS = [(TEXT.count("\n", 0, m.start(1)) + 1, m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.S | re.M)]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("line, source", BLOCKS, ids=[f"line{line}" for line, _ in BLOCKS])
def test_readme_block_runs(line, source, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a block that writes files writes them here
    code = compile("\n" * (line - 1) + source, str(README), "exec")
    exec(code, {"__name__": "readme"})
