"""Every ```python block of README.md runs as written."""
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
# (line of the block's first code line, code) for each ```python block
BLOCKS = [(TEXT.count("\n", 0, m.start(1)) + 1, m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```", TEXT, re.M | re.S)]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("line,code", BLOCKS, ids=[f"line{line}" for line, _ in BLOCKS])
def test_readme_block_runs(line, code):
    # Padding puts each statement on its README line in a traceback.
    exec(compile("\n" * (line - 1) + code, str(README), "exec"), {"__name__": "readme"})
