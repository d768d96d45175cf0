"""Every ```python block of README.md runs as written."""
import collections
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
FENCES = [m.span() for m in re.finditer(r"^```.*?^```", TEXT, re.M | re.S)]
# (offset, slug) of each Markdown heading outside a fenced block
HEADINGS = [(m.start(), re.sub(r"[^a-z0-9]+", "-", m.group(1).lower()).strip("-"))
            for m in re.finditer(r"^#+ (.+)$", TEXT, re.M)
            if not any(a <= m.start() < b for a, b in FENCES)]


def _blocks():
    """(id, line of the block's first code line, code) of each ```python
    block; its id is the slug of the nearest heading above it and the
    block's ordinal under that heading, so editing other sections keeps it."""
    blocks, ordinals = [], collections.Counter()
    for m in re.finditer(r"^```python\n(.*?)^```", TEXT, re.M | re.S):
        heading = max((h for h in HEADINGS if h[0] < m.start()), default=(0, "top"))[1]
        ordinals[heading] += 1
        blocks.append((f"{heading}-{ordinals[heading]}", TEXT.count("\n", 0, m.start(1)) + 1,
                       m.group(1)))
    return blocks


BLOCKS = _blocks()


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("line,code", [block[1:] for block in BLOCKS],
                         ids=[block[0] for block in BLOCKS])
def test_readme_block_runs(line, code):
    # Padding puts each statement on its README line in a traceback.
    exec(compile("\n" * (line - 1) + code, str(README), "exec"), {"__name__": "readme"})
