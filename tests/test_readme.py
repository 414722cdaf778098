"""The README's library example runs against the installed package, so a
renamed or deleted public name fails here instead of leaving stale docs."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_block_runs():
    text = README.read_text()
    library = text[text.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", library, re.S)
    assert block is not None, "README's Library section has no python block"
    namespace = {}
    exec(compile(block.group(1), f"{README}:Library", "exec"), namespace)
    assert "dt" in namespace
