"""The README's documented API runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    # in an empty directory, so that anything the example writes lands there
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
