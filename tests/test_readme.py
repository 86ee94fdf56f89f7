"""The README's library examples run: every ```python block of README.md
is executed from the repository root, where its fixture paths resolve."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out  # each block prints what it shows
