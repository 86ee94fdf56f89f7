"""The README's examples run: every ```python block of README.md is executed
from the repository root, where its fixture paths resolve, and every
``copulascore …`` line of its ```bash blocks runs through the CLI in a
temporary directory beside a copy of ``fixtures/``."""

import re
import shlex
import shutil
from pathlib import Path

import pytest

from copulascore.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)

# Install and test-suite lines are not examples of the package; any other
# command in a bash block fails test_bash_lines_are_known.
SKIPPED_COMMANDS = ("pip", "pytest")
BASH_LINES = [
    shlex.split(line, comments=True)
    for block in re.findall(r"^```bash\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)
    for line in block.replace("\\\n", " ").splitlines()
    if line.strip()
]
CLI_LINES = [words for words in BASH_LINES if words[0] == "copulascore"]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out  # each block prints what it shows


def test_bash_lines_are_known():
    assert CLI_LINES
    assert all(words[0] in ("copulascore", *SKIPPED_COMMANDS) for words in BASH_LINES)


def _named_outputs(argv: list[str]) -> list[str]:
    """The files a command line names: ``--cumdiff`` and ``--out`` paths,
    where ``simulate --out`` is a prefix of a CSV and a JSON file."""
    files = [argv[i + 1] for i, flag in enumerate(argv) if flag in ("--out", "--cumdiff")]
    if argv[0] == "simulate":
        return [f + ext for f in files for ext in (".csv", ".json")]
    return files


@pytest.mark.parametrize("words", CLI_LINES, ids=[f"{i}-{w[1]}" for i, w in enumerate(CLI_LINES)])
def test_cli_line_runs(words, tmp_path, monkeypatch):
    shutil.copytree(ROOT / "fixtures", tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)
    assert main(words[1:]) == 0
    for name in _named_outputs(words[1:]):
        assert (tmp_path / name).is_file(), name
