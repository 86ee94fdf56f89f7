"""The README's examples run: every ```python block of README.md is executed
from the repository root, where its fixture paths resolve, and every
``copulascore …`` line of its ```bash blocks runs through the CLI in a
temporary directory beside a copy of ``fixtures/``.  A ```json block right
after a ```bash block is an excerpt of the stdout of that block's last
``copulascore`` line and must match it."""

import json
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


def _command_lines(block: str) -> list[list[str]]:
    """The words of each command line of a bash block, continuations joined."""
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.strip()]


BASH_LINES = [
    words
    for block in re.findall(r"^```bash\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)
    for words in _command_lines(block)
]
CLI_LINES = [words for words in BASH_LINES if words[0] == "copulascore"]
# (last command line, shown JSON) of each bash block that a json block
# follows; neither kind of block holds a backtick
EXCERPTS = [
    (_command_lines(block)[-1], json.loads(shown))
    for block, shown in re.findall(
        r"^```bash\n([^`]*)```\n\n```json\n([^`]*)```$", README, re.MULTILINE
    )
]


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


def _assert_shown(shown, actual, where: str) -> None:
    """Every key that ``shown`` holds is in ``actual`` with the value shown,
    lists element for element and numbers to 12 significant digits."""
    if isinstance(shown, dict):
        assert isinstance(actual, dict), where
        for key, value in shown.items():
            assert key in actual, f"{where}.{key}"
            _assert_shown(value, actual[key], f"{where}.{key}")
    elif isinstance(shown, list):
        assert isinstance(actual, list) and len(actual) == len(shown), where
        for i, (s, a) in enumerate(zip(shown, actual)):
            _assert_shown(s, a, f"{where}[{i}]")
    elif isinstance(shown, float):
        assert isinstance(actual, float) and f"{shown:.12g}" == f"{actual:.12g}", where
    else:
        assert type(shown) is type(actual) and shown == actual, where


def test_every_json_block_is_an_excerpt():
    assert EXCERPTS
    assert len(EXCERPTS) == README.count("```json")
    assert all(words[0] == "copulascore" for words, _ in EXCERPTS)


@pytest.mark.parametrize(
    "words, shown", EXCERPTS, ids=[f"{i}-{w[1]}" for i, (w, _) in enumerate(EXCERPTS)]
)
def test_excerpt_matches_output(words, shown, tmp_path, monkeypatch, capsys):
    shutil.copytree(ROOT / "fixtures", tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)
    assert main(words[1:]) == 0
    _assert_shown(shown, json.loads(capsys.readouterr().out), "output")
