"""The examples in README.md run as written."""

import re
import shlex
from pathlib import Path

from planevals import poincare, reconstruct
from planevals.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_block(after: str, lang: str) -> str:
    """The first ``lang`` code block that follows the line ``after``."""
    start = README.index(after)
    match = re.compile(rf"^```{lang}\n(.*?)^```$", re.M | re.S).search(
        README, start)
    assert match, (after, lang)
    return match.group(1)


def test_quick_example_runs():
    code = fenced_block("Quick example:", "python")
    exec(compile(code, "README.md", "exec"), {})


def test_command_line_examples_exit_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = fenced_block("## Command line", "sh").splitlines()
    assert len(commands) == 8
    for line in commands:
        argv = shlex.split(line)
        assert argv[0] == "planevals", line
        assert main(argv[1:]) == 0, (line, capsys.readouterr())


def test_stated_cache_sizes_are_the_constants():
    graphs, = re.findall(r"each keep their last\s+(\d+) graphs", README)
    series, = re.findall(r"keeps its last\s+(\d+) series", README)
    decodes, = re.findall(r"keeps its last (\d+) decodes", README)
    chains, = re.findall(r"kept for its last (\d+) types", README)
    assert tuple(map(int, (graphs, series, decodes, chains))) == (
        reconstruct._DECODED_GRAPHS, poincare._FORWARD_SERIES,
        reconstruct._DECODED_SERIES, reconstruct._PROFILED_CHAINS)
