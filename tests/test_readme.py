"""The README's examples run as written.

Every ``pullpush`` line of the "Command line" block runs in-process, and the
"Library" snippet is executed, so an example that names a removed flag or
function fails here.
"""

import re
import shlex
from pathlib import Path

import pytest

from pullpush.cli import SEED_ENV_VAR, main

README = (Path(__file__).parents[1] / "README.md").read_text()


def fenced_block(section: str, language: str) -> str:
    """The first ```language block under the ``## section`` heading."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


def commands() -> list[list[str]]:
    """The argv of each ``pullpush`` line, backslash continuations joined."""
    text = fenced_block("Command line", "sh").replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("pullpush ")]


COMMANDS = commands()


def test_every_subcommand_has_an_example():
    assert sorted({argv[0] for argv in COMMANDS}) == [
        "analyze", "guidelines", "optimize", "simulate", "sweep", "validate"]


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_command_line_example_runs(argv, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert main(argv) == 0, capsys.readouterr().err
    assert capsys.readouterr().out.startswith("{")
    if "--csv" in argv:
        path = tmp_path / argv[argv.index("--csv") + 1]
        assert path.stat().st_size > 0
        assert path.with_name(path.name + ".manifest.json").exists()


def test_library_example_runs():
    namespace = {}
    exec(fenced_block("Library", "python"), namespace)
    assert namespace["result"].frames_observed == 100_000
