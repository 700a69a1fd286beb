"""README's examples run: its Python block executes, and every ``fptycho``
command in its shell blocks parses with the CLI's own parser."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from fptycho.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def _commands() -> list[list[str]]:
    """Every ``fptycho ...`` line of the sh blocks, continuations joined."""
    lines = "\n".join(_blocks("sh")).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("fptycho ")]


def test_readme_has_the_examples_this_file_checks():
    assert len(_blocks("python")) == 1
    assert {argv[0] for argv in _commands()} == {"simulate", "reconstruct",
                                                 "metrics", "inspect"}


def test_readme_python_example_runs():
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(_blocks("python")[0], "README.md", "exec"), {})
    assert out.getvalue().startswith("Metrics(")


@pytest.mark.parametrize("argv", _commands(), ids=lambda argv: argv[0])
def test_readme_command_parses(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"fptycho {shlex.join(argv)} does not parse (exit {exc.code})")
