"""README's examples run: its Python block executes, every ``fptycho``
command in its shell blocks parses with the CLI's own parser, and every
module attribute or model attribute it names exists."""

import contextlib
import importlib
import io
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import fptycho
from fptycho.cli import build_parser
from fptycho.pgnn import ObjectStage, PgnnConfig, PgnnModel, PupilStage

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
MODULES = [info.name for info in pkgutil.iter_modules(fptycho.__path__)]


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


def _references(owners) -> list[tuple[str, str]]:
    """(owner, attribute) of every inline code span outside the fenced blocks
    that starts ``<owner>.<attribute>`` for one of ``owners``; ``fptycho.``
    before a module is dropped."""
    prose = re.sub(r"^```.*?^```", "", README, flags=re.M | re.S)
    found = []
    for span in re.findall(r"`([^`]+)`", prose):
        ref = re.match(r"(?:fptycho\.(?=\w+\.))?(\w+)\.(\w+)", span)
        if ref and ref[1] in owners:
            found.append((ref[1], ref[2]))
    return found


def test_readme_names_resolve(small_instance):
    """Every ``PgnnModel.x``, ``ObjectStage.x``, ``<module>.x`` and the like
    that README cites exists. A class's attributes are read off an instance
    (with TV on, so an object stage holds its TV arrays too), so instance
    attributes and dataclass fields count."""
    cfg, _, images = small_instance
    model = PgnnModel(images, cfg, PgnnConfig(tv_alpha1=1e-3))
    state = model.initial_state()
    owners = {name: importlib.import_module(f"fptycho.{name}") for name in MODULES}
    owners.update(fptycho=fptycho, PgnnModel=model, PgnnState=state,
                  ForwardResult=model.forward(state, 0, model.pupil(state)),
                  ObjectStage=ObjectStage(model, state), PupilStage=PupilStage(model, state))
    refs = _references(owners)
    assert len(refs) >= 20 and {owner for owner, _ in refs} >= {"fptycho", "PgnnModel"}
    missing = sorted({f"{owner}.{name}" for owner, name in refs
                      if not hasattr(owners[owner], name)})
    assert not missing, f"README names attributes that do not exist: {missing}"
