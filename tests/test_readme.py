"""README's "Library use" block runs and prints what its comments claim, and its CLI
grammar is what ``--help`` prints."""

import re
from pathlib import Path

from geo_route_sim.cli import main
from geo_route_sim.routing import Outcome, RouteResult

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_prints_its_claims(capsys):
    namespace = {}
    exec(compile(library_use_block(), str(README), "exec"), namespace)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "[0, 2]"
    assert lines[1] == repr(RouteResult(Outcome.DELIVERED, (0, 1, 2)))
    assert lines[2:4] == ["1", "1"]
    snap = namespace["snap"]
    assert namespace["neighbors"](1, snap) == [0, 2]
    assert namespace["route"]("dlar", 0, 2, snap) == RouteResult(Outcome.DELIVERED, (0, 1, 2))


def test_cli_grammar_block_is_the_help_text(capsys):
    section = README.read_text().split("## CLI", 1)[1]
    grammar = re.search(r"```\n(.*?)```", section, re.S).group(1)
    assert main(["--help"]) == 0
    assert capsys.readouterr().out == grammar
