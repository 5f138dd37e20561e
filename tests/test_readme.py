"""The README cannot rot silently: every ``l4span`` command line in it
parses, each one that names a bundled scenario resolves with every
``--param`` point loaded through ``override`` (nothing is simulated), its
estimator example runs with the output it shows, and the sender/feedback
pairs it lists are the ones ``SENDERS`` declares."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from l4span.harness.cli import _sweep_jobs, build_parser
from l4span.harness.scenario import BUILTIN_SCENARIOS, resolve_scenario
from l4span.senders import SENDERS

README = Path(__file__).resolve().parents[1] / "README.md"


def _command_lines() -> list[str]:
    return [line.strip() for line in README.read_text().splitlines()
            if line.strip().startswith("l4span ")]


def _parse(line: str):
    return build_parser().parse_args(shlex.split(line, comments=True)[1:])


def _names_builtin(args) -> bool:
    return getattr(args, "scenario", None) in BUILTIN_SCENARIOS


def test_readme_tours_the_bundled_scenarios():
    assert sum(_names_builtin(_parse(line)) for line in _command_lines()) >= 10


@pytest.mark.parametrize("line", _command_lines())
def test_readme_command_parses_and_resolves(line):
    args = _parse(line)
    if not _names_builtin(args):
        # a misspelt bundled name must not pass as a scenario file
        assert not hasattr(args, "scenario") or args.scenario.endswith((".yaml", ".json"))
        return
    if args.cmd == "sweep":
        assert _sweep_jobs(args)
    else:
        resolve_scenario(args.scenario)


def test_readme_estimator_example_runs():
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted > 0 and failed == 0


def test_readme_lists_the_sender_tables_pairs():
    (row,) = [line for line in README.read_text().splitlines()
              if line.startswith("| `flows[]` | `name`")]
    pairs = re.findall(r"`(\w+)`/`(\w+)`", row)
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == {(kind, f) for kind, s in SENDERS.items() for f in s.data_ecn}
