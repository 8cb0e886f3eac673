"""Golden outputs of the command-line front end.

Each case is one in-process ``cli.run`` call; its exit code, stdout and
stderr must match ``cli_golden.json`` byte for byte, apart from the
``verify`` timings, which are masked.  The cases cover every subcommand in
text and ``--json`` form and the usage errors, on inputs small enough that
the whole file runs in well under three seconds.

To re-record after a deliberate output change, run from the repository root:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
from pathlib import Path

import pytest

from rectchar import cli

DATA = Path(__file__).with_name("cli_golden.json")

CASES: list[list[str]] = [
    ["--help"],
    ["frobnicate"],
    ["chi", "--help"],
    ["chi", "--shape", "3,3", "--type", "3,1,1,1"],
    ["chi", "--p", "2", "--q", "2", "--type", "2,1,1"],
    ["chi", "--type", "2"],
    ["chi", "--shape", "2,1", "--p", "2", "--q", "2", "--type", "2,1"],
    ["chi", "--shape", "3,3", "--type", "3,1,1,1", "--json"],
    ["chi", "--shape", "3,3", "--type", "x"],
    ["normalized", "--shape", "2,2,2", "--mu", "2"],
    ["normalized", "--p", "3", "--q", "4", "--mu", "2,1", "--json"],
    ["normalized", "--shape", "1,2", "--mu", "1"],
    ["theorem1", "--mu", "2"],
    ["theorem1", "--mu", "2,1", "--json"],
    ["theorem1", "--mu", "3", "--p", "3", "--q", "4"],
    ["theorem1", "--mu", "3", "--p", "3", "--q", "4", "--json"],
    ["theorem1", "--mu", "5", "--p", "1", "--q", "2"],
    ["theorem1", "--mu", "11"],
    ["theorem1", "--mu", "2", "--p", "3"],
    ["theorem1", "--mu", ""],
    ["lemma", "--p", "4", "--q", "6"],
    ["lemma", "--p", "3", "--q", "3", "--lam", "2,1"],
    ["lemma", "--p", "0", "--q", "3"],
    ["hooks", "--p", "3", "--q", "3"],
    ["hooks", "--p", "3", "--q", "3", "--lam", "2,1"],
    ["hooks", "--p", "2", "--q", "2", "--lam", "1", "--json"],
    ["hooks", "--p", "2", "--q", "2", "--lam", "3"],
    ["fk", "--m", "2", "--k", "3"],
    ["fk", "--m", "2", "--k", "2", "--flip"],
    ["fk", "--m", "2", "--k", "3", "--json"],
    ["fk", "--m", "1", "--k", "4", "--flip", "--json"],
    ["fk", "--m", "3", "--k", "2", "--flip"],
    ["fk", "--m", "0", "--k", "1"],
    ["fk", "--m", "1"],
    ["gk", "--m", "1", "--k", "2", "--flip"],
    ["gk", "--m", "2", "--k", "3"],
    ["gk", "--m", "2", "--k", "3", "--json"],
    ["gk", "--m", "2", "--k", "0"],
    ["sk", "--m", "1", "--kmax", "5"],
    ["sk", "--m", "2", "--kmax", "4", "--json"],
    ["sk", "--m", "3", "--kmax", "0"],
    ["narayana", "--k", "3"],
    ["narayana", "--k", "5", "--json"],
    ["narayana", "--k", "0"],
    ["elizalde", "--m", "2", "--k", "2", "--check"],
    ["elizalde", "--m", "2", "--k", "3", "--check", "--json"],
    ["elizalde", "--m", "3", "--k", "3", "--json"],
    ["elizalde", "--m", "1", "--k", "4"],
    ["catalan-pairs", "--k", "5"],
    ["catalan-pairs", "--k", "6", "--json"],
    ["catalan-pairs", "--k", "11"],
    ["conjecture", "--m", "2", "--mu", "2,1", "--seed", "3"],
    ["conjecture", "--m", "1", "--mu", "1,1", "--samples", "5", "--seed", "1", "--json"],
    ["conjecture", "--m", "2", "--mu", "2", "--seed", "7", "--samples", "5"],
    ["conjecture", "--m", "1", "--mu", "3", "--samples", "0", "--seed", "2"],
    ["conjecture", "--m", "2", "--mu", "2,2", "--max-nodes", "10"],
    ["verify", "--only", "2,4"],
    ["verify", "--only", "4", "--json"],
    ["verify", "--only", "99"],
    ["verify", "--only", "x"],
    ["verify", "--quick", "--full"],
]

_VERIFY_TIME = re.compile(r"\s+\d+\.\d\ds  ")
_VERIFY_JSON_TIME = re.compile(r'"elapsed_seconds": [0-9.]+')


def _mask(text: str) -> str:
    text = _VERIFY_TIME.sub("  <s>  ", text)
    return _VERIFY_JSON_TIME.sub('"elapsed_seconds": "<masked>"', text)


def run_case(argv: list[str]) -> dict:
    """Run one CLI call in process and return its masked outputs."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return {
        "argv": argv,
        "code": code,
        "stdout": _mask(out.getvalue()),
        "stderr": _mask(err.getvalue()),
    }


def _load() -> dict[tuple[str, ...], dict]:
    return {tuple(case["argv"]): case for case in json.loads(DATA.read_text())}


@pytest.fixture(autouse=True)
def _fixed_width(monkeypatch):
    # argparse wraps help and usage text to the terminal width
    monkeypatch.setenv("COLUMNS", "80")


def test_golden_data_covers_every_case():
    assert sorted(_load()) == sorted(tuple(argv) for argv in CASES)


def test_every_subcommand_is_covered():
    commands = {argv[0] for argv in CASES}
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    assert set(sub.choices) <= commands


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_golden(argv):
    assert run_case(argv) == _load()[tuple(argv)]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    DATA.write_text(json.dumps([run_case(argv) for argv in CASES], indent=1) + "\n")
    print(f"recorded {len(CASES)} cases in {DATA}")
