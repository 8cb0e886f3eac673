"""Property test of the CLI's exit-code contract.

Each subcommand gets argv drawn from edge values: integers weighted to 0,
+-1, small values and +-2^63..2^70, and partition strings with zeros,
negatives, empty parts, non-digits and huge parts.  Whatever the argv,
the run must exit 0 (ok), 1 (check failed) or 2 (usage error), never with
an internal error, and a usage error prints exactly one "error: " line.

Values are always passed as --flag=value, so argparse accepts every argv
and the subcommands' own validation is what gets tested.  Sizes are capped
per flag where a large valid value is merely slow (fk --m 40 --k 2 takes
seconds); huge values are drawn only where they must be rejected at once.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rectchar import cli

HUGE = st.integers(2**63, 2**70) | st.integers(-(2**70), -(2**63))


def mostly(common, rare):
    """Draw from common three times in four, else from rare."""
    return st.integers(0, 3).flatmap(lambda i: common if i else rare)


def ints(cap: int, huge: bool = True):
    """Integers 1..cap, or now and then 0, -1..-3 or +-2^63..2^70 (if huge)."""
    edge = st.integers(-3, 0)
    return mostly(st.integers(1, cap), edge | HUGE if huge else edge)


def partitions(cap: int, length: int):
    """Comma-joined partitions with parts up to cap, or now and then a string
    with zeros, negatives, empty or non-numeric pieces or huge parts."""
    valid = st.lists(st.integers(1, cap), min_size=1, max_size=length).map(
        lambda parts: ",".join(map(str, sorted(parts, reverse=True)))
    )
    junk = st.sampled_from(["", " ", "a", "1.5", "0x2", "+1", "1_0", "-"])
    piece = st.integers(-3, cap).map(str) | HUGE.map(str) | junk
    return mostly(valid, st.lists(piece, max_size=length).map(",".join))


def flag(name: str, values):
    """--name=value for a drawn value."""
    return values.map(lambda v: [f"--{name}={v}"])


def optional(piece):
    return st.just([]) | piece


def switch(name: str):
    return st.sampled_from([[], [f"--{name}"]])


def argv(*pieces):
    return st.tuples(*pieces).map(lambda drawn: [x for piece in drawn for x in piece])


SHAPE = (
    optional(flag("shape", partitions(6, 4))),
    optional(flag("p", ints(4))),
    optional(flag("q", ints(4))),
)
# the verify criteria that take a tenth of a second or less on either grid,
# or a chunk that must be rejected: a number out of range, or no number
ONLY_CHUNK = mostly(
    st.sampled_from(["2", "4", "9", "10", "12"]),
    st.sampled_from(["0", "-1", "13", "", " ", "a", "1.5"]) | HUGE.map(str),
)
ONLY = st.lists(ONLY_CHUNK, min_size=1, max_size=3).map(",".join)

COMMANDS = {
    "chi": argv(*SHAPE, flag("type", partitions(6, 5))),
    "normalized": argv(*SHAPE, flag("mu", partitions(6, 4)), switch("json")),
    "theorem1": argv(
        flag("mu", partitions(3, 2)),
        optional(flag("p", ints(5))),
        optional(flag("q", ints(5))),
        switch("json"),
    ),
    "lemma": argv(
        flag("p", ints(5)), flag("q", ints(5)), optional(flag("lam", partitions(6, 6)))
    ),
    "hooks": argv(
        flag("p", ints(5)),
        flag("q", ints(5)),
        optional(flag("lam", partitions(6, 6))),
        switch("json"),
    ),
    "fk": argv(flag("m", ints(3)), flag("k", ints(4)), switch("flip"), switch("json")),
    "gk": argv(flag("m", ints(3)), flag("k", ints(4)), switch("flip"), switch("json")),
    "sk": argv(flag("m", ints(3)), flag("kmax", ints(5)), switch("json")),
    "narayana": argv(flag("k", ints(6)), switch("json")),
    "elizalde": argv(flag("m", ints(3)), flag("k", ints(4)), switch("check"), switch("json")),
    "catalan-pairs": argv(flag("k", ints(7)), switch("json")),
    "conjecture": argv(
        flag("m", ints(2)),
        flag("mu", partitions(3, 2)),
        # a huge sample count is valid and merely slow
        optional(flag("samples", ints(3, huge=False) | HUGE.filter(lambda v: v < 0))),
        optional(flag("seed", ints(10))),
        optional(flag("max-nodes", ints(400))),
        switch("json"),
    ),
    # without --only every criterion runs, which takes seconds
    "verify": argv(
        st.sampled_from([[], ["--quick"], ["--full"]]),
        flag("only", ONLY),
        switch("json"),
    ),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_exit_code_contract(command, data, capsys):
    argv = [command] + data.draw(COMMANDS[command], label="flags")
    code = cli.run(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, code, err)
    assert "internal error" not in err, argv
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
