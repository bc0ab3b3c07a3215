"""The command table's own argv parser against argparse: for every argv it
either gives up (and main hands the argv to argparse) or gives the
namespace that argparse gives."""

import json
import pathlib

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from flaghorn.cli import _COMMANDS, _parse, build_parser  # noqa: E402

# Every argv of the exact-bytes test.
CLI_BYTES_ARGV = [
    case["argv"]
    for case in json.loads(pathlib.Path(__file__).with_name("cli_bytes.json").read_text()).values()
]
# The enumerate pool of the benchmark, as (flag variants, s, method
# variants), and the argv it runs each job with.
ENUMERATE_POOL = (
    (("1,3/6", "3,5/6"), 3, ("via_iii",)),
    (("1,4/6", "2,5/6"), 3, ("via_iii",)),
    (("2,3/6", "3,4/6"), 3, ("via_iii",)),
    (("1,2,3/5", "2,3,4/5"), 3, ("via_iii",)),
    (("1,2,4/6", "2,4,5/6"), 2, ("via_iii",)),
    (("1,3,4/6", "2,3,5/6"), 2, ("via_iii",)),
    (("1,2/6", "4,5/6"), 3, ("via_iii",)),
    (("1,2,3,4/5",), 2, ("via_i", "via_iv")),
    (("2,4/6",), 2, ("via_iii", "via_iv")),
    (("1,2/5", "3,4/5"), 3, ("via_i", "via_iv")),
    (("3/6",), 3, ("via_iii", "via_iv")),
)
POOL_ARGV = [
    ["enumerate", "--flag", flag, "--s", str(s), "--method", method, "--format", "json"]
    for flags, s, methods in ENUMERATE_POOL
    for flag in flags
    for method in methods
]
SEED_ARGV = CLI_BYTES_ARGV + POOL_ARGV

# Values for options without choices, among them ones that int() reads in
# unusual spellings; and values that no option takes plainly: negative,
# non-integer, or no choice.
VALUES = ("1,2/3", "2/4", "2,1,3;2,3,1", "2", "3", "", " 4", "1_0", "+3")
ODD_VALUES = ("-1", "-2", "x", "2.5", "bad", "--flag")


@st.composite
def option_chunk(draw, option: str, keywords: dict) -> list[str]:
    """One option and its value, spelled out or not."""
    if draw(st.integers(0, 4)):
        value = draw(st.sampled_from(keywords.get("choices", VALUES)))
    else:
        value = draw(st.sampled_from(ODD_VALUES))
    spelling = draw(st.sampled_from(("plain",) * 10 + ("equals", "abbreviated")))
    if spelling == "equals":
        return [f"{option}={value}"]
    if spelling == "abbreviated" and len(option) > 3:
        return [option[: draw(st.integers(3, len(option) - 1))], value]
    return [option, value]


@st.composite
def cli_argv(draw) -> list[str]:
    """A command and its options in any order: some dropped, some repeated,
    some misspelled, and now and then help or an unknown option."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    chunks = []
    for option, keywords in _COMMANDS[command][2]:
        for _ in range(draw(st.sampled_from((0,) + (1,) * 10 + (2,)))):
            chunks.append(draw(option_chunk(option, keywords)))
    for extra in (["-h"], ["--help"], ["--bogus", "1"]):
        if draw(st.integers(0, 19)) == 0:
            chunks.append(extra)
    chunks = draw(st.permutations(chunks))
    if draw(st.integers(0, 19)) == 0:
        command = draw(st.sampled_from(("enum", "nope", "-h", "")))
    return [command] + [arg for chunk in chunks for arg in chunk]


def with_seed_examples(test):
    for argv in SEED_ARGV:
        test = hypothesis.example(argv)(test)
    return test


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
@hypothesis.given(cli_argv())
@with_seed_examples
def test_table_parser_gives_up_or_agrees_with_argparse(argv):
    args = _parse(argv)
    if args is not None:
        assert vars(args) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", SEED_ARGV, ids=" ".join)
def test_plain_argv_takes_the_table_path(argv):
    # the seed examples of the property above check the namespace itself
    assert _parse(argv) is not None
