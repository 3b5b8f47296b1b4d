"""Arbitrary text in every field of every command, from a flag and from a config file.

Each example puts one text into one row of `cli._FIELDS`, under one of the
commands the row belongs to, and must end in exactly one of two ways, the
same from the flag `--name=<text>`, from the flag `--name` followed by the
token `<text>` and, for solve and compare, from the config-file line
`name = <text>` (key written with '_' or '-'):
- the text parses to a value whose printed form (through `cli._fmt` or `str`)
  is not empty and parses to the same value;
- the parse stops with a SpecError whose one-line message names the field,
  and `cli.main` prints it as its only `error:` line and exits 1.

A text that is itself a flag of the command (`--c`, `-h`) is no value as the
token after `--name`: that spelling ends as the one `error:` line `field
'<name>': flag --<name> given no text`, with exit code 1. Any other exception
is a traceback a user would see. Every other field is given a valid value, so
the first error `main` meets is the fuzzed field's. Only the error path runs a
command, and it stops before a solver or a suite runs.
"""

import contextlib
import dataclasses
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpgd import AverageRule, MaxRule, Objective, Point, SolverConfig, cli

BASE = {"solve": {"set": "sparse:n=2,s=1", "objective": "least-squares:target=1,0", "x0": "0,1"},
        "cones": {"set": "sparse:n=2,s=1", "x": "0,1", "v": "1,0"},
        "check": {"suite": "projected-translation"}}
BASE["compare"] = BASE["solve"]
SHAPE = (2,)
CONFIG_FIELDS = {f.name for f in dataclasses.fields(SolverConfig)}

SMALL = st.one_of(st.integers(-1, 6).map(str), st.floats(0, 2).map(repr))
NUMBER = st.one_of(
    SMALL, SMALL, st.floats().map(repr), st.integers().map(str),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e308", "1e400", "1e-320", "-0", "1_0",
                     "0x10", "٣", "１", " 2 ", ""]),
)
# Each field's forms, valid once its slots hold fitting numbers; other fields
# take one number, or a path.
FORMS = {
    "set": ["sparse:n={},s={}", "nonneg-sparse:n={},s={}", "lowrank:m={},n={},r={}",
            "psd:n={},r={}", "curve", "epigraph:n={}", "sparse:n={},s={},n={}"],
    "objective": ["least-squares:target={},{}", "least-squares:target={}", "constant:value={}",
                  "constant", "quartic", "quartic:{}"],
    "x0": ["{},{}", "{},{},{}", "{}"],
    "x": ["{},{}", "{},{},{}", "{}"],
    "v": ["{},{}", "{},{},{}", "{}"],
    "suite": sorted(cli.SUITES) + ["{}"],
    "rule": ["max:l={}", "max", "avg:p={}", "average:p={}", "max:p={}"],
    "algorithm": ["pgd", "p2gd", "{}"],
    "stationarity": ["regular", "proximal", "{}"],
}
ALL_FORMS = sorted({form for forms in FORMS.values() for form in forms})
WORDS = st.sampled_from(["", " ", "\t", "\u00a0", "#", ",", ":", "=", "--", "é", "t.csv",
                         "a b.csv", "-1,0", "-h", "--c", "--x=1"])
TOKEN = st.one_of(
    NUMBER, WORDS, st.sampled_from(ALL_FORMS),
    # A config value is one line of a UTF-8 file: no line break, no surrogate.
    st.text(st.characters(codec="utf-8", exclude_characters="\r\n"), max_size=4),
)
JOINED = st.lists(st.tuples(TOKEN, st.sampled_from(["", ",", ":", "=", ", "])), max_size=5).map(
    lambda parts: "".join(token + sep for token, sep in parts))
REPEATED = st.tuples(TOKEN, st.integers(2, 3)).map(lambda rep: ",".join([rep[0]] * rep[1]))


def _texts(name: str):
    """Half the field's own forms filled with numbers, half arbitrary text."""
    filled = st.tuples(st.sampled_from(FORMS.get(name, ["{}"])),
                       st.lists(NUMBER, min_size=3, max_size=3))
    return st.one_of(filled.map(lambda pair: pair[0].format(*pair[1])),
                     st.one_of(TOKEN, JOINED, REPEATED))


def _printed(value) -> str:
    """The text a parsed value prints back to."""
    if isinstance(value, float):
        return cli._fmt(value)
    if isinstance(value, MaxRule):
        return f"max:l={value.window}"
    if isinstance(value, AverageRule):
        return f"avg:p={cli._fmt(value.weight)}"
    if isinstance(value, Point):
        return ",".join(cli._fmt(c) for c in value.data)
    if isinstance(value, Objective):
        # Each objective kind is fixed by its value and gradient at the origin.
        zero = Point.zeros(SHAPE)
        if value.name == "least-squares":
            return "least-squares:target=" + ",".join(cli._fmt(-c) for c in value.grad(zero).data)
        if value.name == "constant":
            return f"constant:value={cli._fmt(value.eval(zero))}"
        return value.name
    return str(value)  # int, str and a set, whose repr is its spec


def _argv(command: str, name: str, *extra: str) -> list[str]:
    base = [arg for other, text in BASE[command].items() if other != name
            for arg in (f"--{other}", text)]
    return [command, *base, *extra]


def _outcome(command: str, name: str, argv: list[str]):
    """('value', printed value) or ('error', message) of the field `name` in argv."""
    try:
        merged = cli.merge_spec(*cli.read_argv(argv))
        if name == "set" and merged.get("set"):
            # The set is parsed first, alone; the base points need not fit its shape.
            value = cli._field_value(merged, "set")
        elif command in cli._CONFIG_COMMANDS:
            *_, cfg, values = cli._build_problem(command, merged)
            value = getattr(cfg, name) if name in CONFIG_FIELDS else values[name]
        else:
            value = cli.parse_fields(command, merged)[name]
    except cli.SpecError as err:
        return "error", str(err)
    return "value", _printed(value)


def _main(argv: list[str]) -> tuple[int, str, str]:
    """cli.main's exit code, stdout and stderr on argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _is_flag(command: str, text: str) -> bool:
    """Whether text, up to its first '=', is a flag of the command."""
    names = cli._command_fields(command) + ["config"] * (command in cli._CONFIG_COMMANDS)
    return text.partition("=")[0] in {"-h", "--help", *(f"--{n.replace('_', '-')}" for n in names)}


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fields") / "exp.cfg"


@pytest.mark.parametrize("name", list(cli._FIELDS))
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data(), dashed=st.booleans())
def test_every_field_parses_and_prints_back_or_names_itself(name, data, dashed, config_path):
    text = data.draw(_texts(name), label="text")
    command = data.draw(st.sampled_from(cli._FIELDS[name].commands), label="command")
    flag = name.replace("_", "-")
    from_flag = _outcome(command, name, _argv(command, name, f"--{flag}={text}"))
    separate = _argv(command, name, f"--{flag}", text)
    if _is_flag(command, text):
        assert _main(separate) == (cli.EXIT_USAGE, "", f"error: field {name!r}: flag --{flag} given no text\n")
    else:
        assert _outcome(command, name, separate) == from_flag
    if command in cli._CONFIG_COMMANDS:
        config_path.write_text(f"{flag if dashed else name} = {text}\n", encoding="utf-8")
        assert _outcome(command, name,
                        _argv(command, name, "--config", str(config_path))) == from_flag
    kind, detail = from_flag
    if kind == "value":
        # An empty text has no value to stand for: taking one would be a default.
        assert detail
        assert _outcome(command, name,
                        _argv(command, name, f"--{flag}={detail}")) == from_flag
        return
    assert "\n" not in detail and re.search(rf"\b{name}\b", detail), detail
    assert _main(_argv(command, name, f"--{flag}={text}")) == (cli.EXIT_USAGE, "", f"error: {detail}\n")
