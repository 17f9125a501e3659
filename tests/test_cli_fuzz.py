"""Fuzz of the documented exit codes over every subcommand.

Each example takes a small valid payload of one subcommand, replaces up to
two of its values (anywhere in the JSON tree, the whole payload included)
with arbitrary JSON, and runs the CLI in process.  Whatever the input, the
run must end in exit 0-3 with no exception escaping ``main``.  Depths are
capped at 2 so that each example stays small.
"""

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from gaudin.cli import COMMANDS, main

WORKED = {
    "problem": {
        "M": 2,
        "N": 1,
        "parity": [1, 1, -1],
        "weights": [["1", "1", "0"]] * 3,
        "Ts": [["-1", "0", "0", "1"], ["-1", "0", "0", "1"], ["1"]],
    },
    "seed": {"parity": [1, 1, -1], "ys": [["1"], ["1"]]},
}
GL11_PROBLEM = {"M": 1, "N": 1, "parity": [1, -1], "weights": [["1", "0"], ["1", "0"]], "points": ["0", "1"]}
GL11 = {"problem": GL11_PROBLEM, "seed": {"parity": [1, -1], "ys": [["1"]]}}
FACTORIZATION = {
    "parity": [1, -1],
    "factors": [{"num": ["0", "0", "3"], "den": ["-1", "0", "0", "1"]}, {"num": ["0"], "den": ["1"]}],
}

# subcommand -> valid payloads to start from
BASES = {
    "population": [WORKED, GL11],
    "space": [WORKED, GL11],
    "check-bae": [{"problem": GL11_PROBLEM, "parity": [1, -1], "t": [["1/2"]]}],
    "rpdo-equal": [{"A": FACTORIZATION, "B": FACTORIZATION}],
    "gl11-spectrum": [{"weights": [["1", "0"], ["2", "0"]], "points": ["0", "1"]}],
}

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(-4, 4, width=16),
    st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/4", "1/0", "abc", "", "1e3", "0.5", "x"]),
)
JSON = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["M", "N", "num", "den", "parity", "ys"]), kids, max_size=2),
    max_leaves=6,
)


def paths(value, prefix=()):
    """Every position in a JSON tree, the root first."""
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from paths(child, prefix + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from paths(child, prefix + (index,))


def replaced(value, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(value, dict):
        return {k: replaced(v, rest, new) if k == head else v for k, v in value.items()}
    return [replaced(v, rest, new) if i == head else v for i, v in enumerate(value)]


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    if command == "selftest":
        return [command], None
    payload = draw(st.sampled_from(BASES[command]))
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(paths(payload))))
        payload = replaced(payload, path, draw(JSON))
    options = []
    if command in ("population", "space"):
        options.append(f"--max-depth={draw(st.integers(-1, 2))}")
        samples = draw(st.sampled_from(["0,1,2", "5,7", "1/2,-1", "0,0", "abc", ""]))
        options.append(f"--samples={samples}")
    return [command, *options], payload


def test_every_reading_subcommand_has_a_payload():
    assert set(BASES) | {"selftest"} == set(COMMANDS)


@given(invocation=invocations())
@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_every_input_ends_in_a_documented_exit_code(tmp_path, capsys, invocation):
    argv, payload = invocation
    if argv[0] != "selftest":  # a payload of JSON null is still written
        path = tmp_path / "in.json"
        path.write_text(json.dumps(payload))
        argv = [argv[0], "--input", str(path), *argv[1:]]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects an option value
        code = exc.code
    captured = capsys.readouterr()
    assert code in (0, 1, 2, 3), (argv, payload, code)
    assert "Traceback" not in captured.err
