"""CLI stdout pinned byte for byte.

``tests/golden/<name>.stdout`` is the recorded output of command ``<name>``
below, run on the payloads in the same directory.  A change that alters
any of them changes the documented wire format or a result, and must
re-record them on purpose.
"""

import hashlib
import json
import os
import shlex
import subprocess
import sys
import textwrap
import time
from itertools import takewhile
from pathlib import Path

import pytest

from gaudin.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "population_worked_gl21": ["population", "--input", "worked_gl21.json"],
    "space_worked_gl21": ["space", "--input", "worked_gl21.json"],
    "population_worked_gl21_samples_5_7": ["population", "--input", "worked_gl21.json", "--samples=5,7"],
    "population_rational_gl21": ["population", "--input", "rational_gl21.json"],
    "selftest": ["selftest"],
    "gl11_spectrum_four_sites": ["gl11-spectrum", "--input", "gl11_four_sites.json"],
    "gl11_spectrum_irrational": ["gl11-spectrum", "--input", "gl11_irrational.json"],
    "gl11_spectrum_double_root": ["gl11-spectrum", "--input", "gl11_double_root.json"],
    "gl11_spectrum_wide_roots": ["gl11-spectrum", "--input", "gl11_wide_roots.json"],
    "population_gl31_depth3": ["population", "--input", "gl31.json", "--max-depth", "3", "--samples=-6,-5,1"],
    "space_gl31_depth3": ["space", "--input", "gl31.json", "--max-depth", "3", "--samples=-6,-5,1"],
    "space_rational_gl21": ["space", "--input", "rational_gl21.json"],
    "space_rational_gl21_point_1e50_depth3": ["space", "--input", "rational_gl21_point_1e50.json", "--max-depth", "3"],
    "population_gl22_depth4": ["population", "--input", "gl22.json", "--max-depth", "4"],
    "population_gl22_pole_depth4": ["population", "--input", "gl22_pole.json", "--max-depth", "4"],
    "population_gl13_depth3": ["population", "--input", "gl13.json", "--max-depth", "3"],
    "population_gl32_depth3": ["population", "--input", "gl32.json", "--max-depth", "3"],
    "space_gl22_depth4": ["space", "--input", "gl22.json", "--max-depth", "4"],
    "space_gl22_pole_depth4": ["space", "--input", "gl22_pole.json", "--max-depth", "4"],
    "space_gl13_depth3": ["space", "--input", "gl13.json", "--max-depth", "3"],
    "space_gl32_depth3": ["space", "--input", "gl32.json", "--max-depth", "3"],
    "space_gl22_even_pole_depth4": ["space", "--input", "gl22_even_pole.json", "--max-depth", "4"],
    "space_gl13_even_pole_depth3": ["space", "--input", "gl13_even_pole.json", "--max-depth", "3"],
    # the one gl(1|1) space whose even part has a pole
    "space_gl11_even_pole_depth3": ["space", "--input", "gl11_even_pole.json", "--max-depth", "3"],
    # a seed off the standard parity: its transport constants reach Vbasis and Ubasis
    "space_worked_gl21_nonstandard_seed_depth0": [
        "space", "--input", "worked_gl21_nonstandard_seed.json", "--max-depth", "0",
    ],
    "space_worked_gl21_nonstandard_seed_depth3": [
        "space", "--input", "worked_gl21_nonstandard_seed.json", "--max-depth", "3",
    ],
    # each side's standard pair is (D - a, D - a): a right gcd of order 1
    "rpdo_equal_cancelling": ["rpdo-equal", "--input", "rpdo_equal_cancelling.json"],
}
# recorded too, but run by test_large_point_output_and_budget under a time budget
BUDGETED = (
    "population_rational_gl21_point_1e50_depth3",
    ["population", "--input", "rational_gl21_point_1e50.json", "--max-depth", "3"],
)
# too large to record, so pinned by their sha256: gl(3|2) (275,913 bytes,
# 1,992 nodes) is the run with the most flag Wronskians, and gl(1|3) with an
# even pole (830 nodes) the one whose flags clear a nonconstant denominator
DIGESTED = (
    (
        "fb6205bb91d2241469e02a4c672e121f764c4ee9eedd19974c1941314e14f16f",
        ["space", "--input", "gl32.json", "--max-depth", "5"],
    ),
    (
        "2ca6f7976cd754502650d7d8c8268d9c1ab624410cc1090b1e82df13142dc6ec",
        ["space", "--input", "gl13_even_pole.json", "--max-depth", "5"],
    ),
)
WORKFLOW = Path(__file__).parent.parent / ".github" / "workflows" / "tests.yml"


@pytest.mark.parametrize("name", COMMANDS)
def test_stdout_matches_recording(capsys, name):
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in COMMANDS[name]]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()


def test_large_point_output_and_budget(capsys):
    """Coefficient growth: rational_gl21 with point 0 moved to 10^50.

    The recording was made before the gcd and division kernels ran on
    integers, when this run took about 7 s of CPU; the budget keeps the
    run's cost from growing with the size of its coefficients again.
    """
    name, args = BUDGETED
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in args]
    start = time.process_time()
    assert main(argv) == 0
    elapsed = time.process_time() - start
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()
    assert elapsed < 3.0


def test_digested_stdout(capsys):
    for digest, args in DIGESTED:
        assert main([str(GOLDEN / a) if a.endswith(".json") else a for a in args]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest, args


def test_output_beyond_the_int_text_limit(tmp_path, capsys):
    """Point 0 at 10^2500: parsing it is within Python's limit on the digits
    of an int string, and the output holds integers far beyond it."""
    payload = json.loads((GOLDEN / "rational_gl21_point_1e50.json").read_text())
    point = str(10**2500)
    payload["problem"]["points"][0] = point
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(payload))
    # the limit is a process-wide setting, and the run must leave it as it was
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    assert main(["population", "--input", str(inp), "--max-depth", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert f'"{point}"' in captured.out
    assert limit() == before


def workflow_step(name):
    """The lines of the workflow step ``- name: <name>`` after that line, up
    to the next step."""
    lines = iter(WORKFLOW.read_text().splitlines())
    for line in lines:
        if line.strip() == f"- name: {name}":
            break
    else:
        raise AssertionError(f"no step {name!r} in the workflow")
    return list(takewhile(lambda line: not line.strip().startswith("- "), lines))


def workflow_golden_runs():
    """``golden <name> <args>`` lines of the workflow step that compares CLI
    bytes without pytest, as {name: args} with ``$g/`` taken off file names."""
    runs = {}
    for line in map(str.strip, workflow_step("Golden CLI bytes without pytest")):
        if line.startswith("g="):
            assert line == "g=tests/golden"
        if line.startswith("golden "):
            name, *args = shlex.split(line)[1:]
            assert name not in runs, name
            runs[name] = [a.removeprefix("$g/") for a in args]
    return runs


def run_workflow_step(name, tmp_path) -> subprocess.CompletedProcess:
    """The ``run: |`` body of a workflow step, run as written by bash -e from
    the repo root, with ``tmp_path`` as ``RUNNER_TEMP`` and this
    interpreter as ``python``."""
    lines = workflow_step(name)
    start = [line.strip() for line in lines].index("run: |") + 1
    body = textwrap.dedent("\n".join(lines[start:]))
    bindir = tmp_path / "bin"
    bindir.mkdir()
    (bindir / "python").symlink_to(sys.executable)
    env = {**os.environ, "RUNNER_TEMP": str(tmp_path), "PATH": f"{bindir}{os.pathsep}{os.environ['PATH']}"}
    root = WORKFLOW.parents[2]
    return subprocess.run(["bash", "-e", "-c", body], cwd=root, env=env, capture_output=True, text=True)


def test_workflow_exit_codes(tmp_path):
    """The workflow's "CLI exit codes" step: every run there ends in its
    documented exit code."""
    run = run_workflow_step("CLI exit codes", tmp_path)
    assert run.returncode == 0, run.stdout + run.stderr


def test_workflow_golden_bytes(tmp_path):
    """The workflow's "Golden CLI bytes without pytest" step: each recording
    `cmp`-equal and both digested runs on their sha256."""
    run = run_workflow_step("Golden CLI bytes without pytest", tmp_path)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.count(": OK\n") == len(DIGESTED), run.stdout


def test_workflow_compares_every_recording():
    """The workflow's list of recordings, COMMANDS and tests/golden/ agree,
    and the workflow checks each digested run's sha256."""
    name, args = BUDGETED
    expected = {**COMMANDS, name: args}
    assert workflow_golden_runs() == expected
    assert {p.stem for p in GOLDEN.glob("*.stdout")} == set(expected)
    for digest, _ in DIGESTED:
        assert f"{digest}  " in WORKFLOW.read_text()
