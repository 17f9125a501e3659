"""CLI stdout pinned byte for byte.

``tests/golden/<name>.stdout`` is the recorded output of command ``<name>``
below, run on the payloads in the same directory.  A change that alters
any of them changes the documented wire format or a result, and must
re-record them on purpose.
"""

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
}


@pytest.mark.parametrize("name", COMMANDS)
def test_stdout_matches_recording(capsys, name):
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in COMMANDS[name]]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()
