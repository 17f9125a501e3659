"""CLI stdout pinned byte for byte.

``tests/golden/<name>.stdout`` is the recorded output of command ``<name>``
below, run on the payloads in the same directory.  A change that alters
any of them changes the documented wire format or a result, and must
re-record them on purpose.
"""

import time
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
    "population_gl31_depth3": ["population", "--input", "gl31.json", "--max-depth", "3", "--samples=-6,-5,1"],
    "space_gl31_depth3": ["space", "--input", "gl31.json", "--max-depth", "3", "--samples=-6,-5,1"],
}


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
    argv = ["population", "--input", str(GOLDEN / "rational_gl21_point_1e50.json"), "--max-depth", "3"]
    start = time.process_time()
    assert main(argv) == 0
    elapsed = time.process_time() - start
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode() == (GOLDEN / "population_rational_gl21_point_1e50_depth3.stdout").read_bytes()
    assert elapsed < 3.0
