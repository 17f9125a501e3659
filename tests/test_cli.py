import json
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

from gaudin import bethe, cli, jsonio, spaces
from gaudin.cli import build_parser, main
from gaudin.rational import Poly, RatFun

WORKED_PROBLEM = {
    "M": 2,
    "N": 1,
    "parity": [1, 1, -1],
    "weights": [["1", "1", "0"]] * 3,
    "Ts": [["-1", "0", "0", "1"], ["-1", "0", "0", "1"], ["1"]],
}
WORKED_SEED = {"parity": [1, 1, -1], "ys": [["1"], ["1"]]}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestPopulationCommand:
    def test_worked_example(self, tmp_path, capsys):
        inp = write(tmp_path, "in.json", {"problem": WORKED_PROBLEM, "seed": WORKED_SEED})
        out = tmp_path / "out.json"
        code = main(["population", "--input", inp, "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["R_invariant"] is True
        assert len(payload["components"]) == 3
        assert len(payload["nodes"]) == 12

    def test_deterministic_output(self, tmp_path):
        inp = write(tmp_path, "in.json", {"problem": WORKED_PROBLEM, "seed": WORKED_SEED})
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["population", "--input", inp, "--out", str(out1)]) == 0
        assert main(["population", "--input", inp, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_seed_exit_one(self, tmp_path):
        bad_seed = {"parity": [1, 1, -1], "ys": [["-5", "1"], ["7", "1"]]}
        inp = write(tmp_path, "in.json", {"problem": WORKED_PROBLEM, "seed": bad_seed})
        assert main(["population", "--input", inp]) == 1

    def test_missing_file_exit_two(self, tmp_path, capsys):
        assert main(["population", "--input", str(tmp_path / "nope.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("I/O error: ")

    def test_malformed_exit_two(self, tmp_path):
        inp = write(tmp_path, "in.json", {"problem": {"M": 1}})
        assert main(["population", "--input", inp]) == 2

    def test_eigenvalue_table_with_points(self, tmp_path):
        problem = {
            "M": 1,
            "N": 1,
            "parity": [1, -1],
            "weights": [["1", "0"], ["1", "0"]],
            "points": ["0", "1"],
        }
        seed = {"parity": [1, -1], "ys": [["1"]]}
        inp = write(tmp_path, "in.json", {"problem": problem, "seed": seed})
        out = tmp_path / "out.json"
        assert main(["population", "--input", inp, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["eigenvalues_conserved"] is True
        assert payload["eigenvalue_table"]

    def test_operator_built_once_per_run(self, tmp_path, monkeypatch):
        # the invariance check builds no R; the printed R is the one build
        calls = []
        build = bethe.population_operator
        monkeypatch.setattr(bethe, "population_operator", lambda p: calls.append(p) or build(p))
        inp = write(tmp_path, "in.json", {"problem": WORKED_PROBLEM, "seed": WORKED_SEED})
        assert main(["population", "--input", inp, "--out", str(tmp_path / "out.json")]) == 0
        assert len(calls) == 1

    def test_negative_depth_exit_two(self, tmp_path, capsys):
        inp = write(tmp_path, "in.json", {"problem": WORKED_PROBLEM, "seed": WORKED_SEED})
        assert main(["population", "--input", inp, "--max-depth", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "max_depth" in captured.err


class TestSpaceCommand:
    def test_worked_example(self, tmp_path):
        inp = write(tmp_path, "in.json", {"problem": WORKED_PROBLEM, "seed": WORKED_SEED})
        out = tmp_path / "out.json"
        assert main(["space", "--input", inp, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["verification"]["space_polys_match"] is True
        assert payload["TW"] == WORKED_PROBLEM["Ts"]

    def test_kernel_space_built_once(self, tmp_path, monkeypatch):
        calls = []
        build = spaces.kernel_spaces

        def counted(pop):
            calls.append(pop)
            return build(pop)

        monkeypatch.setattr(cli, "kernel_spaces", counted)
        monkeypatch.setattr(spaces, "kernel_spaces", counted)
        inp = write(tmp_path, "in.json", {"problem": WORKED_PROBLEM, "seed": WORKED_SEED})
        assert main(["space", "--input", inp, "--out", str(tmp_path / "out.json")]) == 0
        assert len(calls) == 1

    def test_atypical_exit_three(self, tmp_path):
        problem = {
            "M": 1,
            "N": 1,
            "parity": [1, -1],
            "weights": [["0", "0"]],
            "points": ["0"],
        }
        seed = {"parity": [1, -1], "ys": [["1"]]}
        inp = write(tmp_path, "in.json", {"problem": problem, "seed": seed})
        assert main(["space", "--input", inp]) == 3


class TestCheckBae:
    def test_satisfied(self, tmp_path):
        problem = {
            "M": 1,
            "N": 1,
            "parity": [1, -1],
            "weights": [["1", "0"], ["1", "0"]],
            "points": ["0", "1"],
        }
        inp = write(
            tmp_path, "in.json", {"problem": problem, "parity": [1, -1], "t": [["1/2"]]}
        )
        assert main(["check-bae", "--input", inp]) == 0

    def test_not_satisfied(self, tmp_path):
        problem = {
            "M": 1,
            "N": 1,
            "parity": [1, -1],
            "weights": [["1", "0"], ["1", "0"]],
            "points": ["0", "1"],
        }
        inp = write(
            tmp_path, "in.json", {"problem": problem, "parity": [1, -1], "t": [["1/3"]]}
        )
        assert main(["check-bae", "--input", inp]) == 1


class TestRpdoEqual:
    def test_equal_pair(self, tmp_path):
        fac = {
            "parity": [1, -1],
            "factors": [
                {"num": ["0", "0", "3"], "den": ["-1", "0", "0", "1"]},
                {"num": ["0"], "den": ["1"]},
            ],
        }
        inp = write(tmp_path, "in.json", {"A": fac, "B": fac})
        assert main(["rpdo-equal", "--input", inp]) == 0

    def test_unequal_pair(self, tmp_path):
        fa = {
            "parity": [1, -1],
            "factors": [{"num": ["0"], "den": ["1"]}, {"num": ["0"], "den": ["1"]}],
        }
        fb = {
            "parity": [1, -1],
            "factors": [{"num": ["1"], "den": ["1"]}, {"num": ["0"], "den": ["1"]}],
        }
        inp = write(tmp_path, "in.json", {"A": fa, "B": fb})
        assert main(["rpdo-equal", "--input", inp]) == 1

    def test_cancelling_pairs(self, tmp_path, capsys):
        # (D - x)(D - x)^(-1) and (D - x)^(-1)(D - x) are both 1
        x = {"num": ["0", "1"], "den": ["1"]}
        fa = {"parity": [1, -1], "factors": [x, x]}
        fb = {"parity": [-1, 1], "factors": [x, x]}
        inp = write(tmp_path, "in.json", {"A": fa, "B": fb})
        assert main(["rpdo-equal", "--input", inp]) == 0
        assert json.loads(capsys.readouterr().out) == {"equal": True}


class TestGl11Spectrum:
    def test_generic(self, tmp_path):
        from conftest import solve_levels_for_roots

        from fractions import Fraction as Q

        zs = [Q(0), Q(1), Q(3)]
        hs = solve_levels_for_roots(zs, [Q(1, 2), Q(2)])
        payload = {
            "weights": [[str(h), "0"] for h in hs],
            "points": [str(z) for z in zs],
        }
        inp = write(tmp_path, "in.json", payload)
        out = tmp_path / "out.json"
        assert main(["gl11-spectrum", "--input", inp, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["total_divisors"] == 4
        assert report["total_eigenlines"] == 4


class TestSelftest:
    def test_runs_clean(self, tmp_path):
        out = tmp_path / "out.json"
        assert main(["selftest", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["population_size"] == 12


GL11_PROBLEM = {
    "M": 1,
    "N": 1,
    "parity": [1, -1],
    "weights": [["1", "0"], ["1", "0"]],
    "points": ["0", "1"],
}
GL11_SEED = {"parity": [1, -1], "ys": [["1"]]}
ONE_FACTOR = {"parity": [1, -1], "factors": [{"num": ["0"]}]}
ZERO_DENOMINATOR = {"parity": [1, -1], "factors": [{"num": ["1"], "den": ["0"]}, {"num": ["0"]}]}
TWO_POINTS_PROBLEM = dict({k: v for k, v in WORKED_PROBLEM.items() if k != "Ts"}, points=["0", "1"])
# tests/golden/rational_gl21.json's problem with a JSON true for one weight coordinate
RATIONAL_GL21_TRUE_COORD = dict(
    TWO_POINTS_PROBLEM, points=["0", "1", "2"], weights=[[True, "1", "0"]] + [["1", "1", "0"]] * 2
)

# the same problem with its first weight row given as a string
RATIONAL_GL21_STRING_ROW = dict(RATIONAL_GL21_TRUE_COORD, weights=["110"] + [["1", "1", "0"]] * 2)
# one coordinate matches M+N = 1, so only the sign of M can reject it
NEGATIVE_M_PROBLEM = {"M": -1, "N": 2, "weights": [["1"]], "points": ["0"]}
NEGATIVE_M_SEED = {"parity": [-1], "ys": []}
# T_1 / T_2 must be a polynomial inside the even block
TS_BLOCK_RATIO = dict(WORKED_PROBLEM, Ts=[["1"], ["-1", "0", "0", "1"], ["1"]])


class TestInputContract:
    @pytest.mark.parametrize(
        "command, payload, options",
        [
            ("population", {"problem": dict(WORKED_PROBLEM, M="x"), "seed": WORKED_SEED}, []),
            ("population", [], []),
            ("space", [], []),
            ("rpdo-equal", [], []),
            ("gl11-spectrum", [], []),
            ("population", {"problem": dict(GL11_PROBLEM, points=["1/0", "1"]), "seed": GL11_SEED}, []),
            ("check-bae", {"problem": GL11_PROBLEM, "parity": [1, -1], "t": [["abc"]]}, []),
            ("gl11-spectrum", {"weights": [["1"]], "points": ["0"]}, []),
            ("population", {"problem": WORKED_PROBLEM, "seed": WORKED_SEED}, ["--samples=abc"]),
            ("population", {"problem": WORKED_PROBLEM, "seed": dict(WORKED_SEED, parity=[1, 1, 1])}, []),
            ("population", {"problem": dict(GL11_PROBLEM, points=["0", "0"]), "seed": GL11_SEED}, []),
            ("check-bae", {"problem": dict(GL11_PROBLEM, points=["0", "0"]), "parity": [1, -1], "t": [["1/2"]]}, []),
            ("gl11-spectrum", {"weights": [["1", "0"], ["1", "0"]], "points": ["0", "0"]}, []),
            ("gl11-spectrum", {"weights": [], "points": []}, []),
            ("rpdo-equal", {"A": ONE_FACTOR, "B": ONE_FACTOR}, []),
            ("rpdo-equal", {"A": ZERO_DENOMINATOR, "B": ZERO_DENOMINATOR}, []),
            ("population", {"problem": TWO_POINTS_PROBLEM, "seed": WORKED_SEED}, []),
            ("population", {"problem": dict(WORKED_PROBLEM, Ts=WORKED_PROBLEM["Ts"][:2]), "seed": WORKED_SEED}, []),
            ("population", {"problem": dict(WORKED_PROBLEM, Ts=WORKED_PROBLEM["Ts"] + [["1"]]), "seed": WORKED_SEED}, []),
            ("population", {"problem": dict(WORKED_PROBLEM, points=["0", "1", "2"]), "seed": WORKED_SEED}, []),
            ("population", {"problem": RATIONAL_GL21_TRUE_COORD, "seed": WORKED_SEED}, []),
            ("population", {"problem": WORKED_PROBLEM, "seed": dict(WORKED_SEED, parity=[True, True, -1])}, []),
            ("check-bae", {"problem": GL11_PROBLEM, "parity": [1, -1], "t": [[True]]}, []),
            ("population", {"problem": dict(GL11_PROBLEM, M=True), "seed": GL11_SEED}, []),
            ("population", {"problem": dict(TWO_POINTS_PROBLEM, points="012"), "seed": WORKED_SEED}, []),
            ("population", {"problem": RATIONAL_GL21_STRING_ROW, "seed": WORKED_SEED}, []),
            ("check-bae", {"problem": dict(GL11_PROBLEM, points=["0", "2"]), "parity": [1, -1], "t": ["1"]}, []),
            ("gl11-spectrum", {"weights": [["1", "0"]] * 3, "points": "012"}, []),
            ("gl11-spectrum", {"weights": ["10", "10", "10"], "points": ["0", "1", "2"]}, []),
            ("gl11-spectrum", {"weights": [[1.5, 0], ["1", "0"]], "points": ["0", "1"]}, []),
            ("population", {"problem": WORKED_PROBLEM, "seed": WORKED_SEED}, ["--samples=0,0,1"]),
            ("population", {"problem": dict(WORKED_PROBLEM, parity=[1, -1, 1]), "seed": WORKED_SEED}, []),
            ("population", {"problem": NEGATIVE_M_PROBLEM, "seed": NEGATIVE_M_SEED}, []),
            ("space", {"problem": NEGATIVE_M_PROBLEM, "seed": NEGATIVE_M_SEED}, []),
            ("check-bae", {"problem": NEGATIVE_M_PROBLEM, "parity": [-1], "t": []}, []),
            ("population", {"problem": dict(NEGATIVE_M_PROBLEM, M=2, N=-1), "seed": {"parity": [1], "ys": []}}, []),
            ("population", {"problem": TS_BLOCK_RATIO, "seed": WORKED_SEED}, []),
            ("space", {"problem": TS_BLOCK_RATIO, "seed": WORKED_SEED}, []),
        ],
        ids=[
            "M-not-int",
            "list-population",
            "list-space",
            "list-rpdo-equal",
            "list-gl11-spectrum",
            "point-1/0",
            "root-abc",
            "gl11-short-weight",
            "samples-abc",
            "seed-parity-111",
            "population-repeated-points",
            "check-bae-repeated-points",
            "gl11-repeated-points",
            "gl11-empty",
            "rpdo-factor-count",
            "rpdo-zero-denominator",
            "two-points-three-weights",
            "two-Ts",
            "four-Ts",
            "Ts-not-of-points",
            "weight-coordinate-true",
            "seed-parity-true",
            "root-true",
            "M-true",
            "points-string",
            "weight-row-string",
            "root-row-string",
            "gl11-points-string",
            "gl11-weight-rows-string",
            "gl11-float-weight",
            "repeated-samples",
            "problem-parity-not-standard",
            "negative-M-population",
            "negative-M-space",
            "negative-M-check-bae",
            "negative-N-population",
            "Ts-block-ratio-population",
            "Ts-block-ratio-space",
        ],
    )
    def test_malformed_payload_exits_two(self, tmp_path, capsys, command, payload, options):
        inp = write(tmp_path, "in.json", payload)
        assert main([command, "--input", inp, *options]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("bad input: ")

    def test_non_polynomial_weight_exits_three(self, tmp_path, capsys):
        problem = dict(WORKED_PROBLEM, weights=[["1/2", "1", "0"]] * 3)
        inp = write(tmp_path, "in.json", {"problem": problem, "seed": WORKED_SEED})
        assert main(["population", "--input", inp]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("unsupported: ")

    def test_root_search_beyond_budget_exits_three(self, tmp_path, capsys):
        # a restricted characteristic polynomial here has 53- and 67-bit
        # scaled end coefficients, out of reach of trial division
        payload = {
            "weights": [["-13/1000", "-39/1000"], ["27/10", "0"], ["-576/125", "0"], ["0", "1"]],
            "points": ["-2", "2", "3", "4"],
        }
        inp = write(tmp_path, "in.json", payload)
        assert main(["gl11-spectrum", "--input", inp]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("unsupported: rational root search")

    def test_unwritable_out_exits_two(self, tmp_path, capsys):
        assert main(["selftest", "--out", str(tmp_path / "no-such-dir" / "x.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("I/O error: ")
        assert "Traceback" not in captured.err

    def test_unserializable_payload_is_a_type_error(self):
        # a run step that returns such a payload has a bug; it is not bad input
        with pytest.raises(TypeError, match="cannot serialize object"):
            jsonio.dumps({"value": object()})

    def test_key_error_while_computing_propagates(self, tmp_path, monkeypatch):
        # only the read step turns Python errors into "bad input"
        def broken(*args, **kwargs):
            raise KeyError("internal")

        monkeypatch.setattr("gaudin.cli.populate", broken)
        inp = write(tmp_path, "in.json", {"problem": WORKED_PROBLEM, "seed": WORKED_SEED})
        with pytest.raises(KeyError, match="internal"):
            main(["population", "--input", inp])


class TestParser:
    @pytest.mark.parametrize(
        "command, options",
        [
            ("population", {"input", "out", "samples", "max_depth"}),
            ("space", {"input", "out", "samples", "max_depth"}),
            ("check-bae", {"input", "out"}),
            ("rpdo-equal", {"input", "out"}),
            ("gl11-spectrum", {"input", "out"}),
            ("selftest", {"out"}),
        ],
    )
    def test_options_per_subcommand(self, command, options):
        args = build_parser().parse_args([command])
        assert set(vars(args)) - {"command", "read", "run"} == options


class TestWireFormat:
    @given(
        coeffs=st.lists(
            st.one_of(
                st.just(Q(0)),
                st.integers(-10**6, 10**6).map(Q),
                st.fractions(min_value=-1000, max_value=1000, max_denominator=999),
            ),
            max_size=8,
        )
    )
    @example(coeffs=[Q(-4), Q(0), Q(0), Q(7), Q(0), Q(-1)])
    @example(coeffs=[Q(1, 6), Q(0), Q(-5, 4), Q(2)])
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    def test_poly_coefficients_as_scalars(self, coeffs):
        p = Poly(coeffs)
        assert jsonio.poly_to_json(p) == [str(c) for c in p.coeffs]

    def test_dumps_bytes(self):
        x = Poly.x()
        payload = {
            "z": [Q(-6, 4), (Q(3), None, True)],
            "a": {
                "poly": Poly([Q(1, 2), 0, Q(-5, 3)]),
                "ratfun": RatFun(2 * x - 1, 4 * x**2),
                "pair": (Poly.zero(), 7),
            },
        }
        assert jsonio.dumps(payload) == (
            '{\n  "a": {\n    "pair": [\n      [],\n      7\n    ],\n'
            '    "poly": [\n      "1/2",\n      "0",\n      "-5/3"\n    ],\n'
            '    "ratfun": {\n      "den": [\n        "0",\n        "0",\n        "1"\n      ],\n'
            '      "num": [\n        "-1/4",\n        "1/2"\n      ]\n    }\n  },\n'
            '  "z": [\n    "-3/2",\n    [\n      "3",\n      null,\n      true\n    ]\n  ]\n}\n'
        )
