import hashlib
import io
import json
import random
from fractions import Fraction as Q
from pathlib import Path

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
GOLDEN = Path(__file__).parent / "golden"
GL22 = json.loads((GOLDEN / "gl22.json").read_text())["problem"]
GL32 = json.loads((GOLDEN / "gl32.json").read_text())["problem"]
# at parity (1,-1,1) the sites' weights pair to (1, 0), (3, 0) and (3, -2)
# with (alpha_1, alpha_2); colour 1's equation has a double root at 4 when
# colour 2 has the root 3
GL21_DOUBLE_ROOT = {
    "M": 2,
    "N": 1,
    "weights": [["1", "0", "0"], ["3", "0", "0"], ["1", "1", "1"]],
    "points": ["0", "8", "2"],
}
SATISFIED = '{\n  "satisfied": true\n}\n'
NOT_SATISFIED = '{\n  "satisfied": false\n}\n'


# JSON payloads for the emitter: strings with json's escapes (quotes,
# backslashes, control characters, U+2028/U+2029, astral characters),
# negative and large ints, bools, None, empty and nested dicts, lists and
# tuples, and the engine's Fraction, Poly and RatFun leaves
JSON_TEXT = st.text(
    st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\u2028\u2029\U0001f600\u00e9')),
    max_size=8,
)
WIRE_POLYS = st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=12), max_size=4).map(Poly)
JSON_LEAVES = st.one_of(
    JSON_TEXT,
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    st.booleans(),
    st.none(),
    st.fractions(max_denominator=10**6),
    WIRE_POLYS,
    st.builds(RatFun, WIRE_POLYS, WIRE_POLYS.filter(bool)),
)
JSON_PAYLOADS = st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(JSON_TEXT, inner, max_size=5),
    ),
    max_leaves=25,
)


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

    def test_node_eigenvalues_and_payloads_built_once(self, tmp_path, monkeypatch):
        # the eigenvalue table and the conservation check share one dict of
        # unreduced site fractions per node, and the table reuses the node
        # payloads of the population
        eigen, nodes = [], []
        values, to_json = bethe._site_fractions, jsonio.point_to_json

        def counted(sites, ys):
            eigen.append(ys)
            return values(sites, ys)

        monkeypatch.setattr(bethe, "_site_fractions", counted)
        monkeypatch.setattr(cli, "_site_fractions", counted)
        monkeypatch.setattr(jsonio, "point_to_json", lambda p: nodes.append(p) or to_json(p))
        out = tmp_path / "out.json"
        assert main(["population", "--input", str(GOLDEN / "rational_gl21.json"), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["eigenvalues_conserved"] is True
        assert [row["node"] for row in payload["eigenvalue_table"]] == payload["nodes"]
        assert len(eigen) == len(nodes) == len(payload["nodes"]) > 1

    @pytest.mark.parametrize("shift, conserved", [(0, True), (1, False)])
    def test_conservation_compares_unreduced_site_fractions(self, shift, conserved, monkeypatch, capsys):
        # every node's site fractions scaled by -3, and the seed's
        # numerators shifted: the table prints them reduced, and the
        # conservation check cross-multiplies them
        fractions, seen = cli._site_fractions, []

        def scaled(sites, ys):
            seen.append(ys)
            lift = shift if len(seen) == 1 else 0
            return {k: (-3 * a + lift, -3 * b) for k, (a, b) in fractions(sites, ys).items()}

        monkeypatch.setattr(cli, "_site_fractions", scaled)
        assert main(["population", "--input", str(GOLDEN / "rational_gl21.json")]) == (0 if conserved else 1)
        out = capsys.readouterr().out
        assert json.loads(out)["eigenvalues_conserved"] is conserved
        assert (out == (GOLDEN / "population_rational_gl21.stdout").read_text()) is conserved

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

    def test_space_read_off_a_nonstandard_seed(self, tmp_path):
        # the seed alone fixes W: the printed space and weight polynomials
        # do not depend on how far, or through which samples, it grows
        data = json.loads((GOLDEN / "worked_gl21.json").read_text())
        data["seed"] = {"parity": [1, -1, 1], "ys": [["1"], ["0", "0", "1"]]}
        inp = write(tmp_path, "in.json", data)
        out = tmp_path / "out.json"
        parts = []
        for options in (["--max-depth", "0"], ["--max-depth", "1"], ["--max-depth", "2"], ["--samples=5,7"]):
            assert main(["space", "--input", inp, "--out", str(out)] + options) == 0
            payload = json.loads(out.read_text())
            parts.append((payload["space"], payload["TW"]))
        assert parts[0][1] == data["problem"]["Ts"]
        assert all(part == parts[0] for part in parts)

    def test_space_outside_gl_exit_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(spaces, "is_gl_space", lambda space: (False, ["forced failure"]))
        inp = write(tmp_path, "in.json", {"problem": WORKED_PROBLEM, "seed": WORKED_SEED})
        assert main(["space", "--input", inp]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "forced failure" in captured.err

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

    def test_even_pole_seed_exit_zero(self, tmp_path):
        # y_1 = x - 1/2, the root of (x(x - 1))', is the even part's pole:
        # V = {x(x - 1)/(x - 1/2)}, and the (+,-) node's entry is that denominator
        problem = {"M": 1, "N": 1, "parity": [1, -1], "weights": [["1", "0"], ["1", "0"]], "points": ["0", "1"]}
        seed = {"parity": [1, -1], "ys": [["-1/2", "1"]]}
        inp = write(tmp_path, "in.json", {"problem": problem, "seed": seed})
        out = tmp_path / "out.json"
        assert main(["space", "--input", inp, "--out", str(out), "--max-depth", "3"]) == 0
        payload = json.loads(out.read_text())
        assert payload["space"]["Vbasis"] == [{"den": ["-1/2", "1"], "num": ["0", "-1", "1"]}]
        assert [node["parity"] for node in payload["verification"]["nodes"]] == [[1, -1], [-1, 1]]
        assert all(node["matched"] for node in payload["verification"]["nodes"])
        assert payload["TW"] == [["0", "-1", "1"], ["1"]]

    def test_atypical_gl22_exit_three(self, tmp_path, capsys):
        # four (1) sites on gl(2|2): every weight is atypical
        problem = {"M": 2, "N": 2, "weights": [["1", "0", "0", "0"]] * 4, "points": ["0", "1", "2", "3"]}
        seed = {"parity": [1, 1, -1, -1], "ys": [["1"], ["1"], ["1"]]}
        inp = write(tmp_path, "in.json", {"problem": problem, "seed": seed})
        assert main(["space", "--input", inp, "--max-depth", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "unsupported: kernel spaces need a typical weight sequence\n"

    def test_gl02_vector_sites(self, tmp_path, capsys):
        # two vector modules of gl(0|2), weight (1, 0): polynomial, so the
        # population runs; every gl(0|N) weight is atypical, so the space does not
        problem = {"M": 0, "N": 2, "weights": [["1", "0"], ["1", "0"]], "points": ["0", "1"]}
        seed = {"parity": [-1, -1], "ys": [["1"]]}
        inp = write(tmp_path, "in.json", {"problem": problem, "seed": seed})
        out = tmp_path / "out.json"
        assert main(["population", "--input", inp, "--out", str(out), "--max-depth", "3"]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["nodes"]) == 4
        assert payload["R_invariant"] and payload["eigenvalues_conserved"]
        assert main(["space", "--input", inp, "--max-depth", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "unsupported: kernel spaces need a typical weight sequence\n"


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

    @pytest.mark.parametrize(
        "problem, parity, t, code, out, err",
        [
            (GL22, [1, -1, 1, -1], [[], ["-12"], ["-6"]], 0, SATISFIED, ""),
            (GL22, [1, -1, 1, -1], [[], ["-11"], ["-6"]], 1, NOT_SATISFIED, ""),
            (GL32, [1, 1, -1, 1, -1], [[], ["-6"], ["-4"], []], 0, SATISFIED, ""),
            # colour 1 pairs to zero with itself, and 4 is a double root of
            # its equation: twice is within the multiplicity, three times beyond
            (GL21_DOUBLE_ROOT, [1, -1, 1], [["4", "4"], ["3"]], 0, SATISFIED, ""),
            (GL21_DOUBLE_ROOT, [1, -1, 1], [["4", "4", "4"], ["3"]], 1, NOT_SATISFIED, ""),
            (GL21_DOUBLE_ROOT, [1, -1, 1], [["4"], ["3"]], 1, NOT_SATISFIED, ""),
            (WORKED_PROBLEM, [1, 1, -1], [[], []], 2, "", "bad input: direct residue check needs rational evaluation points\n"),
        ],
        ids=["gl22", "gl22-off-root", "gl32", "double-root", "triple-root", "single-root", "Ts-only"],
    )
    def test_pinned_runs(self, tmp_path, capsys, problem, parity, t, code, out, err):
        inp = write(tmp_path, "in.json", {"problem": problem, "parity": parity, "t": t})
        assert main(["check-bae", "--input", inp]) == code
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (out, err)


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


def seeded_gl11_payload(rng):
    """A random 2-4-site gl(1|1) system with rational weights and points.

    Now and then a module is trivial or a point repeats (exit 2), the
    levels p + q sum to zero (exit 1 on the cancelled degree), or the master
    polynomial has an irreducible cubic factor (exit 3).
    """
    n = rng.randint(2, 4)

    def scalar(dens):
        return Q(rng.randint(-6, 6), rng.choice(dens))

    weights = [[0, 0] if rng.random() < 0.05 else [scalar((1, 1, 2, 3, 7)), scalar((1, 1, 2, 5))] for _ in range(n)]
    if rng.random() < 0.25:
        weights[-1][1] = -weights[-1][0] - sum(p + q for p, q in weights[:-1])
    points = [scalar((1, 1, 1, 2)) for _ in range(n)]
    return {"weights": [[str(p), str(q)] for p, q in weights], "points": [str(z) for z in points]}


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

    def test_cancelling_levels_exit_one(self, tmp_path, capsys):
        # h_1 + h_2 = 0: the master polynomial is 1, and the degree-1
        # singular line (a Bethe root at infinity) has no divisor; pinned
        # as it stands, not fixed
        payload = {"weights": [["3", "-1"], ["-3", "1"]], "points": ["4", "-5"]}
        inp = write(tmp_path, "in.json", payload)
        assert main(["gl11-spectrum", "--input", inp]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["master_poly"] == ["1"]
        assert report["counts_match"] is False
        assert report["eigenvalues_match"] is True
        assert (report["total_divisors"], report["total_eigenlines"]) == (1, 2)

    def test_irreducible_cubic_exit_three(self, tmp_path, capsys):
        payload = {
            "weights": [["-3", "0"], ["0", "-3"], ["-2", "-3"], ["1", "0"]],
            "points": ["-6", "2", "-3", "6"],
        }
        inp = write(tmp_path, "in.json", payload)
        assert main(["gl11-spectrum", "--input", inp]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "unsupported: irreducible factor of degree 3: x^3 - 23/10*x^2 - 162/5*x + 18\n"
        )

    def test_five_sites_exit_three(self, tmp_path, capsys):
        # the n <= 4 guard, pinned so that moving it is a deliberate change
        payload = {"weights": [["1", "0"]] * 5, "points": ["0", "1", "2", "3", "4"]}
        inp = write(tmp_path, "in.json", payload)
        assert main(["gl11-spectrum", "--input", inp]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "unsupported: spectrum report guard: n <= 4\n"

    @staticmethod
    def seeded_digest(monkeypatch, capsys, seed, count):
        """One sha256 over payload, exit code, stdout and stderr of ``count``
        seeded systems, and the exit codes seen."""
        rng = random.Random(seed)
        digest = hashlib.sha256()
        codes = set()
        for _ in range(count):
            text = json.dumps(seeded_gl11_payload(rng))
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            code = main(["gl11-spectrum", "--input", "-"])
            captured = capsys.readouterr()
            digest.update(json.dumps([text, code, captured.out, captured.err]).encode())
            codes.add(code)
        return digest.hexdigest(), sorted(codes)

    def test_seeded_reports_keep_their_bytes(self, monkeypatch, capsys):
        # recorded with the Hamiltonians built on Fractions; the integer
        # build must give the same bytes
        digest, codes = self.seeded_digest(monkeypatch, capsys, "gl11-spectrum bytes", 60)
        assert codes == [0, 1, 2, 3]
        assert digest == "9125473a36dbb769ce624bc7b5b73fcb026583eeec25f65a94b2ff8b480c3980"

    def test_320_seeded_reports_keep_their_bytes(self, monkeypatch, capsys):
        # recorded with the blocks built as Fraction matrices and split by
        # A - lambda I; the integer blocks, split by v X - u I, must give
        # the same bytes
        digest, codes = self.seeded_digest(monkeypatch, capsys, "gl11-spectrum bytes, 320 runs", 320)
        assert codes == [0, 1, 2, 3]
        assert digest == "74287391d7bfd36a5edbfa4f56ee517ad02b0a0bfe99ed6417c65ab83b2f4dc8"


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
# gl(2|1) with two (1,0,0) sites: root configurations that break the
# non-coincidence conditions of the Bethe ansatz
GL21_TWO_SITES = {"M": 2, "N": 1, "parity": [1, 1, -1], "weights": [["1", "0", "0"]] * 2, "points": ["0", "1"]}
# colour 1 fails its Bethe equation, and colour 2, with (alpha_2, alpha_2) = 2
# at parity (-1, 1, 1), repeats a root: the repeat is bad input all the same
GL21_ONE_SITE = {"M": 2, "N": 1, "weights": [["1", "0", "0"]], "points": ["0"]}
# tests/golden/rational_gl21.json's problem with seeds that fail genericity:
# y_2 = x meets the weight-poly ratio, and y_1 = (x - 5)^2 has a repeated root
RATIONAL_GL21 = json.loads((GOLDEN / "rational_gl21.json").read_text())["problem"]
NOT_GENERIC_SEEDS = (
    {"parity": [1, 1, -1], "ys": [["1"], ["0", "1"]]},
    {"parity": [1, 1, -1], "ys": [["25", "-10", "1"], ["1"]]},
)


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
            ("gl11-spectrum", {"weights": [["1", "0"], ["1", "0"]], "points": ["1e3", "2"]}, []),
            ("population", {"problem": WORKED_PROBLEM, "seed": WORKED_SEED}, ["--samples=0.5"]),
            ("population", {"problem": dict(WORKED_PROBLEM, M=2.7), "seed": WORKED_SEED}, []),
            ("check-bae", {"problem": GL21_TWO_SITES, "parity": [1, 1, -1], "t": [["0"], []]}, []),
            ("check-bae", {"problem": GL21_TWO_SITES, "parity": [1, 1, -1], "t": [["5", "5"], []]}, []),
            ("check-bae", {"problem": GL21_TWO_SITES, "parity": [1, 1, -1], "t": [["5"], ["5"]]}, []),
            ("check-bae", {"problem": GL21_ONE_SITE, "parity": [-1, 1, 1], "t": [["-8"], ["-7", "-7"]]}, []),
            ("population", {"problem": RATIONAL_GL21, "seed": NOT_GENERIC_SEEDS[0]}, []),
            ("population", {"problem": RATIONAL_GL21, "seed": NOT_GENERIC_SEEDS[1]}, []),
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
            "gl11-exponent-point",
            "decimal-sample",
            "M-float",
            "root-on-a-point",
            "repeated-root",
            "interacting-roots-coincide",
            "repeated-root-after-failing-colour",
            "not-generic-seed-meets-ratio",
            "not-generic-seed-repeated-root",
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

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()


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

    @given(payload=JSON_PAYLOADS)
    @example(payload={"": [], "\u2028": {}, "b": ("\x00\x1f\"\\", "\U0001f600"), "a": [None, True, False]})
    @example(payload=[-(10**40), 0, [Q(-7, 3), Poly([Q(1, 2), 0, 5])], RatFun(Poly([1, 1]), Poly([0, 2]))])
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    def test_dumps_matches_json_dumps(self, payload):
        expected = json.dumps(payload, sort_keys=True, indent=2, default=jsonio._plain) + "\n"
        assert jsonio.dumps(payload) == expected

    @pytest.mark.parametrize("key", [1, True, None, 1.5, ("a",), Q(1, 2)])
    def test_non_string_key_is_a_type_error(self, key):
        with pytest.raises(TypeError, match="keys must be str"):
            jsonio.dumps({"outer": [{"a": 1, key: 2}]})

    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.stdout")), ids=lambda p: p.stem)
    def test_recordings_reemit_byte_for_byte(self, path):
        text = path.read_text()
        assert jsonio.dumps(json.loads(text)) == text

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
