"""The benchmark's workloads: one task is one problem solved and verified.

Each workload has two ways to run a task.  ``run`` is what a user does and
is the only path the end-to-end metrics time: ``gaudin.cli.main`` for the
CLI workloads, the library calls for ``gl31_growth``.  ``replay`` makes the
same sequence of public calls inside spans, for the traced run; ``probe``
then re-runs lower layers' public functions on the task's own data.  Both
paths hand their outputs to the same ``check``, which tests meaning (node
counts, invariants, weight polynomials), not bytes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from gaudin import cli, jsonio
from gaudin.bethe import (
    bosonic_reproduce,
    eigenvalue_conservation,
    fermionic_reproduce,
    genericity_check,
    populate,
    population_factorization,
    verify_r_invariance,
)
from gaudin.errors import CriterionFailed, DegenerateReproduction
from gaudin.linalg import charpoly_coeffs, identity, mat_mul, mat_scale, mat_sub, nullspace, solve_matrix
from gaudin.rational import Poly, log_deriv, poly_gcd, rational_roots, wronskian
from gaudin.reps import TensorSystem, gl11_module, gl11_spectrum_report, monic_divisors, singular_space
from gaudin.skew import refactor_to_parity
from gaudin.spaces import (
    flag_from_factorization,
    generating_tuple,
    kernel_spaces,
    space_weight_polys,
    verify_operator_to_population,
)
from gaudin.weights import ParitySequence

import inputs
from spans import NullTracer

CLI_DEFAULTS = cli.build_parser().parse_args(["population"])


@dataclass
class Outcome:
    """What a task produced: exit codes and parsed JSON per step."""

    codes: dict = field(default_factory=dict)
    payloads: dict = field(default_factory=dict)


def run_cli(argv, stdin_text: str) -> tuple[int, str]:
    """``gaudin.cli.main`` in-process, with stdin and stdout in memory."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def parse(raw: dict) -> Outcome:
    outcome = Outcome()
    for step, (code, text) in raw.items():
        outcome.codes[step] = code
        outcome.payloads[step] = json.loads(text) if text else None
    return outcome


def _poly_size(coeffs) -> tuple[int, int]:
    """(degree, largest numerator or denominator bit-length) of a JSON poly."""
    bits = 0
    for c in coeffs:
        q = Fraction(c)
        bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
    return len(coeffs) - 1, bits


def _population_polys(payload):
    for node in payload["nodes"]:
        yield from node["ys"]
    for side in ("num", "den"):
        for coeff in payload["R"][side]:
            yield coeff["num"]
            yield coeff["den"]


def exact_counts(outcome: Outcome, polys) -> dict:
    """Counts a task's output pins down exactly, for the determinism check."""
    degree = bits = 0
    for coeffs in polys:
        d, b = _poly_size(coeffs)
        degree, bits = max(degree, d), max(bits, b)
    counts = {"rational.max_degree": degree, "rational.max_coeff_bits": bits}
    pop = outcome.payloads.get("population")
    if pop is not None:
        counts["bethe.nodes"] = len(pop["nodes"])
        counts["bethe.edges"] = len(pop["edges"])
    return counts


@dataclass
class Item:
    """One task's input, plus what the generator knows about its answer."""

    samples: tuple = ()
    system: dict | None = None
    roots: tuple = ()


@dataclass
class State:
    """Engine objects a replay leaves for the probes and the trace counts."""

    problem_json: dict | None = None
    pop: object = None
    space: object = None
    system: object = None
    report: dict | None = None


# -- probes shared by the population workloads --------------------------------


def probe_bethe(pop, tr) -> None:
    for point in pop.points():
        tr.call("bethe.genericity_check", genericity_check, point)
        s = point.parity
        for i in range(1, len(s)):
            if s[i] == s[i + 1]:
                name, fn = "bethe.bosonic_reproduce", bosonic_reproduce
            else:
                name, fn = "bethe.fermionic_reproduce", fermionic_reproduce
            try:
                tr.call(name, fn, point, i)
            except (CriterionFailed, DegenerateReproduction):
                pass  # populate records these as diagnostics, not errors


def probe_weights(problem_json, pop, tr) -> None:
    fresh = jsonio.problem_from_json(problem_json)  # a cold weight-poly cache
    for parity in sorted({p.parity.entries for p in pop.points()}):
        tr.call("weights.ProblemData.ts_at", fresh.ts_at, ParitySequence(parity))


def probe_rational(pop, tr) -> list:
    """gcds of node entries, log-derivatives of factor primitives."""
    factorizations = []
    for point in pop.points():
        ys = [y for y in point.ys if y.degree > 0]
        for y in ys:
            tr.call("rational.poly_gcd", poly_gcd, y, y.derivative())
        for a, b in itertools.combinations(ys, 2):
            tr.call("rational.poly_gcd", poly_gcd, a, b)
        fac = tr.call("bethe.population_factorization", population_factorization, point)
        for g in fac.primitives:
            tr.call("rational.log_deriv", log_deriv, g)
        factorizations.append(fac)
    return factorizations


# -- worked_gl21 ----------------------------------------------------------------


class WorkedGl21:
    """The paper's worked gl(2|1) problem through the CLI: population, then space."""

    name = "worked_gl21"
    trace_tasks = 2
    stream = 24
    stdin = json.dumps(inputs.WORKED_PROBLEM)
    expected_tw = inputs.WORKED_PROBLEM["problem"]["Ts"]

    def items(self, seed: int, count: int) -> list[Item]:
        return [Item(samples=s) for s in inputs.worked_samples(seed, count)]

    def run(self, item: Item) -> dict:
        arg = "--samples=" + ",".join(str(c) for c in item.samples)
        return {
            step: run_cli([step, "--input", "-", arg], self.stdin)
            for step in ("population", "space")
        }

    def replay(self, item: Item, tr) -> tuple[dict, State]:
        data = inputs.WORKED_PROBLEM
        samples = [Fraction(c) for c in item.samples]
        state = State(problem_json=data["problem"])

        def load():
            problem = tr.call("jsonio.problem_from_json", jsonio.problem_from_json, data["problem"])
            if problem.points is not None:
                raise ValueError("replay mirrors the CLI only for problems given by Ts")
            seed = tr.call("jsonio.point_from_json", jsonio.point_from_json, problem, data["seed"])
            return tr.call("bethe.populate", populate, seed, samples, max_depth=CLI_DEFAULTS.max_depth)

        pop = load()
        invariant = tr.call("bethe.verify_r_invariance", verify_r_invariance, pop)
        payload = tr.call("jsonio.population_to_json", jsonio.population_to_json, pop)
        payload["R_invariant"] = invariant
        payload["components"] = {
            ",".join(map(str, parity)): len(points) for parity, points in pop.by_parity().items()
        }
        payload["eigenvalue_table"] = None
        raw = {"population": (0 if invariant else 1, tr.call("jsonio.dumps", jsonio.dumps, payload))}
        state.pop = pop

        pop = load()
        space = tr.call("spaces.kernel_spaces", kernel_spaces, pop)
        report = tr.call("spaces.verify_operator_to_population", verify_operator_to_population, pop)
        payload = {
            "space": tr.call("jsonio.space_to_json", jsonio.space_to_json, space),
            "TW": [
                jsonio.poly_to_json(t)
                for t in tr.call("spaces.space_weight_polys", space_weight_polys, space)
            ],
            "verification": report,
        }
        raw["space"] = (0, tr.call("jsonio.dumps", jsonio.dumps, payload))
        state.space = space
        return raw, state

    def probe(self, item: Item, state: State, tr) -> None:
        pop, space = state.pop, state.space
        probe_bethe(pop, tr)
        probe_weights(state.problem_json, pop, tr)
        standard = ParitySequence.standard(pop.problem.m, pop.problem.n)
        base = None
        for fac in probe_rational(pop, tr):
            fraction = tr.call("skew.CompleteFactorization.to_fraction", fac.to_fraction)
            tr.call("skew.refactor_to_parity", refactor_to_parity, fac, standard)
            if base is None:
                base = fraction
            else:
                tr.call("skew.OreFraction.same_operator", fraction.same_operator, base)
            flag = tr.call("spaces.flag_from_factorization", flag_from_factorization, space, fac)
            tr.call("spaces.generating_tuple", generating_tuple, space, flag)
        basis = list(space.vbasis) + list(space.ubasis)
        for k in range(1, len(basis) + 1):
            for subset in itertools.combinations(basis, k):
                tr.call("rational.wronskian", wronskian, subset)

    def polys(self, outcome: Outcome):
        yield from _population_polys(outcome.payloads["population"])
        space = outcome.payloads["space"]
        for part in ("Vbasis", "Ubasis"):
            for f in space["space"][part]:
                yield f["num"]
                yield f["den"]
        yield from space["TW"]

    def check(self, item: Item, outcome: Outcome) -> list[str]:
        problems = [f"{step} exited {code}" for step, code in outcome.codes.items() if code != 0]
        pop, space = outcome.payloads["population"], outcome.payloads["space"]
        if pop is None or space is None:
            return problems + ["missing output"]
        if len(pop["nodes"]) != 12 or len(pop["edges"]) != 19:
            problems.append(f"population has {len(pop['nodes'])} nodes, {len(pop['edges'])} edges")
        if sorted(pop["components"].values()) != [4, 4, 4]:
            problems.append(f"components {pop['components']}")
        if pop["R_invariant"] is not True:
            problems.append("R not invariant")
        if space["TW"] != self.expected_tw:
            problems.append(f"TW = {space['TW']}")
        if space["verification"]["space_polys_match"] is not True:
            problems.append("space weight polynomials do not match the problem")
        nodes = space["verification"]["nodes"]
        if len(nodes) != 12 or not all(n["matched"] is True for n in nodes):
            problems.append("verification did not match every node")
        return problems


# -- gl31_growth ----------------------------------------------------------------


class Gl31Growth:
    """The runaway gl(3|1) problem through the library, depth-capped."""

    name = "gl31_growth"
    trace_tasks = 3
    stream = 48

    def items(self, seed: int, count: int) -> list[Item]:
        return [Item(samples=s) for s in inputs.gl31_samples(seed, count)]

    def replay(self, item: Item, tr) -> tuple[dict, State]:
        problem = tr.call("jsonio.problem_from_json", jsonio.problem_from_json, inputs.GL31_PROBLEM)
        seed = tr.call("jsonio.point_from_json", jsonio.point_from_json, problem, inputs.GL31_SEED)
        samples = [Fraction(c) for c in item.samples]
        pop = tr.call("bethe.populate", populate, seed, samples, max_depth=inputs.GL31_MAX_DEPTH)
        conserved = tr.call("bethe.eigenvalue_conservation", eigenvalue_conservation, pop)
        payload = tr.call("jsonio.population_to_json", jsonio.population_to_json, pop)
        payload["eigenvalues_conserved"] = conserved
        text = tr.call("jsonio.dumps", jsonio.dumps, payload)
        return {"population": (0, text)}, State(problem_json=inputs.GL31_PROBLEM, pop=pop)

    def run(self, item: Item) -> dict:
        return self.replay(item, NullTracer())[0]

    def probe(self, item: Item, state: State, tr) -> None:
        probe_bethe(state.pop, tr)
        probe_weights(state.problem_json, state.pop, tr)
        probe_rational(state.pop, tr)

    def polys(self, outcome: Outcome):
        yield from _population_polys(outcome.payloads["population"])

    def check(self, item: Item, outcome: Outcome) -> list[str]:
        pop = outcome.payloads["population"]
        if pop is None:
            return ["missing output"]
        problems = []
        if pop["eigenvalues_conserved"] is not True:
            problems.append("eigenvalues not conserved")
        if len(pop["nodes"]) != inputs.GL31_NODES or len(pop["edges"]) != inputs.GL31_EDGES:
            problems.append(
                f"population has {len(pop['nodes'])} nodes, {len(pop['edges'])} edges;"
                f" recorded {inputs.GL31_NODES}, {inputs.GL31_EDGES}"
            )
        size = len(pop["nodes"])
        if any(not (0 <= e["from"] < size and 0 <= e["to"] < size) for e in pop["edges"]):
            problems.append("edge endpoint is not a node")
        return problems


# -- gl11_spectra ---------------------------------------------------------------


class Gl11Spectra:
    """Seeded 4-site gl(1|1) systems through ``gaudin gl11-spectrum``."""

    name = "gl11_spectra"
    trace_tasks = 40
    stream = 240

    def items(self, seed: int, count: int) -> list[Item]:
        return [
            Item(system={"weights": s["weights"], "points": s["points"]}, roots=tuple(s["roots"]))
            for s in inputs.gl11_samples(seed, count)
        ]

    def run(self, item: Item) -> dict:
        return {"gl11-spectrum": run_cli(["gl11-spectrum", "--input", "-"], json.dumps(item.system))}

    def replay(self, item: Item, tr) -> tuple[dict, State]:
        data = item.system
        points = [jsonio.scalar_from_json(z) for z in data["points"]]
        modules = [
            gl11_module(jsonio.scalar_from_json(str(p)), jsonio.scalar_from_json(str(q)))
            for p, q in data["weights"]
        ]
        system = TensorSystem(modules, points)
        report = tr.call("reps.gl11_spectrum_report", gl11_spectrum_report, system)
        text = tr.call("jsonio.dumps", jsonio.dumps, report)
        code = 0 if report["counts_match"] and report["eigenvalues_match"] else 1
        return {"gl11-spectrum": (code, text)}, State(system=system, report=report)

    def probe(self, item: Item, state: State, tr) -> None:
        modules = state.system.modules
        system = TensorSystem(modules, state.system.points)  # cold Hamiltonian caches
        master = state.report["master_poly"]
        tr.call("reps.monic_divisors", monic_divisors, master)
        tr.call("rational.rational_roots", rational_roots, master)
        ps = [m.weight.coords[0] for m in modules]
        qs = [m.weight.coords[1] for m in modules]
        hams = [
            tr.call("reps.TensorSystem.hamiltonian", system.hamiltonian, k)
            for k in range(1, len(modules) + 1)
        ]
        parity = ParitySequence.standard(1, 1)
        for l in range(len(modules)):
            weight = (sum(ps) - l, sum(qs) + l)
            sing = tr.call("reps.singular_space", singular_space, system, parity, weight)
            if not sing:
                continue
            basis = [[v[i] for v in sing] for i in range(system.dim)]
            for ham in hams:
                restricted = tr.call("linalg.solve_matrix", solve_matrix, basis, mat_mul(ham, basis))
                coeffs = tr.call("linalg.charpoly_coeffs", charpoly_coeffs, restricted)
                roots, _ = tr.call("rational.rational_roots", rational_roots, Poly(coeffs))
                for root, _ in roots:
                    shifted = mat_sub(restricted, mat_scale(identity(len(restricted)), root))
                    tr.call("linalg.nullspace", nullspace, shifted)

    def polys(self, outcome: Outcome):
        report = outcome.payloads["gl11-spectrum"]
        yield report["master_poly"]
        for entry in report["weights"]:
            yield from entry["divisor_polys"]

    def check(self, item: Item, outcome: Outcome) -> list[str]:
        code = outcome.codes["gl11-spectrum"]
        report = outcome.payloads["gl11-spectrum"]
        problems = [f"gl11-spectrum exited {code}"] if code != 0 else []
        if report is None:
            return problems + ["missing output"]
        for key in ("counts_match", "eigenvalues_match"):
            if report[key] is not True:
                problems.append(f"{key} is {report[key]}")
        if not report["total_divisors"] == report["total_eigenlines"] == 8:
            problems.append(
                f"{report['total_divisors']} divisors, {report['total_eigenlines']} eigenlines"
            )
        if report["jordan_defect"] is not False:
            problems.append("Jordan defect")
        expected = Poly.from_roots([Fraction(t) for t in item.roots])
        if report["master_poly"] != jsonio.poly_to_json(expected):
            problems.append(f"master polynomial {report['master_poly']}")
        return problems


WORKLOADS = {w.name: w for w in (WorkedGl21(), Gl31Growth(), Gl11Spectra())}
