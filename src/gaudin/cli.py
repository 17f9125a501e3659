"""Command-line front end.

Exit codes: 0 success, 1 invariant or theorem violation, 2 I/O, parse or
malformed-input error, 3 unsupported regime (atypical data, non-polynomial
weights, unfactorable polynomials, size guards).

Each subcommand has two steps: ``read`` turns the JSON payload and the
options into engine objects, ``run`` computes and returns the output
payload with its success flag.  :func:`main` maps failures to exit codes
once, through :data:`EXIT_CODES`.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import jsonio
from .bethe import (
    BethePoint,
    _conserved,
    _site_fractions,
    _sites,
    bae_check_direct,
    populate,
    verify_r_invariance,
)
from .errors import (
    AtypicalUnsupported,
    DegenerateInput,
    EngineError,
    InvalidInput,
    TooLarge,
    UnsupportedFactorization,
    UnsupportedIrrationalRamification,
    UnsupportedWeight,
)
from .rational import Poly, qq
from .reps import TensorSystem, gl11_module, gl11_spectrum_report
from .spaces import kernel_spaces, space_weight_polys, verify_operator_to_population
from .weights import ParitySequence, ProblemData, Weight

# Errors that mean "malformed payload" when raised while reading it.
# Raised while computing, the Python ones are bugs and propagate, and the
# engine ones go through EXIT_CODES.
MALFORMED = (KeyError, TypeError, ValueError, ZeroDivisionError, DegenerateInput)

# Failures by exit code and stderr label; the first matching row wins.
EXIT_CODES = (
    (OSError, 2, "I/O error"),
    (InvalidInput, 2, "bad input"),
    (
        (AtypicalUnsupported, UnsupportedFactorization, UnsupportedWeight, TooLarge,
         UnsupportedIrrationalRamification),
        3,
        "unsupported",
    ),
    (EngineError, 1, "engine failure"),
)


def _load(path):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _emit(payload, out_path):
    text = jsonio.dumps(payload)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_samples(text):
    return [jsonio.scalar_from_json(part.strip()) for part in text.split(",") if part.strip()]


def read_seed(data, args):
    problem = jsonio.problem_from_json(data["problem"])
    seed = jsonio.point_from_json(problem, data["seed"])
    return seed, _parse_samples(args.samples), args.max_depth


def run_population(seed, samples, max_depth):
    problem = seed.problem
    pop = populate(seed, samples, max_depth=max_depth)
    invariant = verify_r_invariance(pop)
    payload = jsonio.population_to_json(pop)
    payload["R_invariant"] = invariant
    payload["components"] = {
        ",".join(map(str, parity)): len(points)
        for parity, points in pop.by_parity().items()
    }
    if problem.points is not None:
        by_node = {key: _site_fractions(_sites(point), point.ys) for key, point in pop.nodes.items()}
        # population_to_json lists the nodes in pop.nodes order
        payload["eigenvalue_table"] = [
            {
                "node": node,
                "admissible": list(values),
                "eigenvalues": {str(k): jsonio.scalar_to_json(Fraction(*v)) for k, v in values.items()}
                if len(values) == problem.n_points
                else None,
            }
            for node, values in zip(payload["nodes"], by_node.values())
        ]
        payload["eigenvalues_conserved"] = _conserved(pop, by_node)
    else:
        payload["eigenvalue_table"] = None
    return payload, invariant and payload.get("eigenvalues_conserved", True)


def read_check_bae(data, args):
    problem = jsonio.problem_from_json(data["problem"])
    parity = jsonio.parity_from_json(data["parity"])
    tlists = [
        [jsonio.scalar_from_json(t) for t in jsonio.array_from_json(row, "root row")]
        for row in jsonio.array_from_json(data["t"], "t")
    ]
    return problem, parity, tlists


def run_check_bae(problem, parity, tlists):
    satisfied = bae_check_direct(problem, parity, tlists)
    return {"satisfied": satisfied}, satisfied


def read_rpdo_equal(data, args):
    return jsonio.factorization_from_json(data["A"]), jsonio.factorization_from_json(data["B"])


def run_rpdo_equal(fa, fb):
    equal = fa.same_operator(fb)
    return {"equal": equal}, equal


def run_space(seed, samples, max_depth):
    pop = populate(seed, samples, max_depth=max_depth)
    space = kernel_spaces(pop)
    report = verify_operator_to_population(pop, space)
    payload = {
        "space": jsonio.space_to_json(space),
        "TW": [jsonio.poly_to_json(t) for t in space_weight_polys(space)],
        "verification": report,
    }
    return payload, True


def read_gl11_spectrum(data, args):
    points = [jsonio.scalar_from_json(z) for z in jsonio.array_from_json(data["points"], "points")]
    weights = jsonio.array_from_json(data["weights"], "weights")
    rows = [jsonio.array_from_json(row, "weight") for row in weights]
    modules = [gl11_module(jsonio.scalar_from_json(p), jsonio.scalar_from_json(q)) for p, q in rows]
    return (TensorSystem(modules, points),)


def run_gl11_spectrum(system):
    report = gl11_spectrum_report(system)
    return report, report["counts_match"] and report["eigenvalues_match"]


def run_selftest():
    x3m1 = Poly((-1, 0, 0, 1))
    problem = ProblemData(2, 1, [Weight(2, 1, (1, 1, 0))] * 3, ts=[x3m1, x3m1, Poly.one()])
    seed = BethePoint(problem, ParitySequence.standard(2, 1), [Poly.one(), Poly.one()])
    pop = populate(seed, [qq(0), qq(1), qq(2)])
    checks = {
        "population_size": len(pop.nodes),
        "three_components": len(pop.by_parity()) == 3,
        "R_invariant": verify_r_invariance(pop),
        "bijection": verify_operator_to_population(pop)["space_polys_match"],
    }
    return checks, checks["three_components"] and checks["R_invariant"] and checks["bijection"]


# name: (help, read step or None when no input is read, run step)
COMMANDS = {
    "population": ("explore a population and verify invariants", read_seed, run_population),
    "check-bae": ("exact residue check of explicit Bethe roots", read_check_bae, run_check_bae),
    "rpdo-equal": ("compare two complete factorizations", read_rpdo_equal, run_rpdo_equal),
    "space": ("kernel space, weight polynomials, bijection check", read_seed, run_space),
    "gl11-spectrum": ("divisor/eigenvector report for gl(1|1)", read_gl11_spectrum, run_gl11_spectrum),
    "selftest": ("run the built-in worked example", None, run_selftest),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaudin",
        description="Exact Bethe-ansatz population engine for gl(M|N) Gaudin models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, read, run) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if read is not None:
            p.add_argument("--input", default="-", help="input JSON file (default stdin)")
        p.add_argument("--out", default=None, help="output JSON file (default stdout)")
        if read is read_seed:  # the population explorers
            p.add_argument("--max-depth", type=int, default=16)
            p.add_argument("--samples", default="0,1,2", help="comma-separated scalars")
        p.set_defaults(read=read, run=run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.read is None:
            inputs = ()
        else:
            try:
                inputs = args.read(_load(args.input), args)
            except MALFORMED as exc:
                raise InvalidInput(exc) from exc
        payload, ok = args.run(*inputs)
        _emit(payload, args.out)
    except (EngineError, OSError) as exc:
        code, label = next((c, lbl) for types, c, lbl in EXIT_CODES if isinstance(exc, types))
        sys.stderr.write(f"{label}: {exc}\n")
        return code
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
