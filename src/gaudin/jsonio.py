"""JSON wire formats.

Scalars serialize as ``"p/q"`` (or ``"p"`` for integers), polynomials as
ascending coefficient arrays, rational functions as ``{num, den}`` pairs.
All emitters sort keys so identical inputs give byte-identical output.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii
from math import gcd

from .bethe import BethePoint, Population
from .errors import InvalidInput
from .rational import Poly, RatFun, qq
from .skew import CompleteFactorization, DiffOp, OreFraction
from .weights import ParitySequence, ProblemData, Weight


def _int_text(n: int) -> str:
    # str() refuses ints beyond sys.get_int_max_str_digits() digits, a guard
    # meant for parsing; Decimal converts from the binary digits instead
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def scalar_to_json(x: Fraction) -> str:
    x = qq(x)
    num = _int_text(x.numerator)
    return num if x.denominator == 1 else f"{num}/{_int_text(x.denominator)}"


def scalar_from_json(s) -> Fraction:
    # the one parser of wire scalars, for ints and strings p or p/q: an exponent,
    # as in Fraction("1e10000000"), would skip Python's limit on digits parsed;
    # JSON true and false decode to bool, a subclass of int
    text = isinstance(s, str) and re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", s)
    if text or (isinstance(s, int) and not isinstance(s, bool)):
        return Fraction(s)
    raise InvalidInput(f"bad scalar payload: {s!r}")


def _int_from_json(x, what: str) -> int:
    if type(x) is not int:  # not a float, a string, or a bool (a subclass of int)
        raise InvalidInput(f"bad {what} payload: {x!r}")
    return x


def array_from_json(data, what: str) -> list:
    # Python would iterate a string character by character
    if not isinstance(data, list):
        raise InvalidInput(f"bad {what} payload: {data!r}")
    return data


def poly_to_json(p: Poly) -> list[str]:
    den = p.den
    if den == 1:
        return [_int_text(c) for c in p.ints]
    out = []
    for c in p.ints:
        g = gcd(c, den)
        out.append(_int_text(c // g) if g == den else f"{_int_text(c // g)}/{_int_text(den // g)}")
    return out


def poly_from_json(data) -> Poly:
    return Poly([scalar_from_json(c) for c in array_from_json(data, "polynomial")])


def ratfun_to_json(f: RatFun) -> dict:
    return {"num": poly_to_json(f.num), "den": poly_to_json(f.den)}


def ratfun_from_json(data) -> RatFun:
    if not isinstance(data, dict) or "num" not in data:
        raise InvalidInput(f"bad rational-function payload: {data!r}")
    return RatFun(poly_from_json(data["num"]), poly_from_json(data.get("den", ["1"])))


def diffop_to_json(op: DiffOp) -> list[dict]:
    return [ratfun_to_json(c) for c in op.coeffs]


def fraction_to_json(fr: OreFraction) -> dict:
    m = fr.minimal()
    return {"num": diffop_to_json(m.num), "den": diffop_to_json(m.den)}


def parity_from_json(data) -> ParitySequence:
    entries = array_from_json(data, "parity")
    return ParitySequence([_int_from_json(e, "parity entry") for e in entries])


def factorization_from_json(data) -> CompleteFactorization:
    return CompleteFactorization(
        parity_from_json(data["parity"]),
        [ratfun_from_json(a) for a in array_from_json(data["factors"], "factors")],
    )


def problem_to_json(problem: ProblemData) -> dict:
    out = {
        "M": problem.m,
        "N": problem.n,
        "parity": list(ParitySequence.standard(problem.m, problem.n).entries),
        "weights": [[scalar_to_json(c) for c in w.coords] for w in problem.weights],
    }
    if problem.points is not None:
        out["points"] = [scalar_to_json(z) for z in problem.points]
    else:
        out["Ts"] = [poly_to_json(t) for t in problem.ts_standard]
    return out


def problem_from_json(data) -> ProblemData:
    m, n = _int_from_json(data["M"], "M"), _int_from_json(data["N"], "N")
    weights = [
        Weight(m, n, [scalar_from_json(c) for c in array_from_json(row, "weight")])
        for row in array_from_json(data["weights"], "weights")
    ]
    points = data.get("points")
    if points is not None:
        points = [scalar_from_json(z) for z in array_from_json(points, "points")]
    ts = data.get("Ts")
    if ts is not None:
        ts = [poly_from_json(t) for t in array_from_json(ts, "Ts")]
    # the weights and Ts are standard-parity data; no other parity is read
    if "parity" in data and parity_from_json(data["parity"]) != ParitySequence.standard(m, n):
        raise InvalidInput(f"problem parity must be the standard parity of gl({m}|{n})")
    return ProblemData(m, n, weights, points=points, ts=ts)


def point_to_json(point: BethePoint) -> dict:
    return {
        "parity": list(point.parity.entries),
        "ys": [poly_to_json(y) for y in point.ys],
    }


def point_from_json(problem: ProblemData, data) -> BethePoint:
    return BethePoint(
        problem,
        parity_from_json(data["parity"]),
        [poly_from_json(y) for y in array_from_json(data["ys"], "ys")],
    )


def population_to_json(pop: Population) -> dict:
    keys = list(pop.nodes.keys())
    index = {k: i for i, k in enumerate(keys)}
    return {
        "problem": problem_to_json(pop.problem),
        "nodes": [point_to_json(pop.nodes[k]) for k in keys],
        "edges": [
            {
                "from": index[e.source],
                "to": index[e.target],
                "direction": e.direction,
                "kind": e.kind,
                **({"scalar": scalar_to_json(e.scalar)} if e.scalar is not None else {}),
            }
            for e in pop.edges
        ],
        "R": fraction_to_json(pop.operator()),
    }


def space_to_json(space) -> dict:
    return {
        "Vbasis": [ratfun_to_json(f) for f in space.vbasis],
        "Ubasis": [ratfun_to_json(f) for f in space.ubasis],
    }


def dumps(payload) -> str:
    """Indented JSON text of a payload, keys sorted, with a final newline.

    ``Fraction``, ``Poly`` and ``RatFun`` values are written in the wire
    formats above; anything else must be plain JSON data: dicts, lists,
    tuples, strings, ints, bools and None.  Dict keys must be strings (json
    would sort int keys by value, not as text).  Any other key or value
    raises ``TypeError``.  The text is byte for byte that of
    ``json.dumps(payload, sort_keys=True, indent=2, default=_plain) + "\n"``,
    whose encoder runs in pure Python once an indent is set: a two-space
    indent per level, "," at the end of each item but the last, ": "
    after each key, and strings in json's ASCII escapes.
    """
    out: list[str] = []
    _emit(payload, 0, out)
    out.append("\n")
    return "".join(out)


@cache
def _level(depth: int) -> tuple[str, str, str]:
    """Newline and indent after an opening bracket at ``depth``, the item
    separator, and newline and indent before the closing bracket."""
    inner = "\n" + "  " * (depth + 1)
    return inner, "," + inner, "\n" + "  " * depth


def _emit(value, depth: int, out: list) -> None:
    """Append the JSON text of ``value``, nested ``depth`` containers deep.

    Scalars take json's type tests in json's order (a bool is an int, and
    an int is written with ``int.__repr__``); no value is both a scalar and
    a container, so testing containers first changes nothing.  Inside a
    container a str or an exact int is written in place, and a list of
    strings in one join.
    """
    if isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner, sep, close = _level(depth)
        if isinstance(value[0], str) and all(isinstance(v, str) for v in value):
            out.append("[" + inner + sep.join(map(encode_basestring_ascii, value)) + close + "]")
            return
        out.append("[" + inner)
        first = True
        for v in value:
            if first:
                first = False
            else:
                out.append(sep)
            if isinstance(v, str):
                out.append(encode_basestring_ascii(v))
            elif type(v) is int:
                out.append(int.__repr__(v))
            else:
                _emit(v, depth + 1, out)
        out.append(close + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        inner, sep, close = _level(depth)
        out.append("{" + inner)
        first = True
        for key in sorted(value):
            if first:
                first = False
            else:
                out.append(sep)
            v = value[key]
            if isinstance(v, str):
                out.append(encode_basestring_ascii(key) + ": " + encode_basestring_ascii(v))
            elif type(v) is int:
                out.append(encode_basestring_ascii(key) + ": " + int.__repr__(v))
            else:
                out.append(encode_basestring_ascii(key) + ": ")
                _emit(v, depth + 1, out)
        out.append(close + "}")
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        _emit(_plain(value), depth, out)


def _plain(value):
    if isinstance(value, Fraction):
        return scalar_to_json(value)
    if isinstance(value, Poly):
        return poly_to_json(value)
    if isinstance(value, RatFun):
        return ratfun_to_json(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")
