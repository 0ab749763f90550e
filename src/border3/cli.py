"""Command-line surface for batch classification work.

Every verb reads and writes JSON so runs are scriptable and diffable.  Exit
codes: 0 success, 1 malformed input or arguments, 2 classification came back
unknown (only for a core of four or more modes), 3 the rank oracle refused
a search space.  Tensor JSON is ``{"dims": [...], "entries": ["p/q", ...]}``
with entries in row-major order; all scalars are exact.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from json.encoder import encode_basestring_ascii

from .classifier import UNKNOWN, classify, orbit_dimension, stabilizer_dimension
from .equations import strassen_equations, strassen_jacobian_rank
from .limits import chart_limit_plane
from .normal_forms import (
    ORBIT_IDS, grassmann_model, lagrangian_model, orbit_representative,
    segre_model, segre_tensor_from_ambient, sigma2_point, sigma3_point,
    spinor_model,
)
from .rank_oracle import GreaterThan, SearchSpaceError, rank_over_field
from .tensor import loads_tensor, parse_scalar, scalar_str, tensor_to_json

# largest stabilizer matrix (entries x sum of d^2) the stabilizer verb builds:
# sigma3 points with 7 factors (137,781 cells) pass, a 20x20 matrix does not
MAX_STABILIZER_CELLS = 150_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_tensor_arg(path):
    try:
        return loads_tensor(_read_text(path))
    except (OSError, json.JSONDecodeError, ValueError, TypeError,
            OverflowError) as exc:
        raise _UsageError(f"could not read tensor from {path!r}: {exc}")


def _json_text(obj, pad=""):
    """``json.dumps(obj, indent=2)``, written out by recursion, for a value
    nested at indent pad: strings, ints, None, lists and dicts with string
    keys here, anything else by ``json.dumps`` with every line after its
    first indented by pad."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    inner = pad + "  "
    if kind is list:
        if not obj:
            return "[]"
        return ("[\n" + inner + (",\n" + inner).join([_json_text(x, inner) for x in obj])
                + "\n" + pad + "]")
    if kind is dict and all(type(k) is str for k in obj):
        if not obj:
            return "{}"
        return ("{\n" + inner + (",\n" + inner).join(
            [encode_basestring_ascii(k) + ": " + _json_text(v, inner) for k, v in obj.items()])
            + "\n" + pad + "}")
    return json.dumps(obj, indent=2).replace("\n", "\n" + pad)


def _emit(obj):
    print(_json_text(obj))


def _seed_rng():
    text = os.environ.get("BORDER3_SEED", "0")
    try:
        return random.Random(int(text))
    except ValueError:
        raise _UsageError(f"BORDER3_SEED must be an integer, not {text!r}") from None


# -- verb implementations -----------------------------------------------------

def _cmd_classify(args):
    t = _load_tensor_arg(args.tensor)
    report = classify(t)
    _emit(report.as_dict())
    return 2 if report.border_rank_class == UNKNOWN else 0


def _parse_dims(text):
    try:
        dims = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise _UsageError(f"bad dims {text!r}; expected d,d,...")
    if not dims or any(d < 1 for d in dims):
        raise _UsageError(f"bad dims {text!r}; entries must be >= 1")
    return dims


def _cmd_generate(args):
    kind = args.type
    if kind != "orbit" and args.orbit is not None:
        raise _UsageError("--orbit applies only to --type orbit")
    if kind != "iv" and args.factor is not None:
        raise _UsageError("--factor applies only to --type iv")
    dims = _parse_dims(args.dims) if args.dims else None
    n = args.n
    if n is not None and dims is not None and len(dims) != n:
        raise _UsageError("--n and --dims disagree on the number of factors")
    if n is None:
        n = len(dims) if dims is not None else 3
    try:
        if kind == "orbit":
            if args.orbit is None:
                raise _UsageError("--type orbit requires --orbit 34..39")
            if dims is not None and dims != (3, 3, 3):
                raise _UsageError("orbit representatives live at dims 3,3,3")
            t = orbit_representative(args.orbit)
        elif kind == "sigma2":
            t = sigma2_point(n, dims=dims)
        else:
            factor = args.factor if args.factor is not None else 1
            t = sigma3_point(kind, n, dims=dims, factor=factor)
    except (ValueError, OverflowError) as exc:
        raise _UsageError(str(exc))
    _emit(tensor_to_json(t))
    return 0


def _cmd_strassen(args):
    t = _load_tensor_arg(args.tensor)
    try:
        values = strassen_equations(t)
        out = {
            "dims": list(t.dims),
            "values": [scalar_str(v) for v in values],
            "all_zero": not any(values),
        }
        if args.jacobian:
            out["jacobian_rank"] = strassen_jacobian_rank(t)
    except ValueError as exc:
        raise _UsageError(str(exc))
    _emit(out)
    return 0


def _json_int(obj, key, default=None):
    """obj[key] (or the default), which must be a JSON integer: a float, a
    boolean or a string is refused rather than truncated or read as 1."""
    x = obj.get(key, default)
    if type(x) is not int:
        raise ValueError(f"{key!r} must be an integer, not {x!r}")
    return x


def _model_from_json(obj):
    if not isinstance(obj, dict):
        raise ValueError("model must be an object with a 'kind'")
    kind = obj.get("kind")
    if kind == "segre":
        dims = obj["dims"]
        if not isinstance(dims, list) or any(type(d) is not int for d in dims):
            raise ValueError("segre dims must be a list of integers")
        return segre_model(tuple(dims))
    if kind == "grassmann":
        return grassmann_model(_json_int(obj, "k"), _json_int(obj, "n"))
    if kind == "lagrangian":
        return lagrangian_model(_json_int(obj, "k"))
    if kind == "spinor":
        return spinor_model(_json_int(obj, "k"))
    raise ValueError(f"unknown model kind {kind!r}")


def _curve_from_json(obj):
    if not isinstance(obj, list) or not obj:
        raise ValueError("a curve is a nonempty list of coefficient vectors")
    if not all(isinstance(vec, list) for vec in obj):
        raise ValueError("each coefficient vector of a curve must be a list")
    return [tuple(parse_scalar(x) for x in vec) for vec in obj]


def _cmd_limit(args):
    rng = _seed_rng()  # a bad seed is refused before any plane is computed
    try:
        cfg = json.loads(_read_text(args.config))
        model = _model_from_json(cfg["model"])
        curves = [_curve_from_json(c) for c in cfg["curves"]]
        result = chart_limit_plane(model, curves)
    except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError,
            OverflowError) as exc:
        raise _UsageError(f"bad limit config: {exc}")
    out = {
        "degenerate": result.degenerate,
        "orders": list(result.orders),
        "leading_order": result.leading_order,
        "plane": [[scalar_str(x) for x in row] for row in result.plane],
        "sample": None,
    }
    if not result.degenerate:
        coeffs = [rng.randint(1, 97) for _ in result.plane]
        vec = result.sample(coeffs)
        sample = {
            "coefficients": [scalar_str(c) for c in coeffs],
            "vector": [scalar_str(x) for x in vec],
            "classification": None,
        }
        if model.kind == "segre" and len(model.dims) == 3:
            report = classify(segre_tensor_from_ambient(model, vec))
            sample["classification"] = report.as_dict()
        out["sample"] = sample
    _emit(out)
    return 0


def _cmd_rank(args):
    t = _load_tensor_arg(args.tensor)
    try:
        out = rank_over_field(t, args.field, r_max=args.rmax)
    except SearchSpaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        raise _UsageError(str(exc))
    payload = {"field": args.field, "r_max": args.rmax}
    if isinstance(out, GreaterThan):
        payload.update(rank=None, greater_than=out.bound)
    else:
        payload.update(rank=out, greater_than=None)
    _emit(payload)
    return 0


def _cmd_stabilizer(args):
    t = _load_tensor_arg(args.tensor)
    cells = len(t.entries) * sum(d * d for d in t.dims)
    if cells > MAX_STABILIZER_CELLS:
        raise _UsageError(f"stabilizer matrix capped at {MAX_STABILIZER_CELLS} "
                          f"cells; this tensor needs {cells}")
    try:
        stab = stabilizer_dimension(t)
        out = {
            "dims": list(t.dims),
            "stabilizer_dim": stab,
            "orbit_dim": orbit_dimension(t, stab),
        }
    except ValueError as exc:
        raise _UsageError(str(exc))
    _emit(out)
    return 0


# -- argument wiring -----------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _build_parser():
    """(parser, verbs), built once per process: parse_args keeps no state.

    verbs maps each verb to its sub-parser, the one the parser dispatches
    that verb's arguments to."""
    parser = _Parser(
        prog="border3",
        description="Exact classification of tensors of border rank at most three.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("classify", help="classify a tensor from JSON")
    p.add_argument("tensor", nargs="?", default="-",
                   help="tensor JSON file, or - for stdin (default)")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("generate", help="emit a normal-form tensor as JSON")
    p.add_argument("--type", required=True,
                   choices=["sigma2", "i", "ii", "iii", "iv", "orbit"])
    p.add_argument("--n", type=int, help="number of factors (default 3)")
    p.add_argument("--dims", help="comma-separated mode dimensions")
    p.add_argument("--factor", type=int,
                   help="distinguished factor for --type iv (default 1)")
    p.add_argument("--orbit", type=int, choices=list(ORBIT_IDS),
                   help="orbit id for --type orbit")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("strassen", help="evaluate the 27 commutator equations")
    p.add_argument("tensor", nargs="?", default="-")
    p.add_argument("--jacobian", action="store_true",
                   help="also report the Jacobian rank at the tensor")
    p.set_defaults(func=_cmd_strassen)

    p = sub.add_parser("limit", help="limit plane of three curves from a JSON config")
    p.add_argument("config", nargs="?", default="-",
                   help="config JSON: model and three curves")
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser("rank", help="exact rank over a small finite field")
    p.add_argument("tensor", nargs="?", default="-")
    p.add_argument("--field", type=int, required=True, choices=[2, 3, 5])
    p.add_argument("--rmax", type=int, default=6,
                   help="largest rank to certify before reporting greater-than")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted and ignored: the search runs in this process")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("stabilizer", help="stabilizer and orbit dimensions")
    p.add_argument("tensor", nargs="?", default="-")
    p.set_defaults(func=_cmd_stabilizer)

    return parser, sub.choices


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser, verbs = _build_parser()
    try:
        # a known verb's arguments go straight to its sub-parser; help, an
        # empty or unknown verb and its usage text come from the full parser
        verb = verbs.get(argv[0]) if argv else None
        if verb is not None:
            args = verb.parse_args(argv[1:])
        else:
            args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
