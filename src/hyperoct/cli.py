"""Command-line front end.

JSON is the machine output format; --pretty renders small human tables.
Exit codes: 0 success, 1 when a verification or feasibility answer is
negative, 2 for usage or parse errors.

Each command imports the modules it runs when it runs, so a command that
needs no polynomial (every one but ``basis``) never loads ``harmonic`` or
``poly``, and only ``verify`` and ``tight`` load ``moments``.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .numeric import as_rational, format_rational
from .orbit import ConfigError, DesignConfig, orbit_size, orbit_tuples

# The largest `property-g --max`: the command runs the O(n) `property_g` scan for every
# n up to it, so its time grows quadratically (0.2 s in process at 4,000 and 2.9 s at
# 16,000 on Python 3.11, one Xeon core).
PROPERTY_G_MAX = 4000
# The largest `fisher` --n, --p and --t: the bound sums up to p binomials of about t/2 + n
# choose n - 1, so its time grows with all three (0.4 s in process at n = p = t = 4,000 and
# 5.1 s at 10,000 on Python 3.11, one Xeon core).
FISHER_MAX = 4000


def _rational(text: str) -> Fraction:
    try:
        return as_rational(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed rational {text!r} (expected p or p/q)")


def _parse_r2_list(text: str) -> dict[int, Fraction]:
    """Parse 'k=val,k=val' with the failing entry position reported."""
    result: dict[int, Fraction] = {}
    for pos, item in enumerate(text.split(","), start=1):
        item = item.strip()
        if "=" not in item:
            raise argparse.ArgumentTypeError(
                f"--r2 entry {pos} ({item!r}): expected k=value"
            )
        key, _, value = item.partition("=")
        try:
            k = int(key)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"--r2 entry {pos} ({item!r}): bad orbit index {key!r}"
            )
        if k in result:
            raise argparse.ArgumentTypeError(
                f"--r2 entry {pos} ({item!r}): orbit index {k} given twice"
            )
        try:
            result[k] = as_rational(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"--r2 entry {pos} ({item!r}): malformed rational {value!r}"
            )
    return result


def _parse_index_set(text: str) -> list[int]:
    try:
        return sorted({int(part) for part in text.split(",") if part.strip()})
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed index set {text!r} (expected e.g. 1,3)")


def _load_config(path: str) -> DesignConfig:
    with open(path) as handle:
        try:
            data = json.load(handle)
        except RecursionError:
            raise ConfigError("configuration: JSON nested too deeply") from None
        except ValueError as exc:
            # the int-string digit limit raises a plain ValueError; a JSON syntax error or an
            # undecodable byte raises a subclass, whose message names its place
            if type(exc) is not ValueError:
                raise
            limit = sys.get_int_max_str_digits()
            raise ConfigError(f"configuration: an integer has more than {limit} digits, the limit for reading one") from None
    return DesignConfig.from_json_dict(data)


def _cmd_orbit(args) -> tuple[int, dict, list[str]]:
    if not 1 <= args.k <= args.n:
        raise ValueError(f"need 1 <= k <= n, got k={args.k}, n={args.n}")
    size = orbit_size(args.n, args.k)
    data = {"n": args.n, "k": args.k, "count": size}
    if not args.count_only:
        data["points"] = [list(pt) for pt in orbit_tuples(args.n, args.k)]
    return 0, data, [f"|I^{args.n}_{args.k}| = {size}"]


def _cmd_verify(args) -> tuple[int, dict, list[str]]:
    from .moments import first_failure

    failure = first_failure(args.config, args.t)
    data = {
        "t": args.t,
        "is_design": failure is None,
        "first_failure": None,
    }
    if failure is not None:
        data["first_failure"] = {
            "degree": failure.degree,
            "monomial": list(failure.exponents),
            "residual": format_rational(failure.residual),
        }
    verdict = "PASS" if failure is None else f"FAIL at degree {failure.degree}"
    return (0 if failure is None else 1), data, [f"t={args.t}: {verdict}"]


def _cmd_classify(args) -> tuple[int, dict, list[str]]:
    from .strength import classify

    report = classify(args.config)
    lines = [f"strength = {report.strength}"]
    lines += [f"  {eq} = {format_rational(v)}" for eq, v in report.residuals.items()]
    return 0, report.to_json_dict(), lines


def _cmd_solve(args) -> tuple[int, dict, list[str]]:
    from .solver import solve_t5, solve_t7

    result = (solve_t5 if args.t == 5 else solve_t7)(args.n, args.J, args.r2)
    lines = [f"feasible: {result.feasible} ({result.reason})"]
    if result.solution:
        for layer in result.solution.layers:
            lines.append(
                f"  k={layer.k}  r^2={format_rational(layer.r_squared)}  w={format_rational(layer.weight)}"
            )
    return (0 if result.feasible else 1), result.to_json_dict(), lines


def _cmd_property_g(args) -> tuple[int, dict, list[str]]:
    if args.max > PROPERTY_G_MAX:
        raise ValueError(f"--max {args.max} is above the cap {PROPERTY_G_MAX}")
    from .strength import property_g

    values = []
    witnesses = {}
    for n in range(1, args.max + 1):
        witness = property_g(n)
        if witness is not None:
            values.append(n)
            witnesses[str(n)] = list(witness)
    data = {"max": args.max, "values": values, "witnesses": witnesses}
    return 0, data, [", ".join(str(v) for v in values)]


def _cmd_fisher(args) -> tuple[int, dict, list[str]]:
    for option, value in (("--n", args.n), ("--p", args.p), ("--t", args.t)):
        if value > FISHER_MAX:
            raise ValueError(f"{option} {value} is above the cap {FISHER_MAX}")
    from .tight import fisher_bound

    bound = fisher_bound(args.n, args.p, args.t)
    return 0, bound.to_json_dict(), [f"N({args.n},{args.p},{args.t}) = {bound.value}"]


# each family's constructor, by name: ``tight`` is imported only when the command runs
_FAMILIES = {"5-3d": "tight_5_3d", "7-3d": "tight_7_3d", "7-4d": "tight_7_4d"}


def _cmd_tight(args) -> tuple[int, dict, list[str]]:
    from . import tight

    cfg = getattr(tight, _FAMILIES[args.family])(args.r2, args.rho2, args.w)
    certificate = tight.tightness_certificate(cfg)
    lines = [
        f"family {args.family}: size {certificate['size']}, "
        f"strength {certificate['strength_report']['strength']}, "
        f"bound {certificate['fisher_bound']['value']}, "
        f"tight: {certificate['tight']}"
    ]
    return 0, certificate, lines


def _cmd_tau(args) -> tuple[int, dict, list[str]]:
    from .solver import tau_table

    table = tau_table(args.n)
    data = {"n": args.n, "tau": {f"p={p},j={j}": v for (p, j), v in sorted(table.items())}}
    return 0, data, [f"tau(p={p}, j={j}) = {v}" for (p, j), v in sorted(table.items())]


def _cmd_basis(args) -> tuple[int, dict, list[str]]:
    from .harmonic import criterion_basis, full_basis, fully_even_subset

    if args.criterion:
        basis = criterion_basis(args.n, args.s)
        polys = list(basis.elements)
        data = {
            "n": args.n,
            "s": args.s,
            "kind": "criterion",
            "elements": [p.canonical_str() for p in polys],
        }
    else:
        elements = full_basis(args.n, args.s)
        if args.fully_even:
            elements = fully_even_subset(elements)
        data = {
            "n": args.n,
            "s": args.s,
            "kind": "fully-even" if args.fully_even else "full",
            "elements": [
                {"index": list(el.index), "poly": el.poly.canonical_str()} for el in elements
            ],
        }
    return 0, data, [f"{len(data['elements'])} basis elements"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperoct",
        description="Euclidean designs on hyperoctahedral orbits, in exact arithmetic",
    )
    parser.add_argument("--pretty", action="store_true", help="human-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_orbit = sub.add_parser("orbit", help="enumerate one orbit")
    p_orbit.add_argument("--n", type=int, required=True)
    p_orbit.add_argument("--k", type=int, required=True)
    p_orbit.add_argument("--count-only", action="store_true")
    p_orbit.set_defaults(func=_cmd_orbit)

    p_verify = sub.add_parser("verify", help="oracle check of the design property")
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--t", type=int, required=True)
    p_verify.set_defaults(func=_cmd_verify)

    p_classify = sub.add_parser("classify", help="closed-form strength classification")
    p_classify.add_argument("--config", required=True)
    p_classify.set_defaults(func=_cmd_classify)

    p_solve = sub.add_parser("solve", help="weight/radius feasibility")
    p_solve.add_argument("--n", type=int, required=True)
    p_solve.add_argument("--J", type=_parse_index_set, required=True)
    p_solve.add_argument("--t", type=int, choices=(5, 7), required=True)
    p_solve.add_argument("--r2", type=_parse_r2_list, default=None)
    p_solve.set_defaults(func=_cmd_solve)

    p_pg = sub.add_parser("property-g", help="integers whose G form has a zero")
    p_pg.add_argument("--max", type=int, default=100)
    p_pg.set_defaults(func=_cmd_property_g)

    p_fisher = sub.add_parser("fisher", help="minimum-size bound")
    p_fisher.add_argument("--n", type=int, required=True)
    p_fisher.add_argument("--p", type=int, required=True)
    p_fisher.add_argument("--t", type=int, required=True)
    p_fisher.set_defaults(func=_cmd_fisher)

    p_tight = sub.add_parser("tight", help="construct and certify a tight family member")
    p_tight.add_argument("--family", choices=sorted(_FAMILIES), required=True)
    p_tight.add_argument("--r2", type=_rational, required=True)
    p_tight.add_argument("--rho2", type=_rational, required=True)
    p_tight.add_argument("--w", type=_rational, default=Fraction(1))
    p_tight.set_defaults(func=_cmd_tight)

    p_tau = sub.add_parser("tau", help="maximum strengths for one dimension")
    p_tau.add_argument("--n", type=int, required=True)
    p_tau.set_defaults(func=_cmd_tau)

    p_basis = sub.add_parser("basis", help="harmonic basis polynomials")
    p_basis.add_argument("--n", type=int, required=True)
    p_basis.add_argument("--s", type=int, required=True)
    group = p_basis.add_mutually_exclusive_group()
    group.add_argument("--fully-even", action="store_true")
    group.add_argument("--criterion", action="store_true")
    p_basis.set_defaults(func=_cmd_basis)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the interpreter's limit on int-string conversion guards the parsing of every input, the
    # config file included, but not the exact answer; an in-process caller keeps its setting
    digit_limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    try:
        if "config" in args:
            args.config = _load_config(args.config)
        if digit_limit is not None:
            sys.set_int_max_str_digits(0)
        code, data, lines = args.func(args)
        # printed inside the try, so a failed write (a closed pipe) also exits 2 with one error line
        print("\n".join(lines) if args.pretty else json.dumps(data, indent=2))
        return code
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
