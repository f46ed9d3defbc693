"""Command-line interface.

One command per process.  Every report echoes the engine version, the
resolved seed and the raw inputs, so that a stored report identifies its
computation completely; for a fixed (command, seed, engine version) the
output is byte-identical across runs.  Values are printed as exact rational
strings.

Exit codes: 0 success, 1 computation failure (including a failed
validation or a conjecture mismatch), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from typing import Sequence

from .cache import ENGINE_VERSION, default_cache
from .errors import EngineError, UsageError
from .hilb import count_fixed_points, enumerate_fixed_points
from .integrals import (
    c2_for_expected_dim_zero,
    chi_theta,
    expected_dim_pairs,
    parse_chern_expr,
    quot_count,
    validate_construction,
    verify_conjecture,
)
from .tautological import universal_poly, virtual_integral
from .toric import (
    ChernData,
    SplitBundle,
    chi_surface,
    make_surface,
    split_bundle,
    surface_to_json,
)
from .symbolic import DEFAULT_SEED

__all__ = ["main", "parse_chern_expr"]


# ---------------------------------------------------------------------------
# argument helpers


def _surface_from_args(args) -> "ToricSurfaceModel":
    return make_surface(args.surface, getattr(args, "a", None))


def _parse_degrees(text: str, surface) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    if not text or not text.strip():
        return out
    for token in text.split(","):
        token = token.strip()
        try:
            if ":" in token:
                deg = tuple(int(x) for x in token.split(":"))
            else:
                deg = (int(token),)
        except ValueError:
            raise UsageError(f"bad degree token {token!r}") from None
        if len(deg) != surface.divisor_rank:
            raise UsageError(
                f"degree {token!r} has {len(deg)} components; "
                f"{surface.name} needs {surface.divisor_rank}"
            )
        out.append(deg)
    return out


def _split_from_args(surface, plus_text: str, minus_text: str) -> SplitBundle:
    return split_bundle(
        surface,
        _parse_degrees(plus_text, surface),
        _parse_degrees(minus_text, surface),
    )


def _resolve_seed(raw: str) -> int:
    if raw == "random":
        return random.SystemRandom().randrange(1, 2**31)
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"--seed wants an integer or 'random', got {raw!r}") from None


def _c1_from_text(text: str, surface) -> tuple[int, ...]:
    degs = _parse_degrees(text, surface)
    if len(degs) != 1:
        raise UsageError(f"--c1 wants a single degree, got {text!r}")
    return degs[0]


def _report(args, seed: int | None, payload: dict) -> dict:
    skip = {"func", "format", "command"}
    inputs = {k: v for k, v in vars(args).items() if k not in skip}
    out = {
        "command": args.command,
        "engine_version": ENGINE_VERSION,
        "seed": seed,
        "inputs": inputs,
    }
    out.update(payload)
    return out


# ---------------------------------------------------------------------------
# subcommand handlers: each gets (args, resolved seed or None, cache or None)
# and returns (payload, exit code)


def _cmd_surface_info(args, seed, cache):
    surface = _surface_from_args(args)
    return {"surface": surface_to_json(surface)}, 0


def _cmd_fixed_points(args, seed, cache):
    surface = _surface_from_args(args)
    if args.k < 0:
        raise UsageError("--k must be non-negative")
    payload = {"count": count_fixed_points(surface, args.k)}
    if args.list:
        payload["points"] = [
            fp.to_json() for fp in enumerate_fixed_points(surface, args.k)
        ]
    return payload, 0


def _cmd_chi(args, seed, cache):
    surface = _surface_from_args(args)
    bundle = _split_from_args(surface, args.bundle, args.minus)
    return {"value": str(chi_surface(surface, bundle))}, 0


def _cmd_expected_dim(args, seed, cache):
    surface = _surface_from_args(args)
    if args.vstar is not None:
        v = _split_from_args(surface, args.vstar, args.vstar_minus).dual()
    elif args.r is not None and args.c1 is not None and args.c2 is not None:
        v = ChernData(args.r, _c1_from_text(args.c1, surface), args.c2)
    else:
        raise UsageError("give either --vstar or all of --r, --c1, --c2 (for V)")
    return {"value": str(expected_dim_pairs(surface, v, args.k))}, 0


def _cmd_c2_for_zero(args, seed, cache):
    return {"value": str(c2_for_expected_dim_zero(args.r, args.d, args.k))}, 0


def _cmd_validate_construction(args, seed, cache):
    rep = validate_construction(args.r, args.d, args.w)
    payload = {
        "ok": rep.ok,
        "lower": rep.lower,
        "upper": rep.upper,
        "violations": list(rep.violations),
    }
    return payload, 0 if rep.ok else 1


def _cmd_quot_count(args, seed, cache):
    surface = _surface_from_args(args)
    vstar = _split_from_args(surface, args.vstar, args.vstar_minus)
    if vstar.rank < 1:
        raise UsageError("--vstar must describe a bundle of rank >= 1")
    value = quot_count(surface, vstar.dual(), args.k, seed=seed, cache=cache)
    return {"value": str(value)}, 0


def _cmd_chi_theta(args, seed, cache):
    surface = _surface_from_args(args)
    e = _split_from_args(surface, args.e, args.e_minus)
    value = chi_theta(surface, e, args.k, seed=seed, cache=cache)
    return {"value": str(value)}, 0


def _cmd_verify_conjecture(args, seed, cache):
    surface = _surface_from_args(args)
    rows = verify_conjecture(
        surface, args.r, args.d, args.kmax, seed=seed, cache=cache
    )
    ok = all(row.equal is True for row in rows)
    return {"rows": [row.to_json() for row in rows], "all_equal": ok}, 0 if ok else 1


def _cmd_taut_integral(args, seed, cache):
    surface = _surface_from_args(args)
    vstar = _split_from_args(surface, args.vstar, args.vstar_minus)
    if vstar.rank < 1:
        raise UsageError("--vstar must describe a bundle of rank >= 1")
    lam = _split_from_args(surface, args.lam, args.lam_minus)
    expr = parse_chern_expr(args.expr) if args.expr else None
    value = virtual_integral(
        surface, vstar.dual(), lam, args.k, expr, seed=seed, cache=cache
    )
    return {"value": str(value)}, 0


def _cmd_universal_poly(args, seed, cache):
    if args.expr:
        shape = parse_chern_expr(args.expr)
    else:
        shape = args.shape
    poly = universal_poly(
        shape,
        k=args.k,
        rank_v=args.rank_v,
        rank_lam=args.rank_lam,
        expected_dim=args.expected_dim,
        seed=seed,
        cache=cache,
    )
    return {"polynomial": poly.to_json()}, 0


# ---------------------------------------------------------------------------
# parser assembly


def _add_surface(p, default=None):
    p.add_argument(
        "--surface",
        required=default is None,
        default=default,
        choices=("P2", "P1xP1", "Hirzebruch"),
    )
    p.add_argument("--a", type=int, default=None,
                   help="Hirzebruch parameter (required for that family)")


def _add_compute(p):
    p.add_argument("--seed", default=str(DEFAULT_SEED),
                   help="integer, or 'random' for a fresh draw")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--no-cache", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hilbloc",
        description="Exact equivariant integrals on Hilbert schemes of "
        "points on toric surfaces.",
    )
    parser.add_argument("--version", action="version", version=ENGINE_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=handler)
        p.add_argument("--format", choices=("json", "csv", "plain"),
                       default="json")
        return p

    p = cmd("surface-info", _cmd_surface_info, "describe a surface model")
    _add_surface(p)

    p = cmd("fixed-points", _cmd_fixed_points,
            "count (and optionally list) torus-fixed points of X^[k]")
    _add_surface(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--list", action="store_true")

    p = cmd("chi", _cmd_chi, "chi of a split bundle on the surface")
    _add_surface(p)
    p.add_argument("--bundle", required=True,
                   help="comma-separated degrees; a:b pairs on 2D lattices")
    p.add_argument("--minus", default="",
                   help="minus-line degrees for virtual splits")

    p = cmd("expected-dim", _cmd_expected_dim,
            "expected dimension of the pair space")
    _add_surface(p)
    p.add_argument("--vstar", default=None, help="degrees of V*")
    p.add_argument("--vstar-minus", default="")
    p.add_argument("--r", type=int, default=None, help="rank of V")
    p.add_argument("--c1", default=None, help="c1 of V")
    p.add_argument("--c2", type=int, default=None, help="c2 of V")
    p.add_argument("--k", type=int, required=True)

    p = cmd("c2-for-zero", _cmd_c2_for_zero,
            "c2(V*) forcing expected dimension zero on P2")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = cmd("validate-construction", _cmd_validate_construction,
            "check the (r, d, w) bounds for good split constructions")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--w", type=int, required=True)

    p = cmd("quot-count", _cmd_quot_count,
            "integral of c_2k of the tautological bundle of V*")
    _add_surface(p)
    p.add_argument("--vstar", required=True, help="degrees of V*")
    p.add_argument("--vstar-minus", default="")
    p.add_argument("--k", type=int, required=True)
    _add_compute(p)

    p = cmd("chi-theta", _cmd_chi_theta,
            "chi of the determinant line bundle on X^[k]")
    _add_surface(p)
    p.add_argument("--e", default="", help="degrees of e (empty for O)")
    p.add_argument("--e-minus", default="")
    p.add_argument("--k", type=int, required=True)
    _add_compute(p)

    p = cmd("verify-conjecture", _cmd_verify_conjecture,
            "quot vs chi on the expected-dimension-zero family")
    _add_surface(p, default="P2")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    _add_compute(p)

    p = cmd("taut-integral", _cmd_taut_integral,
            "virtual integral over the ambient P x X^[k]")
    _add_surface(p)
    p.add_argument("--vstar", required=True, help="degrees of V*")
    p.add_argument("--vstar-minus", default="")
    p.add_argument("--lambda", dest="lam", default=None,
                   help="degrees of the twist Lambda")
    p.add_argument("--lambda-minus", dest="lam_minus", default="")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--expr", default=None,
                   help="P in c_j(IT); defaults to 1 (the count shape)")
    _add_compute(p)

    p = cmd("universal-poly", _cmd_universal_poly,
            "interpolate an integral shape in intersection numbers")
    p.add_argument("--shape", default="count")
    p.add_argument("--expr", default=None,
                   help="explicit P in c_j(IT), overriding --shape")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--rank-v", type=int, default=2)
    p.add_argument("--rank-lam", type=int, default=0)
    p.add_argument("--expected-dim", type=int, default=0)
    _add_compute(p)

    return parser


# ---------------------------------------------------------------------------
# output


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2))
        return
    envelope = ("command", "engine_version", "seed", "inputs")
    payload = {k: v for k, v in report.items() if k not in envelope}
    if fmt == "csv":
        writer = csv.writer(sys.stdout)
        rows = payload.get("rows")
        if isinstance(rows, list) and rows and isinstance(rows[0], dict):
            header = list(rows[0].keys())
            writer.writerow(header)
            for row in rows:
                writer.writerow([row.get(h) for h in header])
        else:
            keys = list(payload.keys())
            writer.writerow(keys)
            writer.writerow([json.dumps(payload[k]) if isinstance(payload[k], (dict, list)) else payload[k] for k in keys])
        return
    for key, value in payload.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            for row in value:
                print(f"{key}: " + ", ".join(f"{k}={v}" for k, v in row.items()))
        elif isinstance(value, (dict, list)):
            print(f"{key} = {json.dumps(value)}")
        else:
            print(f"{key} = {value}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        computes = hasattr(args, "seed")  # the commands with --seed and --no-cache
        seed = _resolve_seed(args.seed) if computes else None
        cache = default_cache() if computes and not args.no_cache else None
        payload, code = args.func(args, seed, cache)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # a k within MAX_K whose tables do not fit in memory
        print("error: out of memory", file=sys.stderr)
        return 1
    _emit(_report(args, seed, payload), args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
