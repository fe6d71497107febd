"""Deterministic command-line surface over the verification modules.

Exit codes follow a strict contract: 0 means every requested check passed,
1 means a mathematical statement was checked and found false, 2 means the
request itself was unusable (bad flags, bad input file, excluded level).
The JSON output mode is key-sorted and schema-versioned so CI pipelines can
diff runs byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction as Q
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .bilinear import (central_charge_sc_direct, central_charges,
                       conformal_weight_plus, gram_G, gram_G_star, gram_g,
                       gram_g_star, level_params, sc_weight_to_af,
                       weight_to_sc)
from .charflow import (fermionize_character, flow_af_equivariance_diff,
                       flow_sc_equivariance_diff, roundtrip_check,
                       validate_seed)
from .latticekit import (build_E_minus_lattice, build_E_plus_lattice,
                         build_L_minus, build_L_plus, build_Qsc_dual_lattice,
                         discriminant_group, f_af, g_sc_plus)
from .opecalc import (verify_Hminus_heisenberg, verify_Jalpha_heisenberg,
                      verify_fst_homomorphism)
from .ratlinalg import mat_mul, parse_rational
from .rootsys import build_root_system, check_hvee_identity

SCHEMA = "cosetlab/1"


def _rat(x) -> str:
    return str(Q(x))


def _vec_str(v: Sequence) -> str:
    return ",".join(_rat(x) for x in v)


def _mat_json(rows) -> List[List[str]]:
    return [[_rat(x) for x in row] for row in rows]


def _mat_lines(rows, indent: str = "  ") -> List[str]:
    return [indent + " ".join(_rat(x) for x in row) for row in rows]


def _is_identity(m) -> bool:
    return all(x == (1 if i == j else 0)
               for i, row in enumerate(m) for j, x in enumerate(row))


def _parse_vector(text: str, length: int, what: str) -> Tuple[Q, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != length:
        raise ValueError(f"{what} needs {length} comma-separated entries")
    return tuple(parse_rational(p, what) for p in parts)


def _parse_int_vector(text: str, length: int, what: str) -> Tuple[int, ...]:
    v = _parse_vector(text, length, what)
    if any(x.denominator != 1 for x in v):
        raise ValueError(f"{what} must have integer entries")
    return tuple(int(x) for x in v)


def _header(args, rs, **fields) -> dict:
    """A JSON report: the fields every command shares, then the given ones.

    rs is anything with ``family`` and ``rank``: a root system or a character.
    """
    return {"schema": SCHEMA, "command": f"{args.group} {args.action}",
            "type": rs.family, "rank": rs.rank, **fields}


def _rs_at_level(args):
    """The root system of --type/--rank and the parameters of --level."""
    rs = build_root_system(args.type, args.rank)
    return rs, level_params(rs, parse_rational(args.level, "--level"))


def _load_seed(path: str):
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except RecursionError:
        raise ValueError("bad seed file: JSON nested too deeply") from None
    report = validate_seed(raw)
    if report.problems:
        raise ValueError("bad seed file: " + "; ".join(report.problems))
    return report.character


def _seed_request(args):
    """The seed character, --T, and --weight (the seed's base by default)."""
    ch = _load_seed(args.seed)
    T = parse_rational(args.T, "--T")
    if args.weight is None:
        return ch, T, ch.base
    return ch, T, _parse_vector(args.weight, ch.rank, "--weight")


def _diff_report(args, ch, mu, T, diffs: Dict, verdict: str, **fields):
    """Report of a weight-keyed map of (compare order, diff terms); ok when
    no weight differs.  verdict names the comparison on the summary line."""
    ok = all(not terms for _, terms in diffs.values())
    entries = []
    lines = [
        f"seed {ch.family}{ch.rank} at level {_rat(ch.level)},"
        f" {len(ch.strings)} strings",
        f"{verdict} to order {_rat(T)}: {'ok' if ok else 'FAIL'}",
    ]
    for key in sorted(diffs):
        order, terms = diffs[key]
        entries.append({
            "weight": [_rat(x) for x in key],
            "compare_order": None if order is None else _rat(order),
            "diff_terms": [{"exp": _rat(e), "coef": _rat(c)}
                           for e, c in terms],
        })
        tag = "unbounded" if order is None else f"to order {_rat(order)}"
        body = " ".join(f"{_rat(c)}*q^{_rat(e)}" for e, c in terms)
        lines.append(f"  weight {_vec_str(key)} ({tag}): "
                     + (f"DIFF {body}" if terms else "ok"))
    payload = _header(args, ch, level=_rat(ch.level),
                      reference_weight=[_rat(x) for x in mu],
                      truncation_order=_rat(T), ok=ok, weights=entries,
                      **fields)
    return ok, payload, lines


# Each cmd_* handler returns (ok, JSON payload, text lines); main renders
# one of them and maps ok to exit code 0 or 1.

def cmd_rootsys_info(args):
    rs = build_root_system(args.type, args.rank)
    witnesses = [check_hvee_identity(rs, rs.fundamental_weight(i))
                 for i in range(rs.rank)]
    ok = all(w.ok for w in witnesses)
    payload = _header(
        args, rs,
        num_positive=rs.num_positive,
        dual_coxeter=rs.dual_coxeter,
        simply_laced=rs.is_simply_laced,
        positive_roots=[list(a) for a in rs.positive_roots],
        long_root_gram=_mat_json(rs.long_root_gram()),
        hvee_identity_ok=ok,
    )
    lines = [
        f"type           {rs.family}{rs.rank}",
        f"rank (l)       {rs.rank}",
        f"positive (N)   {rs.num_positive}",
        f"dual coxeter   {rs.dual_coxeter}",
        f"simply laced   {'yes' if rs.is_simply_laced else 'no'}",
        "positive roots:",
    ]
    lines += [f"  {_vec_str(a)}" for a in rs.positive_roots]
    lines.append("long-root gram:")
    lines += _mat_lines(rs.long_root_gram())
    lines.append("hvee identity on fundamental weights: "
                 + ("ok" if ok else "FAIL"))
    return ok, payload, lines


def cmd_forms_verify(args):
    rs, lp = _rs_at_level(args)
    g = gram_g(rs, lp.k)
    g_star = gram_g_star(rs, lp.k)
    big_g = gram_G(rs, lp.k)
    big_g_star = gram_G_star(rs, lp.k)
    c_af, c_sc = central_charges(rs, lp.k)
    checks = {
        "g_times_g_star_is_identity": _is_identity(mat_mul(g, g_star)),
        "G_times_G_star_is_identity": _is_identity(mat_mul(big_g, big_g_star)),
        "central_charge_formulas_agree":
            c_sc == central_charge_sc_direct(rs, lp.k),
    }
    payload = _header(
        args, rs,
        level=_rat(lp.k),
        checks=checks,
        central_charges={"af": _rat(c_af), "sc": _rat(c_sc)},
        matrices={
            "g": _mat_json(g),
            "g_star": _mat_json(g_star),
            "G": _mat_json(big_g),
            "G_star": _mat_json(big_g_star),
        },
    )
    lines = [f"{rs.family}{rs.rank} at level {_rat(lp.k)}"]
    for name, value in sorted(checks.items()):
        lines.append(f"  {name}: {'ok' if value else 'FAIL'}")
    lines.append(f"  c_af = {_rat(c_af)}, c_sc = {_rat(c_sc)}")
    return all(checks.values()), payload, lines


def cmd_weights_map(args):
    rs, lp = _rs_at_level(args)
    mu = _parse_vector(args.weight, rs.rank, "--weight")
    sc = weight_to_sc(rs, lp.k, mu)
    back = sc_weight_to_af(rs, lp.k, sc)
    ok = tuple(back) == tuple(Q(x) for x in mu)
    payload = _header(
        args, rs,
        level=_rat(lp.k),
        weight=[_rat(x) for x in mu],
        j_values=[_rat(x) for x in sc.j_values],
        jstar_values=[_rat(x) for x in sc.jstar_values(rs)],
        in_Qsc=sc.in_Qsc(rs),
        conformal_weight=_rat(conformal_weight_plus(rs, lp.k, mu)),
        roundtrip_ok=ok,
    )
    lines = [
        f"{rs.family}{rs.rank} at level {_rat(lp.k)}",
        f"weight          {_vec_str(mu)}",
        f"J values        {_vec_str(sc.j_values)}",
        f"J* values       {_vec_str(sc.jstar_values(rs))}",
        f"in Q_sc         {'yes' if sc.in_Qsc(rs) else 'no'}",
        f"conformal (D+)  {_rat(conformal_weight_plus(rs, lp.k, mu))}",
        f"round trip      {'ok' if ok else 'FAIL'}",
    ]
    return ok, payload, lines


# a tuple, not a dict, so that wrappers installed over these names (see
# bench/tracer.py) reach this table too
_LATTICES = (
    ("l-plus", build_L_plus),
    ("l-minus", build_L_minus),
    ("qsc-dual", build_Qsc_dual_lattice),
    ("e-plus", build_E_plus_lattice),
    ("e-minus", build_E_minus_lattice),
)


def cmd_lattice_disc(args):
    rs = build_root_system(args.type, args.rank)
    needs_level = args.lattice in ("e-plus", "e-minus")
    if needs_level and args.level is None:
        raise ValueError(f"lattice {args.lattice} needs --level")
    if not needs_level and args.level is not None:
        raise ValueError(f"lattice {args.lattice} does not take --level")
    build = dict(_LATTICES)[args.lattice]
    if needs_level:
        lat = build(rs, parse_rational(args.level, "--level"))
    else:
        lat = build(rs)
    divisors = discriminant_group(lat)
    order = math.prod(divisors)
    ok = True
    expected = None
    if args.expect is not None:
        if args.expect == "none":
            expected = []
        else:
            n = len(args.expect.split(","))
            expected = list(_parse_int_vector(args.expect, n, "--expect"))
        ok = expected == divisors
    payload = _header(
        args, rs,
        lattice=args.lattice,
        lattice_rank=lat.rank,
        signature=lat.signature,
        gram=[list(row) for row in lat.gram],
        elementary_divisors=divisors,
        expected_divisors=expected,
        group_order=order,
        ok=ok,
    )
    lines = [
        f"lattice {lat.name} over {rs.family}{rs.rank}",
        f"rank       {lat.rank}",
        f"signature  {lat.signature}",
        "gram:",
    ]
    lines += _mat_lines(lat.gram)
    lines.append("elementary divisors: "
                 + (" ".join(str(d) for d in divisors) if divisors else "none"))
    lines.append(f"group order: {order}")
    if expected is not None:
        lines.append("expected divisors: "
                     + (" ".join(str(d) for d in expected) if expected
                        else "none"))
        lines.append(f"match: {'ok' if ok else 'FAIL'}")
    return ok, payload, lines


_OPE_CHECKS = (
    ("jalpha", verify_Jalpha_heisenberg),
    ("hminus", verify_Hminus_heisenberg),
    ("fst", verify_fst_homomorphism),
)


def cmd_ope_verify(args):
    rs, lp = _rs_at_level(args)
    reports = [fn(rs, lp.k) for name, fn in _OPE_CHECKS
               if args.check in (name, "all")]
    ok = all(r.ok for r in reports)
    payload = _header(args, rs, level=_rat(lp.k), ok=ok,
                      reports=[r.to_json_dict() for r in reports])
    lines = [f"{rs.family}{rs.rank} at level {_rat(lp.k)}"]
    for r in reports:
        lines.append(f"  {r.name}: {'ok' if r.ok else 'FAIL'}"
                     f" ({r.checks} checks)")
        for d in r.diffs:
            lines.append(f"    [{d.left}][{d.right}] pole {d.pole}:"
                         f" expected {d.expected}, got {d.got}")
    return ok, payload, lines


def cmd_char_roundtrip(args):
    ch, T, mu = _seed_request(args)
    result = roundtrip_check(ch, mu, ch.level, T)
    return _diff_report(args, ch, mu, T, result.diffs,
                        f"round trip at weight {_vec_str(mu)}")


def cmd_flow_check(args):
    ch, T, mu = _seed_request(args)
    gamma = _parse_int_vector(args.gamma, ch.rank, "--gamma")
    if args.side == "sc":
        diffs = flow_sc_equivariance_diff(ch, mu, gamma, T)
    else:
        rs = build_root_system(ch.family, ch.rank)
        sc_ch = fermionize_character(ch, mu, T)
        gamma_sc = g_sc_plus(rs, ch.level, f_af(rs, gamma, "+"))
        mu_sc = weight_to_sc(rs, ch.level, mu)
        diffs = flow_af_equivariance_diff(sc_ch, mu_sc, gamma_sc, T,
                                          input_floor=T)
    gamma_out = [str(x) for x in gamma]
    return _diff_report(args, ch, mu, T, diffs,
                        f"flow equivariance ({args.side} side) for gamma"
                        f" {','.join(gamma_out)}",
                        side=args.side, gamma=gamma_out)


def _add_rs_flags(sp, with_level: bool) -> None:
    sp.add_argument("--type", required=True, help="family label, e.g. A or G")
    sp.add_argument("--rank", type=int, required=True)
    if with_level:
        sp.add_argument("--level", required=True,
                        help="exact rational, e.g. 1 or 5/3")
    sp.add_argument("--format", choices=("text", "json"), default="text")


def _add_seed_flags(sp, with_flow: bool) -> None:
    sp.add_argument("--seed", required=True, help="seed JSON path")
    if with_flow:
        sp.add_argument("--side", required=True, choices=("sc", "af"))
        sp.add_argument("--gamma", required=True,
                        help="flow parameter as root-lattice coordinates")
    sp.add_argument("--T", required=True,
                    help="truncation order, exact rational")
    sp.add_argument("--weight", default=None,
                    help="reference weight, defaults to the seed base")
    sp.add_argument("--format", choices=("text", "json"), default="text")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosetlab",
        description="exact verification toolkit for coset free-field data")
    groups = parser.add_subparsers(dest="group", required=True)

    def command(group, group_help, action, action_help, handler):
        sub = groups.add_parser(group, help=group_help).add_subparsers(
            dest="action", required=True)
        sp = sub.add_parser(action, help=action_help)
        sp.set_defaults(handler=handler)
        return sp

    info = command("rootsys", "root-system data",
                   "info", "print invariants and positive roots",
                   cmd_rootsys_info)
    _add_rs_flags(info, with_level=False)

    verify = command("forms", "level-dependent bilinear forms",
                     "verify", "check the Gram inverse pairs",
                     cmd_forms_verify)
    _add_rs_flags(verify, with_level=True)

    wmap = command("weights", "weight coordinate maps",
                   "map", "map a weight across the two sides",
                   cmd_weights_map)
    _add_rs_flags(wmap, with_level=True)
    wmap.add_argument("--weight", required=True,
                      help="comma-separated simple-root coordinates")

    disc = command("lattice", "lattice invariants",
                   "disc", "discriminant group of a named lattice",
                   cmd_lattice_disc)
    disc.add_argument("--lattice", required=True,
                      choices=tuple(name for name, _ in _LATTICES))
    disc.add_argument("--type", required=True)
    disc.add_argument("--rank", type=int, required=True)
    disc.add_argument("--level", default=None,
                      help="positive integer, e-plus/e-minus only")
    disc.add_argument("--expect", default=None,
                      help="assert these elementary divisors"
                           " (comma list, or the word none)")
    disc.add_argument("--format", choices=("text", "json"), default="text")

    ope = command("ope", "operator product checks",
                  "verify", "verify commutation relations", cmd_ope_verify)
    ope.add_argument("--check", default="all",
                     choices=(*(name for name, _ in _OPE_CHECKS), "all"))
    _add_rs_flags(ope, with_level=True)

    roundtrip = command("char", "formal character transforms",
                        "roundtrip", "transport a seed there and back",
                        cmd_char_roundtrip)
    _add_seed_flags(roundtrip, with_flow=False)

    check = command("flow", "spectral-flow identities",
                    "check", "flow/transport equivariance", cmd_flow_check)
    _add_seed_flags(check, with_flow=True)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        ok, payload, lines = args.handler(args)
        if args.format == "json":
            sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2)
                             + "\n")
        else:
            sys.stdout.write("\n".join(lines) + "\n")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
