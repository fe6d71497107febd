"""Deterministic command-line surface over the verification modules.

Exit codes follow a strict contract: 0 means every requested check passed,
1 means a mathematical statement was checked and found false, 2 means the
request itself was unusable (bad flags, bad input file, excluded level).
The JSON output mode is key-sorted and schema-versioned so CI pipelines can
diff runs byte for byte.  It is written by ``_json``, byte-identical to
``json.dumps(payload, sort_keys=True, indent=2)``, and text lines are built
only when ``--format text`` asks for them.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction as Q
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .bilinear import (central_charge_sc_direct, central_charges,
                       conformal_weight_plus, int_gram_G, int_gram_G_star,
                       int_gram_g, int_gram_g_star, is_inverse_pair,
                       level_params, sc_weight_to_af, weight_to_sc)
from .charflow import (Comparison, fermionize_character,
                       flow_af_equivariance_diff, flow_sc_equivariance_diff,
                       roundtrip_check, validate_seed)
from .latticekit import (build_E_minus_lattice, build_E_plus_lattice,
                         build_L_minus, build_L_plus, build_Qsc_dual_lattice,
                         discriminant_group, f_af, g_sc_plus)
from .opecalc import (make_table, verify_Hminus_heisenberg,
                      verify_Jalpha_heisenberg, verify_fst_homomorphism)
from .ratlinalg import integer_vector, parse_rational, rational_rows
from .rootsys import build_root_system, check_hvee_identity

SCHEMA = "cosetlab/1"
# The largest --T a seed request may ask for, checked before the seed is read:
# three times the largest order the tests and the benchmark send (10).  It
# bounds the eta expansion, not the kernel enumeration of seeds such as B3.
MAX_T = 32


def _rat(x) -> str:
    return str(x) if type(x) in (int, Q) else str(Q(x))


def _vec_str(v: Sequence) -> str:
    return ",".join(_rat(x) for x in v)


def _mat_lines(rows, indent: str = "  ") -> List[str]:
    return [indent + " ".join(_rat(x) for x in row) for row in rows]


def _json(x, newline: str = "\n") -> str:
    """x as json.dumps(x, sort_keys=True, indent=2) writes it; TypeError on a
    value not a str, int, bool, None, list, tuple or str-keyed dict."""
    if isinstance(x, str):
        return _json_str(x)
    inner = newline + "  "
    if isinstance(x, (list, tuple)):
        items = [_json_str(v) if type(v) is str else _json(v, inner) for v in x]
        return f"[{inner}{(',' + inner).join(items)}{newline}]" if x else "[]"
    if isinstance(x, dict):
        items = [f"{_json_str(k)}: {_json_str(v) if type(v) is str else _json(v, inner)}"
                 for k, v in sorted(x.items())]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}" if x else "{}"
    if x is None or isinstance(x, bool):
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    raise TypeError(f"a report cannot hold a {type(x).__name__}")


def _parse_vector(text: str, length: int, what: str) -> Tuple[Q, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != length:
        raise ValueError(f"{what} needs {length} comma-separated entries")
    return tuple(parse_rational(p, what) for p in parts)


def _parse_int_vector(text: str, length: int, what: str) -> Tuple[int, ...]:
    return integer_vector(_parse_vector(text, length, what),
                          f"{what} must have integer entries")


def _header(args, rs, **fields) -> dict:
    """A JSON report: the fields every command shares, then the given ones."""
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
    T = parse_rational(args.T, "--T")
    if T > MAX_T:
        raise ValueError(f"--T {args.T} is above the limit MAX_T = {MAX_T}")
    ch = _load_seed(args.seed)
    if args.weight is None:
        return ch, T, ch.base
    return ch, T, _parse_vector(args.weight, ch.rs.rank, "--weight")


def _diff_report(args, ch, mu, T, diffs: Comparison, verdict: str, **fields):
    """Report of a weight-ordered Comparison; ok when no weight differs.
    verdict names the comparison on the summary line."""
    if diffs.vacuous:
        raise ValueError(f"{verdict} to order {_rat(T)} is vacuous")
    ok = all(not terms for _, terms in diffs.values())
    # each distinct coordinate numerator and order object is rendered once
    weights = rational_rows(diffs, diffs.den, _rat)
    orders = {id(order): order for order, _ in diffs.values()}
    order_text = {i: o if o is None else _rat(o) for i, o in orders.items()}
    entries = [{"weight": weight,
                "compare_order": order_text[id(order)],
                "diff_terms": [{"exp": _rat(e), "coef": _rat(c)} for e, c in terms]}
               for weight, (order, terms) in zip(weights, diffs.values())]
    payload = _header(args, ch.rs, level=_rat(ch.level),
                      reference_weight=[_rat(x) for x in mu],
                      truncation_order=_rat(T), ok=ok, weights=entries,
                      **fields)
    return ok, payload, lambda: [
        f"seed {ch.rs.family}{ch.rs.rank} at level {_rat(ch.level)},"
        f" {len(ch.strings)} strings",
        f"{verdict} to order {_rat(T)}: {'ok' if ok else 'FAIL'}",
        *map(_weight_line, entries),
    ]


def _weight_line(entry: dict) -> str:
    """The text line of one weight entry of a _diff_report payload."""
    order, terms = entry["compare_order"], entry["diff_terms"]
    tag = "unbounded" if order is None else f"to order {order}"
    body = ("DIFF " + " ".join(f"{t['coef']}*q^{t['exp']}" for t in terms)
            if terms else "ok")
    return f"  weight {','.join(entry['weight'])} ({tag}): {body}"


# Each cmd_* handler returns (ok, JSON payload, a function building the text
# lines); main renders one of them and maps ok to exit code 0 or 1.

def cmd_rootsys_info(args):
    rs = build_root_system(args.type, args.rank)
    ok = check_hvee_identity(rs)
    gram = rs.long_root_gram()
    payload = _header(
        args, rs,
        num_positive=rs.num_positive,
        dual_coxeter=rs.dual_coxeter,
        simply_laced=rs.is_simply_laced,
        positive_roots=[list(a) for a in rs.positive_roots],
        long_root_gram=[list(map(str, row)) for row in gram],
        hvee_identity_ok=ok,
    )
    return ok, payload, lambda: [
        f"type           {rs.family}{rs.rank}",
        f"rank (l)       {rs.rank}",
        f"positive (N)   {rs.num_positive}",
        f"dual coxeter   {rs.dual_coxeter}",
        f"simply laced   {'yes' if rs.is_simply_laced else 'no'}",
        "positive roots:",
        *(f"  {_vec_str(a)}" for a in rs.positive_roots),
        "long-root gram:",
        *_mat_lines(gram),
        "hvee identity on fundamental weights: " + ("ok" if ok else "FAIL"),
    ]


def cmd_forms_verify(args):
    rs, lp = _rs_at_level(args)
    g_star = int_gram_g_star(rs, lp.k)
    pairs = {"g": int_gram_g(rs, lp.k), "g_star": g_star,
             "G": int_gram_G(rs, g_star), "G_star": int_gram_G_star(rs, lp.k)}
    c_af, c_sc = central_charges(rs, lp.k)
    checks = {
        "g_times_g_star_is_identity": is_inverse_pair(pairs["g"], g_star),
        "G_times_G_star_is_identity": is_inverse_pair(pairs["G"], pairs["G_star"]),
        "central_charge_formulas_agree":
            c_sc == central_charge_sc_direct(rs, lp.k),
    }
    payload = _header(
        args, rs,
        level=_rat(lp.k),
        checks=checks,
        central_charges={"af": _rat(c_af), "sc": _rat(c_sc)},
        matrices={name: rational_rows(*pair, _rat) for name, pair in pairs.items()},
    )
    return all(checks.values()), payload, lambda: [
        f"{rs.family}{rs.rank} at level {_rat(lp.k)}",
        *(f"  {name}: {'ok' if value else 'FAIL'}"
          for name, value in sorted(checks.items())),
        f"  c_af = {_rat(c_af)}, c_sc = {_rat(c_sc)}",
    ]


def cmd_weights_map(args):
    rs, lp = _rs_at_level(args)
    mu = _parse_vector(args.weight, rs.rank, "--weight")
    sc = weight_to_sc(rs, lp.k, mu)
    back = sc_weight_to_af(rs, lp.k, sc)
    ok = tuple(back) == tuple(Q(x) for x in mu)
    jstar = sc.jstar_values(rs)
    in_qsc = integer_vector(jstar, None) is not None
    delta = conformal_weight_plus(rs, lp.k, mu)
    payload = _header(
        args, rs,
        level=_rat(lp.k),
        weight=[_rat(x) for x in mu],
        j_values=[_rat(x) for x in sc.j_values],
        jstar_values=[_rat(x) for x in jstar],
        in_Qsc=in_qsc,
        conformal_weight=_rat(delta),
        roundtrip_ok=ok,
    )
    return ok, payload, lambda: [
        f"{rs.family}{rs.rank} at level {_rat(lp.k)}",
        f"weight          {_vec_str(mu)}",
        f"J values        {_vec_str(sc.j_values)}",
        f"J* values       {_vec_str(jstar)}",
        f"in Q_sc         {'yes' if in_qsc else 'no'}",
        f"conformal (D+)  {_rat(delta)}",
        f"round trip      {'ok' if ok else 'FAIL'}",
    ]


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
    if (args.lattice in ("e-plus", "e-minus")) == (args.level is None):
        raise ValueError(f"lattice {args.lattice} " + (
            "needs --level" if args.level is None else "does not take --level"))
    level = () if args.level is None else (parse_rational(args.level, "--level"),)
    lat = dict(_LATTICES)[args.lattice](rs, *level)
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
    return ok, payload, lambda: [
        f"lattice {lat.name} over {rs.family}{rs.rank}",
        f"rank       {lat.rank}",
        f"signature  {lat.signature}",
        "gram:",
        *_mat_lines(lat.gram),
        "elementary divisors: " + (" ".join(map(str, divisors)) or "none"),
        f"group order: {order}",
        *(() if expected is None else (
            "expected divisors: " + (" ".join(map(str, expected)) or "none"),
            f"match: {'ok' if ok else 'FAIL'}")),
    ]


_OPE_CHECKS = (
    ("jalpha", verify_Jalpha_heisenberg),
    ("hminus", verify_Hminus_heisenberg),
    ("fst", verify_fst_homomorphism),
)


def cmd_ope_verify(args):
    rs, lp = _rs_at_level(args)
    table = make_table(rs, lp.k)
    reports = [fn(table) for name, fn in _OPE_CHECKS
               if args.check in (name, "all")]
    ok = all(r.ok for r in reports)
    payload = _header(args, rs, level=_rat(lp.k), ok=ok,
                      reports=[r.to_json_dict() for r in reports])
    return ok, payload, lambda: [f"{rs.family}{rs.rank} at level {_rat(lp.k)}", *(
        line for r in reports
        for line in (f"  {r.name}: {'ok' if r.ok else 'FAIL'} ({r.checks} checks)",
                     *(f"    [{d.left}][{d.right}] pole {d.pole}:"
                       f" expected {d.expected}, got {d.got}" for d in r.diffs)))]


def cmd_char_roundtrip(args):
    ch, T, mu = _seed_request(args)
    result = roundtrip_check(ch, mu, T)
    return _diff_report(args, ch, mu, T, result.diffs,
                        f"round trip at weight {_vec_str(mu)}")


def cmd_flow_check(args):
    ch, T, mu = _seed_request(args)
    rs = ch.rs
    gamma = _parse_int_vector(args.gamma, rs.rank, "--gamma")
    if args.side == "sc":
        diffs = flow_sc_equivariance_diff(ch, mu, gamma, T)
    else:
        sc_ch = fermionize_character(ch, mu, T)
        gamma_sc = g_sc_plus(rs, ch.level, f_af(rs, gamma, "+"))
        diffs = flow_af_equivariance_diff(sc_ch, sc_ch.base, gamma_sc, T)
    gamma_out = [str(x) for x in gamma]
    return _diff_report(args, ch, mu, T, diffs,
                        f"flow equivariance ({args.side} side) for gamma"
                        f" {','.join(gamma_out)}",
                        side=args.side, gamma=gamma_out)


# Flags that several commands share, each a (name, add_argument keywords) pair
_TYPE = ("--type", dict(required=True, help="family label, e.g. A or G"))
_RANK = ("--rank", dict(type=int, required=True))
_LEVEL = ("--level", dict(required=True, help="exact rational, e.g. 1 or 5/3"))
_SEED = ("--seed", dict(required=True, help="seed JSON path"))
_T = ("--T", dict(required=True, help="truncation order, exact rational"))
_SEED_WEIGHT = ("--weight", dict(help="reference weight, defaults to the seed base"))
_FORMAT = ("--format", dict(choices=("text", "json"), default="text"))

# (group, group help, action, action help, handler, flags): one row per
# command, its flags in the order --help lists them
_COMMANDS = (
    ("rootsys", "root-system data", "info", "print invariants and positive roots",
     cmd_rootsys_info, (_TYPE, _RANK, _FORMAT)),
    ("forms", "level-dependent bilinear forms", "verify", "check the Gram inverse pairs",
     cmd_forms_verify, (_TYPE, _RANK, _LEVEL, _FORMAT)),
    ("weights", "weight coordinate maps", "map", "map a weight across the two sides",
     cmd_weights_map, (_TYPE, _RANK, _LEVEL, _FORMAT, (
         "--weight", dict(required=True, help="comma-separated simple-root coordinates")))),
    ("lattice", "lattice invariants", "disc", "discriminant group of a named lattice",
     cmd_lattice_disc, (
         ("--lattice", dict(required=True, choices=tuple(name for name, _ in _LATTICES))),
         ("--type", dict(required=True)), _RANK,
         ("--level", dict(help="positive integer, e-plus/e-minus only")),
         ("--expect", dict(help="assert these elementary divisors (comma list, or the word none)")),
         _FORMAT)),
    ("ope", "operator product checks", "verify", "verify commutation relations",
     cmd_ope_verify, (
         ("--check", dict(default="all", choices=(*(name for name, _ in _OPE_CHECKS), "all"))),
         _TYPE, _RANK, _LEVEL, _FORMAT)),
    ("char", "formal character transforms", "roundtrip", "transport a seed there and back",
     cmd_char_roundtrip, (_SEED, _T, _SEED_WEIGHT, _FORMAT)),
    ("flow", "spectral-flow identities", "check", "flow/transport equivariance",
     cmd_flow_check, (
         _SEED, ("--side", dict(required=True, choices=("sc", "af"))),
         ("--gamma", dict(required=True, help="flow parameter as root-lattice coordinates")),
         _T, _SEED_WEIGHT, _FORMAT)),
)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosetlab", description="exact verification toolkit for coset free-field data")
    groups = parser.add_subparsers(dest="group", required=True)
    for group, group_help, action, action_help, handler, flags in _COMMANDS:
        sp = groups.add_parser(group, help=group_help).add_subparsers(
            dest="action", required=True).add_parser(action, help=action_help)
        sp.set_defaults(handler=handler)
        for name, options in flags:
            sp.add_argument(name, **options)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse stores [] for a flag whose value is "--" (--T=--)
    if missing := [name for name, value in vars(args).items() if value == []]:
        parser.error(f"argument --{missing[0]}: expected one argument")
    try:
        ok, payload, text = args.handler(args)
        sys.stdout.write((_json(payload) if args.format == "json"
                          else "\n".join(text())) + "\n")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
