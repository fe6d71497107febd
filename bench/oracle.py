"""Correctness oracle: checks one request's exit code and JSON verdict.

It compares verdict fields, never golden bytes, so a later change that adds
keys to a report (such as a ``stats`` block) is not counted as a failure.
Byte identity of the same request across passes is checked by the driver.
"""

from __future__ import annotations

import json
from fractions import Fraction as Q
from typing import List

from workloads import Request

SCHEMA = "cosetlab/1"


def check(req: Request, rc: int, stdout: str) -> List[str]:
    """Problems found with one execution; an empty list means it passed."""
    if rc != req.expect_rc:
        return [f"exit code {rc}, expected {req.expect_rc}"]
    if rc == 2:
        return [] if stdout == "" else ["refused request printed a report"]
    try:
        payload = json.loads(stdout)
    except ValueError:
        return ["stdout is not JSON"]
    problems: List[str] = []

    def want(key, value):
        if payload.get(key) != value:
            problems.append(f"{key} is {payload.get(key)!r}, want {value!r}")

    want("schema", SCHEMA)
    want("command", " ".join(req.argv[:2]))
    exp = req.expect
    if "type" in exp:
        want("type", exp["type"])
        want("rank", exp["rank"])
    if "level" in exp:
        want("level", str(Q(exp["level"])))
    command = payload.get("command")
    if command == "rootsys info":
        want("dual_coxeter", exp["dual_coxeter"])
        want("num_positive", exp["num_positive"])
        want("hvee_identity_ok", True)
    elif command == "forms verify":
        checks = payload.get("checks") or {}
        if len(checks) != 3 or not all(v is True for v in checks.values()):
            problems.append(f"checks not all true: {checks}")
        # c_af = k dim g / (k + h_vee) with dim g = rank + 2N
        k = Q(exp["level"])
        dim = exp["rank"] + 2 * exp["num_positive"]
        c_af = k * dim / (k + exp["dual_coxeter"])
        charges = payload.get("central_charges") or {}
        if charges.get("af") != str(c_af):
            problems.append(f"c_af is {charges.get('af')}, want {c_af}")
    elif command == "weights map":
        want("roundtrip_ok", True)
        if len(payload.get("j_values") or ()) != exp["num_positive"]:
            problems.append("j_values does not have one entry per root")
    elif command == "lattice disc":
        want("group_order", exp["group_order"])
        want("signature", exp["signature"])
        want("ok", exp["ok"])
        if "expected_divisors" in exp:
            want("expected_divisors", exp["expected_divisors"])
        order = 1
        for d in payload.get("elementary_divisors") or ():
            order *= d
        if order != payload.get("group_order"):
            problems.append("group order is not the product of the divisors")
    elif command == "ope verify":
        want("ok", True)
        reports = payload.get("reports") or []
        names = [r.get("name") for r in reports]
        if len(reports) != 3:
            problems.append(f"reports {names}, want three")
        for r in reports:
            if r.get("ok") is not True or r.get("diffs"):
                problems.append(f"report {r.get('name')} failed")
            if not r.get("checks"):
                problems.append(f"report {r.get('name')} checked nothing")
    elif command in ("char roundtrip", "flow check"):
        want("ok", True)
        want("truncation_order", exp["T"])
        weights = payload.get("weights") or []
        if not weights:
            problems.append("no weights compared")
        if any(w.get("diff_terms") for w in weights):
            problems.append("nonzero character difference")
        if command == "flow check":
            want("side", exp["side"])
            want("gamma", exp["gamma"].split(","))
    else:
        problems.append(f"unknown command {command!r}")
    return problems
