"""Spans around cosetlab's public functions, installed from outside.

The tracer replaces each named function with a wrapper in every cosetlab
module namespace (and module-level table) that holds the same object, since
``from .ratlinalg import mat_mul`` copies the binding into other modules.
Methods are replaced on their class.  Hot vector helpers (``dot``, ``vec``,
``mat_vec``, the OPE term algebra) are left unwrapped: their cost is the
caller's self time.

Each span records its name, start, end, parent span, request id and an
item count; spans stay in memory and are written out after the pass.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Callable, Dict, List

# layer -> public module-level functions wrapped in that layer
FUNCTIONS = {
    "rootsys": ["cartan_matrix", "build_root_system", "normalized_form",
                "check_hvee_identity"],
    "bilinear": ["level_params", "gram_g", "gram_g_star", "gram_G",
                 "gram_G_star", "make_sc_weight", "sc_weight_from_jstar",
                 "weight_to_sc", "sc_weight_to_af",
                 "converse_congruence_check", "conformal_weight_plus",
                 "central_charges", "central_charge_sc_direct"],
    "ratlinalg": ["mat_mul", "mat_inv", "solve", "determinant",
                  "smith_normal_form"],
    "latticekit": ["default_cocycle", "direct_sum", "sublattice", "f_af",
                   "g_af_plus", "g_af_minus", "g_sc_plus", "g_sc_minus",
                   "form_profile", "kernel_K", "build_L_plus", "build_L_minus",
                   "build_Qsc_dual_lattice", "build_E_plus_lattice",
                   "build_E_minus_lattice", "discriminant_group",
                   "enumerate_by_norm"],
    "opecalc": ["make_table", "ope_singular", "lambda_bracket_skew_check",
                "verify_Jalpha_heisenberg", "verify_Hminus_heisenberg",
                "verify_fst_homomorphism"],
    "charflow": ["eta_power", "affine_character", "character_support",
                 "fermionize_character", "defermionize_character",
                 "roundtrip_check", "cflemma_check", "spectral_flow_sc",
                 "spectral_flow_af", "spectral_flow_af_frame",
                 "flow_sc_equivariance_diff", "flow_af_equivariance_diff",
                 "validate_seed", "character_to_json", "qseries_diff"],
}
# layer -> (class, method) pairs wrapped on the class
METHODS = {
    "rootsys": [("RootSystem", "form"), ("RootSystem", "long_root_gram")],
    "bilinear": [("ScWeight", "jstar_values"), ("ScWeight", "in_Qsc")],
    "latticekit": [("IntegralLattice", "pair"), ("IntegralLattice", "eps")],
    "charflow": [("QSeries", "__mul__")],
}
# span name -> item count taken from the wrapped call's result
COUNTERS = {
    "latticekit.enumerate_by_norm": len,
    "charflow.fermionize_character": lambda ch: len(ch.strings),
}
REQUEST_SPAN = "cli.main"
LAYERS = ("cli", "rootsys", "bilinear", "ratlinalg", "latticekit", "opecalc",
          "charflow")


def _substitute(value, old, new):
    """value with every occurrence of old inside nested tuples/lists
    replaced by new, or value itself when it holds none."""
    if value is old:
        return new
    if isinstance(value, (tuple, list)):
        items = [_substitute(v, old, new) for v in value]
        if any(a is not b for a, b in zip(items, value)):
            return type(value)(items)
    return value


class Tracer:
    """Span recorder for one pass; install() patches cosetlab in place."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.count = array("q")
        self._stack = [-1]
        self._request = -1
        self._request_span = self._wrap(lambda call: call(), REQUEST_SPAN)

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn: Callable, name: str) -> Callable:
        nid = self._intern(name)
        counter = COUNTERS.get(name)
        clock = time.perf_counter
        name_id, start, end = self.name_id, self.start, self.end
        parent, request, count = self.parent, self.request, self.count
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            request.append(self._request)
            count.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                count[idx] = counter(result)
            return result

        return traced

    def install(self) -> None:
        import cosetlab.cli  # noqa: F401  (loads every module)
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "cosetlab" or n.startswith("cosetlab.")]
        for layer, fnames in FUNCTIONS.items():
            home = sys.modules[f"cosetlab.{layer}"]
            for fname in fnames:
                old = getattr(home, fname)
                new = self._wrap(old, f"{layer}.{fname}")
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        swapped = _substitute(value, old, new)
                        if swapped is not value:
                            setattr(mod, attr, swapped)
        for layer, pairs in METHODS.items():
            home = sys.modules[f"cosetlab.{layer}"]
            for cname, mname in pairs:
                cls = getattr(home, cname)
                old = cls.__dict__[mname]
                new = self._wrap(old, f"{layer}.{cname}.{mname}")
                for attr, value in list(vars(cls).items()):
                    if value is old:
                        setattr(cls, attr, new)

    def run_request(self, req_id: int, call: Callable[[], int]) -> int:
        """Run one request under its top-level span."""
        self._request = req_id
        try:
            return self._request_span(call)
        finally:
            self._request = -1

    # -- analysis ---------------------------------------------------------

    def span_totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, items counted, and self time (duration
        minus the time its direct child spans cover)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: Dict[str, Dict[str, float]] = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            rec = out.setdefault(name, {"calls": 0, "items": 0,
                                        "self_s": 0.0})
            rec["calls"] += 1
            rec["items"] += self.count[i]
            rec["self_s"] += self.end[i] - self.start[i] - child[i]
        return out

    def group_time(self, names) -> float:
        """Time inside spans named in ``names``, counting a span only when
        no ancestor is also in ``names``, so nesting is not counted twice."""
        wanted = {self._name_ids[n] for n in names if n in self._name_ids}
        total = 0.0
        for i in range(len(self.start)):
            if self.name_id[i] not in wanted:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_id[p] not in wanted:
                p = self.parent[p]
            if p < 0:
                total += self.end[i] - self.start[i]
        return total

    def items_under(self, child_name: str, parent_name: str) -> int:
        """Items counted by child_name spans nested inside parent_name."""
        cid = self._name_ids.get(child_name)
        pid = self._name_ids.get(parent_name)
        total = 0
        for i in range(len(self.start)):
            if self.name_id[i] != cid:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_id[p] != pid:
                p = self.parent[p]
            if p >= 0:
                total += self.count[i]
        return total

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart\tend\tparent\trequest\tcount\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name_id[i]]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t"
                         f"{self.parent[i]}\t{self.request[i]}\t"
                         f"{self.count[i]}\n")


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


# metric prefix -> span names; each gives <prefix>_calls and <prefix>_s
GROUPS = {
    "rootsys.build": ["rootsys.build_root_system"],
    "rootsys.form": ["rootsys.RootSystem.form"],
    "bilinear.gram": ["bilinear.gram_g", "bilinear.gram_g_star",
                      "bilinear.gram_G", "bilinear.gram_G_star"],
    "bilinear.jstar": ["bilinear.ScWeight.jstar_values"],
    "ratlinalg.mat_mul": ["ratlinalg.mat_mul"],
    "ratlinalg.determinant": ["ratlinalg.determinant"],
    "ratlinalg.smith": ["ratlinalg.smith_normal_form"],
    "latticekit.lattice_build": [
        "latticekit.build_L_plus", "latticekit.build_L_minus",
        "latticekit.build_Qsc_dual_lattice", "latticekit.build_E_plus_lattice",
        "latticekit.build_E_minus_lattice", "latticekit.kernel_K"],
    "latticekit.disc": ["latticekit.discriminant_group"],
    "latticekit.enum": ["latticekit.enumerate_by_norm"],
    "latticekit.pair": ["latticekit.IntegralLattice.pair"],
    "latticekit.eps": ["latticekit.IntegralLattice.eps"],
    "opecalc.ope_singular": ["opecalc.ope_singular"],
    "opecalc.make_table": ["opecalc.make_table"],
    "charflow.fermionize": ["charflow.fermionize_character"],
    "charflow.defermionize": ["charflow.defermionize_character"],
    "charflow.qseries_mul": ["charflow.QSeries.__mul__"],
    "charflow.eta_power": ["charflow.eta_power"],
}


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer counts and times of one traced pass.

    Counts (``*_calls``, ``latticekit.enum_vectors``) are deterministic for
    a given request list; times are wall-clock seconds.
    """
    totals = tracer.span_totals()
    out: Dict[str, float] = {}
    for prefix, names in GROUPS.items():
        out[f"{prefix}_calls"] = sum(totals.get(n, {}).get("calls", 0)
                                     for n in names)
        out[f"{prefix}_s"] = tracer.group_time(names)
    enum = "latticekit.enumerate_by_norm"
    ferm = "charflow.fermionize_character"
    out["latticekit.enum_vectors"] = totals.get(enum, {}).get("items", 0)
    enumerated = tracer.items_under(enum, ferm)
    kept = totals.get(ferm, {}).get("items", 0)
    out["latticekit.enum_keep_ratio"] = kept / enumerated if enumerated else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(rec["self_s"]
                                     for name, rec in totals.items()
                                     if layer_of(name) == layer)
    return out
