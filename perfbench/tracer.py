"""Per-layer spans and counters, recorded from outside the program.

Tracer wraps every public function of the six program modules, plus the
QSeries product and power and CertValue.certified_sign, with a span that
records calls, total time and self time (span time minus the time of the
spans it encloses).  A function imported by name into another module is
patched there too, so zeros' own arc_form and the package's re-exports
are traced; certify imports arc_form at call time and so finds the patched
attribute of evalnum.  Private helpers are not wrapped: their time counts
as self time of the nearest public caller.

On top of the spans it reads a few things the program returns:
arc_form's |value| / err (the certification headroom in bits) with the
requested prec and trunc_scale, certified_sign's undecided results,
InconclusiveSignError raised out of the zeros layer, lru_cache hit counts,
and the BoundLedgerEntry list of full_ledger, from which it computes each
entry's slack.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import time

from mpmath import mp

MODULES = ("qseries", "miller", "evalnum", "zeros", "certify", "cli")
METHODS = (("qseries", "QSeries", "__mul__", "mul"), ("qseries", "QSeries", "__rmul__", "mul"),
           ("qseries", "QSeries", "__pow__", "pow"),
           ("evalnum", "CertValue", "certified_sign", "certified_sign"))
CACHED = ("qseries.delta", "qseries.jfunction", "qseries.eisenstein", "miller.miller_basis")
LEDGER_SECTIONS = ("delta_ledger", "arc_eisenstein_bounds", "eisenstein_line_bounds",
                   "j_difference_bounds", "residue_entries", "constants_ledger",
                   "proposition_mrl_check")
SIGN_ERRORS_AT = ("zeros.arc_zero_localize", "zeros.refine_arc_zero")


def entry_slack(entry: dict, kind: str, tol: float):
    """Signed distance to failure of one ledger entry, as a share of its scale.

    upper: claimed - (computed + err), lower: computed - err - claimed,
    both over |claimed|; value: tol - (|computed - claimed| + err) over
    tol.  Flags carry no distance (None).
    """
    claimed, computed, err = entry["claimed"], entry["computed"], entry["err"]
    if kind == "upper":
        return (claimed - computed - err) / (abs(claimed) or 1.0)
    if kind == "lower":
        return (computed - err - claimed) / (abs(claimed) or 1.0)
    if kind == "value":
        return (tol - abs(computed - claimed) - err) / tol
    return None


class Tracer:
    def __init__(self, mz: dict):
        self.mz = mz
        self.clock = time.perf_counter
        self.stats = {}             # span name -> [calls, total_s, self_s]
        self.stack = []             # open spans: [name, time of enclosed spans]
        self.patches = []           # (owner, attribute, original)
        self.originals = {}         # span name -> unwrapped callable
        self.arc = []               # per arc_form call: (k, prec, trunc_scale, headroom bits,
                                    # whether a zeros span decides a sign with it)
        self.arc_in_refine = 0
        self.sign_undecided = 0
        self.inconclusive = 0
        self.ledger = []
        self.arc_sig = inspect.signature(mz["evalnum"].arc_form)
        self.observers = {
            "evalnum.arc_form": self._see_arc_form,
            "evalnum.CertValue.certified_sign": self._see_sign,
            "certify.full_ledger": self._see_ledger,
        }

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, clock = self.stack, self.clock
        observe = self.observers.get(name)
        count_errors = name in SIGN_ERRORS_AT
        inconclusive = self.mz["zeros"].InconclusiveSignError
        self.originals[name] = fn

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except inconclusive:
                if count_errors:
                    self.inconclusive += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
            if observe is not None:
                # the observer's time is tracing overhead: the enclosing
                # span counts it as enclosed time, so no self time holds it
                t1 = clock()
                observe(args, kwargs, result)
                if stack:
                    stack[-1][1] += clock() - t1
            return result
        return span

    def enclose(self, seconds: float) -> None:
        """Count time spent outside the program, inside the innermost open
        span, as enclosed time of that span."""
        if self.stack:
            self.stack[-1][1] += seconds

    def install(self) -> None:
        targets = {}                # id(original) -> (span name, original)
        for mod in MODULES:
            module = self.mz[mod]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and callable(obj) and not inspect.isclass(obj)
                        and getattr(obj, "__module__", None) == module.__name__):
                    targets[id(obj)] = (f"{mod}.{attr}", obj)
        wrappers = {key: self._wrap(name, obj) for key, (name, obj) in targets.items()}
        for namespace in self.mz.values():
            for attr, obj in list(vars(namespace).items()):
                if id(obj) in wrappers:
                    self._patch(namespace, attr, wrappers[id(obj)])
        by_original = {}
        for mod, cls_name, attr, label in METHODS:
            cls = getattr(self.mz[mod], cls_name)
            fn = cls.__dict__[attr]
            if id(fn) not in by_original:
                by_original[id(fn)] = self._wrap(f"{mod}.{cls_name}.{label}", fn)
            self._patch(cls, attr, by_original[id(fn)])

    def _patch(self, owner, attr: str, value) -> None:
        self.patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    # -- observers --------------------------------------------------------

    def _see_arc_form(self, args, kwargs, result) -> None:
        bound = self.arc_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        mag, err = abs(result.value), result.err
        bits = float(mp.log(mag / err, 2)) if err and mag else (math.inf if mag else -math.inf)
        open_spans = [frame[0] for frame in self.stack]
        for_sign = any(name.startswith("zeros.") for name in open_spans)
        self.arc.append((a["form"].id.k, a["prec"], a["trunc_scale"], bits, for_sign))
        if "zeros.refine_arc_zero" in open_spans:
            self.arc_in_refine += 1

    def _see_sign(self, args, kwargs, result) -> None:
        if result == 0:
            self.sign_undecided += 1

    def _see_ledger(self, args, kwargs, result) -> None:
        self.ledger = [e.to_json_dict() for e in result]

    # -- report -----------------------------------------------------------

    def _stat(self, name: str, field: str) -> float:
        calls, total, own = self.stats.get(name, (0, 0.0, 0.0))
        return {"calls": calls, "self_s": own, "total_s": total}[field]

    def report(self, reference_ledger: list) -> dict:
        """Per-layer metrics plus the tables run.py prints."""
        s = self._stat
        layers = {}
        for name in ("qseries.QSeries.mul", "evalnum.arc_form", "evalnum.eval_series",
                     "evalnum.arc_functions", "evalnum.arc_j", "zeros.arc_zero_localize",
                     "zeros.refine_arc_zero", "zeros.sturm_isolate"):
            layers[f"{name}.calls"] = s(name, "calls")
            layers[f"{name}.self_s"] = s(name, "self_s")
        for name in ("qseries.QSeries.pow", "qseries.delta", "qseries.jfunction",
                     "qseries.eisenstein", "miller.miller_basis", "miller.faber_of",
                     "zeros.count_off_interval", "zeros.squarefree_part", "zeros.zero_report",
                     "cli.main") + tuple(f"certify.{sec}" for sec in LEDGER_SECTIONS):
            layers[f"{name}.self_s"] = s(name, "self_s")
        for sec in LEDGER_SECTIONS:
            layers[f"certify.{sec}.total_s"] = s(f"certify.{sec}", "total_s")
        for name in CACHED:
            info = self.originals[name].cache_info()
            layers[f"{name}.hits"] = info.hits
            layers[f"{name}.misses"] = info.misses
        layers["miller.miller_form.calls"] = s("miller.miller_form", "calls")

        # headroom of the samples whose sign is certified; mrl-check reads
        # magnitudes, which cross zero, and would only blur the figure
        finite = [a[3] for a in self.arc if a[4] and math.isfinite(a[3])]
        layers["evalnum.arc_form.prec_bits_mean"] = (
            statistics.fmean(a[1] for a in self.arc) if self.arc else 0.0)
        layers["evalnum.arc_form.escalated"] = sum(1 for a in self.arc if a[2] > 1)
        layers["evalnum.arc_form.headroom_min_bits"] = min(finite) if finite else 0.0
        layers["evalnum.arc_form.headroom_p50_bits"] = statistics.median(finite) if finite else 0.0
        signs = s("evalnum.CertValue.certified_sign", "calls")
        layers["evalnum.CertValue.certified_sign.calls"] = signs
        layers["evalnum.CertValue.certified_sign.zero"] = self.sign_undecided
        layers["evalnum.certified_sign.decided_ratio"] = (
            (signs - self.sign_undecided) / signs if signs else 0.0)
        refines = s("zeros.refine_arc_zero", "calls")
        layers["zeros.refine_arc_zero.arc_form_per_call"] = (
            self.arc_in_refine / refines if refines else 0.0)
        layers["zeros.inconclusive"] = self.inconclusive

        modules = {mod: sum(v[2] for k, v in self.stats.items() if k.split(".")[0] == mod)
                   for mod in MODULES}
        for mod, own in modules.items():
            layers[f"module.{mod}.self_s"] = own

        slacks = self._slacks(reference_ledger)
        layers["certify.entries_satisfied"] = sum(1 for e in self.ledger if e["satisfied"])
        layers["certify.min_slack"] = min((v for _, v in slacks), default=0.0)

        return {"layers": layers, "modules": modules,
                "functions": sorted(([n] + v for n, v in self.stats.items() if v[0]),
                                    key=lambda row: -row[3]),
                "headroom": self._headroom_by_weight(),
                "tightest": sorted(slacks, key=lambda p: p[1])[:5]}

    def _slacks(self, reference_ledger: list) -> list:
        kinds = {e["name"]: (e["kind"], e["tol"]) for e in reference_ledger}
        out = []
        for e in self.ledger:
            kind, tol = kinds.get(e["name"], ("flag", 0.0))
            slack = entry_slack(e, kind, tol)
            if slack is not None:
                out.append((e["name"], slack))
        return out

    def _headroom_by_weight(self) -> list:
        rows = []
        for k in sorted({a[0] for a in self.arc}):
            calls = [a for a in self.arc if a[0] == k]
            bits = [a[3] for a in calls if a[4] and math.isfinite(a[3])]
            rows.append({"k": k, "calls": len(calls),
                         "prec_bits": sorted({a[1] for a in calls}),
                         "escalated": sum(1 for a in calls if a[2] > 1),
                         "headroom_min_bits": min(bits) if bits else None,
                         "headroom_p50_bits": statistics.median(bits) if bits else None})
        return rows
