"""Span tracing of mtlab's public functions, installed from outside.

Every module-level public function of the traced modules is replaced by a
wrapper that records one span (name, parent span, start, end, operation and
an optional work count).  mtlab modules import each other's names with
``from .x import y``, so a wrapper is installed in every mtlab namespace
that holds the original function, not only in its defining module;
otherwise cross-module calls would bypass it.  Spans are kept in flat
arrays in memory and written out once at the end.
"""

from __future__ import annotations

import array
import gzip
import importlib
import inspect
import sys
import time
from pathlib import Path

import numpy as np

TRACED_MODULES = ("special", "states", "crb", "sampling", "estimators",
                  "experiments", "cli", "phasespace")

FAMILIES = ("gaussian", "fock", "even_coherent", "displaced_fock", "photon_added")

MOMENT_FUNCS = ("quadrature_moments", "quadrature_variance", "quadrature_x2_variance",
                "husimi_moments", "first_moments", "covariance", "second_moment_matrix")
PDF_FUNCS = ("quadrature_pdf", "husimi_pdf")

# (unit, better) of every per-layer metric; values are per round of the workload
LAYER_METRICS = {
    "special.self_s": ("s", "lower"),
    "special.hyp1f1_log.calls": ("count", "lower"),
    "special.log_factorial.calls": ("count", "lower"),
    "special.oscillator_terms": ("count", "lower"),
    "states.moments.self_s": ("s", "lower"),
    "states.moments.calls": ("count", "lower"),
    "states.pdf.self_s": ("s", "lower"),
    "states.pdf.points": ("count", "lower"),
    "states.fock_expansion.calls": ("count", "lower"),
    "crb.fisher_hom_second.self_s": ("s", "lower"),
    "crb.fisher_hom_second.calls": ("count", "lower"),
    "crb.scrb_het_second.self_s": ("s", "lower"),
    "crb.quadrature_nodes": ("count", "lower"),
    "crb.gamma2.calls": ("count", "lower"),
    "crb.crb_report.latency_us": ("us", "lower"),
    "sampling.sample_homodyne.self_s": ("s", "lower"),
    **{f"sampling.hom.{f}.samples_per_s": ("samples/s", "higher") for f in FAMILIES},
    "sampling.sample_heterodyne.self_s": ("s", "lower"),
    **{f"sampling.het.{f}.samples_per_s": ("samples/s", "higher") for f in FAMILIES},
    "sampling.hom.pdf_points_per_sample": ("points/sample", "lower"),
    "sampling.het.pdf_points_per_sample": ("points/sample", "lower"),
    "estimators.processed_moments.self_s": ("s", "lower"),
    "estimators.optimal.self_s": ("s", "lower"),
    "estimators.het.self_s": ("s", "lower"),
    "estimators.monte_carlo_mse.self_s": ("s", "lower"),
    "estimators.failures": ("count", "lower"),
    "experiments.run.self_s": ("s", "lower"),
    "experiments.emit_report.self_s": ("s", "lower"),
    "experiments.report_bytes": ("bytes", "lower"),
    "phasespace.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _family(state) -> int:
    name = type(state).__name__
    if name == "EvenOddCoherent":
        label = f"{state.parity}_coherent"
    else:
        label = {"Gaussian": "gaussian", "Fock": "fock", "DisplacedFock": "displaced_fock",
                 "PhotonAddedCoherent": "photon_added"}.get(name, "")
    return FAMILIES.index(label) if label in FAMILIES else -1


# work counts: (args, kwargs, result) -> (work, family index)
_MEASURES = {
    "special.oscillator_eigenfunction_sum": lambda a, k, r: (
        len(_arg(a, k, 0, "coeffs")) * np.size(_arg(a, k, 1, "x")), -1),
    "states.quadrature_pdf": lambda a, k, r: (np.size(_arg(a, k, 2, "x")), -1),
    "states.husimi_pdf": lambda a, k, r: (np.size(_arg(a, k, 1, "x")), -1),
    "states.quadrature_variance": lambda a, k, r: (np.size(_arg(a, k, 1, "theta")), -1),
    "states.quadrature_x2_variance": lambda a, k, r: (np.size(_arg(a, k, 1, "theta")), -1),
    "sampling.sample_homodyne": lambda a, k, r: (r.total, _family(_arg(a, k, 0, "state"))),
    "sampling.sample_heterodyne": lambda a, k, r: (
        len(r.points), _family(_arg(a, k, 0, "state"))),
    "estimators.monte_carlo_mse": lambda a, k, r: (r.failures, -1),
    "experiments.emit_report": lambda a, k, r: (len(r.encode()), -1),
}


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.name_col = array.array("i")
        self.parent = array.array("q")
        self.op = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.work = array.array("d")
        self.family = array.array("b")
        self.current_op = -1
        self._stack = [-1]
        self._patched: list[tuple[dict, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the traced modules everywhere it is bound."""
        mods = {name: importlib.import_module(f"mtlab.{name}") for name in TRACED_MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        namespaces = [vars(m) for n, m in sorted(sys.modules.items())
                      if (n == "mtlab" or n.startswith("mtlab.")) and m is not None]
        for ns in namespaces:
            for attr, obj in list(ns.items()):
                w = wrappers.get(id(obj))
                if w is not None and w.__wrapped__ is obj:
                    self._patched.append((ns, attr, obj))
                    ns[attr] = w

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._patched):
            ns[attr] = obj
        self._patched.clear()

    def _wrap(self, qualname: str, fn):
        if qualname not in self.names:
            self.names.append(qualname)
        nid = self.names.index(qualname)
        measure = _MEASURES.get(qualname)
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_col.append(nid)
            self.parent.append(stack[-1])
            self.op.append(self.current_op)
            self.work.append(0.0)
            self.family.append(-1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if measure is not None:
                work, fam = measure(args, kwargs, result)
                self.work[idx] = float(work)
                self.family[idx] = fam
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every span as gzip-compressed CSV."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,parent,op,name,family,start_s,end_s,work\n")
            fam = [""] + list(FAMILIES)
            for i in range(len(self.start)):
                fh.write(f"{i},{self.parent[i]},{self.op[i]},{self.names[self.name_col[i]]},"
                         f"{fam[self.family[i] + 1]},{self.start[i]:.9f},{self.end[i]:.9f},"
                         f"{self.work[i]:g}\n")

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer metrics, normalised to one round of the workload."""
        n = len(self.start)
        name = np.array(self.names, dtype=str)[np.frombuffer(self.name_col, dtype=np.int32)]
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        work = np.frombuffer(self.work, dtype=np.float64)
        family = np.frombuffer(self.family, dtype=np.int8)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - child[:n]
        module = np.array([s.split(".", 1)[0] for s in name], dtype=str)
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], "")

        def under(roots) -> np.ndarray:
            """Spans with an ancestor among the named spans."""
            flag = np.zeros(n, dtype=bool)
            is_root = np.isin(name, roots)
            while True:
                new = has_parent & (is_root | flag)[np.maximum(parent, 0)]
                if np.array_equal(new, flag):
                    return flag
                flag = new

        def is_(*funcs):
            return np.isin(name, list(funcs))

        per = 1.0 / rounds
        out = {}

        def total(mask, values):
            return float(np.sum(values[mask])) * per

        def count(mask):
            return float(np.count_nonzero(mask)) * per

        def rate(mask, num, den):
            d = float(np.sum(den[mask]))
            return float(np.sum(num[mask])) / d if d > 0 else 0.0

        out["special.self_s"] = total(module == "special", self_s)
        out["special.hyp1f1_log.calls"] = count(is_("special.hyp1f1_log"))
        out["special.log_factorial.calls"] = count(is_("special.log_factorial"))
        out["special.oscillator_terms"] = total(
            is_("special.oscillator_eigenfunction_sum"), work)
        moments = is_(*(f"states.{f}" for f in MOMENT_FUNCS))
        out["states.moments.self_s"] = total(moments, self_s)
        out["states.moments.calls"] = count(moments)
        pdf = is_(*(f"states.{f}" for f in PDF_FUNCS))
        top_pdf = pdf & ~np.isin(parent_name, [f"states.{f}" for f in PDF_FUNCS])
        out["states.pdf.self_s"] = total(pdf, self_s)
        out["states.pdf.points"] = total(top_pdf, work)
        out["states.fock_expansion.calls"] = count(is_("states.fock_expansion"))
        fhs = is_("crb.fisher_hom_second")
        out["crb.fisher_hom_second.self_s"] = total(fhs, self_s)
        out["crb.fisher_hom_second.calls"] = count(fhs)
        out["crb.scrb_het_second.self_s"] = total(is_("crb.scrb_het_second"), self_s)
        nodes = is_("states.quadrature_variance", "states.quadrature_x2_variance") & (
            np.char.startswith(parent_name, "crb."))
        out["crb.quadrature_nodes"] = total(nodes, work)
        search = under(["crb.find_crossover", "crb.minimize_gamma2"])
        out["crb.gamma2.calls"] = count(is_("crb.gamma2") & search)
        rep = is_("crb.crb_report")
        out["crb.crb_report.latency_us"] = (
            float(np.median(dur[rep])) * 1e6 if np.any(rep) else 0.0)
        for scheme, fn in (("hom", "sampling.sample_homodyne"),
                           ("het", "sampling.sample_heterodyne")):
            spans = is_(fn)
            label = "homodyne" if scheme == "hom" else "heterodyne"
            out[f"sampling.sample_{label}.self_s"] = total(spans, self_s)
            for i, fam in enumerate(FAMILIES):
                out[f"sampling.{scheme}.{fam}.samples_per_s"] = rate(
                    spans & (family == i), work, dur)
            samples = float(np.sum(work[spans]))
            points = float(np.sum(work[top_pdf & under([fn])]))
            out[f"sampling.{scheme}.pdf_points_per_sample"] = (
                points / samples if samples > 0 else 0.0)
        out["estimators.processed_moments.self_s"] = total(
            is_("estimators.processed_moments"), self_s)
        out["estimators.optimal.self_s"] = total(
            is_("estimators.optimal_first_estimator", "estimators.optimal_second_estimator"),
            self_s)
        out["estimators.het.self_s"] = total(
            is_("estimators.het_first_estimator", "estimators.het_second_estimator"), self_s)
        mc = is_("estimators.monte_carlo_mse")
        out["estimators.monte_carlo_mse.self_s"] = total(mc, self_s)
        out["estimators.failures"] = total(mc, work)
        out["experiments.run.self_s"] = total(is_("experiments.run"), self_s)
        emit = is_("experiments.emit_report")
        out["experiments.emit_report.self_s"] = total(emit, self_s)
        out["experiments.report_bytes"] = total(emit, work)
        out["phasespace.self_s"] = total(module == "phasespace", self_s)
        out["cli.main.self_s"] = total(is_("cli.main"), self_s)
        assert set(out) == set(LAYER_METRICS)
        return out
