"""Span tracing of carlab's public functions, installed from outside.

`Tracer.install` rebinds each traced public name in every carlab module that
holds it (``gauss_kronrod_batch`` lives in ``quadrature`` but is imported by
name into ``identities`` and ``oscillatory``), and wraps methods on their
class.  Each call records a span: name, start, end, parent, and a work count.
Spans stay in flat arrays in memory and are written out once the pass is
over, so a call costs two clock reads and a few appends.

One stack serves all threads.  That is exact while one thread computes at a
time, which holds for every CLI config run with ``threads = 1``: the
lowerbound experiment hands its sweep to a one-worker pool while the calling
thread blocks.  A span closed out of order marks the trace inconsistent.
"""
from __future__ import annotations

import sys
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

_clock = time.perf_counter

CRITERIA = ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9")


def _points_of_arg(index: int) -> Callable[[tuple, dict], int]:
    def points(args, kwargs):
        return int(np.size(args[index])) if len(args) > index else 0
    return points


def _testfn_points(args, kwargs) -> int:
    shape = np.shape(args[1])
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _order_of(args, kwargs) -> int:
    return int(kwargs.get("order", args[1] if len(args) > 1 else 0))


@dataclass(frozen=True)
class Target:
    """One traced callable: where it lives and what a call counts."""

    module: str
    attr: str                   # "name" or "Class.method"
    span: str                   # "<layer>.<what>"
    points: Callable[[tuple, dict], int] | None = None
    aux: Callable[[tuple, dict], int] | None = None


_CUTOFF_CLASSES = ("Psi0Cutoff", "PsiCutoff", "DerivativeCutoff",
                   "CustomCutoff", "PlateauBump", "SymmetricPlateau",
                   "InversionImage")

TARGETS: tuple[Target, ...] = (
    Target("carlab.spectral", "GridField.to_freq", "spectral.transform"),
    Target("carlab.spectral", "GridField.to_space", "spectral.transform"),
    Target("carlab.spectral", "lp_norm", "spectral.lp_norm"),
    Target("carlab.spectral", "lorentz_norm", "spectral.other"),
    Target("carlab.spectral", "apply_multiplier", "spectral.other"),
    Target("carlab.spectral", "default_grid", "spectral.other"),
    Target("carlab.normest", "estimate_operator_norm", "normest.estimate"),
    Target("carlab.normest", "power_method", "normest.power_method"),
    Target("carlab.normest", "certified_lower_bound", "normest.other"),
    Target("carlab.normest", "dualize", "normest.dualize"),
    Target("carlab.normest", "fit_scaling", "normest.other"),
    Target("carlab.symbols", "symbol_on_axes", "symbols.eval",
           points=lambda a, k: int(np.prod([np.size(x) for x in a[1]]))),
    Target("carlab.symbols", "eval_from_radial", "symbols.eval",
           points=lambda a, k: int(np.broadcast(a[1], a[2]).size)),
    Target("carlab.symbols", "eval_symbol", "symbols.eval"),
    Target("carlab.symbols", "eval_im_mtilde", "symbols.eval"),
    Target("carlab.bump", "smooth_step", "bump.smooth_step",
           points=_points_of_arg(0), aux=_order_of),
    Target("carlab.bump", "psi0", "bump.cutoff", points=_points_of_arg(0)),
    Target("carlab.bump", "psi", "bump.cutoff", points=_points_of_arg(0)),
    *(Target("carlab.bump", f"{cls}.__call__", "bump.cutoff",
             points=_points_of_arg(1)) for cls in _CUTOFF_CLASSES),
    Target("carlab.quadrature", "gauss_kronrod_batch", "quadrature.gk"),
    Target("carlab.quadrature", "gauss_legendre_rule", "quadrature.other"),
    Target("carlab.bessel", "bessel_j", "bessel.eval",
           points=_points_of_arg(1)),
    Target("carlab.bessel", "bessel_ju", "bessel.eval",
           points=_points_of_arg(1)),
    Target("carlab.bessel", "sphere_hat", "bessel.eval",
           points=_points_of_arg(1)),
    Target("carlab.oscillatory", "mtilde_radial", "oscillatory.evaluation"),
    Target("carlab.oscillatory", "j_decomposition", "oscillatory.evaluation"),
    Target("carlab.oscillatory", "i_integral", "oscillatory.evaluation"),
    Target("carlab.oscillatory", "frak_s_sample", "oscillatory.other"),
    Target("carlab.oscillatory", "in_resonant_set", "oscillatory.other"),
    Target("carlab.identities", "radial_fractional_at", "identities.oracle"),
    Target("carlab.identities", "PolyGauss.__call__", "identities.testfn",
           points=_testfn_points),
    Target("carlab.identities", "verify_counter_identities",
           "identities.pairing"),
    Target("carlab.identities", "verify_dist_identity", "identities.pairing"),
    Target("carlab.identities", "verify_kelvin", "identities.pairing"),
    Target("carlab.identities", "pair_pullback", "identities.other"),
    Target("carlab.identities", "sphere_nodes", "identities.other"),
    Target("carlab.identities", "sphere_integral", "identities.other"),
    Target("carlab.identities", "fractional_laplacian", "identities.other"),
    Target("carlab.identities", "eval_field_at_points", "identities.other"),
    Target("carlab.regions", "special_points", "regions.eval"),
    Target("carlab.regions", "carleman_range", "regions.eval"),
    Target("carlab.regions", "in_region", "regions.eval"),
    Target("carlab.regions", "emit_figure_data", "regions.eval"),
    Target("carlab.acceptance", "knapp_witness", "acceptance.builder"),
    Target("carlab.acceptance", "ring_grid", "acceptance.builder"),
    Target("carlab.acceptance", "run_criterion", "acceptance.criterion"),
    Target("carlab.cli", "run", "cli.run"),
)


class Tracer:
    """Flat in-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.points = array("q")
        self.aux = array("q")
        self._stack: list[int] = []
        self.out_of_order = 0
        self.gk_errors = 0
        self.aborts = 0
        self._undo: list[tuple[Any, str, Any]] = []

    # --- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int, points: int = 0, aux: int = 0) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.points.append(points)
        self.aux.append(aux)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _clock()
        if self._stack and self._stack[-1] == idx:
            self._stack.pop()
        else:
            self.out_of_order += 1
            if idx in self._stack:
                self._stack.remove(idx)

    def run_span(self, name: str, fn: Callable[[], Any]) -> Any:
        """Call ``fn`` inside a span opened by the harness itself."""
        idx = self.open(self._id(name))
        try:
            return fn()
        finally:
            self.close(idx)

    # --- wrapping ----------------------------------------------------------

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        tracer, name_id = self, self._id(target.span)

        if target.span == "spectral.transform":
            to_freq = target.attr.endswith("to_freq")

            def transform(field, *args, **kwargs):
                # a field already on the requested side comes back as is
                moves = field.in_space if to_freq else not field.in_space
                idx = tracer.open(name_id, field.values.size if moves else 0)
                try:
                    return fn(field, *args, **kwargs)
                finally:
                    tracer.close(idx)
            return transform

        if target.span == "quadrature.gk":
            from carlab.quadrature import QuadratureError
            integrand_id = self._id("quadrature.integrand")

            def gk(f, *args, **kwargs):
                def traced_integrand(nodes):
                    idx = tracer.open(integrand_id, int(np.size(nodes)))
                    try:
                        return f(nodes)
                    finally:
                        tracer.close(idx)
                idx = tracer.open(name_id)
                try:
                    return fn(traced_integrand, *args, **kwargs)
                except QuadratureError:
                    tracer.gk_errors += 1
                    raise
                finally:
                    tracer.close(idx)
            return gk

        if target.span == "normest.power_method":
            def power_method(*args, **kwargs):
                idx = tracer.open(name_id)
                try:
                    est = fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
                tracer.aux[idx] = est.iterations
                tracer.aborts += bool(est.aborted)
                return est
            return power_method

        points_of, aux_of = target.points, target.aux

        def wrapper(*args, **kwargs):
            idx = tracer.open(name_id,
                              points_of(args, kwargs) if points_of else 0,
                              aux_of(args, kwargs) if aux_of else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
        return wrapper

    def install(self) -> None:
        """Wrap every target in every carlab module that binds it."""
        import carlab.cli as cli

        modules = [m for name, m in list(sys.modules.items())
                   if name == "carlab" or name.startswith("carlab.")]
        for target in TARGETS:
            home = sys.modules[target.module]
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                cls = getattr(home, cls_name)
                self._set(cls, meth, self._wrap(cls.__dict__[meth], target))
                continue
            original = getattr(home, target.attr)
            wrapped = self._wrap(original, target)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._set(mod, key, wrapped)
        # The experiment handlers are reached through a dict, so wrap the
        # entries; cli.run minus the handlers is the CLI's own overhead.
        handler = Target("carlab.cli", "_HANDLERS", "cli.handler")
        for key, fn in list(cli._HANDLERS.items()):
            self._undo.append((cli._HANDLERS, key, fn))
            cli._HANDLERS[key] = self._wrap(fn, handler)

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._undo.clear()

    # --- output ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int64),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "points": np.frombuffer(self.points, dtype=np.int64),
                "aux": np.frombuffer(self.aux, dtype=np.int64)}

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def _self_times(self) -> np.ndarray:
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent],
                            weights=dur[has_parent], minlength=dur.size)
        return dur - child

    def min_self_s(self) -> float:
        """Smallest span self time; negative means a child left its parent."""
        self_t = self._self_times()
        return float(self_t.min()) if self_t.size else 0.0

    # --- per-layer metrics -------------------------------------------------

    def metrics(self, check_seconds: dict[str, float], traced_wall: float
                ) -> tuple[dict[str, float], dict[str, float]]:
        """Per-layer metrics, and the self time of each layer.

        A span's self time is its duration minus its direct children's.  The
        layer self times plus the time that no span covers partition the
        traced pass's wall time exactly; the second return value is that
        partition.  ``trace.overhead_ratio`` needs an untraced pass, so
        the caller adds it.
        """
        a = self.arrays()
        nid, parent, points, aux = (a["name_id"], a["parent"], a["points"],
                                    a["aux"])
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        self_t = self._self_times()
        pid = np.where(has_parent, nid[np.where(has_parent, parent, 0)], -1)

        def sel(name: str) -> np.ndarray:
            return nid == self._ids.get(name, -2)

        def outer(name: str) -> np.ndarray:
            # calls not nested in another call of the same span name
            i = self._ids.get(name, -2)
            return (nid == i) & (pid != i)

        def self_s(*names: str) -> float:
            return sum(float(self_t[sel(n)].sum()) for n in names)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        transform = sel("spectral.transform") & (points > 0)
        pts = points[transform].astype(float)
        pm = sel("normest.power_method")
        iterations = float(aux[pm].sum())
        ss = sel("bump.smooth_step")
        gk_calls = float(sel("quadrature.gk").sum())
        gk_nodes = float(points[sel("quadrature.integrand")].sum())
        osc = outer("oscillatory.evaluation")
        bessel = outer("bessel.eval")

        m: dict[str, float] = {
            "spectral.transforms": float(transform.sum()),
            "spectral.transform_points": float(pts.sum()),
            "spectral.transform_s": self_s("spectral.transform"),
            "spectral.transform_flops_computed":
                float((5.0 * pts * np.log2(np.maximum(pts, 1.0))).sum()),
            # one read and one write of the complex128 array per transform
            "spectral.transform_bytes_computed": float(32.0 * pts.sum()),
            "spectral.lp_norm_s": self_s("spectral.lp_norm"),
            "normest.restarts": float(pm.sum()),
            "normest.power_iterations": iterations,
            "normest.aborts": float(self.aborts),
            "normest.power_method_s": self_s("normest.power_method"),
            "normest.dualize_s": self_s("normest.dualize"),
            "normest.s_per_iteration": ratio(float(dur[pm].sum()),
                                             iterations),
            "normest.transforms_per_iteration": ratio(
                float((transform & _inside(parent, pm)).sum()), iterations),
            "symbols.points": float(points[outer("symbols.eval")].sum()),
            "symbols.eval_s": self_s("symbols.eval"),
            "bump.smooth_step_calls": float(ss.sum()),
            "bump.smooth_step_points": float(points[ss].sum()),
            "bump.smooth_step_order_mean": ratio(float(aux[ss].sum()),
                                                 float(ss.sum())),
            "bump.smooth_step_s": self_s("bump.smooth_step"),
            "bump.cutoff_calls": float(outer("bump.cutoff").sum()),
            "bump.cutoff_s": self_s("bump.cutoff"),
            "quadrature.gk_calls": gk_calls,
            "quadrature.gk_nodes": gk_nodes,
            "quadrature.gk_nodes_per_call": ratio(gk_nodes, gk_calls),
            "quadrature.gk_bookkeeping_s": self_s("quadrature.gk"),
            "quadrature.integrand_s": self_s("quadrature.integrand"),
            "quadrature.gk_errors": float(self.gk_errors),
            "bessel.calls": float(bessel.sum()),
            "bessel.points": float(points[bessel].sum()),
            "bessel.s": self_s("bessel.eval"),
            "oscillatory.evaluations": float(osc.sum()),
            "oscillatory.s": self_s("oscillatory.evaluation",
                                    "oscillatory.other"),
            "oscillatory.ms_per_evaluation":
                1e3 * ratio(float(dur[osc].sum()), float(osc.sum())),
            # inclusive: the oracle's work sits in its GK integrands
            "identities.oracle_s": float(dur[outer("identities.oracle")]
                                         .sum()),
            "identities.testfn_points": float(points[
                sel("identities.testfn")].sum()),
            "identities.testfn_s": self_s("identities.testfn"),
            "identities.pairings": float(sel("identities.pairing").sum()),
            "regions.calls": float(outer("regions.eval").sum()),
            "regions.s": self_s("regions.eval"),
            "cli.overhead_s": float(dur[sel("cli.run")].sum())
            - float(dur[sel("cli.handler")].sum()),
            "trace.spans": float(nid.size),
        }
        for cid in CRITERIA:
            m[f"acceptance.{cid}_s"] = float(check_seconds.get(cid, 0.0))

        # Layer buckets.  GK's integrand is the caller's code run on GK's
        # behalf, so it gets a bucket of its own.
        layers: dict[str, float] = {}
        for name, i in self._ids.items():
            key = "integrand" if name == "quadrature.integrand" \
                else name.split(".")[0]
            layers[key] = layers.get(key, 0.0) + float(self_t[nid == i].sum())
        unattributed = traced_wall - float(dur[~has_parent].sum())
        layers["unattributed"] = unattributed
        m["trace.unattributed_s"] = unattributed
        return m, layers


def _inside(parent: np.ndarray, marks: np.ndarray) -> np.ndarray:
    """Spans that are, or descend from, a marked span.

    Parents precede their children in the arrays, so one forward sweep
    carries each mark down its chain.
    """
    flags = marks.tolist()
    for i, p in enumerate(parent.tolist()):
        if p >= 0 and flags[p]:
            flags[i] = True
    return np.array(flags, dtype=bool)


#: per-layer metric name -> unit; every traced run reports all of them
PER_LAYER_UNITS: dict[str, str] = {
    "spectral.transforms": "count",
    "spectral.transform_points": "count",
    "spectral.transform_s": "s",
    "spectral.transform_flops_computed": "flop",
    "spectral.transform_bytes_computed": "B",
    "spectral.lp_norm_s": "s",
    "normest.restarts": "count",
    "normest.power_iterations": "count",
    "normest.aborts": "count",
    "normest.power_method_s": "s",
    "normest.dualize_s": "s",
    "normest.s_per_iteration": "s",
    "normest.transforms_per_iteration": "1",
    "symbols.points": "count",
    "symbols.eval_s": "s",
    "bump.smooth_step_calls": "count",
    "bump.smooth_step_points": "count",
    "bump.smooth_step_order_mean": "1",
    "bump.smooth_step_s": "s",
    "bump.cutoff_calls": "count",
    "bump.cutoff_s": "s",
    "quadrature.gk_calls": "count",
    "quadrature.gk_nodes": "count",
    "quadrature.gk_nodes_per_call": "count",
    "quadrature.gk_bookkeeping_s": "s",
    "quadrature.integrand_s": "s",
    "quadrature.gk_errors": "count",
    "bessel.calls": "count",
    "bessel.points": "count",
    "bessel.s": "s",
    "oscillatory.evaluations": "count",
    "oscillatory.s": "s",
    "oscillatory.ms_per_evaluation": "ms",
    "identities.oracle_s": "s",
    "identities.testfn_points": "count",
    "identities.testfn_s": "s",
    "identities.pairings": "count",
    "regions.calls": "count",
    "regions.s": "s",
    **{f"acceptance.{cid}_s": "s" for cid in CRITERIA},
    "cli.overhead_s": "s",
    "trace.spans": "count",
    "trace.overhead_ratio": "1",
    "trace.unattributed_s": "s",
}
