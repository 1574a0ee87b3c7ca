"""Spans around the calls into kpwave's layers, for the traced run.

kpwave's modules bind names at import (``from .grids import
forward_transform``, ``from scipy import fft as sfft``), so a wrapper is
installed by rebinding the name in every kpwave module that holds the
function, and calls made inside kpwave pass through it as well.  Spans
(name, start, end, parent, round) stay in memory; the caller writes them
out when the run ends.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import warnings as _warnings

import scipy.fft

# (module, function, span name, required).  The complex transform variants
# count under the real ones so that the metrics survive a merge of the two.
TRACED = (
    ("grids", "forward_transform", "grids.forward_transform", True),
    ("grids", "forward_transform_complex", "grids.forward_transform", False),
    ("grids", "inverse_transform", "grids.inverse_transform", True),
    ("grids", "inverse_transform_complex", "grids.inverse_transform", False),
    ("grids", "save_snapshot", "grids.snapshot_io", True),
    ("grids", "load_snapshot", "grids.snapshot_io", True),
    ("evolution", "evolve", "evolution.evolve", True),
    ("evolution", "evolve_linearized", "evolution.evolve_linearized", True),
    ("evolution", "step_linearized", "evolution.step_linearized", True),
    ("evolution", "linear_propagate", "evolution.linear_propagate", True),
    ("geometry", "phase_phi_grid", "geometry.phase_phi_grid", True),
    ("vfields", "derivative", "vfields.derivative", True),
    ("vfields", "x_norm", "vfields.x_norm", True),
    ("vfields", "leakage_fraction", "vfields.leakage_fraction", True),
    ("decompose", "pointwise_profile", "decompose.pointwise_profile", True),
    ("decompose", "dyadic_decompose", "decompose.dyadic_decompose", True),
    ("packets", "gamma", "packets.gamma", True),
    ("packets", "reconstruction_error", "packets.reconstruction_error", True),
    ("packets", "build_packet", "packets.build_packet", True),
    ("scattering", "scattering_residuals", "scattering.scattering_residuals", True),
    ("scattering", "band_project", "scattering.band_project", True),
    ("harness", "build_initial_data", "harness.build_initial_data", True),
    ("harness", "run_experiment", "harness.run_experiment", True),
)

# every 2-D (or n-D) transform scipy.fft offers, full or half spectrum
FFT_FUNCS = ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")

WARNING_SPAN = "vfields.untrusted_warnings"


def kpwave_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "kpwave" or name.startswith("kpwave."))]


def rebind(target, replacement) -> list:
    """Point every kpwave module attribute that is `target` at
    `replacement`; returns (namespace, name, old value) for undoing."""
    undo = []
    for mod in kpwave_modules():
        for attr, val in list(vars(mod).items()):
            if val is target:
                undo.append((mod, attr, val))
                setattr(mod, attr, replacement)
    return undo


def restore(undo: list) -> None:
    for ns, attr, val in reversed(undo):
        if isinstance(ns, dict):
            ns[attr] = val
        else:
            setattr(ns, attr, val)


def _evolve_attrs(args, kwargs, result):
    cfg = kwargs.get("cfg", args[1] if len(args) > 1 else None)
    linear = kwargs.get("linear", args[3] if len(args) > 3 else False)
    steps = 0 if linear else int(round((cfg.t_end - cfg.t0) / cfg.dt))
    return {"steps": steps, "snapshots": len(result.snapshots)}


def _snapshots_attrs(args, kwargs, result):
    return {"snapshots": len(result.snapshots)}


def _save_attrs(args, kwargs, result):
    f = kwargs.get("f", args[0] if args else None)
    return {"bytes": int(f.samples.nbytes)}


def _load_attrs(args, kwargs, result):
    return {"bytes": int(result.samples.nbytes)}


ATTRS = {
    ("evolution", "evolve"): _evolve_attrs,
    ("evolution", "evolve_linearized"): _snapshots_attrs,
    ("grids", "save_snapshot"): _save_attrs,
    ("grids", "load_snapshot"): _load_attrs,
}


class _FFTProxy:
    """Stands in for the `scipy.fft` module inside kpwave's modules."""

    def __init__(self, wrapped: dict):
        self._wrapped = wrapped

    def __getattr__(self, name):
        return self._wrapped.get(name) or getattr(scipy.fft, name)


class _WarningsProxy:
    """Stands in for the `warnings` module inside kpwave.vfields and
    records each UntrustedFieldWarning before passing it on."""

    def __init__(self, tracer, category):
        self._tracer = tracer
        self._category = category

    def warn(self, message, category=None, stacklevel=1, **kw):
        if category is self._category:
            self._tracer.event(WARNING_SPAN)
        _warnings.warn(message, category, stacklevel=stacklevel + 1, **kw)

    def __getattr__(self, name):
        return getattr(_warnings, name)


class Tracer:
    """Collects spans while installed; `segment` labels the spans that
    follow (a set-up or a round)."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, segment, attrs]
        self._stack = []
        self._undo = []
        self.segment = None

    # -- recording --------------------------------------------------------

    def wrap(self, name, fn, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else -1, self.segment, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if attrs is not None:
                spans[idx][5] = attrs(args, kwargs, result)
            return result

        return traced

    def event(self, name):
        now = time.perf_counter()
        self.spans.append([name, now, now, self._stack[-1] if self._stack else -1,
                           self.segment, None])

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function; raises if a required one is gone,
        so that a renamed function cannot silently read as zero."""
        import kpwave.harness
        import kpwave.vfields

        mods = {m.__name__.split(".")[-1]: m for m in kpwave_modules()}
        undo = []
        for mod, fname, span, required in TRACED:
            fn = getattr(mods[mod], fname, None)
            if fn is None:
                if required:
                    restore(undo)
                    raise RuntimeError(f"traced function kpwave.{mod}.{fname} not found")
                continue
            undo += rebind(fn, self.wrap(span, fn, ATTRS.get((mod, fname))))
        fft_wrapped = {n: self.wrap("grids.fft", getattr(scipy.fft, n)) for n in FFT_FUNCS}
        undo += rebind(scipy.fft, _FFTProxy(fft_wrapped))
        for n, fn in fft_wrapped.items():
            undo += rebind(getattr(scipy.fft, n), fn)
        undo += rebind(_warnings, _WarningsProxy(self, kpwave.vfields.UntrustedFieldWarning))
        # run_experiment dispatches diagnostics through this table
        runners = kpwave.harness._DIAG_RUNNERS
        for kind, fn in list(runners.items()):
            undo.append((runners, kind, fn))
            runners[kind] = self.wrap(f"harness.diag.{kind}", fn)
        self._undo = undo

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def dump(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p, "segment": seg,
                 **({"attrs": a} if a else {})}
                for n, s, e, p, seg, a in self.spans]


# ---------------------------------------------------------------------------
# per-layer metrics

def totals_by_segment(spans: list) -> dict:
    """Per segment, per span name: calls, total seconds (outermost spans
    only, so a name nested in itself is not counted twice), self seconds,
    and the summed attributes."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _seg, _attrs in spans:
        if parent != -1:
            child_s[parent] += end - start
    out = {}
    for i, (name, start, end, parent, seg, attrs) in enumerate(spans):
        tot = out.setdefault(seg, {}).setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        tot["calls"] += 1
        tot["self_s"] += end - start - child_s[i]
        p = parent
        while p != -1 and spans[p][0] != name:
            p = spans[p][3]
        if p == -1:
            tot["s"] += end - start
        for k, v in (attrs or {}).items():
            tot[k] = tot.get(k, 0) + v
    return out


def combine(setup: dict, rounds: list) -> dict:
    """One set-up plus the median round, key by key."""
    names = set(setup).union(*rounds) if rounds else set(setup)
    out = {}
    for name in names:
        keys = set(setup.get(name, {})).union(*(r.get(name, {}) for r in rounds))
        out[name] = {
            k: setup.get(name, {}).get(k, 0)
            + (statistics.median(r.get(name, {}).get(k, 0) for r in rounds) if rounds else 0)
            for k in keys}
    return out


def per_layer_metrics(tot: dict) -> dict:
    """The per-layer metrics, by name, as (value, unit)."""

    def get(name, key="calls"):
        return tot.get(name, {}).get(key, 0)

    def per_call_ms(name, key="s"):
        n = get(name)
        return 1000.0 * get(name, key) / n if n else 0.0

    snapshots = get("evolution.evolve", "snapshots") + get("evolution.evolve_linearized", "snapshots")
    steps = get("evolution.evolve", "steps")
    m = {
        "grids.fft.calls": (get("grids.fft"), "count"),
        "grids.fft.s": (get("grids.fft", "s"), "s"),
        "grids.fft.calls_per_snapshot": (get("grids.fft") / snapshots if snapshots else 0.0, "count"),
        "grids.forward_transform.calls": (get("grids.forward_transform"), "count"),
        "grids.forward_transform.s": (get("grids.forward_transform", "s"), "s"),
        "grids.inverse_transform.calls": (get("grids.inverse_transform"), "count"),
        "grids.inverse_transform.s": (get("grids.inverse_transform", "s"), "s"),
        "grids.snapshot_io.bytes": (get("grids.snapshot_io", "bytes"), "B"),
        "grids.snapshot_io.s": (get("grids.snapshot_io", "s"), "s"),
        "evolution.evolve.self_s": (get("evolution.evolve", "self_s"), "s"),
        "evolution.evolve.steps": (steps, "count"),
        "evolution.evolve.ms_per_step": (
            1000.0 * get("evolution.evolve", "s") / steps if steps else 0.0, "ms"),
        "evolution.evolve_linearized.self_s": (get("evolution.evolve_linearized", "self_s"), "s"),
        "evolution.step_linearized.calls": (get("evolution.step_linearized"), "count"),
        "evolution.step_linearized.ms": (per_call_ms("evolution.step_linearized"), "ms"),
        "evolution.linear_propagate.calls": (get("evolution.linear_propagate"), "count"),
        "evolution.linear_propagate.s": (get("evolution.linear_propagate", "s"), "s"),
        "vfields.derivative.calls": (get("vfields.derivative"), "count"),
        "vfields.derivative.s": (get("vfields.derivative", "s"), "s"),
        "vfields.x_norm.calls": (get("vfields.x_norm"), "count"),
        "vfields.x_norm.ms": (per_call_ms("vfields.x_norm"), "ms"),
        "vfields.leakage_fraction.calls": (get("vfields.leakage_fraction"), "count"),
        "vfields.untrusted_warnings": (get(WARNING_SPAN), "count"),
        "decompose.pointwise_profile.calls": (get("decompose.pointwise_profile"), "count"),
        "decompose.pointwise_profile.s": (get("decompose.pointwise_profile", "s"), "s"),
        "decompose.dyadic_decompose.s": (get("decompose.dyadic_decompose", "s"), "s"),
        "packets.gamma.calls": (get("packets.gamma"), "count"),
        "packets.gamma.s": (get("packets.gamma", "s"), "s"),
        "packets.reconstruction_error.s": (get("packets.reconstruction_error", "s"), "s"),
        "packets.build_packet.calls": (get("packets.build_packet"), "count"),
        "geometry.phase_phi_grid.calls": (get("geometry.phase_phi_grid"), "count"),
        "geometry.phase_phi_grid.s": (get("geometry.phase_phi_grid", "s"), "s"),
        "scattering.scattering_residuals.calls": (get("scattering.scattering_residuals"), "count"),
        "scattering.scattering_residuals.s": (get("scattering.scattering_residuals", "s"), "s"),
        "scattering.band_project.calls": (get("scattering.band_project"), "count"),
        "harness.build_initial_data.s": (get("harness.build_initial_data", "s"), "s"),
        "harness.run_experiment.self_s": (get("harness.run_experiment", "self_s"), "s"),
    }
    for kind in ("norms", "sup", "gamma", "decompose", "scatter"):
        m[f"harness.diag.{kind}.s"] = (get(f"harness.diag.{kind}", "s"), "s")
    return m
