"""Spans around the library's public functions, recorded from outside.

``Tracer.install`` wraps every public function of the layer modules at each
name a caller resolves it by: the module attribute (reached by calls
through module globals, such as ``ols.fit`` from ``stepwise_aic``) and
every by-value import of it into another arealstat module (such as
``pipeline.parse_geometry``).  The library itself is not edited.

Spans stay in memory and are written out once, by ``dump``.  ``layer_metrics``
turns one run's spans into the per-layer metrics; times are self times, a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import sys
import time

LAYERS = (
    "ingest",
    "weights",
    "stats",
    "hotspot",
    "ols",
    "spatial_models",
    "cluster",
    "render",
)


def _peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _vertices(units) -> int:
    total = 0
    for unit in units:
        for polygon in unit.geometry:
            for ring in polygon:
                total += len(ring) - (1 if ring[0] == ring[-1] else 0)
    return total


def _links(args, kwargs, result) -> dict:
    return {"weights.links": int(sum(len(nb) for nb in result.neighbors))}


# Counters read from a call's arguments or result, keyed by span name.  Each
# returns metric -> value, summed over spans; log_det's "p" is kept per span.
_PROBES = {
    "ingest.parse_geometry": lambda args, kwargs, result: {
        "ingest.units": len(result),
        "ingest.vertices": _vertices(result),
    },
    "weights.queen_contiguity": _links,
    "weights.rook_contiguity": _links,
    "ols.stepwise_aic": lambda args, kwargs, result: {"ols.stepwise_moves": len(result[2]) - 1},
    "spatial_models.log_det": lambda args, kwargs, result: {
        "p": float(kwargs["p"] if "p" in kwargs else args[1])
    },
}


class Tracer:
    """In-memory span recorder for one run in one process."""

    def __init__(self) -> None:
        # each span: [name, parent index or -1, start, end, rss start KiB,
        # rss end KiB, raised, probe counters or None]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        probe = _PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, parent, 0.0, 0.0, _peak_rss_kib(), 0, False, None]
            self.spans.append(span)
            self._stack.append(index)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[3] = time.perf_counter()
                span[5] = _peak_rss_kib()
                self._stack.pop()
            if probe is not None:
                # evaluated in dump(), so that counting stays outside the spans
                span[7] = (probe, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module in place."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"arealstat.{layer}")
            if module is None:
                raise RuntimeError(f"arealstat.{layer} is not imported")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != "arealstat" and not modname.startswith("arealstat."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(module, attr, wrapper)

    def dump(self, path: str, start: float, end: float) -> None:
        """Write the spans and the traced run's own interval as JSON."""
        for span in self.spans:
            if span[7] is not None:
                probe, args, kwargs, result = span[7]
                span[7] = probe(args, kwargs, result)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"start": start, "end": end, "spans": self.spans}, fh)


def _self_times(spans: list[list]) -> list[float]:
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[3] - s[2]
    return own


# metric name -> span names whose self times it sums
_TIME_METRICS = {
    "cluster.ward_cluster_s": ("cluster.ward_cluster",),
    "cluster.cut_s": ("cluster.cut",),
    "cluster.profile_s": ("cluster.profile",),
    "spatial_models.spectral_cache_s": ("spatial_models.spectral_cache",),
    "spatial_models.fit_s": ("spatial_models.fit_error_ml", "spatial_models.fit_lag_ml"),
    "spatial_models.log_det_s": ("spatial_models.log_det",),
    "ols.vif_prune_s": ("ols.vif_prune", "ols.vif"),
    "ols.stepwise_aic_s": ("ols.stepwise_aic",),
    "ols.significance_prune_s": ("ols.significance_prune",),
    "ols.fit_s": ("ols.fit",),
    "ols.lm_tests_s": ("ols.lm_tests",),
    "ols.diagnostics_s": (
        "ols.jarque_bera",
        "ols.koenker_bassett",
        "ols.condition_number",
        "ols.run_diagnostics",
    ),
    "ingest.parse_geometry_s": ("ingest.parse_geometry",),
    "ingest.parse_attributes_s": ("ingest.parse_attributes",),
    "ingest.merge_s": ("ingest.merge",),
    "weights.contiguity_s": ("weights.queen_contiguity", "weights.rook_contiguity"),
    "weights.to_weights_s": ("weights.to_weights",),
    "weights.write_weights_s": ("weights.write_weights",),
    "hotspot.gi_star_s": ("hotspot.gi_star", "hotspot.classify"),
    "render.choropleth_s": ("render.render_choropleth", "render.quantile_bins"),
}

# span name -> metric that takes its rise of peak RSS, in MiB
_RSS_METRICS = {
    "cluster.ward_cluster": "cluster.ward_rss_rise_mb",
    "spatial_models.spectral_cache": "spatial_models.spectral_cache_rss_rise_mb",
}

_COUNT_METRICS = (
    "spatial_models.log_det_calls",
    "ols.fit_calls",
    "ols.stepwise_moves",
    "ingest.units",
    "ingest.vertices",
    "weights.links",
    "render.maps",
)

METRIC_UNITS = {
    **{m: "s" for m in _TIME_METRICS},
    **{f"{layer}.total_s": "s" for layer in LAYERS},
    "pipeline.self_s": "s",
    **{m: "MiB" for m in _RSS_METRICS.values()},
    **{m: "count" for m in _COUNT_METRICS},
    "spatial_models.log_det_distinct_ratio": "1",
    "ols.stepwise_move_ratio": "1",
    **{f"{layer}.calls": "count" for layer in LAYERS},
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "pipeline.output_bytes": "B",
}


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run, from the document ``dump`` wrote.

    Every metric in METRIC_UNITS except ``pipeline.output_bytes`` is set; a
    layer the run never called reads 0.
    """
    spans = doc["spans"]
    own = _self_times(spans)
    out = {m: 0.0 for m in METRIC_UNITS if m != "pipeline.output_bytes"}
    by_span = {}
    for s, t in zip(spans, own):
        by_span[s[0]] = by_span.get(s[0], 0.0) + t
        layer = s[0].split(".")[0]
        out[f"{layer}.total_s"] += t
        out[f"{layer}.calls"] += 1
        if s[6]:
            out[f"{layer}.errors"] += 1
        if s[0] in _RSS_METRICS:
            out[_RSS_METRICS[s[0]]] += (s[5] - s[4]) / 1024.0
    for metric, names in _TIME_METRICS.items():
        out[metric] = sum(by_span.get(n, 0.0) for n in names)
    root_time = sum(s[3] - s[2] for s in spans if s[1] < 0)
    out["pipeline.self_s"] = (doc["end"] - doc["start"]) - root_time

    def named(name):
        return [s for s in spans if s[0] == name]

    for s in spans:
        for key, value in (s[7] or {}).items():
            if key in out:
                out[key] += value
    log_dets = named("spatial_models.log_det")
    out["spatial_models.log_det_calls"] = len(log_dets)
    if log_dets:
        distinct = {s[7]["p"] for s in log_dets}
        out["spatial_models.log_det_distinct_ratio"] = len(distinct) / len(log_dets)
    fits = named("ols.fit")
    out["ols.fit_calls"] = len(fits)
    stepwise = {i for i, s in enumerate(spans) if s[0] == "ols.stepwise_aic"}
    stepwise_fits = sum(1 for s in fits if s[1] in stepwise)
    if stepwise_fits:
        out["ols.stepwise_move_ratio"] = out["ols.stepwise_moves"] / stepwise_fits
    out["render.maps"] = len(named("render.render_choropleth"))
    return out
