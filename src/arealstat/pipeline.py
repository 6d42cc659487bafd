"""Configuration-driven orchestration of the full analysis sequence.

One staged executor covers the full pipeline and every subcommand subset,
so a partial run's files and report sections are byte-identical to the
matching pieces of a full run.  Three tables decide what each subcommand
does: ``_STAGES`` lists the stages it runs, ``_SECTIONS`` the report
sections it builds and lays out in report.txt, and ``_FILES`` the files it
writes.  Any stage failure surfaces as a PipelineError tagged with the
stage name.
"""

from __future__ import annotations

import json
import math
import os
import re
import warnings
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from ._version import __version__
from . import cluster as _cluster
from . import hotspot as _hotspot
from . import ols as _ols
from . import render as _render
from . import spatial_models as _spatial
from . import stats as _stats
from . import weights as _weights
from .ingest import (
    AttributeTable,
    MergedDataset,
    _feature_dicts,
    drop_missing_rows,
    merge,
    parse_attributes,
    parse_geometry,
)

__all__ = [
    "PipelineConfig",
    "PipelineError",
    "load_config",
    "run_pipeline",
    "run_subcommand",
    "SUBCOMMANDS",
]

SUBCOMMANDS = ("pipeline", "weights", "hotspot", "regress", "cluster")


class PipelineError(Exception):
    """A stage failure; the message carries the stage tag."""

    def __init__(self, stage: str, cause: str):
        self.stage = stage
        self.cause = cause
        super().__init__(f"[{stage}] {cause}")


@dataclass
class PipelineConfig:
    """Everything a run needs, mirroring the flat config file: each field is
    one config key, and a field without a default is a required key."""

    geometry_path: str
    attributes_path: str
    id_property: str
    id_column: str
    outcome_column: str
    candidate_predictor_columns: list[str]
    contiguity: str = "queen"
    snap_tolerance: float | None = None
    alpha: float = 0.05
    vif_threshold: float = 10.0
    fdr_alpha: float = 0.05
    group_k: int = 5
    top_features_for_grouping: int = 4
    output_dir: str = "."
    spearman_column: str | None = None
    merge_policy: str = "drop-with-report"
    allow_islands: bool = False

    def validate(self) -> None:
        for name in ("geometry_path", "attributes_path", "id_property",
                     "id_column", "outcome_column", "output_dir"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise ValueError(f"config field {name} must be a nonempty string")
        preds = self.candidate_predictor_columns
        if not isinstance(preds, list) or not preds:
            raise ValueError("candidate_predictor_columns must be a nonempty list")
        if not all(isinstance(c, str) for c in preds):
            raise ValueError("candidate_predictor_columns must hold column names (strings)")
        if len(set(preds)) != len(preds):
            raise ValueError("candidate_predictor_columns contains duplicates")
        if self.outcome_column in preds:
            raise ValueError(
                f"outcome column {self.outcome_column!r} may not also be a predictor"
            )
        if self.contiguity not in ("queen", "rook"):
            raise ValueError(f"contiguity must be queen or rook, got {self.contiguity!r}")
        tol = self.snap_tolerance
        if tol is not None and not (_is_number(tol) and math.isfinite(tol) and tol > 0):
            raise ValueError("snap_tolerance must be a finite positive number when given")
        for name in ("alpha", "fdr_alpha"):
            v = getattr(self, name)
            if not (_is_number(v) and 0 < v < 1):
                raise ValueError(f"{name} must be a number in (0, 1)")
        if not (_is_number(self.vif_threshold) and self.vif_threshold > 0):
            raise ValueError("vif_threshold must be a positive number")
        for name in ("group_k", "top_features_for_grouping"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise ValueError(f"{name} must be a positive integer")
        if not isinstance(self.allow_islands, bool):
            raise ValueError("allow_islands must be true or false")
        if self.merge_policy not in ("drop-with-report", "fail-on-any-unmatched"):
            raise ValueError(f"unknown merge policy {self.merge_policy!r}")
        if self.spearman_column is not None:
            if not isinstance(self.spearman_column, str) or not self.spearman_column:
                raise ValueError("spearman_column must be a nonempty string when given")
            if self.spearman_column == self.outcome_column:
                raise ValueError("spearman_column may not be the outcome column")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def load_config(path: str) -> PipelineConfig:
    """Read the flat key-value config document."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise PipelineError("config", f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PipelineError("config", f"malformed config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise PipelineError("config", "config document must be a flat object")
    schema = fields(PipelineConfig)
    unknown = sorted(set(doc) - {f.name for f in schema})
    if unknown:
        raise PipelineError("config", f"unknown config keys {unknown}")
    missing = sorted(f.name for f in schema if f.default is MISSING and f.name not in doc)
    if missing:
        raise PipelineError("config", f"missing config keys {missing}")
    for f in schema:
        # annotations are strings here; 10 for a float key is read as 10.0
        if f.type.startswith("float") and type(doc.get(f.name)) is int:
            try:
                doc[f.name] = float(doc[f.name])
            except OverflowError:
                raise PipelineError(
                    "config", f"{f.name} is an integer past the float range"
                ) from None
    config = PipelineConfig(**doc)
    try:
        config.validate()
    except ValueError as exc:
        raise PipelineError("config", str(exc)) from exc
    return config


@contextmanager
def _stage(name: str):
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, str(exc)) from exc


def _stars(p: float) -> str:
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""


def _fmt(x) -> str:
    if x is None:
        return ""
    x = float(x)
    if math.isnan(x):
        return "nan"
    return f"{x:.6g}"


def _sanitize(obj):
    # JSON cannot carry non-finite floats; encode them as strings/null
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x):
            return None
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return x
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


@dataclass(eq=False)
class _Context:
    """Accumulated state shared by the stages of one run."""

    config: PipelineConfig
    dataset: MergedDataset | None = None
    dropped_missing: list = field(default_factory=list)
    links: _weights.SpatialWeights | None = None
    island_ids: list = field(default_factory=list)
    gi: _hotspot.HotspotResult | None = None
    summary_rows: list = field(default_factory=list)
    z_outcome: np.ndarray | None = None
    z_columns: dict = field(default_factory=dict)
    design_full: _ols.DesignMatrix | None = None
    vif_removed: list = field(default_factory=list)
    design_vif: _ols.DesignMatrix | None = None
    stepwise_trace: list = field(default_factory=list)
    design_step: _ols.DesignMatrix | None = None
    sig_removed: list = field(default_factory=list)
    design_final: _ols.DesignMatrix | None = None
    fit_final: _ols.OlsFit | None = None
    diagnostics: _ols.DiagnosticsReport | None = None
    kb_skipped: str | None = None
    lm_suite: _ols.LmSuite | None = None
    spatial_skip_reason: str | None = None
    decision: str | None = None
    decision_warning: str | None = None
    spatial_fit: _spatial.SpatialFit | None = None
    comparison: _spatial.ModelComparison | None = None
    cluster_features: list = field(default_factory=list)
    dendrogram: _cluster.Dendrogram | None = None
    assignments: np.ndarray | None = None
    profiles: list = field(default_factory=list)
    spearman_column: str | None = None
    spearman_rows: list = field(default_factory=list)
    spearman_skip_reason: str | None = None
    # the report before _sanitize; the CSV tables are written from its sections
    report: dict = field(default_factory=dict)


def _analysis_table(config: PipelineConfig, table: AttributeTable) -> AttributeTable:
    """The columns the stages read: the outcome, the candidate predictors
    and the Spearman column, in that order."""
    cols = [config.outcome_column] + list(config.candidate_predictor_columns)
    if config.spearman_column and config.spearman_column not in cols:
        cols.append(config.spearman_column)
    missing = [c for c in cols if c not in table.columns]
    if missing:
        raise ValueError(f"attribute table lacks analysis columns {missing}")
    idx = [table.columns.index(c) for c in cols]
    return AttributeTable(ids=table.ids, columns=cols, values=table.values[:, idx])


def _read(path: str, what: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {what} {path}: {exc}") from exc


def _stage_ingest(ctx: _Context) -> None:
    cfg = ctx.config
    geo_bytes = _read(cfg.geometry_path, "geometry")
    attr_bytes = _read(cfg.attributes_path, "attributes")
    units = parse_geometry(geo_bytes, cfg.id_property)
    table = _analysis_table(cfg, parse_attributes(attr_bytes, cfg.id_column))
    merged = merge(units, table, policy=cfg.merge_policy)
    reduced, dropped_missing = drop_missing_rows(merged, table.columns)
    values = reduced.table.values
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, j = bad[0]
        raise ValueError(
            f"unit {reduced.table.ids[i]!r} has non-finite value "
            f"{float(values[i, j])!r} in column {table.columns[j]!r}"
        )
    if reduced.n < 3:
        raise ValueError(f"only {reduced.n} units remain after merge and missing-value drops")
    ctx.dataset = reduced
    ctx.dropped_missing = dropped_missing


def _stage_weights(ctx: _Context) -> None:
    cfg = ctx.config
    build = (
        _weights.queen_contiguity if cfg.contiguity == "queen" else _weights.rook_contiguity
    )
    ctx.links = build(ctx.dataset.units, cfg.snap_tolerance)
    islands = _weights.detect_islands(ctx.links)
    ctx.island_ids = [ctx.dataset.units.ids[i] for i in islands]


def _stage_summarize(ctx: _Context) -> None:
    ctx.summary_rows = _stats.summarize(ctx.dataset.table)


def _stage_zscore(ctx: _Context) -> None:
    cfg = ctx.config
    table = ctx.dataset.table

    def z(name: str) -> np.ndarray:
        try:
            return _stats.zscore(table.column(name))
        except ValueError as exc:
            raise ValueError(f"column {name!r}: {exc}") from exc

    ctx.z_outcome = z(cfg.outcome_column)
    ctx.z_columns = {c: z(c) for c in cfg.candidate_predictor_columns}
    ctx.design_full = _ols.design_matrix(
        [(c, ctx.z_columns[c]) for c in cfg.candidate_predictor_columns]
    )


def _stage_gi_star(ctx: _Context) -> None:
    x = ctx.dataset.table.column(ctx.config.outcome_column)
    ctx.gi = _hotspot.gi_star(ctx.links, x, fdr_alpha=ctx.config.fdr_alpha)


def _stage_vif_prune(ctx: _Context) -> None:
    design, removed = _ols.vif_prune(ctx.design_full, ctx.config.vif_threshold)
    ctx.design_vif = design
    ctx.vif_removed = removed


def _stage_stepwise(ctx: _Context) -> None:
    design, _, trace = _ols.stepwise_aic(ctx.design_vif, ctx.z_outcome)
    ctx.design_step = design
    ctx.stepwise_trace = trace


def _stage_significance(ctx: _Context) -> None:
    design, final_fit, removed = _ols.significance_prune(
        ctx.design_step, ctx.z_outcome, ctx.config.alpha
    )
    ctx.design_final = design
    ctx.fit_final = final_fit
    ctx.sig_removed = removed


def _stage_diagnostics(ctx: _Context) -> None:
    jb = _ols.jarque_bera(ctx.fit_final.residuals)
    cond = _ols.condition_number(ctx.design_final)
    if ctx.design_final.q >= 2:
        kb = _ols.koenker_bassett(ctx.design_final, ctx.fit_final.residuals)
    else:
        kb = None
        ctx.kb_skipped = "final model has no slopes; heteroskedasticity test undefined"
    ctx.diagnostics = _ols.DiagnosticsReport(
        jarque_bera=jb, koenker_bassett=kb, condition_number=cond
    )


def _island_guidance(ctx: _Context) -> str:
    return (
        f"{len(ctx.island_ids)} isolated units ({ctx.island_ids}) have no "
        "neighbors; row-standardized weights and spatial models are "
        "undefined. Remove or reconnect them, raise snap_tolerance, or set "
        "allow_islands to skip the spatial stages."
    )


def _stage_lm(ctx: _Context) -> None:
    if ctx.island_ids:
        if ctx.config.allow_islands:
            ctx.spatial_skip_reason = _island_guidance(ctx)
            return
        raise ValueError(_island_guidance(ctx))
    ctx.lm_suite = _ols.lm_tests(
        ctx.design_final, ctx.z_outcome, ctx.fit_final, ctx.links
    )


def _stage_decision(ctx: _Context) -> None:
    if ctx.spatial_skip_reason:
        return
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ctx.decision = _ols.model_decision(ctx.lm_suite, ctx.config.alpha)
        except ValueError as exc:
            if ctx.design_final.q > 1:
                raise
            raise ValueError(
                f"{exc}: the final model retained no predictor, so the spatial "
                "lag and error models coincide"
            ) from None
    for w in caught:
        ctx.decision_warning = str(w.message)


def _stage_spatial(ctx: _Context) -> None:
    if ctx.spatial_skip_reason or ctx.decision == "stay-OLS":
        return
    fit_fn = (
        _spatial.fit_error_ml if ctx.decision == "fit-error" else _spatial.fit_lag_ml
    )
    ctx.spatial_fit = fit_fn(ctx.design_final, ctx.z_outcome, ctx.links)


def _stage_compare(ctx: _Context) -> None:
    if ctx.spatial_fit is None:
        return
    ctx.comparison = _spatial.compare(ctx.fit_final, ctx.spatial_fit)


def _final_slope_ranking(ctx: _Context) -> list[str]:
    if ctx.spatial_fit is not None:
        names = ctx.spatial_fit.names
        betas = ctx.spatial_fit.beta
    else:
        names = ctx.fit_final.names
        betas = ctx.fit_final.beta
    slopes = [(abs(float(b)), i, name) for i, (name, b) in enumerate(zip(names, betas)) if name != _ols.INTERCEPT]
    # largest magnitude first; design order breaks exact ties
    slopes.sort(key=lambda t: (-t[0], t[1]))
    return [name for _, _, name in slopes]


def _stage_cluster(ctx: _Context) -> None:
    ranked = _final_slope_ranking(ctx)
    if not ranked:
        raise ValueError("final model retained no predictors to group on")
    count = min(ctx.config.top_features_for_grouping, len(ranked))
    ctx.cluster_features = ranked[:count]
    points = np.column_stack([ctx.z_columns[c] for c in ctx.cluster_features])
    ctx.dendrogram = _cluster.ward_cluster(points)
    ctx.assignments = _cluster.cut(ctx.dendrogram, ctx.config.group_k)


def _stage_profile(ctx: _Context) -> None:
    names = [ctx.config.outcome_column] + ctx.cluster_features
    feats = np.column_stack(
        [ctx.z_outcome] + [ctx.z_columns[c] for c in ctx.cluster_features]
    )
    ctx.profiles = _cluster.profile(ctx.assignments, feats, names)


def _stage_spearman(ctx: _Context) -> None:
    cfg = ctx.config
    column = cfg.spearman_column
    if column is None and ctx.vif_removed:
        column = ctx.vif_removed[0][0]
    if column is None:
        ctx.spearman_skip_reason = (
            "no comparison column configured and collinearity pruning removed nothing"
        )
        return
    ctx.spearman_column = column
    base = ctx.dataset.table.column(column)
    rows = []
    for versus in [cfg.outcome_column] + ctx.cluster_features:
        if versus == column:
            continue
        rho, p = _stats.spearman(base, ctx.dataset.table.column(versus))
        rows.append({"versus": versus, "rho": rho, "p": p, "stars": _stars(p)})
    ctx.spearman_rows = rows


# ---------------------------------------------------------------------------
# report assembly


def _coef_rows(names, beta, se, p, t=None) -> list[dict]:
    rows = []
    for i, name in enumerate(names):
        row = {
            "name": name,
            "coefficient": float(beta[i]),
            "se": None if se is None else float(se[i]),
            "p": None if p is None else float(p[i]),
            "stars": "" if p is None else _stars(float(p[i])),
        }
        if t is not None:
            row["t"] = float(t[i])
        rows.append(row)
    return rows


def _section_config(ctx: _Context) -> dict:
    return asdict(ctx.config)


def _section_dropped_units(ctx: _Context) -> dict:
    return {
        "geometry_only": ctx.dataset.dropped_geometry_ids,
        "attributes_only": ctx.dataset.dropped_table_ids,
        "missing_values": ctx.dropped_missing,
    }


def _section_weights(ctx: _Context) -> dict:
    return {
        "n": ctx.links.n,
        "contiguity": ctx.config.contiguity,
        "mode": "row-standardized",
        "directed_links": int(ctx.links.matrix.nnz),
        "islands": list(ctx.island_ids),
    }


def _section_summary(ctx: _Context) -> list[dict]:
    return [
        {
            "name": r.name,
            "mean": r.mean,
            "sd": r.sd,
            "n": r.n,
            "min": r.minimum,
            "max": r.maximum,
        }
        for r in ctx.summary_rows
    ]


def _section_hotspot(ctx: _Context) -> dict:
    counts = {c: 0 for c in _hotspot.CLASS_ORDER}
    for c in ctx.gi.classes:
        counts[c] += 1
    return {
        "fdr_alpha": ctx.config.fdr_alpha,
        "counts": counts,
        "max_z": float(np.max(ctx.gi.z)),
        "min_z": float(np.min(ctx.gi.z)),
    }


def _section_selection(ctx: _Context) -> dict:
    return {
        "candidates": list(ctx.config.candidate_predictor_columns),
        "vif_removed": [
            {"column": name, "vif": float(v)} for name, v in ctx.vif_removed
        ],
        "stepwise_trace": [
            {"action": t["action"], "column": t["column"], "aic": float(t["aic"])}
            for t in ctx.stepwise_trace
        ],
        "significance_removed": list(ctx.sig_removed),
        "final_columns": list(ctx.design_final.slope_names),
    }


def _section_ols(ctx: _Context) -> dict:
    fit = ctx.fit_final
    diag = ctx.diagnostics
    kb = diag.koenker_bassett
    lm = None
    if ctx.lm_suite is not None:
        lm = {
            name: {"stat": float(stat), "p": float(p)}
            for name, stat, p in ctx.lm_suite.as_rows()
        }
        lm["degenerate"] = bool(ctx.lm_suite.degenerate)
    return {
        "coefficients": _coef_rows(fit.names, fit.beta, fit.se, fit.p, t=fit.t),
        "n": fit.n,
        "q": fit.q,
        "r2": float(fit.r2),
        "adj_r2": float(fit.adj_r2),
        "sigma2": float(fit.sigma2),
        "sigma2_ml": float(fit.sigma2_ml),
        "log_likelihood": float(fit.log_likelihood),
        "aic": float(fit.aic),
        "diagnostics": {
            "jarque_bera": {"stat": float(diag.jarque_bera[0]), "p": float(diag.jarque_bera[1])},
            "koenker_bassett": (
                None if kb is None else {"stat": float(kb[0]), "p": float(kb[1])}
            ),
            "koenker_bassett_skipped": ctx.kb_skipped,
            "condition_number": float(diag.condition_number),
        },
        "lm_tests": lm,
    }


def _section_decision(ctx: _Context) -> dict:
    return {
        "alpha": ctx.config.alpha,
        "decision": ctx.decision,
        "warning": ctx.decision_warning,
        "skipped_reason": ctx.spatial_skip_reason,
    }


def _section_spatial(ctx: _Context):
    if ctx.spatial_fit is None:
        return None
    sf = ctx.spatial_fit
    param_name = "lambda" if sf.kind == "error" else "rho"
    # the spatial parameter's row follows the intercept's
    names = [sf.names[0], param_name, *sf.names[1:]]
    beta = [sf.beta[0], sf.param, *sf.beta[1:]]
    se = p = None
    if sf.se_available:
        se = [sf.beta_se[0], sf.param_se, *sf.beta_se[1:]]
        p = [sf.beta_p[0], sf.param_p, *sf.beta_p[1:]]
    return {
        "kind": sf.kind,
        "coefficients": _coef_rows(names, beta, se, p),
        "sigma2": float(sf.sigma2),
        "log_likelihood": float(sf.log_likelihood),
        "aic": float(sf.aic),
        "pseudo_r2": float(sf.pseudo_r2),
        "se_available": bool(sf.se_available),
    }


def _section_comparison(ctx: _Context):
    if ctx.comparison is None:
        return None
    return {
        "rows": [dict(r) for r in ctx.comparison.rows],
        "preferred": ctx.comparison.preferred,
        "note": ctx.comparison.note,
    }


def _section_groups(ctx: _Context) -> dict:
    return {
        "k": ctx.config.group_k,
        "linkage": "ward-d2",
        "features": list(ctx.cluster_features),
        "thresholds": list(_cluster.LABEL_THRESHOLDS),
        "profiles": [
            {
                "group": pr.group,
                "count": pr.count,
                "means": {n: float(m) for n, m in zip(pr.feature_names, pr.means)},
                "labels": dict(zip(pr.feature_names, pr.labels)),
            }
            for pr in ctx.profiles
        ],
    }


def _section_spearman(ctx: _Context) -> dict:
    if ctx.spearman_skip_reason:
        return {"skipped_reason": ctx.spearman_skip_reason}
    return {
        "column": ctx.spearman_column,
        "rows": [dict(r) for r in ctx.spearman_rows],
    }


# ---------------------------------------------------------------------------
# text rendering: one function per report section, from its sanitized JSON
# form to its report.txt lines under the heading


def _text_config(config: dict) -> list[str]:
    return [f"  {key} = {config[key]!r}" for key in sorted(config)]


def _text_dropped_units(dropped: dict) -> list[str]:
    return [
        f"  geometry only: {dropped['geometry_only'] or 'none'}",
        f"  attributes only: {dropped['attributes_only'] or 'none'}",
        f"  missing values: {dropped['missing_values'] or 'none'}",
    ]


def _text_weights(w: dict) -> list[str]:
    return [
        f"  {w['contiguity']} contiguity over {w['n']} units, "
        f"{w['directed_links']} directed links, mode {w['mode']}",
        f"  islands: {w['islands'] or 'none'}",
    ]


def _text_summary(rows: list[dict]) -> list[str]:
    return ["  name mean sd n min max"] + [
        f"  {r['name']} {_fmt(r['mean'])} {_fmt(r['sd'])} {r['n']} "
        f"{_fmt(r['min'])} {_fmt(r['max'])}"
        for r in rows
    ]


def _text_hotspot(h: dict) -> list[str]:
    counts = " ".join(f"{k}={v}" for k, v in h["counts"].items())
    return [
        f"  fdr alpha {_fmt(h['fdr_alpha'])}",
        f"  counts: {counts}",
        f"  z range: [{_fmt(h['min_z'])}, {_fmt(h['max_z'])}]",
    ]


def _text_selection(s: dict) -> list[str]:
    lines = [f"  candidates: {', '.join(s['candidates'])}"]
    lines += [
        f"  removed by collinearity: {r['column']} (VIF={_fmt(r['vif'])})"
        for r in s["vif_removed"]
    ] or ["  removed by collinearity: none"]
    for t in s["stepwise_trace"]:
        col = "" if t["column"] is None else f" {t['column']}"
        lines.append(f"  stepwise {t['action']}{col}: AIC {_fmt(t['aic'])}")
    lines.append(f"  removed by significance: {', '.join(s['significance_removed']) or 'none'}")
    lines.append(f"  final columns: {', '.join(s['final_columns']) or 'none'}")
    return lines


def _text_ols(o: dict) -> list[str]:
    lines = ["  name coefficient se t p"]
    for c in o["coefficients"]:
        lines.append(
            f"  {c['name']} {_fmt(c['coefficient'])} {_fmt(c['se'])} "
            f"{_fmt(c.get('t'))} {_fmt(c['p'])}{c['stars']}"
        )
    lines.append(
        f"  n={o['n']} q={o['q']} r2={_fmt(o['r2'])} adj_r2={_fmt(o['adj_r2'])} "
        f"sigma2={_fmt(o['sigma2'])}"
    )
    lines.append(f"  log_likelihood={_fmt(o['log_likelihood'])} aic={_fmt(o['aic'])}")
    d = o["diagnostics"]
    jb = d["jarque_bera"]
    lines.append(f"  jarque-bera: stat {_fmt(jb['stat'])}, p {_fmt(jb['p'])}")
    if d["koenker_bassett"] is None:
        lines.append(f"  koenker-bassett: skipped ({d['koenker_bassett_skipped']})")
    else:
        kb = d["koenker_bassett"]
        lines.append(f"  koenker-bassett: stat {_fmt(kb['stat'])}, p {_fmt(kb['p'])}")
    cn = d["condition_number"]
    cn_text = cn if isinstance(cn, str) else _fmt(cn)
    lines.append(f"  condition number: {cn_text}")
    lm = o["lm_tests"]
    if lm is not None:
        lines.append("  spatial dependence tests (chi-squared, 1 df):")
        for key in ("lm_error", "lm_lag", "robust_lm_error", "robust_lm_lag"):
            lines.append(f"    {key}: stat {_fmt(lm[key]['stat'])}, p {_fmt(lm[key]['p'])}")
        if lm["degenerate"]:
            lines.append("    robust variants degenerate")
    return lines


def _text_decision(dec: dict) -> list[str]:
    if dec["skipped_reason"]:
        return [f"  skipped: {dec['skipped_reason']}"]
    lines = [f"  {dec['decision']} (alpha {_fmt(dec['alpha'])})"]
    if dec["warning"]:
        lines.append(f"  warning: {dec['warning']}")
    return lines


def _text_spatial(sp_: dict) -> list[str]:
    lines = ["  name coefficient se p"]
    for c in sp_["coefficients"]:
        lines.append(
            f"  {c['name']} {_fmt(c['coefficient'])} {_fmt(c['se'])} "
            f"{_fmt(c['p'])}{c['stars']}"
        )
    lines.append(
        f"  sigma2={_fmt(sp_['sigma2'])} log_likelihood={_fmt(sp_['log_likelihood'])} "
        f"aic={_fmt(sp_['aic'])} pseudo_r2={_fmt(sp_['pseudo_r2'])}"
    )
    if not sp_["se_available"]:
        lines.append("  standard errors unavailable (Hessian not negative definite)")
    return lines


def _text_comparison(cmp_: dict) -> list[str]:
    lines = ["  model fit_statistic fit_value log_likelihood aic n_params"]
    for r in cmp_["rows"]:
        lines.append(
            f"  {r['model']} {r['fit_statistic']} {_fmt(r['fit_value'])} "
            f"{_fmt(r['log_likelihood'])} {_fmt(r['aic'])} {r['n_params']}"
        )
    lines.append(f"  preferred: {cmp_['preferred']}")
    lines.append(f"  note: {cmp_['note']}")
    return lines


def _text_groups(g: dict) -> list[str]:
    lines = [f"  k={g['k']} linkage={g['linkage']} features: {', '.join(g['features'])}"]
    for pr in g["profiles"]:
        lines.append(f"  group {pr['group']} (n={pr['count']}):")
        for name in pr["means"]:
            lines.append(f"    {name}: mean {_fmt(pr['means'][name])} ({pr['labels'][name]})")
    return lines


def _text_spearman(s: dict) -> list[str]:
    if "skipped_reason" in s:
        return [f"  skipped: {s['skipped_reason']}"]
    return [f"  comparison column: {s['column']}"] + [
        f"  vs {r['versus']}: rho {_fmt(r['rho'])}, p {_fmt(r['p'])}{r['stars']}"
        for r in s["rows"]
    ]


def _render_report_text(report: dict) -> str:
    tool = report["tool"]
    title = f"{tool['name']} {tool['version']} report ({tool['command']})"
    lines = [title, "=" * len(title), ""]
    for key, _, heading, render, _ in _SECTIONS:
        section = report.get(key)
        if section is not None:
            heading = heading.format_map(section)
            lines += [heading, "-" * len(heading), *render(section), ""]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# file outputs


def _write(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _quoted(text: str) -> str:
    """``text`` as one CSV field: in double quotes, each quote doubled, when
    it holds a comma, a quote, CR or LF (RFC 4180); as it is otherwise."""
    if _NEEDS_QUOTES.search(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


def _cell(value) -> str:
    if isinstance(value, str):
        return _quoted(value)
    if isinstance(value, int):
        return str(value)
    return _fmt(value)


def _write_table(path: str, columns: list[str], rows: list[dict]) -> None:
    """Write ``rows`` as CSV, each line's cells picked by column name:
    strings through _quoted, integers in full, other numbers through _fmt."""
    lines = [",".join(map(_quoted, columns))]
    lines += [",".join(_cell(row[c]) for c in columns) for row in rows]
    _write(path, ("\n".join(lines) + "\n").encode("utf-8"))


def _write_weights_files(ctx: _Context, outdir: str) -> None:
    text = _weights.write_weights(ctx.links, ctx.dataset.units.ids)
    _write(os.path.join(outdir, "weights.txt"), text.encode("utf-8"))
    island_text = "".join(f"{uid}\n" for uid in ctx.island_ids)
    _write(os.path.join(outdir, "islands.txt"), island_text.encode("utf-8"))


def _write_summary(ctx: _Context, outdir: str) -> None:
    _write_table(
        os.path.join(outdir, "summary.csv"),
        ["name", "mean", "sd", "n", "min", "max"],
        ctx.report["summary"],
    )


def _write_hotspot(ctx: _Context, outdir: str) -> None:
    # one %-format per row; "%.6g" % x spells every float as _fmt does
    x = ctx.dataset.table.column(ctx.config.outcome_column)
    gi = ctx.gi
    lines = ["id,x,z,p,adjusted_p,class"]
    lines += [
        "%s,%.6g,%.6g,%.6g,%.6g,%s" % row
        for row in zip(
            map(_quoted, ctx.dataset.units.ids),
            x.tolist(),
            gi.z.tolist(),
            gi.p.tolist(),
            gi.adjusted_p.tolist(),
            gi.classes,
        )
    ]
    _write(
        os.path.join(outdir, "hotspot.csv"),
        ("\n".join(lines) + "\n").encode("utf-8"),
    )


def _write_hotspot_maps(ctx: _Context, outdir: str) -> None:
    outcome = ctx.config.outcome_column
    x = ctx.dataset.table.column(outcome)
    svg = _render.render_choropleth(
        ctx.dataset.units, x, kind="quantile", title=outcome
    )
    _write(os.path.join(outdir, "map_outcome.svg"), svg.encode("utf-8"))
    svg = _render.render_choropleth(
        ctx.dataset.units,
        ctx.gi.classes,
        kind="hotspot",
        title=f"{outcome} hot and cold spots",
    )
    _write(os.path.join(outdir, "map_hotspot.svg"), svg.encode("utf-8"))


def _write_regress_files(ctx: _Context, outdir: str) -> None:
    _write_table(
        os.path.join(outdir, "ols_coefficients.csv"),
        ["name", "coefficient", "se", "t", "p", "stars"],
        ctx.report["ols"]["coefficients"],
    )
    if ctx.report["spatial"] is not None:
        _write_table(
            os.path.join(outdir, "spatial_coefficients.csv"),
            ["name", "coefficient", "se", "p", "stars"],
            ctx.report["spatial"]["coefficients"],
        )
    cmp_ = ctx.report["comparison"]
    if cmp_ is not None:
        rows = [
            {**r, "preferred": "yes" if r["model"] == cmp_["preferred"] else "no"}
            for r in cmp_["rows"]
        ]
        _write_table(
            os.path.join(outdir, "comparison.csv"),
            ["model", "fit_statistic", "fit_value", "log_likelihood", "aic",
             "n_params", "preferred"],
            rows,
        )


def _write_cluster_files(ctx: _Context, outdir: str) -> None:
    names = [ctx.config.outcome_column] + ctx.cluster_features
    rows = [
        {
            "group": pr["group"],
            "count": pr["count"],
            **{f"mean_{n}": m for n, m in pr["means"].items()},
            **{f"label_{n}": lab for n, lab in pr["labels"].items()},
        }
        for pr in ctx.report["groups"]["profiles"]
    ]
    columns = ["group", "count"] + [f"{k}_{n}" for n in names for k in ("mean", "label")]
    _write_table(os.path.join(outdir, "groups.csv"), columns, rows)
    svg = _render.render_choropleth(
        ctx.dataset.units,
        ctx.assignments,
        kind="group",
        title=f"{ctx.config.group_k} groups",
    )
    _write(os.path.join(outdir, "map_groups.svg"), svg.encode("utf-8"))


def _write_spearman(ctx: _Context, outdir: str) -> None:
    section = ctx.report["spearman"]
    if "skipped_reason" in section:
        return
    column = section["column"]
    _write_table(
        os.path.join(outdir, "spearman.csv"),
        ["column", "versus", "rho", "p", "stars"],
        [{"column": column, **r} for r in section["rows"]],
    )
    svg = _render.render_choropleth(
        ctx.dataset.units,
        ctx.dataset.table.column(column),
        kind="quantile",
        title=column,
    )
    _write(os.path.join(outdir, "map_comparison.svg"), svg.encode("utf-8"))


def _write_augmented(ctx: _Context, outdir: str) -> None:
    extra = {
        "gi_z": [float(v) for v in ctx.gi.z],
        "gi_p": [float(v) for v in ctx.gi.p],
        "gi_p_adj": [float(v) for v in ctx.gi.adjusted_p],
        "gi_class": list(ctx.gi.classes),
        "group": [int(g) for g in ctx.assignments],
    }
    # the bytes of json.dumps(to_feature_collection(...), sort_keys=True)
    # plus a newline; each feature is built, encoded and written in turn, so
    # neither the whole text nor every feature's tree is held at once
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(os.path.join(outdir, "augmented.geojson"), "wb") as fh:
        fh.write(b'{"features": [')
        for k, feature in enumerate(_feature_dicts(ctx.dataset.units, extra)):
            if k:
                fh.write(b", ")
            fh.write(encode(feature).encode("utf-8"))
        fh.write(b'], "type": "FeatureCollection"}\n')


def _write_report(report: dict, outdir: str) -> None:
    clean = _sanitize(report)
    payload = json.dumps(clean, indent=2, sort_keys=True) + "\n"
    _write(os.path.join(outdir, "report.json"), payload.encode("utf-8"))
    _write(os.path.join(outdir, "report.txt"), _render_report_text(clean).encode("utf-8"))


# ---------------------------------------------------------------------------
# drivers


# The tables hold only this module's own functions: the library calls inside
# them resolve through module globals at run time, where a tracer can wrap them.

_MODEL = ("regress", "cluster", "pipeline")
_GROUPS = ("cluster", "pipeline")

# Every stage in run order: its tag, its function and the subcommands that run it.
_STAGES = (
    ("ingest", _stage_ingest, SUBCOMMANDS),
    ("weights", _stage_weights, SUBCOMMANDS),
    ("summarize", _stage_summarize, ("pipeline",)),
    ("zscore", _stage_zscore, _MODEL),
    ("gi_star", _stage_gi_star, ("hotspot", "pipeline")),
    ("vif_prune", _stage_vif_prune, _MODEL),
    ("stepwise_aic", _stage_stepwise, _MODEL),
    ("significance_prune", _stage_significance, _MODEL),
    ("diagnostics", _stage_diagnostics, _MODEL),
    ("lm_tests", _stage_lm, _MODEL),
    ("model_decision", _stage_decision, _MODEL),
    ("spatial_fit", _stage_spatial, _MODEL),
    ("compare", _stage_compare, _MODEL),
    ("ward_cluster", _stage_cluster, _GROUPS),
    ("profile", _stage_profile, _GROUPS),
    ("spearman", _stage_spearman, ("pipeline",)),
)

# Every report section in report.txt order: its key, its builder, its
# heading (a format string over the section's fields), its text renderer
# and the subcommands whose report holds it.  report.txt leaves out a
# section built as None.
_SECTIONS = (
    ("config", _section_config, "config", _text_config, SUBCOMMANDS),
    ("dropped_units", _section_dropped_units, "dropped units", _text_dropped_units, SUBCOMMANDS),
    ("weights", _section_weights, "weights", _text_weights, SUBCOMMANDS),
    ("summary", _section_summary, "summary", _text_summary, ("pipeline",)),
    ("hotspot", _section_hotspot, "hot and cold spots", _text_hotspot, ("hotspot", "pipeline")),
    ("selection", _section_selection, "model selection", _text_selection, _MODEL),
    ("ols", _section_ols, "final least-squares fit", _text_ols, _MODEL),
    ("decision", _section_decision, "decision", _text_decision, _MODEL),
    ("spatial", _section_spatial, "spatial {kind} model", _text_spatial, _MODEL),
    ("comparison", _section_comparison, "model comparison", _text_comparison, _MODEL),
    ("groups", _section_groups, "groups", _text_groups, _GROUPS),
    ("spearman", _section_spearman, "rank correlations", _text_spearman, ("pipeline",)),
)

# Every file writer in writing order and the subcommands that run it; each
# run then writes report.json and report.txt last.
_FILES = (
    (_write_weights_files, ("weights", "pipeline")),
    (_write_hotspot, ("hotspot", "pipeline")),
    (_write_hotspot_maps, ("hotspot", "pipeline")),
    (_write_regress_files, ("regress", "pipeline")),
    (_write_cluster_files, _GROUPS),
    (_write_summary, ("pipeline",)),
    (_write_spearman, ("pipeline",)),
    (_write_augmented, ("pipeline",)),
)


def _run(config: PipelineConfig, which: str) -> dict:
    if which not in SUBCOMMANDS:
        raise PipelineError("config", f"unknown subcommand {which!r}")
    with _stage("config"):
        config.validate()
        os.makedirs(config.output_dir, exist_ok=True)
    ctx = _Context(config=config)
    for tag, run_stage, subcommands in _STAGES:
        if which in subcommands:
            with _stage(tag):
                run_stage(ctx)
    ctx.report = {"tool": {"name": "arealstat", "version": __version__, "command": which}}
    for key, build, _, _, subcommands in _SECTIONS:
        if which in subcommands:
            ctx.report[key] = build(ctx)
    with _stage("outputs"):
        for write, subcommands in _FILES:
            if which in subcommands:
                write(ctx, config.output_dir)
        _write_report(ctx.report, config.output_dir)
    return ctx.report


def run_pipeline(config: PipelineConfig) -> dict:
    """Execute every stage and write all outputs; returns the report."""
    return _run(config, "pipeline")


def run_subcommand(config: PipelineConfig, which: str) -> dict:
    """Execute the stages one subcommand needs and write only its outputs."""
    return _run(config, which)
