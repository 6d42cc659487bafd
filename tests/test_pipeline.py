"""End-to-end orchestration: config handling, stage wiring, file outputs,
and the command line front end."""

import csv
import dataclasses
import glob
import io
import json
import math
import os
import shutil
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import arealstat
from arealstat import pipeline as pipeline_module
from arealstat import spatial_models
from arealstat.cli import _apply_overrides, _build_parser
from arealstat.cli import main as cli_main
from arealstat.ingest import to_feature_collection
from arealstat.pipeline import (
    PipelineConfig,
    PipelineError,
    load_config,
    run_pipeline,
    run_subcommand,
)
from arealstat.synth import autoregressive_solver
from arealstat.weights import queen_contiguity
from conftest import feature_collection, grid_units, polygon_feature, square_ring

PIPELINE_FILES = [
    "augmented.geojson",
    "comparison.csv",
    "groups.csv",
    "hotspot.csv",
    "islands.txt",
    "map_comparison.svg",
    "map_groups.svg",
    "map_hotspot.svg",
    "map_outcome.svg",
    "ols_coefficients.csv",
    "report.json",
    "report.txt",
    "spatial_coefficients.csv",
    "spearman.csv",
    "summary.csv",
    "weights.txt",
]


@pytest.fixture(scope="module")
def county_run(tmp_path_factory):
    from arealstat.synth import write_synthetic_county

    directory = tmp_path_factory.mktemp("run")
    config = load_config(write_synthetic_county(str(directory)))
    report = run_pipeline(config)
    return config, report


def write_tiny_dataset(
    directory, outcome_values, n_side=3, extra_geometry=None, constant_p2=False
):
    """A small lattice dataset with two predictor columns; p2 is all ones
    when constant_p2 is set."""
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng(7)
    n = n_side * n_side
    features = []
    ids = []
    for r in range(n_side):
        for c in range(n_side):
            uid = f"t{r * n_side + c}"
            ids.append(uid)
            features.append(
                polygon_feature(uid, square_ring(float(c), float(r)))
            )
    if extra_geometry:
        features.extend(extra_geometry)
    geo_path = os.path.join(directory, "geo.json")
    with open(geo_path, "w") as fh:
        fh.write(feature_collection(features))
    attr_path = os.path.join(directory, "attr.csv")
    p1 = rng.normal(size=n)
    p2 = np.ones(n) if constant_p2 else rng.normal(size=n)
    with open(attr_path, "w") as fh:
        fh.write("GEOID,out,p1,p2\n")
        for i, uid in enumerate(ids):
            fh.write(f"{uid},{outcome_values[i]},{p1[i]},{p2[i]}\n")
    return geo_path, attr_path


def tiny_config(directory, geo_path, attr_path, **overrides):
    base = dict(
        geometry_path=geo_path,
        attributes_path=attr_path,
        id_property="GEOID",
        id_column="GEOID",
        outcome_column="out",
        candidate_predictor_columns=["p1", "p2"],
        output_dir=os.path.join(directory, "out"),
        group_k=2,
        top_features_for_grouping=2,
    )
    base.update(overrides)
    return PipelineConfig(**base)


class TestConfig:
    def test_load_applies_defaults(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps(
                {
                    "geometry_path": "g",
                    "attributes_path": "a",
                    "id_property": "GEOID",
                    "id_column": "GEOID",
                    "outcome_column": "y",
                    "candidate_predictor_columns": ["x"],
                }
            )
        )
        config = load_config(str(path))
        assert config.contiguity == "queen"
        assert config.alpha == 0.05
        assert config.group_k == 5

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"geometry_path": "g", "bogus": 1}))
        with pytest.raises(PipelineError, match="bogus"):
            load_config(str(path))

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"geometry_path": "g"}))
        with pytest.raises(PipelineError, match="missing"):
            load_config(str(path))

    def test_outcome_in_predictors_rejected(self):
        config = PipelineConfig(
            geometry_path="g",
            attributes_path="a",
            id_property="i",
            id_column="i",
            outcome_column="y",
            candidate_predictor_columns=["y", "x"],
        )
        with pytest.raises(ValueError, match="outcome"):
            config.validate()

    def test_bad_contiguity_rejected(self):
        config = PipelineConfig(
            geometry_path="g",
            attributes_path="a",
            id_property="i",
            id_column="i",
            outcome_column="y",
            candidate_predictor_columns=["x"],
            contiguity="bishop",
        )
        with pytest.raises(ValueError):
            config.validate()

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        with pytest.raises(PipelineError, match="config"):
            load_config(str(path))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("alpha", "0.05"),
            ("snap_tolerance", "1e-3"),
            # json writes and reads these as Infinity and NaN
            ("snap_tolerance", math.inf),
            ("snap_tolerance", math.nan),
            ("vif_threshold", None),
            ("allow_islands", "false"),
            ("group_k", True),
            ("candidate_predictor_columns", ["x", 3]),
            # an integer past the float range, for a float key
            pytest.param("alpha", 10**400, id="alpha-int-past-float-range"),
            pytest.param("snap_tolerance", -(10**309), id="snap_tolerance-int-past-float-range"),
        ],
    )
    def test_mistyped_value_fails_in_config_stage(self, tmp_path, capsys, key, value):
        doc = {
            "geometry_path": "g",
            "attributes_path": "a",
            "id_property": "GEOID",
            "id_column": "GEOID",
            "outcome_column": "y",
            "candidate_predictor_columns": ["x"],
            "output_dir": str(tmp_path / "out"),
        }
        doc[key] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["weights", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "[config]" in err
        assert key in err


class TestFullRun:
    def test_all_files_written(self, county_run):
        config, _ = county_run
        assert sorted(os.listdir(config.output_dir)) == PIPELINE_FILES

    def test_dropped_log_names_unmatched_geometry(self, county_run):
        _, report = county_run
        assert report["dropped_units"]["geometry_only"] == ["999001", "999002"]
        assert report["dropped_units"]["attributes_only"] == []

    def test_report_json_parses_and_echoes_config(self, county_run):
        config, _ = county_run
        with open(os.path.join(config.output_dir, "report.json")) as fh:
            doc = json.load(fh)
        assert doc["config"]["outcome_column"] == config.outcome_column
        assert doc["tool"]["name"] == "arealstat"

    def test_decision_and_spatial_sections_consistent(self, county_run):
        _, report = county_run
        decision = report["decision"]["decision"]
        if decision == "stay-OLS":
            assert report["spatial"] is None
        else:
            kind = report["spatial"]["kind"]
            assert decision == f"fit-{kind}"

    def test_hotspot_counts_sum_to_n(self, county_run):
        _, report = county_run
        assert sum(report["hotspot"]["counts"].values()) == report["weights"]["n"]

    def test_rerun_is_byte_identical(self, county_run, tmp_path):
        config, _ = county_run
        first = {}
        for name in PIPELINE_FILES:
            with open(os.path.join(config.output_dir, name), "rb") as fh:
                first[name] = fh.read()
        run_pipeline(config)
        for name in PIPELINE_FILES:
            with open(os.path.join(config.output_dir, name), "rb") as fh:
                assert fh.read() == first[name], name

    def test_subcommands_write_exact_subsets(self, county_run, tmp_path):
        config, _ = county_run
        expected = {
            "weights": ["islands.txt", "report.json", "report.txt", "weights.txt"],
            "hotspot": [
                "hotspot.csv",
                "map_hotspot.svg",
                "map_outcome.svg",
                "report.json",
                "report.txt",
            ],
            "regress": [
                "comparison.csv",
                "ols_coefficients.csv",
                "report.json",
                "report.txt",
                "spatial_coefficients.csv",
            ],
            "cluster": ["groups.csv", "map_groups.svg", "report.json", "report.txt"],
        }
        for sub, names in expected.items():
            outdir = tmp_path / sub
            c2 = dataclasses.replace(config, output_dir=str(outdir))
            run_subcommand(c2, sub)
            assert sorted(os.listdir(outdir)) == names

    def test_report_sections_per_subcommand(self, county_run, tmp_path):
        config, _ = county_run
        common = {"tool", "config", "dropped_units", "weights"}
        model = {"selection", "ols", "decision", "spatial", "comparison"}
        expected = {
            "weights": common,
            "hotspot": common | {"hotspot"},
            "regress": common | model,
            "cluster": common | model | {"groups"},
            "pipeline": common | {"hotspot"} | model | {"groups", "summary", "spearman"},
        }
        for sub, keys in expected.items():
            outdir = tmp_path / sub
            run_subcommand(dataclasses.replace(config, output_dir=str(outdir)), sub)
            with open(outdir / "report.json") as fh:
                assert set(json.load(fh)) == keys, sub

    def test_subcommand_files_match_full_run(self, county_run, tmp_path):
        config, _ = county_run
        shared = {
            "weights": ["weights.txt", "islands.txt"],
            "hotspot": ["hotspot.csv", "map_outcome.svg", "map_hotspot.svg"],
            "regress": [
                "ols_coefficients.csv",
                "spatial_coefficients.csv",
                "comparison.csv",
            ],
            "cluster": ["groups.csv", "map_groups.svg"],
        }
        for sub, names in shared.items():
            before = {}
            for name in names:
                with open(os.path.join(config.output_dir, name), "rb") as fh:
                    before[name] = fh.read()
            run_subcommand(config, sub)
            for name in names:
                with open(os.path.join(config.output_dir, name), "rb") as fh:
                    assert fh.read() == before[name], f"{sub}/{name}"
        run_pipeline(config)  # restore full report files

    def test_subcommand_sections_match_full_run(self, county_run):
        # each subcommand writes where the full run did, so the config
        # sections echo the same output_dir
        config, _ = county_run
        saved = {}
        for name in ("report.json", "report.txt"):
            with open(os.path.join(config.output_dir, name), "rb") as fh:
                saved[name] = fh.read()

        def blocks(text):
            # report.txt's sections by heading; the title block names the command
            title, *sections = text.rstrip("\n").split("\n\n")
            return {block.split("\n", 1)[0]: block for block in sections}

        full_report, full_text = _read_outputs(config.output_dir)
        full_blocks = blocks(full_text)
        try:
            for sub in ("weights", "hotspot", "regress", "cluster"):
                run_subcommand(config, sub)
                report, text = _read_outputs(config.output_dir)
                assert report["tool"]["command"] == sub
                for key in set(report) - {"tool"}:
                    assert report[key] == full_report[key], f"{sub}/{key}"
                sub_blocks = blocks(text)
                assert sub_blocks
                for heading, block in sub_blocks.items():
                    assert block == full_blocks[heading], f"{sub}/{heading}"
        finally:
            for name, data in saved.items():
                with open(os.path.join(config.output_dir, name), "wb") as fh:
                    fh.write(data)

    def test_augmented_geometry_carries_scores_and_groups(self, county_run):
        config, report = county_run
        with open(os.path.join(config.output_dir, "augmented.geojson")) as fh:
            doc = json.load(fh)
        feats = doc["features"]
        assert len(feats) == report["weights"]["n"]
        props = feats[0]["properties"]
        for key in ("gi_z", "gi_p", "gi_p_adj", "gi_class", "group"):
            assert key in props

    def test_summary_covers_analysis_columns(self, county_run):
        config, report = county_run
        names = [row["name"] for row in report["summary"]]
        assert names[0] == config.outcome_column
        for col in config.candidate_predictor_columns:
            assert col in names


def test_augmented_geometry_is_one_dump_of_the_collection(county, tmp_path, monkeypatch):
    # written one feature at a time, the file holds the bytes of one
    # json.dumps of to_feature_collection over the same units and columns
    build = pipeline_module._feature_dicts
    calls = []

    def spy(units, extra):
        calls.append((units, extra))
        return build(units, extra)

    monkeypatch.setattr(pipeline_module, "_feature_dicts", spy)
    config = dataclasses.replace(load_config(county["config"]), output_dir=str(tmp_path))
    run_pipeline(config)
    [(units, extra)] = calls
    assert sorted(extra) == ["gi_class", "gi_p", "gi_p_adj", "gi_z", "group"]
    whole = json.dumps(to_feature_collection(units, extra), sort_keys=True) + "\n"
    assert (tmp_path / "augmented.geojson").read_bytes() == whole.encode("utf-8")


def test_unavailable_standard_errors_are_left_blank(county, tmp_path, monkeypatch):
    # a large positive log-determinant curvature makes the Hessian indefinite
    monkeypatch.setattr(spatial_models, "_log_det_derivatives", lambda c, p: (0.0, 1e12, 0.0))
    config = dataclasses.replace(load_config(county["config"]), output_dir=str(tmp_path))
    report = run_subcommand(config, "regress")
    assert report["spatial"] is not None
    with open(tmp_path / "report.json") as fh:
        spatial = json.load(fh)["spatial"]
    assert spatial["se_available"] is False
    assert all(c["se"] is None and c["p"] is None for c in spatial["coefficients"])
    text = (tmp_path / "report.txt").read_text()
    assert "standard errors unavailable (Hessian not negative definite)" in text
    rows = (tmp_path / "spatial_coefficients.csv").read_text().splitlines()
    assert rows[0] == "name,coefficient,se,p,stars"
    assert len(rows) == len(spatial["coefficients"]) + 1
    for row in rows[1:]:
        name, coefficient, se, p, stars = row.split(",")
        assert coefficient and (se, p, stars) == ("", "", "")


def _text_section(text: str, heading: str) -> list[str]:
    """The lines of report.txt's ``heading`` section, between its dashes and
    the blank line that ends it."""
    lines = text.split("\n")
    start = lines.index(heading)
    assert lines[start + 1] == "-" * len(heading)
    end = lines.index("", start)
    return lines[start + 2:end]


def _read_outputs(outdir):
    with open(os.path.join(outdir, "report.json")) as fh:
        report = json.load(fh)
    with open(os.path.join(outdir, "report.txt")) as fh:
        return report, fh.read()


def iid_lattice(directory):
    """A 10 x 10 lattice whose outcome and two predictors are i.i.d. normal:
    significance pruning leaves an intercept-only final model."""
    os.makedirs(directory, exist_ok=True)
    values = np.random.default_rng(5).normal(size=(100, 3))
    features = [
        polygon_feature(f"t{i}", square_ring(float(i % 10), float(i // 10)))
        for i in range(100)
    ]
    geo_path = os.path.join(directory, "geo.json")
    with open(geo_path, "w") as fh:
        fh.write(feature_collection(features))
    attr_path = os.path.join(directory, "attr.csv")
    with open(attr_path, "w") as fh:
        fh.write("GEOID,out,p1,p2\n")
        for i, row in enumerate(values):
            fh.write(f"t{i}," + ",".join(repr(float(v)) for v in row) + "\n")
    return geo_path, attr_path


class TestReportBranches:
    """report.txt lines that only unusual runs reach, each checked against
    its report.json field."""

    def test_intercept_only_model_stays_with_least_squares(self, tmp_path):
        d = str(tmp_path)
        geo, attr = iid_lattice(d)
        config = tiny_config(d, geo, attr)
        run_subcommand(config, "regress")
        report, text = _read_outputs(config.output_dir)
        assert report["selection"]["final_columns"] == []
        lm = report["ols"]["lm_tests"]
        assert lm["degenerate"] is True
        assert lm["lm_error"]["p"] > 0.05 and lm["lm_lag"]["p"] > 0.05
        assert report["decision"] == {
            "alpha": 0.05, "decision": "stay-OLS", "warning": None, "skipped_reason": None,
        }
        assert report["spatial"] is None and report["comparison"] is None
        ols_lines = _text_section(text, "final least-squares fit")
        assert ols_lines[-6:] == [
            "  spatial dependence tests (chi-squared, 1 df):",
            *(
                f"    {k}: stat {pipeline_module._fmt(lm[k]['stat'])}, "
                f"p {pipeline_module._fmt(lm[k]['p'])}"
                for k in ("lm_error", "lm_lag", "robust_lm_error", "robust_lm_lag")
            ),
            "    robust variants degenerate",
        ]
        assert _text_section(text, "decision") == ["  stay-OLS (alpha 0.05)"]
        assert "spatial error model" not in text and "spatial lag model" not in text
        for name in ("spatial_coefficients.csv", "comparison.csv"):
            assert not os.path.exists(os.path.join(config.output_dir, name))

    @pytest.mark.parametrize("sub", ["cluster", "pipeline"])
    def test_intercept_only_model_leaves_nothing_to_group(self, tmp_path, sub):
        d = str(tmp_path)
        geo, attr = iid_lattice(d)
        with pytest.raises(PipelineError) as err:
            run_subcommand(tiny_config(d, geo, attr), sub)
        assert str(err.value) == "[ward_cluster] final model retained no predictors to group on"

    def test_decision_warning(self, county, tmp_path, monkeypatch):
        real = pipeline_module._ols.lm_tests

        def both_plain_fire_no_robust(*args):
            return dataclasses.replace(
                real(*args),
                lm_error_p=0.01, lm_lag_p=0.01, robust_lm_error_p=0.5, robust_lm_lag_p=0.5,
            )

        monkeypatch.setattr(pipeline_module._ols, "lm_tests", both_plain_fire_no_robust)
        config = dataclasses.replace(load_config(county["config"]), output_dir=str(tmp_path))
        run_subcommand(config, "regress")
        report, text = _read_outputs(tmp_path)
        warning = (
            "both plain dependence tests fired but neither robust variant did; "
            "staying with least squares"
        )
        assert report["decision"]["decision"] == "stay-OLS"
        assert report["decision"]["warning"] == warning
        assert _text_section(text, "decision") == [
            "  stay-OLS (alpha 0.05)",
            f"  warning: {warning}",
        ]
        assert report["spatial"] is None
        assert not os.path.exists(tmp_path / "spatial_coefficients.csv")

    def test_skipped_rank_correlations(self, county, tmp_path):
        config = dataclasses.replace(
            load_config(county["config"]),
            output_dir=str(tmp_path),
            spearman_column=None,
            vif_threshold=1e6,
        )
        run_pipeline(config)
        report, text = _read_outputs(tmp_path)
        reason = "no comparison column configured and collinearity pruning removed nothing"
        assert report["selection"]["vif_removed"] == []
        assert report["spearman"] == {"skipped_reason": reason}
        assert _text_section(text, "rank correlations") == [f"  skipped: {reason}"]
        assert text.endswith(f"  skipped: {reason}\n")
        assert sorted(os.listdir(tmp_path)) == sorted(
            set(PIPELINE_FILES) - {"spearman.csv", "map_comparison.svg"}
        )


class TestStageErrors:
    @pytest.mark.parametrize(
        "sub, stage",
        [("pipeline", "gi_star"), ("hotspot", "gi_star"),
         ("regress", "selection"), ("cluster", "selection")],
    )
    def test_constant_outcome_fails_in_scoring_stage(self, tmp_path, sub, stage):
        # a subcommand runs its stages in the full run's order, so where both
        # run the stage that fails, both fail with its tag
        d = str(tmp_path)
        geo, attr = write_tiny_dataset(d, [5.0] * 16, n_side=4)
        with pytest.raises(PipelineError) as err:
            run_subcommand(tiny_config(d, geo, attr), sub)
        assert err.value.stage == stage

    def test_constant_outcome_still_builds_weights(self, tmp_path):
        d = str(tmp_path)
        geo, attr = write_tiny_dataset(d, [5.0] * 9)
        config = tiny_config(d, geo, attr)
        run_subcommand(config, "weights")
        assert os.path.exists(os.path.join(config.output_dir, "weights.txt"))

    def test_degenerate_decision_names_the_empty_model(self, tmp_path):
        # three pure-noise predictors against an AR(0.7) outcome: selection
        # keeps only the intercept, where W1 = 1 makes LM-error equal LM-lag
        # (116.147), so both fire and the robust pair is degenerate
        side = 15
        n = side * side
        rng = np.random.default_rng(0)
        links = queen_contiguity(grid_units(side, side))
        out = autoregressive_solver(links, 0.7)(rng.normal(size=n))
        noise = rng.normal(size=(n, 3))
        d = str(tmp_path)
        geo = os.path.join(d, "geo.json")
        with open(geo, "w") as fh:
            fh.write(feature_collection([
                polygon_feature(f"t{i}", square_ring(float(i % side), float(i // side)))
                for i in range(n)
            ]))
        attr = os.path.join(d, "attr.csv")
        with open(attr, "w") as fh:
            fh.write("GEOID,out,p1,p2,p3\n")
            for i in range(n):
                cells = [out[i], *noise[i]]
                fh.write(f"t{i}," + ",".join(repr(float(v)) for v in cells) + "\n")
        config = tiny_config(d, geo, attr, candidate_predictor_columns=["p1", "p2", "p3"])
        with pytest.raises(PipelineError) as err:
            run_subcommand(config, "regress")
        assert err.value.stage == "model_decision"
        assert err.value.cause == (
            "robust spatial dependence tests are degenerate; decision rule is "
            "undefined: the final model retained no predictor, so the spatial "
            "lag and error models coincide"
        )

    @pytest.mark.parametrize("sub", ["regress", "cluster", "pipeline"])
    def test_constant_predictor_fails_in_selection(self, tmp_path, sub):
        d = str(tmp_path)
        # 4 x 4: on a 3 x 3 lattice a full run stops at gi_star first
        geo, attr = write_tiny_dataset(d, list(range(16)), n_side=4, constant_p2=True)
        config = tiny_config(d, geo, attr)
        with pytest.raises(PipelineError) as err:
            run_subcommand(config, sub)
        assert err.value.stage == "selection"
        assert "p2" in str(err.value)

    def test_constant_predictor_leaves_hotspot_alone(self, tmp_path):
        d = str(tmp_path)
        # 4 x 4: on a 3 x 3 lattice the centre's Gi* neighbourhood is every unit
        geo, attr = write_tiny_dataset(d, list(range(16)), n_side=4, constant_p2=True)
        report = run_subcommand(tiny_config(d, geo, attr), "hotspot")
        assert sum(report["hotspot"]["counts"].values()) == 16

    def test_hotspot_names_the_unit_whose_neighborhood_is_everything(self, tmp_path):
        d = str(tmp_path)
        geo, attr = write_tiny_dataset(d, list(range(9)))
        with pytest.raises(PipelineError) as err:
            run_subcommand(tiny_config(d, geo, attr), "hotspot")
        assert err.value.stage == "gi_star"
        assert "unit 4's neighborhood holds every unit" in str(err.value)

    def test_missing_geometry_file(self, tmp_path):
        d = str(tmp_path)
        geo, attr = write_tiny_dataset(d, list(range(9)))
        config = tiny_config(d, os.path.join(d, "nope.json"), attr)
        with pytest.raises(PipelineError) as err:
            run_subcommand(config, "weights")
        assert err.value.stage == "ingest"

    def test_unmatched_ids_fatal_under_strict_policy(self, tmp_path):
        d = str(tmp_path)
        extra = [polygon_feature("orphan", square_ring(30.0, 0.0))]
        geo, attr = write_tiny_dataset(d, list(range(9)), extra_geometry=extra)
        config = tiny_config(d, geo, attr, merge_policy="fail-on-any-unmatched")
        with pytest.raises(PipelineError) as err:
            run_subcommand(config, "weights")
        assert err.value.stage == "ingest"
        assert "orphan" in str(err.value)

    def test_missing_analysis_column_named_before_the_join(self, tmp_path):
        # "orphan" would also fail the strict join
        d = str(tmp_path)
        extra = [polygon_feature("orphan", square_ring(30.0, 0.0))]
        geo, attr = write_tiny_dataset(d, list(range(9)), extra_geometry=extra)
        config = tiny_config(
            d, geo, attr,
            candidate_predictor_columns=["p1", "p3"],
            merge_policy="fail-on-any-unmatched",
        )
        with pytest.raises(PipelineError) as err:
            run_subcommand(config, "weights")
        assert err.value.stage == "ingest"
        assert "attribute table lacks analysis columns ['p3']" in str(err.value)


def island_dataset(tmp_path):
    d = str(tmp_path)
    extra = [polygon_feature("far", square_ring(30.0, 0.0))]
    geo, attr = write_tiny_dataset(d, list(range(9)), extra_geometry=extra)
    # give the detached unit an attribute row so it survives the join
    with open(attr, "a") as fh:
        fh.write("far,4.5,0.1,0.2\n")
    return d, geo, attr


class TestIslands:
    def test_island_reported_by_weights(self, tmp_path):
        d, geo, attr = island_dataset(tmp_path)
        config = tiny_config(d, geo, attr)
        run_subcommand(config, "weights")
        with open(os.path.join(config.output_dir, "islands.txt")) as fh:
            assert fh.read().splitlines() == ["far"]

    def test_weights_stage_warns_nothing_on_islands(self, tmp_path):
        # the island's row of W stays empty without a warning; report.json
        # names it instead
        d, geo, attr = island_dataset(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = run_subcommand(tiny_config(d, geo, attr), "weights")
        assert report["weights"]["islands"] == ["far"]
        assert [str(w.message) for w in caught] == []

    def test_spatial_stages_refuse_by_default(self, tmp_path):
        d, geo, attr = island_dataset(tmp_path)
        config = tiny_config(d, geo, attr)
        with pytest.raises(PipelineError) as err:
            run_subcommand(config, "regress")
        assert err.value.stage == "lm_tests"
        assert "far" in str(err.value)
        assert "allow_islands" in str(err.value)

    def test_override_skips_spatial_stages_with_reason(self, tmp_path):
        d, geo, attr = island_dataset(tmp_path)
        config = tiny_config(d, geo, attr, allow_islands=True)
        report = run_subcommand(config, "regress")
        assert report["decision"]["decision"] is None
        assert "far" in report["decision"]["skipped_reason"]
        assert report["spatial"] is None
        assert report["comparison"] is None
        assert report["ols"]["lm_tests"] is None
        assert not os.path.exists(
            os.path.join(config.output_dir, "spatial_coefficients.csv")
        )


def county_with_cells(county, directory, cells, extra_column=None):
    """The synthetic county with ``cells`` ({(id, column): text}) replaced
    and its attribute rows reversed, so that file order is not geometry
    order; ``extra_column`` (name, {id: text}) appends a column no stage
    reads.  Returns the new config path."""
    with open(county["config"]) as fh:
        config = json.load(fh)
    with open(config["attributes_path"]) as fh:
        header, *rows = fh.read().splitlines()
    columns = header.split(",")
    edited = []
    for row in rows:
        fields = row.split(",")
        for (uid, column), text in cells.items():
            if fields[0] == uid:
                fields[columns.index(column)] = text
        if extra_column is not None:
            fields.append(extra_column[1].get(fields[0], "1.0"))
        edited.append(",".join(fields))
    if extra_column is not None:
        header += "," + extra_column[0]
    attr_path = os.path.join(directory, "attributes.csv")
    with open(attr_path, "w") as fh:
        fh.write("\n".join([header] + edited[::-1]) + "\n")
    config["attributes_path"] = attr_path
    config_path = os.path.join(directory, "config.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh)
    return config_path


class TestNonFiniteValues:
    @pytest.mark.parametrize("sub", ["hotspot", "regress", "pipeline"])
    @pytest.mark.parametrize(
        "token, value", [("inf", "inf"), ("-inf", "-inf"), ("Infinity", "inf"), ("1e999", "inf")]
    )
    def test_refused_at_ingest_naming_unit_and_column(
        self, county, tmp_path, capsys, sub, token, value
    ):
        # unit 100010's bad income comes first in the file, 100004 first in
        # geometry order
        cells = {("100004", "prevalence"): token, ("100010", "income"): token}
        config_path = county_with_cells(county, str(tmp_path), cells)
        code = cli_main([sub, "--config", config_path, "--output-dir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"[ingest] unit '100004' has non-finite value {value} in column 'prevalence'" in err

    def test_unread_column_leaves_the_run_alone(self, county, tmp_path):
        config_path = county_with_cells(
            county, str(tmp_path), {}, extra_column=("unused", {"100004": "inf"})
        )
        for name, path in (("base", county["config"]), ("edited", config_path)):
            out = str(tmp_path / name)
            assert cli_main(["pipeline", "--config", path, "--output-dir", out]) == 0
        # the reports echo the config, whose paths differ
        for name in PIPELINE_FILES:
            if not name.startswith("report."):
                with open(tmp_path / "base" / name, "rb") as a, \
                        open(tmp_path / "edited" / name, "rb") as b:
                    assert a.read() == b.read(), name


class TestCli:
    def test_pipeline_exit_zero(self, county, tmp_path, capsys):
        out = str(tmp_path / "cli_out")
        code = cli_main(
            ["pipeline", "--config", county["config"], "--output-dir", out]
        )
        assert code == 0
        assert os.path.exists(os.path.join(out, "report.json"))
        assert "outputs written" in capsys.readouterr().out

    def test_failure_exit_two_with_stage_tag(self, capsys):
        code = cli_main(["regress", "--config", "/definitely/not/there.json"])
        assert code == 2
        assert "[config]" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_snap_tolerance_refused(self, county, tmp_path, capsys, value):
        argv = ["weights", "--config", county["config"], "--output-dir", str(tmp_path),
                "--snap-tolerance", value]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert "[config]" in err and "snap_tolerance" in err
        assert not os.listdir(tmp_path)

    def test_override_changes_group_count(self, county, tmp_path):
        out = str(tmp_path / "k3")
        code = cli_main(
            [
                "cluster",
                "--config",
                county["config"],
                "--output-dir",
                out,
                "--group-k",
                "3",
            ]
        )
        assert code == 0
        with open(os.path.join(out, "groups.csv")) as fh:
            rows = fh.read().strip().splitlines()[1:]
        assert len(rows) == 3

    def test_every_override_flag_sets_its_field(self, county):
        config = load_config(county["config"])
        args = _build_parser().parse_args(
            [
                "regress",
                "--config", county["config"],
                "--output-dir", "elsewhere",
                "--alpha", "0.1",
                "--fdr-alpha", "0.2",
                "--vif-threshold", "5",
                "--group-k", "3",
                "--contiguity", "rook",
                "--snap-tolerance", "0.001",
                "--allow-islands",
            ]
        )
        assert _apply_overrides(config, args) == dataclasses.replace(
            config,
            output_dir="elsewhere",
            alpha=0.1,
            fdr_alpha=0.2,
            vif_threshold=5.0,
            group_k=3,
            contiguity="rook",
            snap_tolerance=0.001,
            allow_islands=True,
        )
        bare = _build_parser().parse_args(["regress", "--config", county["config"]])
        assert _apply_overrides(config, bare) == config

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--version"])
        assert exc.value.code == 0
        assert "arealstat" in capsys.readouterr().out


class TestHotspotCsv:
    @settings(max_examples=300, deadline=None)
    @given(st.floats())
    @example(float("nan"))
    @example(float("inf"))
    @example(float("-inf"))
    @example(-0.0)
    @example(5e-324)
    @example(-2.225e-308)
    def test_percent_format_spells_floats_as_fmt(self, x):
        assert "%.6g" % x == pipeline_module._fmt(x)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.floats(), st.floats(), st.floats(), st.floats()), max_size=12))
    def test_rows_match_per_cell_writer(self, tmp_path_factory, cells):
        # the per-cell writer this one replaced, kept as the oracle
        n = len(cells)
        cols = np.array(cells, dtype=float).reshape(n, 4)
        ids = [f"u{i}" for i in range(n)]
        classes = ["Hot Spot - 99% Confidence" if i % 2 else "Not Significant" for i in range(n)]
        table = types.SimpleNamespace(column=lambda name: cols[:, 0])
        ctx = types.SimpleNamespace(
            config=types.SimpleNamespace(outcome_column="y"),
            dataset=types.SimpleNamespace(table=table, units=types.SimpleNamespace(ids=ids)),
            gi=types.SimpleNamespace(
                z=cols[:, 1], p=cols[:, 2], adjusted_p=cols[:, 3], classes=classes
            ),
        )
        fmt = pipeline_module._fmt
        expected = ["id,x,z,p,adjusted_p,class"] + [
            ",".join([ids[i], *(fmt(v) for v in cols[i]), classes[i]]) for i in range(n)
        ]
        outdir = str(tmp_path_factory.mktemp("hotspot_csv"))
        pipeline_module._write_hotspot(ctx, outdir)
        with open(os.path.join(outdir, "hotspot.csv"), "rb") as fh:
            assert fh.read() == ("\n".join(expected) + "\n").encode("utf-8")


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def county_with_prefixed_ids(county, directory, prefix):
    """The synthetic county with ``prefix`` before every unit id, in the
    geometry and in the attribute file (written by csv.writer).  Returns
    the new config path."""
    with open(county["config"]) as fh:
        config = json.load(fh)
    with open(config["geometry_path"]) as fh:
        doc = json.load(fh)
    for feature in doc["features"]:
        feature["properties"]["GEOID"] = prefix + str(feature["properties"]["GEOID"])
    rows = read_csv(config["attributes_path"])
    for row in rows[1:]:
        row[0] = prefix + row[0]
    config["geometry_path"] = os.path.join(directory, "tracts.geojson")
    config["attributes_path"] = os.path.join(directory, "attributes.csv")
    config["output_dir"] = os.path.join(directory, "out")
    with open(config["geometry_path"], "w") as fh:
        json.dump(doc, fh)
    with open(config["attributes_path"], "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    config_path = os.path.join(directory, "config.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh)
    return config_path


class TestCsvQuoting:
    """A header or cell that holds a comma, a quote, CR or LF is quoted as
    RFC 4180 says; every other byte is as before."""

    def test_ids_with_commas_read_back_by_csv_reader(self, county, county_run, tmp_path):
        config = load_config(county_with_prefixed_ids(county, str(tmp_path), 'T,"'))
        run_pipeline(config)
        written = sorted(glob.glob(os.path.join(config.output_dir, "*.csv")))
        assert [os.path.basename(p) for p in written] == sorted(
            f for f in PIPELINE_FILES if f.endswith(".csv")
        )
        for path in written:
            rows = read_csv(path)
            plain = read_csv(os.path.join(county_run[0].output_dir, os.path.basename(path)))
            assert all(len(row) == len(rows[0]) for row in rows), path
            if os.path.basename(path) == "hotspot.csv":
                assert all(row[0] == 'T,"' + want[0] for row, want in zip(rows[1:], plain[1:]))
                rows = [row[1:] for row in rows]
                plain = [row[1:] for row in plain]
            assert rows == plain, path

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
            min_size=2, max_size=4, unique=True,
        ),
        st.data(),
    )
    def test_table_cells_round_trip(self, tmp_path_factory, columns, data):
        cell = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
        rows = data.draw(st.lists(st.fixed_dictionaries({c: cell for c in columns}), max_size=4))
        path = os.path.join(str(tmp_path_factory.mktemp("table")), "t.csv")
        pipeline_module._write_table(path, columns, rows)
        table = [columns] + [[row[c] for c in columns] for row in rows]
        assert read_csv(path) == table
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
        # a cell that needs no quotes is written as before
        if not any(ch in "".join(map("".join, table)) for ch in ',"\r\n'):
            assert text == "".join(",".join(cells) + "\n" for cells in table)
        else:
            assert text.count('"') > sum(cell.count('"') for cells in table for cell in cells)


_IMPORT_GRAPH_PROBE = """
import dataclasses, json, sys
import arealstat
from arealstat.pipeline import load_config, run_subcommand
config = dataclasses.replace(load_config(sys.argv[1]), output_dir=sys.argv[2])
run_subcommand(config, "pipeline")
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[:2] in
                        (["scipy", "stats"], ["scipy", "optimize"]))))
"""


def test_pipeline_run_imports_no_scipy_stats_or_optimize(county, tmp_path):
    # a fresh interpreter, so modules the test suite itself imported do not count
    src = os.path.dirname(os.path.dirname(arealstat.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    out = str(tmp_path / "out")
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_GRAPH_PROBE, county["config"], out],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
    assert os.path.exists(os.path.join(out, "report.json"))


@pytest.fixture(scope="module")
def county_inputs(tmp_path_factory):
    """The synthetic county's config, its input files' bytes and the files
    of its `pipeline` run.  Every run below rewrites both inputs in place,
    so each report quotes the same paths."""
    from arealstat.synth import write_synthetic_county

    config = load_config(write_synthetic_county(str(tmp_path_factory.mktemp("inputs"))))
    inputs = {}
    for key in ("geometry_path", "attributes_path"):
        with open(getattr(config, key), "rb") as fh:
            inputs[key] = fh.read()
    return config, inputs, _pipeline_files(config, inputs)


def _pipeline_files(config, inputs: dict) -> dict:
    """Write ``inputs`` ({config key: bytes}) to the config's paths, run
    `pipeline` and return its files' bytes by name."""
    for key, data in inputs.items():
        with open(getattr(config, key), "wb") as fh:
            fh.write(data)
    shutil.rmtree(config.output_dir, ignore_errors=True)
    run_pipeline(config)
    files = {}
    for name in sorted(os.listdir(config.output_dir)):
        with open(os.path.join(config.output_dir, name), "rb") as fh:
            files[name] = fh.read()
    return files


def _differing(files: dict, plain: dict) -> list:
    assert sorted(files) == sorted(plain)
    return [name for name in plain if files[name] != plain[name]]


def _attribute_rows(inputs: dict) -> list:
    return list(csv.reader(io.StringIO(inputs["attributes_path"].decode("utf-8"))))


def _attribute_bytes(rows: list) -> bytes:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue().encode("utf-8")


def _whole_numbers(inputs: dict, id_column: str) -> dict:
    """``inputs`` with every attribute rounded to a whole number, as
    published estimates often are, and printed as printf does, so that a
    small negative value reads -0; Ward's merge costs then tie."""
    rows = _attribute_rows(inputs)
    id_at = rows[0].index(id_column)
    for row in rows[1:]:
        row[:] = [x if j == id_at else f"{float(x):.0f}" for j, x in enumerate(row)]
    return dict(inputs, attributes_path=_attribute_bytes(rows))


def _reordered(inputs: dict, order) -> dict:
    """``inputs`` with the features and the attribute rows reversed, or
    each permuted by its own draw from a generator seeded with ``order``."""
    doc = json.loads(inputs["geometry_path"])
    rows = _attribute_rows(inputs)
    if order == "reversed":
        doc["features"].reverse()
        rows[1:] = rows[:0:-1]
    else:
        rng = np.random.default_rng(order)
        doc["features"] = [doc["features"][i] for i in rng.permutation(len(doc["features"]))]
        rows[1:] = [rows[1 + i] for i in rng.permutation(len(rows) - 1)]
    return {
        "geometry_path": json.dumps(doc).encode("utf-8"),
        "attributes_path": _attribute_bytes(rows),
    }


class TestUnitOrder:
    """The units are put in id order at the join, so reordering the
    features and the attribute rows leaves every output file byte-identical,
    also where rounded attributes make Ward's merge costs tie."""

    @pytest.mark.parametrize("values", ["as written", "whole numbers"])
    def test_reordered_inputs_give_the_same_files(self, county_inputs, values):
        config, inputs, plain = county_inputs
        if values == "whole numbers":
            inputs = _whole_numbers(inputs, config.id_column)
            plain = _pipeline_files(config, inputs)
        for order in ("reversed", 7, 16):
            files = _pipeline_files(config, _reordered(inputs, order))
            assert _differing(files, plain) == [], order

    def test_negative_zero_cells_read_as_zero(self, county_inputs):
        # -0 and 0 compare equal, so np.min returns whichever comes first
        config, inputs, _ = county_inputs
        rows = _attribute_rows(inputs)
        at = rows[0].index("uninsured")
        rows[1][at], rows[2][at] = "-0", "0"
        signed = _pipeline_files(config, dict(inputs, attributes_path=_attribute_bytes(rows)))
        rows[1][at] = "0"
        unsigned = _pipeline_files(config, dict(inputs, attributes_path=_attribute_bytes(rows)))
        assert _differing(signed, unsigned) == []
        summary = list(csv.DictReader(io.StringIO(signed["summary.csv"].decode("utf-8"))))
        assert [row["min"] for row in summary if row["name"] == "uninsured"] == ["0"]


# Under a*x + b of every attribute column a full-precision number moves by
# rounding only; the largest move measured was 5e-8 relative, in a spatial
# p-value of 6e-11.  The least-squares intercept and its t are 0 in exact
# arithmetic; under the 1e6 shift they reached 8.1e-12 and 4.1e-10.
_AFFINE_REL = 1e-7
_INTERCEPT_ABS = {"coefficient": 1e-10, "t": 1e-8}


def _assert_close_report(a, b, where: str = "") -> None:
    """Equal structure, strings, integers and flags; floats within _AFFINE_REL."""
    if isinstance(a, dict):
        assert sorted(a) == sorted(b), where
        for k in a:
            _assert_close_report(a[k], b[k], f"{where}.{k}")
    elif isinstance(a, list):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_close_report(x, y, f"{where}[{i}]")
    elif isinstance(a, float):
        assert math.isclose(a, b, rel_tol=_AFFINE_REL), (where, a, b)
    else:
        assert a == b, (where, a, b)


class TestInputInvariance:
    """Changes to the inputs that the statistics do not see leave every
    output file byte-identical, or every number within rounding."""

    def test_byte_order_marks(self, county_inputs):
        # spreadsheet "CSV UTF-8" exports start with one; RFC 8259 lets a
        # JSON parser ignore it
        config, inputs, plain = county_inputs
        marked = {key: b"\xef\xbb\xbf" + data for key, data in inputs.items()}
        assert _differing(_pipeline_files(config, marked), plain) == []

    def test_unread_columns(self, county_inputs):
        # numbers, text and blanks, before and after the analysis columns
        config, inputs, plain = county_inputs
        rows = _attribute_rows(inputs)
        rows[0][1:1] = ["extra_number", "extra_text"]
        rows[0].append("extra_blank")
        for i, row in enumerate(rows[1:]):
            row[1:1] = [repr(0.37 * i - 5.0), ["abc", "", " x y", "nan"][i % 4]]
            row.append(" " if i % 3 else "")
        files = _pipeline_files(config, dict(inputs, attributes_path=_attribute_bytes(rows)))
        assert _differing(files, plain) == []

    @pytest.mark.parametrize("a, b", [(1000.0, 0.0), (1.0, 1e6), (1e-3, -50.0)])
    def test_affine_map_of_every_attribute(self, county_inputs, a, b):
        config, inputs, plain = county_inputs
        rows = _attribute_rows(inputs)
        id_at = rows[0].index(config.id_column)
        for row in rows[1:]:
            row[:] = [x if j == id_at else repr(a * float(x) + b) for j, x in enumerate(row)]
        files = _pipeline_files(config, dict(inputs, attributes_path=_attribute_bytes(rows)))
        # the outcome and comparison maps print raw values in their legends,
        # and the summary and hotspot tables print raw values too
        unchanged = [
            "groups.csv", "spatial_coefficients.csv", "comparison.csv", "spearman.csv",
            "map_groups.svg", "map_hotspot.svg",
        ]
        assert [name for name in unchanged if files[name] != plain[name]] == []
        given, mapped = (json.loads(f["report.json"]) for f in (plain, files))
        for row in given["summary"]:
            row.update({k: a * row[k] + b for k in ("mean", "min", "max")}, sd=a * row["sd"])
        for report in (given, mapped):
            intercept = report["ols"]["coefficients"][0]
            assert intercept["name"] == "intercept"
            for key, tol in _INTERCEPT_ABS.items():
                assert abs(intercept.pop(key)) < tol, (key, a, b)
        _assert_close_report(given, mapped)

    @pytest.mark.parametrize(
        "move",
        [lambda x, y: [x + 123456.789, y - 98765.4321], lambda x, y: [0.3 * x, 0.3 * y]],
        ids=["shift", "scale"],
    )
    def test_coordinate_shift_and_scale(self, county_inputs, move):
        config, inputs, plain = county_inputs
        doc = json.loads(inputs["geometry_path"])
        for feature in doc["features"]:
            geometry = feature["geometry"]
            polygons = geometry["coordinates"]
            for polygon in [polygons] if geometry["type"] == "Polygon" else polygons:
                for ring in polygon:
                    ring[:] = [move(*point) for point in ring]
        files = _pipeline_files(config, dict(inputs, geometry_path=json.dumps(doc).encode()))
        # augmented.geojson carries the coordinates, and only they move
        assert _differing(files, plain) == ["augmented.geojson"]
        given, moved = (json.loads(f["augmented.geojson"])["features"] for f in (plain, files))
        assert [f["properties"] for f in given] == [f["properties"] for f in moved]

    def test_coordinate_mirror(self, county_inputs):
        config, inputs, plain = county_inputs
        doc = json.loads(inputs["geometry_path"])
        for feature in doc["features"]:
            geometry = feature["geometry"]
            polygons = geometry["coordinates"]
            for polygon in [polygons] if geometry["type"] == "Polygon" else polygons:
                for ring in polygon:
                    ring[:] = [[-x, y] for x, y in ring]
        files = _pipeline_files(config, dict(inputs, geometry_path=json.dumps(doc).encode()))
        # x -> -x keeps every adjacency, so only the coordinates and the maps
        # drawn from them change
        maps = ["map_comparison.svg", "map_groups.svg", "map_hotspot.svg", "map_outcome.svg"]
        assert sorted(_differing(files, plain)) == ["augmented.geojson", *maps]
        given, mirrored = (json.loads(f["augmented.geojson"])["features"] for f in (plain, files))
        assert [f["properties"] for f in given] == [f["properties"] for f in mirrored]
