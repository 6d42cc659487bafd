"""Run the whole analysis on the bundled synthetic county and skim the
report.

The same run is available from the shell as

    arealstat pipeline --config <dir>/config.json
"""

import os
import tempfile

from arealstat.pipeline import load_config, run_pipeline
from arealstat.synth import write_synthetic_county

with tempfile.TemporaryDirectory(prefix="county_demo_") as workdir:
    config = load_config(write_synthetic_county(workdir))
    report = run_pipeline(config)
    print("wrote:", ", ".join(sorted(os.listdir(config.output_dir))))
print()

print("units analyzed:", report["weights"]["n"])
print("dropped (geometry without attributes):",
      report["dropped_units"]["geometry_only"])

counts = report["hotspot"]["counts"]
print("hot/cold classes:", {k: v for k, v in counts.items() if v})

sel = report["selection"]
print("collinearity removals:", [r["column"] for r in sel["vif_removed"]])
print("final predictors:", sel["final_columns"])

print("model decision:", report["decision"]["decision"])
spatial = report["spatial"]
if spatial is not None:
    row = next(r for r in spatial["coefficients"] if r["name"] in ("lambda", "rho"))
    print(f"{spatial['kind']} model, {row['name']} = {row['coefficient']:.3f} "
          f"(p {row['p']:.2g})")
    print("preferred by AIC:", report["comparison"]["preferred"])

print("grouping features:", report["groups"]["features"])
outcome = config.outcome_column
for prof in report["groups"]["profiles"]:
    print(f"  group {prof['group']}: n={prof['count']}, "
          f"outcome {prof['labels'][outcome]}")

print("rank correlations vs", report["spearman"]["column"])
for row in report["spearman"]["rows"]:
    print(f"  {row['versus']:22s} rho {row['rho']:+.3f} {row['stars']}")
