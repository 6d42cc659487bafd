"""Command line front end.

Every subcommand reads the same flat JSON config; flags override single
fields.  Exit status 0 on success, 2 on any stage failure (the message on
stderr carries the stage tag).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from ._version import __version__
from .pipeline import SUBCOMMANDS, PipelineError, load_config, run_subcommand
from .weights import CONTIGUITY_RULES

_HELP = {
    "pipeline": "run every stage and write all outputs",
    "weights": "build contiguity weights and the island report",
    "hotspot": "score hot and cold spots of the outcome column",
    "regress": "model selection, diagnostics, and spatial regression",
    "cluster": "Ward grouping over the retained predictors",
}

# Flags that override one config field each, named after it in kebab case.
_OVERRIDES = (
    ("--output-dir", {"help": "override output directory"}),
    ("--alpha", {"type": float, "help": "override significance level"}),
    ("--fdr-alpha", {"type": float, "help": "override FDR level"}),
    ("--vif-threshold", {"type": float, "help": "override collinearity cutoff"}),
    ("--group-k", {"type": int, "help": "override number of groups"}),
    ("--contiguity", {"choices": CONTIGUITY_RULES, "help": "override contiguity rule"}),
    ("--snap-tolerance", {"type": float, "help": "override vertex snap tolerance"}),
    (
        "--allow-islands",
        {
            "action": "store_true",
            "help": "skip spatial model stages instead of failing when units have no neighbors",
        },
    ),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arealstat",
        description="area-level spatial statistics over polygon data",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=_HELP[name])
        p.add_argument("--config", required=True, help="path to the JSON config")
        for flag, options in _OVERRIDES:
            p.add_argument(flag, **options)
    return parser


def _apply_overrides(config, args):
    updates = {}
    for flag, _ in _OVERRIDES:
        name = flag[2:].replace("-", "_")
        value = getattr(args, name)
        # an absent flag parses as None, or False for --allow-islands
        if value is not None and value is not False:
            updates[name] = value
    if updates:
        config = dataclasses.replace(config, **updates)
    return config


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        config = _apply_overrides(config, args)
        run_subcommand(config, args.command)
    except PipelineError as exc:
        print(f"arealstat {args.command} failed: {exc}", file=sys.stderr)
        return 2
    print(f"arealstat {args.command}: outputs written to {config.output_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
