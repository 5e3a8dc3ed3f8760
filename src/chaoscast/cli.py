"""Command-line entry point.

Verbs mirror the pipeline stages and read/write artifacts under --out:

    chaoscast run-all -c config.json -o out/
    chaoscast generate-library | embed | fit | select | forecast |
              score | invert

Exit codes: 0 success (a no-forecast outcome is a success); 1 a config error,
a surrogate run that never settles among them, or a missing or rejected input
file, named; 2 a runtime error: a diverged integration, or an unexpected one.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .config import load_config
from .ensemble import load_keys
from .errors import ChaoscastError, ConfigError, PanelFormatError
from . import pipeline as pl

VERBS = ("generate-library", "embed", "fit", "select", "forecast",
         "score", "invert", "run-all")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaoscast",
        description="Ensembles of small linear models for short-horizon "
                    "prediction of large chaotic systems")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="per-stage INFO logging")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in VERBS:
        p = sub.add_parser(verb)
        p.add_argument("-c", "--config", required=True, help="JSON config file")
        p.add_argument("-o", "--out", default="out", help="artifact directory")
    return parser


def _dispatch(verb: str, cfg, out: Path) -> None:
    if verb == "run-all":
        pl.run_pipeline(cfg, out)
    elif verb == "generate-library":
        library = pl.stage_library(cfg, out)
        pl.stage_ground(cfg, library, out)
    elif verb == "embed":
        library = pl.load_library(out, cfg)
        ground, _, _ = pl.load_ground(out)
        pl.stage_embed(cfg, library, ground, out)
    elif verb == "fit":
        library = pl.load_library(out, cfg)
        maps = pl.load_maps(out)
        pl.stage_fit(cfg, library, maps, out)
    elif verb == "select":
        groups = pl.load_groups(out)
        ground, _, _ = pl.load_ground(out)
        shrink = pl.stage_shrinkage(cfg, out)
        pl.stage_select(cfg, groups, ground, shrink, out)
    elif verb == "forecast":
        retained = load_keys(out / "retained_keys.json")
        ground, _, _ = pl.load_ground(out)
        pl.stage_forecast(cfg, retained, ground, out)
    elif verb == "score":
        retained = load_keys(out / "retained_keys.json")
        ground, _, _ = pl.load_ground(out)
        forecast = pl.stage_forecast(cfg, retained, ground, None)
        pl.stage_score(cfg, forecast, ground, out)
    elif verb == "invert":
        library = pl.load_library(out, cfg)
        keys_by_attractor = {}
        for key in load_keys(out / "keys.json"):
            keys_by_attractor.setdefault(key.attractor_id, []).append(key)
        ground, _, provenance = pl.load_ground(out)
        pl.stage_invert(cfg, library, keys_by_attractor, ground, out, provenance)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(name)s %(levelname)s %(message)s")
    try:
        cfg = load_config(args.config)
        _dispatch(args.verb, cfg, Path(args.out))
        return 0
    except (ConfigError, PanelFormatError, FileNotFoundError) as exc:
        print(f"chaoscast: {exc}", file=sys.stderr)
        return 1
    except ChaoscastError as exc:
        print(f"chaoscast: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything unexpected is a runtime failure
        print(f"chaoscast: unexpected error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
