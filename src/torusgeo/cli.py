"""Command-line runner: `torusgeo run <config>` and `torusgeo plot-data <report>`."""
from __future__ import annotations

import argparse
import sys

from .config import parse_config
from .errors import ConfigError, SolverFailureError, TorusGeoError
from .experiments import emit_plot_data, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="torusgeo",
                                     description="Desk-scale experiments on shortest "
                                                 "closed Finsler geodesics on T^2")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config", help="key = value config file")
    p_run.add_argument("--out", default=None, help="report path (JSON lines)")
    p_run.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                       help="override any config key (repeatable)")

    p_plot = sub.add_parser("plot-data", help="extract CSV plot tables from a report")
    p_plot.add_argument("report", help="report file written by `run`")
    p_plot.add_argument("--out", required=True, help="output directory for CSV files")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            with open(args.config, encoding="utf-8") as fh:
                cfg = parse_config(fh.read())
            for item in args.override:
                if "=" not in item:
                    raise ConfigError(f"--override expects KEY=VALUE, got {item!r}")
                key, value = item.split("=", 1)
                cfg[key.strip()] = value.strip()
            out = args.out or cfg.get("out", "report.jsonl")
            return run(cfg, out)
        return emit_plot_data(args.report, args.out)
    except SolverFailureError as e:
        print(f"torusgeo: solver failure: {e}", file=sys.stderr)
        return 3
    except (TorusGeoError, OSError, ValueError) as e:
        print(f"torusgeo: error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        # a size in the config too large to allocate, e.g. solver.n_vertices = 1e15
        print(f"torusgeo: error: out of memory, a size in the config is too large: {e}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
