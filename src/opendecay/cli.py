"""Command-line entry point.

    opendecay <scenario> [--config FILE] [--output FILE] [--format csv|json]
                         [--key value ...]

Any ``--key value`` pair (or ``--key=value``) not recognized as a global
option is treated as a scenario parameter and must match the scenario's
schema.  Exit codes: 0 success; 1 the command line or config file cannot
be read into the schema (unknown scenario, key or format, a missing value
or required key, a value that does not parse as its type, an unreadable
or unwritable file); 2 a value that parsed but lies outside its domain
(each key's bound is in ``SCHEMAS``), or a computation that refused to
certify its result; 3 the acceptance scenario completed with failing
criteria.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .errors import ConfigError, OpenDecayError
from .scenarios import SCHEMAS, parse_config, run_scenario


class _Parser(argparse.ArgumentParser):
    """argparse that reports problems as ConfigError instead of exiting."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="opendecay",
        description="Run a named open-system scenario and emit a data table.",
        epilog=(
            "Scenario parameters are given as '--key value' pairs; "
            "defaults, config file and command line are merged in that "
            "order (later wins)."
        ),
    )
    parser.add_argument("scenario", choices=sorted(SCHEMAS),
                        help="which computation to run")
    parser.add_argument("--config", default=None, metavar="FILE",
                        help="file of 'key = value' lines ('#' comments)")
    parser.add_argument("--output", default=None, metavar="FILE",
                        help="write the table here instead of stdout")
    parser.add_argument("--format", default="csv", choices=("csv", "json"),
                        help="output format (default: csv)")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    return parser


def _key_overrides(extras):
    overrides = []
    i = 0
    while i < len(extras):
        token = extras[i]
        if not token.startswith("--") or len(token) <= 2:
            raise ConfigError(
                f"unexpected argument {token!r}; scenario parameters are "
                "passed as '--key value'"
            )
        key = token[2:]
        if "=" in key:
            key, _, value = key.partition("=")
            i += 1
        else:
            if i + 1 >= len(extras):
                raise ConfigError(f"missing value for --{key}")
            value = extras[i + 1]
            i += 2
        overrides.append((key, value))
    return overrides


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
        cfg = parse_config(args.scenario, args.config, _key_overrides(extras))
        table = run_scenario(args.scenario, cfg)
        text = table.emit(args.format)
        if args.output:
            try:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ConfigError(f"cannot write output file: {exc}") from None
        else:
            sys.stdout.write(text)
        if args.scenario == "acceptance" and not table.metadata.get("all_passed"):
            print("opendecay: acceptance criteria failed", file=sys.stderr)
            return 3
        return 0
    except ConfigError as exc:
        print(f"opendecay: error: {exc}", file=sys.stderr)
        return 1
    except OpenDecayError as exc:
        print(f"opendecay: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
