"""Command-line front end.

    lexipivot <gen-corpus|train|extract|induce|pipeline>
              --config FILE [--seed N] [--out DIR] ...

Exit codes: 0 success, 2 config or usage error or too little memory for
the run's sizes, 3 IO/format error, 4 numeric or empty-result error.
Errors print one line to stderr prefixed with "lexipivot-error:".
LEXIPIVOT_LOG=error|warn|info|debug sets verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from .config import RunConfig, load_config
from .errors import ConfigError, LexipivotError
from . import pipeline

log = logging.getLogger("lexipivot")

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    level = _LOG_LEVELS.get(os.environ.get("LEXIPIVOT_LOG", "warn").lower(),
                            logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError instead of exiting."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _common_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=Path, default=None,
                     help="JSON config file (defaults apply when omitted)")
    sub.add_argument("--seed", type=int, default=None, help="override config seed")
    sub.add_argument("--out", type=Path, default=Path("runs/out"), help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lexipivot",
        description="Bilingual lexicon induction from mono-lingual caption corpora.")
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("gen-corpus", help="generate a synthetic bilingual corpus")
    _common_args(gen)

    tr = commands.add_parser("train", help="train the caption model")
    _common_args(tr)
    tr.add_argument("--corpus", type=Path, required=True, help="corpus directory")

    ex = commands.add_parser("extract", help="extract word feature tables")
    _common_args(ex)
    ex.add_argument("--checkpoint", type=Path, required=True,
                    help="checkpoint prefix (without extension)")
    ex.add_argument("--corpus", type=Path, required=True)

    ind = commands.add_parser("induce", help="rank translations and evaluate")
    _common_args(ind)
    ind.add_argument("--tables", type=Path, required=True,
                     help="directory with .lxwf feature tables")
    ind.add_argument("--lexicon", type=Path, required=True)

    pipe = commands.add_parser("pipeline", help="run all stages into one directory")
    _common_args(pipe)
    return parser


def resolve_config(args) -> RunConfig:
    """The config of `--config` (defaults when omitted), with `--seed`
    applied."""
    config = load_config(args.config) if args.config else RunConfig()
    if args.config is None:
        config.validate()
    if args.seed is not None:
        config.seed = args.seed
    return config


# the failures that end a command with one error line and an exit code
HANDLED_ERRORS = (LexipivotError, OSError, MemoryError)


def report_error(exc: Exception) -> int:
    """Print the one error line of a `HANDLED_ERRORS` failure and return its
    exit code: the error's own, or 3 for an OSError. A MemoryError is the
    ConfigError of sizes too large for the memory at hand."""
    if isinstance(exc, MemoryError):
        exc = ConfigError("the run's sizes need more memory than is available"
                          + (f" ({exc})" if str(exc) else ""))
    print(f"lexipivot-error: {exc}", file=sys.stderr)
    return exc.exit_code if isinstance(exc, LexipivotError) else 3


def main(argv=None) -> int:
    _setup_logging()
    try:
        args = build_parser().parse_args(argv)
        config = resolve_config(args)
        if args.command == "gen-corpus":
            pipeline.stage_gen_corpus(config, args.out)
        elif args.command == "train":
            pipeline.stage_train(config, args.out, args.corpus)
        elif args.command == "extract":
            pipeline.stage_extract(config, args.out, args.checkpoint, args.corpus)
        elif args.command == "induce":
            pipeline.stage_induce(config, args.out, args.tables, args.lexicon)
        elif args.command == "pipeline":
            pipeline.run_pipeline(config, args.out)
        return 0
    except HANDLED_ERRORS as exc:
        return report_error(exc)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
