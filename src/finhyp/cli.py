"""Command-line entry point.

Exit codes: 0 success, 1 usage problem, 2 bad input data or unwritable output.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .pipeline import (
    PRESETS,
    DataError,
    PipelineConfig,
    apply_preset,
    load_config,
    run_augment_apply,
    run_augment_fetch,
    run_cv,
    run_inspect_oov,
    run_predict,
    run_train,
    writing,
)
from .synth import generate, write_dataset

FETCHER_URL_ENV = "FINHYP_FETCHER_BASE_URL"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; route through
    # UsageError so usage problems exit 1 and data problems keep 2.
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="finhyp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument(
        "--preset",
        choices=list(PRESETS),
        help="named feature/OOV configuration",
    )
    common.add_argument("--seed", type=int, help="fold-shuffling seed")
    common.add_argument("--out", help="output directory")
    common.add_argument("--embeddings", help="word2vec text-format file")
    common.add_argument("--snapshot", help="definition snapshot JSON")

    p = sub.add_parser("cv", parents=[common], help="cross-validated evaluation")
    p.add_argument("dataset", help='CSV with header "term,label"')
    p.set_defaults(func=_cmd_cv)

    p = sub.add_parser("train", parents=[common], help="fit and persist a model")
    p.add_argument("dataset", help='CSV with header "term,label"')
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", parents=[common], help="score terms with a model")
    p.add_argument("terms", help='CSV with header "term" (a label column is ignored)')
    p.add_argument("--model", required=True, help="directory written by train")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser(
        "augment-fetch", parents=[common], help="build a definition snapshot"
    )
    p.add_argument("terms", help="CSV of terms to query")
    p.add_argument("--base-url", help=f"definition endpoint (or ${FETCHER_URL_ENV})")
    p.set_defaults(func=_cmd_augment_fetch)

    p = sub.add_parser(
        "augment-apply", parents=[common], help="show augmented texts for a dataset"
    )
    p.add_argument("dataset", help="CSV of terms (label column optional)")
    p.set_defaults(func=_cmd_augment_apply)

    p = sub.add_parser(
        "inspect-oov", parents=[common], help="list out-of-vocabulary tokens"
    )
    p.add_argument("dataset", help="CSV of terms (label column optional)")
    p.set_defaults(func=_cmd_inspect_oov)

    p = sub.add_parser("synth", help="generate a synthetic dataset + embeddings")
    p.add_argument("--classes", type=int, default=17, help="number of classes")
    p.add_argument("--rows", type=int, default=1050, help="number of terms")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma", type=float, default=0.1, help="token noise scale")
    p.add_argument("--dim", type=int, default=32, help="embedding dimension")
    p.add_argument("--typo-rate", type=float, default=0.05)
    p.add_argument(
        "--plant-substrings",
        action="store_true",
        help="mark one class with an indicator substring",
    )
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=_cmd_synth)
    return parser


def _config(args) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    if args.preset:
        cfg = apply_preset(cfg, args.preset)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out:
        overrides["out_dir"] = args.out
    if args.embeddings:
        overrides["embedding_path"] = args.embeddings
    if args.snapshot:
        overrides["snapshot_path"] = args.snapshot
    # the fetcher URL: --base-url, else the environment, else the config
    url = getattr(args, "base_url", None) or os.environ.get(FETCHER_URL_ENV)
    if url:
        overrides["fetcher_base_url"] = url
    if not overrides:
        return cfg
    try:
        return dataclasses.replace(cfg, **overrides)
    except ValueError as err:
        raise UsageError(str(err)) from None


def _cmd_cv(args) -> int:
    run = run_cv(_config(args), args.dataset)
    sys.stdout.write(run.report.to_text())
    print(f"best_c: {run.best_c}")
    if run.coverage is not None:
        print(f"augment_coverage: {run.coverage:.4f}")
    print(f"wrote: {run.paths['report_txt']}")
    return 0


def _cmd_train(args) -> int:
    run = run_train(_config(args), args.dataset)
    print(f"best_c: {run.best_c}")
    if run.coverage is not None:
        print(f"augment_coverage: {run.coverage:.4f}")
    print(f"wrote: {run.paths['model']}")
    return 0


def _cmd_predict(args) -> int:
    run = run_predict(_config(args), args.model, args.terms)
    print(f"predicted {run.n_terms} terms")
    print(f"wrote: {run.path}")
    return 0


def _cmd_augment_fetch(args) -> int:
    snapshot, entries, failures = run_augment_fetch(_config(args), args.terms)
    print(f"fetched {entries} definitions, {failures} failures")
    print(f"wrote: {snapshot}")
    return 0


def _cmd_augment_apply(args) -> int:
    path, coverage = run_augment_apply(_config(args), args.dataset)
    print(f"coverage: {coverage:.4f}")
    print(f"wrote: {path}")
    return 0


def _cmd_inspect_oov(args) -> int:
    run = run_inspect_oov(_config(args), args.dataset)
    sys.stdout.write(run.text)
    print(f"wrote: {run.path}")
    return 0


def _cmd_synth(args) -> int:
    try:
        data = generate(
            k_classes=args.classes,
            n=args.rows,
            seed=args.seed,
            sigma=args.sigma,
            dim=args.dim,
            plant_substrings=args.plant_substrings,
            typo_rate=args.typo_rate,
        )
    except ValueError as err:
        raise UsageError(str(err)) from None
    with writing(args.out):
        csv_path, emb_path = write_dataset(data, args.out)
    print(f"wrote: {csv_path}")
    print(f"wrote: {emb_path}")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except DataError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
