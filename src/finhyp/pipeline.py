"""Runnable flows behind the CLI: configuration and ablation presets,
dataset I/O, cross-validation, train/predict round trips, OOV inspection
and definition augmentation.

Report files contain results only (no paths, timestamps, or configuration
echoes), so a rerun with identical inputs is byte-identical.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
from dataclasses import dataclass

from .augment import (
    DEFAULT_MIN_SCORE,
    DefinitionDict,
    FetcherConfig,
    HttpFetcher,
    augment_dataset,
    fetch_definitions,
)
from .embeddings import (
    IN_VOCAB,
    EmbeddingFormatError,
    EmbeddingStore,
    TermTokens,
    load_embeddings,
    lookup,
)
from .evaluation import EvalReport, evaluate
from .features import (
    DEFAULT_INDICATORS,
    FeatureConfig,
    HandcraftedConfig,
    LabelSet,
    MinMaxScaler,
    assemble_features,
    build_features,
)
from .fileio import atomic_write
from .model import (
    LogRegModel,
    TrainConfig,
    grid_search,
    load_model,
    model_text,
    predict_proba,
    rank_labels,
)
from .oov import VARIANTS, OOVStrategy


class DataError(Exception):
    """Unreadable or inconsistent input files/artifacts (CLI exit code 2)."""


DEFAULT_C_GRID = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0)

# Ablation ladder: each preset fixes the frontend; everything else
# (embedding path, folds, seed, ...) comes from the surrounding config.
PRESETS: dict[str, dict] = {
    "BL": dict(
        oov_strategy="zero",
        handcrafted=False,
        cosine_features=False,
        edit_features=False,
        augment=False,
    ),
    "BL.HF": dict(
        oov_strategy="zero",
        handcrafted=True,
        cosine_features=False,
        edit_features=False,
        augment=False,
    ),
    "BL.HF.OOVl": dict(
        oov_strategy="levenshtein",
        handcrafted=True,
        cosine_features=False,
        edit_features=False,
        augment=False,
    ),
    "BL.HF.OOVl.D": dict(
        oov_strategy="levenshtein",
        handcrafted=True,
        cosine_features=True,
        edit_features=False,
        augment=False,
    ),
    "BL.HF.OOVl.D2": dict(
        oov_strategy="levenshtein",
        handcrafted=True,
        cosine_features=True,
        edit_features=True,
        augment=False,
    ),
    "BL.HF.OOVm.D2": dict(
        oov_strategy="ngram",
        handcrafted=True,
        cosine_features=True,
        edit_features=True,
        augment=False,
    ),
    "BL.HF.OOVm.D2.+": dict(
        oov_strategy="ngram",
        handcrafted=True,
        cosine_features=True,
        edit_features=True,
        augment=True,
    ),
}


@dataclass(frozen=True)
class PipelineConfig:
    embedding_path: str = ""
    oov_strategy: str = "zero"
    ngram_min: int = 3
    ngram_max: int = 6
    handcrafted: bool = False
    indicators: tuple[str, ...] = DEFAULT_INDICATORS
    cosine_features: bool = False
    edit_features: bool = False
    augment: bool = False
    snapshot_path: str = ""
    min_match_score: float = DEFAULT_MIN_SCORE
    c_grid: tuple[float, ...] = DEFAULT_C_GRID
    folds: int = 5
    seed: int = 0
    labels: tuple[str, ...] = ()  # empty: inferred from the dataset
    out_dir: str = "."
    fetcher_base_url: str = ""
    fetcher_timeout: float = 10.0
    fetcher_rate_limit: float = 1.0
    fetcher_user_agent: str = "finhyp/0.1"

    def __post_init__(self):
        if self.oov_strategy not in VARIANTS:
            raise ValueError(
                f"oov_strategy must be one of {', '.join(VARIANTS)}, "
                f"got {self.oov_strategy!r}"
            )
        if not self.c_grid or any(c <= 0 for c in self.c_grid):
            raise ValueError("c_grid must be non-empty and positive")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if not 1 <= self.ngram_min <= self.ngram_max:
            raise ValueError("require 1 <= ngram_min <= ngram_max")
        if not 0 <= self.min_match_score <= 1:
            raise ValueError("min_match_score must be in [0, 1]")


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(PipelineConfig)}
_TUPLE_FIELDS = ("indicators", "c_grid", "labels")

# The fields that fix the feature rows. run_train records them in
# frontend.json and run_predict replays them over its own config.
FRONTEND_FIELDS = (
    "augment",
    "cosine_features",
    "edit_features",
    "handcrafted",
    "indicators",
    "labels",
    "min_match_score",
    "ngram_max",
    "ngram_min",
    "oov_strategy",
)


def config_from_dict(data: dict) -> PipelineConfig:
    unknown = sorted(set(data) - _CONFIG_FIELDS)
    if unknown:
        raise DataError(f"unknown config keys: {', '.join(unknown)}")
    kwargs = dict(data)
    for key in _TUPLE_FIELDS:
        if key in kwargs:
            value = kwargs[key]
            if not isinstance(value, (list, tuple)):
                raise DataError(f"config key {key!r} must be a list")
            kwargs[key] = tuple(value)
    try:
        return PipelineConfig(**kwargs)
    except (TypeError, ValueError) as err:
        raise DataError(f"bad config: {err}") from None


def load_config(path) -> PipelineConfig:
    return config_from_dict(_read_json(path, "config"))


def apply_preset(cfg: PipelineConfig, name: str) -> PipelineConfig:
    if name not in PRESETS:
        raise ValueError(
            f"unknown preset {name!r}; known: {', '.join(PRESETS)}"
        )
    return dataclasses.replace(cfg, **PRESETS[name])


# ---------------------------------------------------------------- dataset I/O


def load_terms(path):
    """Terms (and labels when present) from a CSV with header "term,label"
    or just "term". Returns (terms, labels-or-None)."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as err:
        raise DataError(f"cannot read dataset: {err}") from None
    except UnicodeDecodeError as err:
        raise DataError(f"{path}: not UTF-8: {err}") from None
    except csv.Error as err:
        raise DataError(f"{path}: malformed CSV: {err}") from None
    if not rows:
        raise DataError(f"{path}: empty file")
    header = rows[0]
    if header == ["term", "label"]:
        with_label = True
    elif header == ["term"]:
        with_label = False
    else:
        raise DataError(
            f'{path}: header must be "term,label" or "term", '
            f"got {','.join(header)!r}"
        )
    terms: list[str] = []
    labels: list[str] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(
                f"{path} line {lineno}: expected {len(header)} columns, "
                f"got {len(row)}"
            )
        if not row[0].strip():
            raise DataError(f"{path} line {lineno}: empty term")
        terms.append(row[0])
        if with_label:
            if not row[1].strip():
                raise DataError(f"{path} line {lineno}: empty label")
            labels.append(row[1])
    if not terms:
        raise DataError(f"{path}: no data rows")
    return terms, (labels if with_label else None)


def load_dataset(path):
    """(terms, labels) from a labeled CSV; a missing label column is an error."""
    terms, labels = load_terms(path)
    if labels is None:
        raise DataError(f'{path}: missing "label" column')
    return terms, labels


def _read_json(path, what: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise DataError(f"cannot read {what}: {err}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise DataError(f"{path}: invalid JSON: {err}") from None
    if not isinstance(data, dict):
        raise DataError(f"{path}: {what} must be a JSON object")
    return data


# ------------------------------------------------------------------ frontend


def _load_store(path) -> EmbeddingStore:
    if not path:
        raise DataError("no embedding_path configured")
    try:
        return load_embeddings(path)
    except OSError as err:
        raise DataError(f"cannot read embeddings: {err}") from None
    except EmbeddingFormatError as err:
        raise DataError(str(err)) from None


def _augment(cfg: PipelineConfig, terms):
    """Every term augmented from cfg's snapshot, and the matched fraction."""
    path = cfg.snapshot_path
    if not path:
        raise DataError("augmentation requires snapshot_path")
    try:
        ddict = DefinitionDict.from_snapshot(path)
    except OSError as err:
        raise DataError(f"cannot read snapshot: {err}") from None
    except (json.JSONDecodeError, UnicodeDecodeError, ValueError) as err:
        raise DataError(f"{path}: bad snapshot: {err}") from None
    return augment_dataset(terms, ddict, cfg.min_match_score)


def _inputs(cfg: PipelineConfig, terms):
    """The embedding store, the OOV resolver, the texts that get embedded
    and measured, and augmentation coverage (None when augmentation is off)."""
    store = _load_store(cfg.embedding_path)
    resolver = OOVStrategy(cfg.oov_strategy, cfg.ngram_min, cfg.ngram_max)
    if not cfg.augment:
        return store, resolver, list(terms), None
    augmented, coverage = _augment(cfg, terms)
    return store, resolver, [a.text for a in augmented], coverage


@dataclass
class Frontend:
    """Everything needed to turn raw terms into scaled feature rows."""

    store: EmbeddingStore
    resolver: OOVStrategy
    label_set: LabelSet
    fcfg: FeatureConfig
    texts: list[str]
    coverage: float | None  # None when augmentation is off


def prepare_frontend(cfg: PipelineConfig, terms, dataset_labels=None) -> Frontend:
    store, resolver, texts, coverage = _inputs(cfg, terms)
    if cfg.labels:
        labels = cfg.labels
    elif dataset_labels:
        labels = tuple(sorted(set(dataset_labels)))
    else:
        raise DataError("no label set: configure labels or use a labeled dataset")
    if dataset_labels:
        extra = sorted(set(dataset_labels) - set(labels))
        if extra:
            raise DataError(
                "dataset labels outside the configured label set: "
                + ", ".join(extra)
            )
    try:
        label_set = LabelSet.build(labels, store, resolver)
    except ValueError as err:
        raise DataError(f"bad label set: {err}") from None
    try:
        hcfg = HandcraftedConfig(cfg.indicators) if cfg.handcrafted else None
    except ValueError as err:
        raise DataError(str(err)) from None
    fcfg = FeatureConfig(
        handcrafted=hcfg, cosine=cfg.cosine_features, edit=cfg.edit_features
    )
    return Frontend(store, resolver, label_set, fcfg, texts, coverage)


def _grid_payload(result) -> dict:
    return {
        "best_c": result.best_c,
        "rows": [
            {
                "c": row.c,
                "mean_rank": row.mean_rank,
                "accuracy": row.accuracy,
                "fold_mean_ranks": list(row.fold_mean_ranks),
                "fold_accuracies": list(row.fold_accuracies),
            }
            for row in result.rows
        ],
    }


# ---------------------------------------------------------------------- runs


def _write_out(cfg: PipelineConfig, name: str, content) -> str:
    """Write content to name under cfg.out_dir atomically and return the
    path; content is text, or a payload written as sorted, indented JSON."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, name)
    if not isinstance(content, str):
        content = json.dumps(content, sort_keys=True, indent=2) + "\n"
    atomic_write(path, content)
    return path


def _fit(cfg: PipelineConfig, dataset_path, failure: str):
    """Frontend, fitted scaler, class indices and grid-search result for a
    labeled dataset; grid-search errors become "<failure> failed: ..."."""
    terms, gold_labels = load_dataset(dataset_path)
    fe = prepare_frontend(cfg, terms, gold_labels)
    X, scaler = build_features(
        terms, fe.texts, fe.store, fe.resolver, fe.label_set, fe.fcfg
    )
    y = [fe.label_set.index(lab) for lab in gold_labels]
    tcfg = TrainConfig(c_grid=cfg.c_grid, folds=cfg.folds, seed=cfg.seed)
    try:
        result = grid_search(X, y, fe.label_set.labels, tcfg)
    except ValueError as err:
        raise DataError(f"{failure} failed: {err}") from None
    return fe, scaler, y, result


@dataclass
class CvRun:
    report: EvalReport
    best_c: float
    coverage: float | None
    paths: dict[str, str]


def run_cv(cfg: PipelineConfig, dataset_path) -> CvRun:
    """Grid-searched cross-validation; writes report.txt, report.json,
    grid.json and folds.json under cfg.out_dir."""
    fe, _, y, result = _fit(cfg, dataset_path, "cross-validation")
    report = evaluate(result.oof_predictions[result.best_c], y, fe.label_set.labels)
    folds = {"folds": [[int(i) for i in fold] for fold in result.folds]}
    paths = {
        "report_txt": _write_out(cfg, "report.txt", report.to_text()),
        "report_json": _write_out(cfg, "report.json", report.to_json_dict()),
        "grid_json": _write_out(cfg, "grid.json", _grid_payload(result)),
        "folds_json": _write_out(cfg, "folds.json", folds),
    }
    return CvRun(report, result.best_c, fe.coverage, paths)


@dataclass
class TrainRun:
    model: LogRegModel
    best_c: float
    coverage: float | None
    paths: dict[str, str]


def run_train(cfg: PipelineConfig, dataset_path) -> TrainRun:
    """Grid-search then fit on the full dataset; writes model.txt plus the
    frontend.json needed to rebuild identical feature rows at predict time."""
    fe, scaler, _, result = _fit(cfg, dataset_path, "training")
    frontend = {key: getattr(cfg, key) for key in FRONTEND_FIELDS}
    frontend.update(
        labels=fe.label_set.labels, embedding_dim=fe.store.dim, scaler=scaler.state()
    )
    paths = {
        "model": _write_out(cfg, "model.txt", model_text(result.model)),
        "frontend": _write_out(cfg, "frontend.json", frontend),
        "grid_json": _write_out(cfg, "grid.json", _grid_payload(result)),
    }
    return TrainRun(result.model, result.best_c, fe.coverage, paths)


@dataclass
class PredictRun:
    path: str
    n_terms: int


def run_predict(cfg: PipelineConfig, model_dir, terms_path) -> PredictRun:
    """Score terms with a trained model directory (model.txt + frontend.json);
    writes predictions.jsonl under cfg.out_dir. The frontend fields recorded
    in frontend.json replace cfg's own values for them."""
    try:
        model = load_model(os.path.join(model_dir, "model.txt"))
    except OSError as err:
        raise DataError(f"cannot read model: {err}") from None
    except ValueError as err:
        raise DataError(f"bad model file: {err}") from None
    frontend_path = os.path.join(model_dir, "frontend.json")
    frontend = _read_json(frontend_path, "frontend")
    missing = sorted(set(FRONTEND_FIELDS + ("embedding_dim", "scaler")) - set(frontend))
    if missing:
        raise DataError(f"frontend.json missing keys: {', '.join(missing)}")
    if tuple(frontend["labels"]) != model.labels:
        raise DataError("label set mismatch between model.txt and frontend.json")
    recorded = {key: frontend[key] for key in FRONTEND_FIELDS}
    try:
        cfg = config_from_dict({**dataclasses.asdict(cfg), **recorded})
    except DataError as err:
        raise DataError(f"{frontend_path}: {err}") from None

    terms, _ = load_terms(terms_path)
    fe = prepare_frontend(cfg, terms)
    if fe.store.dim != frontend["embedding_dim"]:
        raise DataError(
            f"embedding dim {fe.store.dim} != trained dim {frontend['embedding_dim']}"
        )
    matrix = assemble_features(
        terms, fe.texts, fe.store, fe.resolver, fe.label_set, fe.fcfg
    )
    try:
        scaler = MinMaxScaler.from_state(frontend["scaler"])
    except (KeyError, TypeError, ValueError) as err:
        raise DataError(f"bad scaler state: {err}") from None
    if scaler.n_features != matrix.shape[1]:
        raise DataError(
            f"feature width {matrix.shape[1]} != trained width {scaler.n_features}"
        )
    if scaler.n_features != model.dim:
        raise DataError(
            f"model dim {model.dim} != trained feature width {scaler.n_features}"
        )
    probs = predict_proba(model, scaler.transform(matrix))
    lines = [
        json.dumps(
            {
                "term": term,
                "top3": [model.labels[i] for i in ranked],
                "probs": [row[i] for i in ranked],
            }
        )
        for term, ranked, row in zip(terms, rank_labels(probs).tolist(), probs.tolist())
    ]
    out_path = _write_out(cfg, "predictions.jsonl", "\n".join(lines) + "\n")
    return PredictRun(out_path, len(terms))


@dataclass
class OovRun:
    text: str
    path: str
    unique: int
    occurrences: int


def run_inspect_oov(cfg: PipelineConfig, dataset_path) -> OovRun:
    """List every out-of-vocabulary token with its resolution; writes oov.txt."""
    terms, _ = load_terms(dataset_path)
    store, resolver, texts, _ = _inputs(cfg, terms)

    occurrences = 0
    seen: dict[str, str] = {}
    for text in texts:
        for token in TermTokens.from_raw(text).tokens:
            _, res = lookup(store, token, resolver)
            if res.kind == IN_VOCAB:
                continue
            occurrences += 1
            if token not in seen:
                seen[token] = res.substitute if res.substitute else "ZERO"
    lines = [f"oov_unique: {len(seen)}", f"oov_occurrences: {occurrences}"]
    lines.extend(f"{token} -> {seen[token]}" for token in sorted(seen))
    report = "\n".join(lines) + "\n"
    return OovRun(report, _write_out(cfg, "oov.txt", report), len(seen), occurrences)


def run_augment_apply(cfg: PipelineConfig, dataset_path):
    """Write augmented.csv showing term/text/matched headword per row;
    returns (path, coverage)."""
    terms, gold_labels = load_terms(dataset_path)
    augmented, coverage = _augment(cfg, terms)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if gold_labels is None:
        writer.writerow(["term", "text", "matched_headword"])
        for a in augmented:
            writer.writerow([a.raw, a.text, a.matched_headword or ""])
    else:
        writer.writerow(["term", "label", "text", "matched_headword"])
        for a, lab in zip(augmented, gold_labels):
            writer.writerow([a.raw, lab, a.text, a.matched_headword or ""])
    return _write_out(cfg, "augmented.csv", buf.getvalue()), coverage


def run_augment_fetch(cfg: PipelineConfig, terms_path, base_url: str = ""):
    """Fetch definitions for every term into a snapshot file;
    returns (snapshot path, entry count, failure count)."""
    terms, _ = load_terms(terms_path)
    url = base_url or cfg.fetcher_base_url
    if not url:
        raise DataError("no fetcher base URL configured")
    fetcher = HttpFetcher(
        FetcherConfig(
            base_url=url,
            timeout=cfg.fetcher_timeout,
            rate_limit=cfg.fetcher_rate_limit,
            user_agent=cfg.fetcher_user_agent,
        )
    )
    snapshot_out = cfg.snapshot_path or os.path.join(cfg.out_dir, "snapshot.json")
    directory = os.path.dirname(os.fspath(snapshot_out))
    if directory:
        os.makedirs(directory, exist_ok=True)
    ddict, failures = fetch_definitions(
        terms, fetcher, snapshot_out, cfg.fetcher_rate_limit
    )
    return snapshot_out, len(ddict), failures
