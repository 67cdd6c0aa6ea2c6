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
import math
import os
import sys
from dataclasses import dataclass

from .augment import (
    MIN_MATCH_SCORE,
    DefinitionDict,
    HttpFetcher,
    augment_dataset,
    fetch_definitions,
)
from .embeddings import (
    EmbeddingFormatError,
    EmbeddingStore,
    TokenTable,
    load_embeddings,
)
from .evaluation import EvalReport, evaluate
from .features import INDICATORS, LabelSet, MinMaxScaler, assemble_features
from .fileio import atomic_write
from .model import (
    DEFAULT_C_GRID,
    LogRegModel,
    TrainConfig,
    as_float,
    grid_search,
    load_model,
    model_text,
    predict_proba,
    rank_labels,
    train,
)
from .oov import NGRAM_MAX, NGRAM_MIN, OOVStrategy


class DataError(Exception):
    """Unreadable or inconsistent input files/artifacts (CLI exit code 2)."""


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
    handcrafted: bool = False
    cosine_features: bool = False
    edit_features: bool = False
    augment: bool = False
    snapshot_path: str = ""
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
        # the OOV and training settings are checked where they are used
        OOVStrategy(self.oov_strategy)
        TrainConfig(c_grid=self.c_grid, folds=self.folds, seed=self.seed)
        # a negative or NaN timeout fails every fetch, and a NaN or negative
        # rate turns throttling off
        timeout, rate = map(as_float, (self.fetcher_timeout, self.fetcher_rate_limit))
        if not (math.isfinite(timeout) and timeout > 0):
            raise ValueError("fetcher_timeout must be finite and positive")
        if not (math.isfinite(rate) and rate >= 0):
            raise ValueError("fetcher_rate_limit must be finite and >= 0")
        if not self.out_dir:
            raise ValueError("out_dir must not be empty")


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite_numbers(value) -> bool:
    """A JSON list of numbers that float64 holds as finite values."""
    return isinstance(value, list) and all(
        _number(v) and abs(v) <= sys.float_info.max for v in value
    )


# What a JSON value must be for each field annotation, and its description.
_JSON_TYPES = {
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "float": (_number, "a number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple[str, ...]": (
        lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
        "a list of strings",
    ),
    "tuple[float, ...]": (
        lambda v: isinstance(v, list) and all(map(_number, v)),
        "a list of numbers",
    ),
}
_CONFIG_TYPES = {
    f.name: _JSON_TYPES[f.type] for f in dataclasses.fields(PipelineConfig)
}

# The fields that fix the feature rows. run_train records them in
# frontend.json and run_predict replays them over its own config.
FRONTEND_FIELDS = (
    "augment",
    "cosine_features",
    "edit_features",
    "handcrafted",
    "labels",
    "oov_strategy",
)
# Frontend settings that a frontend.json written by an earlier release
# records, and the one value each can now have.
_RETIRED_FIELDS = {
    "indicators": list(INDICATORS),
    "min_match_score": MIN_MATCH_SCORE,
    "ngram_max": NGRAM_MAX,
    "ngram_min": NGRAM_MIN,
}


def config_from_dict(data: dict) -> PipelineConfig:
    """PipelineConfig from JSON values: each must have its field's type (an
    int is a number, a bool is not), and lists become tuples."""
    unknown = sorted(set(data) - set(_CONFIG_TYPES))
    if unknown:
        raise DataError(f"unknown config keys: {', '.join(unknown)}")
    for key, value in data.items():
        valid, what = _CONFIG_TYPES[key]
        if not valid(value):
            raise DataError(
                f"config key {key!r} must be {what}, got {json.dumps(value)}"
            )
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in data.items()}
    try:
        return PipelineConfig(**kwargs)
    except ValueError as err:
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
    return augment_dataset(terms, ddict)


def _inputs(cfg: PipelineConfig, terms):
    """The embedding store, the OOV resolver, the texts that get embedded
    and measured, and augmentation coverage (None when augmentation is off)."""
    store = _load_store(cfg.embedding_path)
    if len(store) == 0 and cfg.oov_strategy != "zero":
        msg = f"empty store; OOV strategy {cfg.oov_strategy!r} needs a vocabulary"
        raise DataError(f"{cfg.embedding_path}: {msg}")
    resolver = OOVStrategy(cfg.oov_strategy)
    if not cfg.augment:
        return store, resolver, list(terms), None
    augmented, coverage = _augment(cfg, terms)
    return store, resolver, [a.text for a in augmented], coverage


def _features(cfg: PipelineConfig, terms, dataset_labels=None):
    """The unscaled ``assemble_features`` matrix of terms under cfg's
    frontend, with its label set, the store dimension and augmentation
    coverage (None when augmentation is off).

    The label set is cfg.labels, else the dataset's labels in sorted order;
    a dataset label outside it is a DataError. The texts and the labels are
    embedded from one ``TokenTable``."""
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
    table = TokenTable(store, [*texts, *labels], resolver)
    try:
        label_set = LabelSet.build(labels, table)
    except ValueError as err:
        raise DataError(f"bad label set: {err}") from None
    matrix = assemble_features(
        terms,
        texts,
        table,
        label_set,
        hand=cfg.handcrafted,
        cosine=cfg.cosine_features,
        edit=cfg.edit_features,
    )
    return matrix, label_set, store.dim, coverage


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
    """Grid search over a labeled dataset's ``_features`` matrix, scaled by
    a ``MinMaxScaler`` fitted to all of its rows. Returns the label set, the
    store dimension, the coverage, the fitted scaler, the scaled matrix X,
    the class indices y, the training config and the grid-search result;
    grid-search errors become "<failure> failed: ..."."""
    terms, gold_labels = load_dataset(dataset_path)
    if cfg.folds > len(terms):
        raise DataError(
            f"folds must not exceed the number of labeled rows ({len(terms)})"
        )
    matrix, label_set, dim, coverage = _features(cfg, terms, gold_labels)
    scaler = MinMaxScaler().fit(matrix)
    X = scaler.transform(matrix)
    y = [label_set.index(lab) for lab in gold_labels]
    tcfg = TrainConfig(c_grid=cfg.c_grid, folds=cfg.folds, seed=cfg.seed)
    try:
        result = grid_search(X, y, label_set.labels, tcfg)
    except ValueError as err:
        raise DataError(f"{failure} failed: {err}") from None
    return label_set.labels, dim, coverage, scaler, X, y, tcfg, result


@dataclass
class CvRun:
    report: EvalReport
    best_c: float
    coverage: float | None
    paths: dict[str, str]


def run_cv(cfg: PipelineConfig, dataset_path) -> CvRun:
    """Grid-searched cross-validation; writes report.txt, report.json,
    grid.json and folds.json under cfg.out_dir."""
    labels, _, coverage, _, _, y, _, result = _fit(
        cfg, dataset_path, "cross-validation"
    )
    report = evaluate(result.oof_predictions[result.best_c], y, labels)
    folds = {"folds": [[int(i) for i in fold] for fold in result.folds]}
    paths = {
        "report_txt": _write_out(cfg, "report.txt", report.to_text()),
        "report_json": _write_out(cfg, "report.json", report.to_json_dict()),
        "grid_json": _write_out(cfg, "grid.json", _grid_payload(result)),
        "folds_json": _write_out(cfg, "folds.json", folds),
    }
    return CvRun(report, result.best_c, coverage, paths)


@dataclass
class TrainRun:
    model: LogRegModel
    best_c: float
    coverage: float | None
    paths: dict[str, str]


def run_train(cfg: PipelineConfig, dataset_path) -> TrainRun:
    """Grid-search then fit on the full dataset; writes model.txt plus the
    frontend.json needed to rebuild identical feature rows at predict time."""
    labels, dim, coverage, scaler, X, y, tcfg, result = _fit(
        cfg, dataset_path, "training"
    )
    model = train(X, y, labels, result.best_c, tcfg)
    frontend = {key: getattr(cfg, key) for key in FRONTEND_FIELDS}
    frontend.update(labels=labels, embedding_dim=dim, scaler=scaler.state())
    paths = {
        "model": _write_out(cfg, "model.txt", model_text(model)),
        "frontend": _write_out(cfg, "frontend.json", frontend),
        "grid_json": _write_out(cfg, "grid.json", _grid_payload(result)),
    }
    return TrainRun(model, result.best_c, coverage, paths)


@dataclass
class PredictRun:
    path: str
    n_terms: int


def run_predict(cfg: PipelineConfig, model_dir, terms_path) -> PredictRun:
    """Score terms with a trained model directory (model.txt + frontend.json);
    writes predictions.jsonl under cfg.out_dir. The frontend fields recorded
    in frontend.json replace cfg's own values for them. A retired setting
    that an earlier release recorded must hold the value it is now fixed at,
    or the model's feature rows cannot be rebuilt."""
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
    for key, fixed in _RETIRED_FIELDS.items():
        if key in frontend and frontend[key] != fixed:
            raise DataError(
                f"{frontend_path}: {key} {json.dumps(frontend[key])} cannot be "
                f"replayed: it is fixed at {json.dumps(fixed)}"
            )
    try:
        recorded = config_from_dict({key: frontend[key] for key in FRONTEND_FIELDS})
    except DataError as err:
        raise DataError(f"{frontend_path}: {err}") from None
    if recorded.labels != model.labels:
        raise DataError("label set mismatch between model.txt and frontend.json")
    trained_dim, state = frontend["embedding_dim"], frontend["scaler"]
    if not _JSON_TYPES["int"][0](trained_dim):
        raise DataError(
            f"{frontend_path}: embedding_dim must be an integer, "
            f"got {json.dumps(trained_dim)}"
        )
    bounds = state if isinstance(state, dict) else {}
    mins, maxs = bounds.get("mins"), bounds.get("maxs")
    if not (_finite_numbers(mins) and _finite_numbers(maxs) and len(mins) == len(maxs)):
        raise DataError(
            f"{frontend_path}: scaler mins and maxs must be equal-length "
            "lists of finite numbers"
        )
    cfg = dataclasses.replace(
        cfg, **{key: getattr(recorded, key) for key in FRONTEND_FIELDS}
    )

    terms, _ = load_terms(terms_path)
    matrix, _, dim, _ = _features(cfg, terms)
    if dim != trained_dim:
        raise DataError(f"embedding dim {dim} != trained dim {trained_dim}")
    scaler = MinMaxScaler.from_state(state)
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
    """List every out-of-vocabulary token with its resolution; writes oov.txt.
    The counts and substitutes are those of the texts' ``TokenTable``."""
    terms, _ = load_terms(dataset_path)
    store, resolver, texts, _ = _inputs(cfg, terms)
    table = TokenTable(store, texts, resolver)
    occurrences = sum(table.oov.values())
    lines = [f"oov_unique: {len(table.oov)}", f"oov_occurrences: {occurrences}"]
    lines.extend(
        f"{token} -> {table.substitutes[token] or 'ZERO'}"
        for token in sorted(table.oov)
    )
    report = "\n".join(lines) + "\n"
    return OovRun(
        report, _write_out(cfg, "oov.txt", report), len(table.oov), occurrences
    )


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


def run_augment_fetch(cfg: PipelineConfig, terms_path):
    """Fetch definitions for every term from cfg.fetcher_base_url into a
    snapshot file; returns (snapshot path, entry count, failure count)."""
    terms, _ = load_terms(terms_path)
    if not cfg.fetcher_base_url:
        raise DataError("no fetcher base URL configured")
    fetcher = HttpFetcher(
        cfg.fetcher_base_url, cfg.fetcher_timeout, cfg.fetcher_user_agent
    )
    snapshot_out = cfg.snapshot_path or os.path.join(cfg.out_dir, "snapshot.json")
    directory = os.path.dirname(os.fspath(snapshot_out))
    if directory:
        os.makedirs(directory, exist_ok=True)
    ddict, failures = fetch_definitions(
        terms, fetcher, snapshot_out, cfg.fetcher_rate_limit
    )
    return snapshot_out, len(ddict), failures
