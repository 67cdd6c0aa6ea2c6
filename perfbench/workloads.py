"""The three benchmark workloads: input generation, the pipeline call each
one times, output checks and answer quality.

Every input is written to files first; the pipeline only ever sees those
files (terms CSVs, a word2vec text store and, for ``store-predict``, the
model directory that ``run_train`` wrote). Sizes are chosen so that one
benchmark run of any workload, set-up included, stays near half a minute
on two cores with the pure-Python edit-distance backend.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import os
from types import SimpleNamespace as Inputs

import numpy as np

from finhyp import synth
from finhyp.pipeline import (
    PipelineConfig,
    apply_preset,
    run_cv,
    run_inspect_oov,
    run_predict,
    run_train,
)

N_CLASSES = 17

# desk-cv: the criterion-8 ladder rung (17 classes, sigma 0.1, default
# 32-dim store of 204 class tokens) at a third of the rows, two C values and
# 3 folds, so a call takes seconds rather than half a minute. Every fit
# still runs the optimiser to its iteration cap, so the model layer
# dominates, and two C values leave room for a warm-started regularisation
# path to show.
DESK_ROWS = 350
DESK_C_GRID = (1.0, 10.0)
DESK_FOLDS = 3
DESK_PRESET = "BL.HF.OOVm.D2"

# store-predict / store-oov: one large frequency-ordered store (the 204
# class tokens first, then random lowercase filler words) and one list of
# held-out terms. Every occurrence of TYPO_TOKENS class tokens carries a
# one-edit typo (a trailing "s"): the first ones, in store order, that the
# held-out terms use. Store order puts the most frequent classes first, and
# their tokens occur at every seed, so the typo'd tokens, and with them the
# nearest scans the OOV tokens cost, are the same from seed to seed. The
# split into training and held-out rows is stratified by class, so the
# held-out class mix is fixed too.
STORE_TOKENS = 20_000
STORE_DIM = 64
TRAIN_ROWS = 350
TEST_ROWS = 600
TYPO_TOKENS = 72
TRAIN_C_GRID = (1.0,)
TRAIN_FOLDS = 2
PREDICT_PRESET = "BL.HF.OOVm.D2"
OOV_PRESET = "BL.HF.OOVl"

# Criterion-8 floors, applied to both workloads that score predictions.
MIN_ACCURACY = 0.95
MAX_MEAN_RANK = 1.15


def _write_store(path, tokens, vectors) -> None:
    """word2vec text format with six decimals per value."""
    fmt = " ".join(["%.6f"] * vectors.shape[1])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(tokens)} {vectors.shape[1]}\n")
        for lo in range(0, len(tokens), 4096):
            fh.write(
                "".join(
                    f"{tok} {fmt % tuple(vec)}\n"
                    for tok, vec in zip(tokens[lo : lo + 4096], vectors[lo : lo + 4096])
                )
            )


def _write_terms(path, rows, with_label: bool) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if with_label:
            writer.writerow(["term", "label"])
            writer.writerows(rows)
        else:
            writer.writerow(["term"])
            writer.writerows([term] for term, _ in rows)


def _filler_words(rng, count: int) -> list[str]:
    """Distinct random lowercase words of 3-14 letters. They contain no
    digits, so none can equal a class token ("...tokNN") or its typo."""
    words: dict[str, None] = {}
    while len(words) < count:
        lens = rng.integers(3, 15, size=count)
        letters = rng.integers(97, 123, size=(count, 14), dtype=np.uint8)
        for row, n in zip(letters, lens):
            words.setdefault(row[:n].tobytes().decode("ascii"))
            if len(words) == count:
                break
    return list(words)


def _oov_tokens(terms, vocab) -> tuple[list[str], int]:
    """Unique out-of-vocabulary tokens (exact, then lowercase lookup, as
    finhyp.embeddings.lookup does) and their occurrence count."""
    unique: dict[str, None] = {}
    occurrences = 0
    for term in terms:
        for tok in term.split():
            if tok not in vocab and tok.lower() not in vocab:
                unique.setdefault(tok)
                occurrences += 1
    return list(unique), occurrences


def _rank(top3, gold) -> int:
    return top3.index(gold) + 1 if gold in top3 else 4


class DeskCv:
    name = "desk-cv"
    artifact_names = ("report.txt", "report.json", "grid.json", "folds.json")

    def setup(self, seed: int, work: str) -> Inputs:
        data = synth.generate(N_CLASSES, DESK_ROWS, seed, sigma=0.1)
        csv_path, store_path = synth.write_dataset(data, work)
        cfg = apply_preset(
            PipelineConfig(
                embedding_path=store_path, c_grid=DESK_C_GRID, folds=DESK_FOLDS
            ),
            DESK_PRESET,
        )
        oov, _ = _oov_tokens((t for t, _ in data.rows), set(data.store.vocab))
        return Inputs(
            cfg=cfg,
            dataset=csv_path,
            store_path=store_path,
            store_tokens=len(data.store),
            store_dim=data.store.dim,
            terms=len(data.rows),
            unique_oov=len(oov),
        )

    def call(self, inp: Inputs, out_dir: str) -> None:
        run_cv(dataclasses.replace(inp.cfg, out_dir=out_dir), inp.dataset)

    def score(self, inp: Inputs, arts) -> tuple[dict, list[str]]:
        report = json.loads(arts["report.json"])
        quality = {"accuracy": report["accuracy"], "mean_rank": report["mean_rank"]}
        return quality, _floor_errors(quality)


def _floor_errors(quality) -> list[str]:
    errors = []
    if not quality["accuracy"] >= MIN_ACCURACY:
        errors.append(f"accuracy {quality['accuracy']:.4f} < {MIN_ACCURACY}")
    if not quality["mean_rank"] <= MAX_MEAN_RANK:
        errors.append(f"mean rank {quality['mean_rank']:.4f} > {MAX_MEAN_RANK}")
    return errors


def _split(rows, labels) -> tuple[list, list]:
    """Training and held-out rows, each class giving the training set its
    share of TRAIN_ROWS (synth's apportionment) in row order."""
    per_class = [sum(1 for _, label in rows if label == lab) for lab in labels]
    quota = dict(zip(labels, synth.apportion(per_class, TRAIN_ROWS)))
    train, test = [], []
    for term, label in rows:
        if quota[label] > 0:
            quota[label] -= 1
            train.append((term, label))
        else:
            test.append((term, label))
    return train, test


def _typo_tokens(rows, store_vocab) -> set[str]:
    """The first TYPO_TOKENS store tokens that the rows' terms use."""
    used = {tok for term, _ in rows for tok in term.split()}
    return set([tok for tok in store_vocab if tok in used][:TYPO_TOKENS])


def _with_typos(rows, typo: set[str]) -> list:
    """The rows with a trailing "s" on every occurrence of a typo token."""
    return [
        (" ".join(t + "s" if t in typo else t for t in term.split()), label)
        for term, label in rows
    ]


def _store_inputs(seed: int, work: str) -> Inputs:
    """Store, held-out terms and training rows shared by both store workloads."""
    data = synth.generate(
        N_CLASSES, TRAIN_ROWS + TEST_ROWS, seed, dim=STORE_DIM, typo_rate=0.0
    )
    rng = np.random.default_rng([seed, 1])
    filler = _filler_words(rng, STORE_TOKENS - len(data.store))
    vectors = np.vstack(
        [
            data.store.vectors,
            rng.standard_normal((len(filler), STORE_DIM)) / np.sqrt(STORE_DIM),
        ]
    )
    vocab = data.store.vocab + filler
    os.makedirs(work, exist_ok=True)
    store_path = os.path.join(work, "store.txt")
    _write_store(store_path, vocab, vectors)
    train_rows, test_rows = _split(data.rows, data.labels)
    typo = _typo_tokens(test_rows, data.store.vocab)
    train_rows = _with_typos(train_rows, typo)
    test_rows = _with_typos(test_rows, typo)
    train_path = os.path.join(work, "train.csv")
    terms_path = os.path.join(work, "terms.csv")
    _write_terms(train_path, train_rows, with_label=True)
    _write_terms(terms_path, test_rows, with_label=False)
    terms = [t for t, _ in test_rows]
    oov, occurrences = _oov_tokens(terms, set(vocab))
    return Inputs(
        store_path=store_path,
        train_path=train_path,
        terms_path=terms_path,
        terms_list=terms,
        gold=[lab for _, lab in test_rows],
        labels=set(data.labels),
        vocab=set(vocab),
        oov=oov,
        oov_occurrences=occurrences,
        store_tokens=len(vocab),
        store_dim=STORE_DIM,
        terms=len(terms),
        unique_oov=len(oov),
    )


class StorePredict:
    name = "store-predict"
    artifact_names = ("predictions.jsonl",)

    def setup(self, seed: int, work: str) -> Inputs:
        inp = _store_inputs(seed, work)
        base = PipelineConfig(embedding_path=inp.store_path)
        model_dir = os.path.join(work, "model")
        train_cfg = dataclasses.replace(
            apply_preset(base, PREDICT_PRESET),
            c_grid=TRAIN_C_GRID,
            folds=TRAIN_FOLDS,
            out_dir=model_dir,
        )
        run_train(train_cfg, inp.train_path)
        inp.cfg = apply_preset(base, PREDICT_PRESET)
        inp.model_dir = model_dir
        return inp

    def call(self, inp: Inputs, out_dir: str) -> None:
        run_predict(
            dataclasses.replace(inp.cfg, out_dir=out_dir), inp.model_dir, inp.terms_path
        )

    def score(self, inp: Inputs, arts) -> tuple[dict, list[str]]:
        lines = arts["predictions.jsonl"].decode("utf-8").splitlines()
        errors = []
        if len(lines) != len(inp.terms_list):
            return {}, [f"{len(lines)} prediction records for {len(inp.terms_list)} terms"]
        ranks = []
        for lineno, (line, term, gold) in enumerate(
            zip(lines, inp.terms_list, inp.gold), start=1
        ):
            rec = json.loads(line)
            top3 = rec.get("top3", [])
            if rec.get("term") != term:
                errors.append(f"record {lineno}: term {rec.get('term')!r} != {term!r}")
            elif len(top3) != 3 or len(set(top3)) != 3 or not set(top3) <= inp.labels:
                errors.append(f"record {lineno}: bad top3 {top3!r}")
            ranks.append(_rank(top3, gold))
        quality = {
            "accuracy": sum(r == 1 for r in ranks) / len(ranks),
            "mean_rank": sum(ranks) / len(ranks),
        }
        return quality, errors + _floor_errors(quality)


class StoreOov:
    name = "store-oov"
    artifact_names = ("oov.txt",)

    def setup(self, seed: int, work: str) -> Inputs:
        inp = _store_inputs(seed, work)
        inp.cfg = apply_preset(PipelineConfig(embedding_path=inp.store_path), OOV_PRESET)
        return inp

    def call(self, inp: Inputs, out_dir: str) -> None:
        run_inspect_oov(dataclasses.replace(inp.cfg, out_dir=out_dir), inp.terms_path)

    def score(self, inp: Inputs, arts) -> tuple[dict, list[str]]:
        """Each OOV token here is a class token plus a trailing "s"; its
        answer is right when the substitute is that class token. Accuracy
        and mean rank treat the substitute as a one-entry ranked list
        (rank 4 when wrong, as finhyp.evaluation scores a missing label)."""
        lines = arts["oov.txt"].decode("utf-8").splitlines()
        expected_head = [
            f"oov_unique: {len(inp.oov)}",
            f"oov_occurrences: {inp.oov_occurrences}",
        ]
        if lines[:2] != expected_head:
            return {}, [f"oov.txt header {lines[:2]!r} != {expected_head!r}"]
        errors = []
        subs = {}
        for line in lines[2:]:
            token, _, sub = line.partition(" -> ")
            if sub not in inp.vocab:
                errors.append(f"substitute {sub!r} for {token!r} is not a vocabulary word")
            subs[token] = sub
        if sorted(subs) != sorted(inp.oov):
            errors.append("oov.txt tokens differ from the terms' OOV tokens")
        ranks = [1 if subs.get(tok) == tok[:-1] else 4 for tok in inp.oov]
        quality = {
            "accuracy": sum(r == 1 for r in ranks) / len(ranks),
            "mean_rank": sum(ranks) / len(ranks),
        }
        return quality, errors


WORKLOADS = {w.name: w for w in (DeskCv(), StorePredict(), StoreOov())}
