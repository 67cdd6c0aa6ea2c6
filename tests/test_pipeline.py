"""End-to-end pipeline runs against small synthetic datasets."""
import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from finhyp import embeddings
from finhyp.cli import main
from finhyp.embeddings import save_embeddings, EmbeddingStore
from finhyp.model import save_model
from finhyp.pipeline import (
    DataError,
    PRESETS,
    PipelineConfig,
    apply_preset,
    config_from_dict,
    load_config,
    load_dataset,
    load_terms,
    prepare_frontend,
    run_augment_apply,
    run_augment_fetch,
    run_cv,
    run_inspect_oov,
    run_predict,
    run_train,
)
from finhyp.synth import generate, write_dataset


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    data = generate(3, 36, seed=5, dim=8, plant_substrings=True)
    write_dataset(data, root)
    return root


def base_cfg(synth_dir, out_dir, **overrides):
    kwargs = dict(
        embedding_path=str(synth_dir / "embeddings.txt"),
        c_grid=(1.0,),
        out_dir=str(out_dir),
        folds=3,
    )
    kwargs.update(overrides)
    return PipelineConfig(**kwargs)


class TestPresets:
    def test_names_and_ladder(self):
        assert list(PRESETS) == [
            "BL",
            "BL.HF",
            "BL.HF.OOVl",
            "BL.HF.OOVl.D",
            "BL.HF.OOVl.D2",
            "BL.HF.OOVm.D2",
            "BL.HF.OOVm.D2.+",
        ]
        assert PRESETS["BL"] == dict(
            oov_strategy="zero",
            handcrafted=False,
            cosine_features=False,
            edit_features=False,
            augment=False,
        )
        assert PRESETS["BL.HF"]["handcrafted"] is True
        assert PRESETS["BL.HF.OOVl"]["oov_strategy"] == "levenshtein"
        assert PRESETS["BL.HF.OOVl.D"]["cosine_features"] is True
        assert PRESETS["BL.HF.OOVl.D2"]["edit_features"] is True
        assert PRESETS["BL.HF.OOVm.D2"]["oov_strategy"] == "ngram"
        assert PRESETS["BL.HF.OOVm.D2.+"]["augment"] is True

    def test_each_step_adds_capability(self):
        order = list(PRESETS)
        strength = {"zero": 0, "levenshtein": 1, "ngram": 2}
        for earlier, later in zip(order, order[1:]):
            a, b = PRESETS[earlier], PRESETS[later]
            score = lambda p: (
                strength[p["oov_strategy"]],
                p["handcrafted"],
                p["cosine_features"],
                p["edit_features"],
                p["augment"],
            )
            assert score(b) >= score(a)
            assert score(b) != score(a)

    def test_apply_preset(self):
        cfg = PipelineConfig(embedding_path="e.txt", seed=9)
        out = apply_preset(cfg, "BL.HF.OOVm.D2")
        assert out.oov_strategy == "ngram"
        assert out.handcrafted and out.cosine_features and out.edit_features
        assert not out.augment
        assert out.embedding_path == "e.txt" and out.seed == 9

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            apply_preset(PipelineConfig(), "BL.XX")


class TestConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.c_grid == (0.001, 0.01, 0.1, 1.0, 10.0, 100.0)
        assert cfg.folds == 5
        assert cfg.oov_strategy == "zero"
        assert len(cfg.indicators) == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(oov_strategy="nope")
        with pytest.raises(ValueError):
            PipelineConfig(c_grid=())
        with pytest.raises(ValueError):
            PipelineConfig(c_grid=(-1.0,))
        with pytest.raises(ValueError):
            PipelineConfig(folds=1)
        with pytest.raises(ValueError):
            PipelineConfig(ngram_min=5, ngram_max=3)
        with pytest.raises(ValueError):
            PipelineConfig(min_match_score=1.5)

    def test_from_dict_unknown_key(self):
        with pytest.raises(DataError, match="unknown config keys: typo"):
            config_from_dict({"typo": 1})

    def test_from_dict_tuple_coercion(self):
        cfg = config_from_dict({"c_grid": [0.1, 1.0], "labels": ["a", "b"]})
        assert cfg.c_grid == (0.1, 1.0)
        assert cfg.labels == ("a", "b")

    def test_from_dict_bad_list_type(self):
        with pytest.raises(DataError, match="must be a list"):
            config_from_dict({"c_grid": "0.1"})

    def test_from_dict_bad_value(self):
        with pytest.raises(DataError, match="bad config"):
            config_from_dict({"folds": 0})

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"seed": 3, "oov_strategy": "ngram"}')
        cfg = load_config(path)
        assert cfg.seed == 3
        assert cfg.oov_strategy == "ngram"

    def test_load_config_errors(self, tmp_path):
        with pytest.raises(DataError, match="cannot read config"):
            load_config(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(DataError, match="invalid JSON"):
            load_config(bad)
        arr = tmp_path / "arr.json"
        arr.write_text("[1]")
        with pytest.raises(DataError, match="JSON object"):
            load_config(arr)


class TestLoadTerms:
    def write(self, tmp_path, text):
        p = tmp_path / "d.csv"
        p.write_text(text)
        return p

    def test_labeled(self, tmp_path):
        p = self.write(tmp_path, "term,label\nswap,Swap\nbond,Bonds\n")
        terms, labels = load_terms(p)
        assert terms == ["swap", "bond"]
        assert labels == ["Swap", "Bonds"]

    def test_unlabeled(self, tmp_path):
        p = self.write(tmp_path, "term\nswap\n")
        terms, labels = load_terms(p)
        assert terms == ["swap"]
        assert labels is None

    def test_blank_rows_skipped(self, tmp_path):
        p = self.write(tmp_path, "term,label\nswap,Swap\n\nbond,Bonds\n")
        terms, _ = load_terms(p)
        assert terms == ["swap", "bond"]

    def test_quoted_commas(self, tmp_path):
        p = self.write(tmp_path, 'term,label\n"a, b co",Swap\n')
        terms, _ = load_terms(p)
        assert terms == ["a, b co"]

    def test_errors(self, tmp_path):
        with pytest.raises(DataError, match="cannot read dataset"):
            load_terms(tmp_path / "nope.csv")
        with pytest.raises(DataError, match="empty file"):
            load_terms(self.write(tmp_path, ""))
        with pytest.raises(DataError, match="header"):
            load_terms(self.write(tmp_path, "word,tag\nx,y\n"))
        with pytest.raises(DataError, match="line 2: expected 2 columns"):
            load_terms(self.write(tmp_path, "term,label\nonlyterm\n"))
        with pytest.raises(DataError, match="line 3: empty term"):
            load_terms(self.write(tmp_path, "term,label\na,b\n ,c\n"))
        with pytest.raises(DataError, match="line 2: empty label"):
            load_terms(self.write(tmp_path, "term,label\na, \n"))
        with pytest.raises(DataError, match="no data rows"):
            load_terms(self.write(tmp_path, "term,label\n"))

    def test_load_dataset_requires_labels(self, tmp_path):
        p = self.write(tmp_path, "term\nswap\n")
        with pytest.raises(DataError, match="label"):
            load_dataset(p)


class TestPrepareFrontend:
    def test_labels_inferred_sorted(self, synth_dir, tmp_path):
        cfg = base_cfg(synth_dir, tmp_path)
        terms, labels = load_dataset(synth_dir / "terms.csv")
        fe = prepare_frontend(cfg, terms, labels)
        assert fe.label_set.labels == tuple(sorted(set(labels)))
        assert fe.coverage is None
        assert fe.texts == terms

    def test_configured_labels_win(self, synth_dir, tmp_path):
        terms, labels = load_dataset(synth_dir / "terms.csv")
        ordered = tuple(dict.fromkeys(labels))
        cfg = base_cfg(synth_dir, tmp_path, labels=ordered)
        fe = prepare_frontend(cfg, terms, labels)
        assert fe.label_set.labels == ordered

    def test_extra_dataset_label_rejected(self, synth_dir, tmp_path):
        cfg = base_cfg(synth_dir, tmp_path, labels=("OnlyOne", "Another"))
        with pytest.raises(DataError, match="outside the configured label set"):
            prepare_frontend(cfg, ["x"], ["Mystery"])

    def test_no_labels_anywhere(self, synth_dir, tmp_path):
        cfg = base_cfg(synth_dir, tmp_path)
        with pytest.raises(DataError, match="no label set"):
            prepare_frontend(cfg, ["x"], None)

    def test_augment_needs_snapshot(self, synth_dir, tmp_path):
        cfg = base_cfg(
            synth_dir, tmp_path, augment=True, snapshot_path=str(tmp_path / "no.json")
        )
        with pytest.raises(DataError, match="snapshot"):
            prepare_frontend(cfg, ["x"], ["A"])

    def test_missing_embeddings(self, tmp_path):
        cfg = PipelineConfig(
            embedding_path=str(tmp_path / "missing.txt"), out_dir=str(tmp_path)
        )
        with pytest.raises(DataError, match="embedding"):
            prepare_frontend(cfg, ["x"], ["A"])


class TestRunCv:
    def test_artifacts_and_report(self, synth_dir, tmp_path):
        cfg = apply_preset(base_cfg(synth_dir, tmp_path), "BL.HF.OOVm.D2")
        run = run_cv(cfg, synth_dir / "terms.csv")
        assert set(run.paths) == {
            "report_txt",
            "report_json",
            "grid_json",
            "folds_json",
        }
        for p in run.paths.values():
            assert os.path.exists(p)
        report = json.loads(open(run.paths["report_json"]).read())
        assert report["n"] == 36
        assert report["accuracy"] == run.report.accuracy
        assert run.best_c == 1.0
        txt = open(run.paths["report_txt"]).read()
        assert txt == run.report.to_text()
        grid = json.loads(open(run.paths["grid_json"]).read())
        assert grid["best_c"] == 1.0
        assert [row["c"] for row in grid["rows"]] == [1.0]
        assert len(grid["rows"][0]["fold_accuracies"]) == 3
        folds = json.loads(open(run.paths["folds_json"]).read())["folds"]
        assert sorted(i for f in folds for i in f) == list(range(36))

    def test_byte_identical_reruns(self, synth_dir, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg_a = apply_preset(base_cfg(synth_dir, out_a), "BL.HF")
        cfg_b = apply_preset(base_cfg(synth_dir, out_b), "BL.HF")
        ra = run_cv(cfg_a, synth_dir / "terms.csv")
        rb = run_cv(cfg_b, synth_dir / "terms.csv")
        for key in ra.paths:
            a = open(ra.paths[key], "rb").read()
            b = open(rb.paths[key], "rb").read()
            assert a == b, key

    def test_grid_orders_rows_as_given(self, synth_dir, tmp_path):
        cfg = base_cfg(synth_dir, tmp_path, c_grid=(10.0, 0.1))
        run = run_cv(cfg, synth_dir / "terms.csv")
        grid = json.loads(open(run.paths["grid_json"]).read())
        assert [row["c"] for row in grid["rows"]] == [10.0, 0.1]
        assert run.best_c in (10.0, 0.1)

    def test_no_timestamps_or_config_echo(self, synth_dir, tmp_path):
        cfg = apply_preset(base_cfg(synth_dir, tmp_path), "BL")
        run = run_cv(cfg, synth_dir / "terms.csv")
        for key in ("report_txt", "report_json"):
            content = open(run.paths[key]).read()
            assert "seed" not in content
            assert str(tmp_path) not in content
            assert "20" + "2" not in content.split("accuracy")[0][:2]


class TestFeatureWidths:
    WIDTHS = {
        "BL": 8,
        "BL.HF": 18,
        "BL.HF.OOVl": 18,
        "BL.HF.OOVl.D": 21,
        "BL.HF.OOVl.D2": 24,
        "BL.HF.OOVm.D2": 24,
    }

    @pytest.mark.parametrize("preset", sorted(WIDTHS))
    def test_trained_width_matches_preset(self, synth_dir, tmp_path, preset):
        # store dim 8, 3 classes: +10 handcrafted, +3 cosine, +3 edit
        cfg = apply_preset(base_cfg(synth_dir, tmp_path / preset), preset)
        run = run_train(cfg, synth_dir / "terms.csv")
        fe = json.loads(open(run.paths["frontend"]).read())
        assert len(fe["scaler"]["mins"]) == self.WIDTHS[preset]
        assert run.model.dim == self.WIDTHS[preset]


@pytest.fixture(scope="module")
def trained(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    cfg = apply_preset(base_cfg(synth_dir, out), "BL.HF.OOVm.D2")
    run = run_train(cfg, synth_dir / "terms.csv")
    return cfg, out, run


class TestTrainPredict:
    def test_artifacts(self, trained, tmp_path):
        _, out, run = trained
        assert os.path.exists(run.paths["model"])
        assert os.path.exists(run.paths["frontend"])
        assert os.path.exists(run.paths["grid_json"])
        fe = json.loads(open(run.paths["frontend"]).read())
        assert fe["oov_strategy"] == "ngram"
        assert fe["embedding_dim"] == 8
        assert fe["labels"] == list(run.model.labels)
        assert len(fe["scaler"]["mins"]) == len(fe["scaler"]["maxs"])
        # model.txt holds exactly what save_model writes, and no temp file stays
        save_model(run.model, tmp_path / "model.txt")
        with open(run.paths["model"], "rb") as fh:
            assert fh.read() == (tmp_path / "model.txt").read_bytes()
        assert sorted(os.listdir(out)) == ["frontend.json", "grid.json", "model.txt"]

    def test_predict_round_trip(self, synth_dir, tmp_path, trained):
        cfg, out, run = trained
        terms, gold = load_dataset(synth_dir / "terms.csv")
        pred_cfg = dataclasses.replace(cfg, out_dir=str(tmp_path))
        pr = run_predict(pred_cfg, out, synth_dir / "terms.csv")
        lines = open(pr.path).read().splitlines()
        assert pr.n_terms == len(terms) == len(lines)
        hits = 0
        for line, term, lab in zip(lines, terms, gold):
            rec = json.loads(line)
            assert rec["term"] == term
            assert len(rec["top3"]) == 3
            assert set(rec["top3"]) <= set(run.model.labels)
            assert rec["probs"] == sorted(rec["probs"], reverse=True)
            hits += rec["top3"][0] == lab
        assert hits / len(terms) >= 0.9  # training data, planted signal

    def test_label_set_mismatch(self, synth_dir, tmp_path, trained):
        cfg, out, _ = trained
        tampered = tmp_path / "tampered"
        tampered.mkdir()
        for name in ("model.txt", "frontend.json"):
            (tampered / name).write_bytes((out / name).read_bytes())
        fe = json.loads((tampered / "frontend.json").read_text())
        fe["labels"][0] = "Wrong"
        (tampered / "frontend.json").write_text(json.dumps(fe))
        with pytest.raises(DataError, match="label set mismatch"):
            run_predict(
                dataclasses.replace(cfg, out_dir=str(tmp_path / "o")),
                tampered,
                synth_dir / "terms.csv",
            )

    def test_embedding_dim_mismatch(self, synth_dir, tmp_path, trained):
        cfg, out, _ = trained
        other = EmbeddingStore(["tok"], np.ones((1, 4)))
        emb = tmp_path / "other.txt"
        save_embeddings(other, emb)
        bad_cfg = dataclasses.replace(
            cfg, embedding_path=str(emb), out_dir=str(tmp_path / "o2")
        )
        with pytest.raises(DataError, match="dim"):
            run_predict(bad_cfg, out, synth_dir / "terms.csv")

    def test_missing_model(self, synth_dir, tmp_path, trained):
        cfg, _, _ = trained
        with pytest.raises(DataError, match="cannot read model"):
            run_predict(cfg, tmp_path / "void", synth_dir / "terms.csv")

    def test_corrupt_scaler(self, synth_dir, tmp_path, trained):
        cfg, out, _ = trained
        tampered = tmp_path / "tampered2"
        tampered.mkdir()
        for name in ("model.txt", "frontend.json"):
            (tampered / name).write_bytes((out / name).read_bytes())
        fe = json.loads((tampered / "frontend.json").read_text())
        fe["scaler"]["mins"] = fe["scaler"]["mins"][:-1]
        (tampered / "frontend.json").write_text(json.dumps(fe))
        with pytest.raises(DataError, match="scaler"):
            run_predict(
                dataclasses.replace(cfg, out_dir=str(tmp_path / "o3")),
                tampered,
                synth_dir / "terms.csv",
            )

    def test_unlabeled_terms_accepted(self, synth_dir, tmp_path, trained):
        cfg, out, _ = trained
        terms, _ = load_dataset(synth_dir / "terms.csv")
        plain = tmp_path / "plain.csv"
        plain.write_text("term\n" + "\n".join(terms[:5]) + "\n")
        pr = run_predict(
            dataclasses.replace(cfg, out_dir=str(tmp_path / "o4")), out, plain
        )
        assert pr.n_terms == 5


class TestFrontendJson:
    """frontend.json fixes the feature rows; predict replays it over its config."""

    def tampered(self, out, tmp_path, edit):
        model_dir = tmp_path / "tampered"
        model_dir.mkdir()
        for name in ("model.txt", "frontend.json"):
            (model_dir / name).write_bytes((out / name).read_bytes())
        fe = json.loads((model_dir / "frontend.json").read_text())
        edit(fe)
        (model_dir / "frontend.json").write_text(json.dumps(fe))
        return model_dir

    def predict_cli(self, cfg, model_dir, terms_path, out):
        return main(
            [
                "predict",
                str(terms_path),
                "--model",
                str(model_dir),
                "--embeddings",
                cfg.embedding_path,
                "--out",
                str(out),
            ]
        )

    def test_missing_key(self, synth_dir, tmp_path, trained, capsys):
        cfg, out, _ = trained
        model_dir = self.tampered(out, tmp_path, lambda fe: fe.pop("ngram_min"))
        with pytest.raises(DataError, match="missing keys: ngram_min"):
            run_predict(
                dataclasses.replace(cfg, out_dir=str(tmp_path / "o")),
                model_dir,
                synth_dir / "terms.csv",
            )
        code = self.predict_cli(cfg, model_dir, synth_dir / "terms.csv", tmp_path)
        assert code == 2
        assert "ngram_min" in capsys.readouterr().err

    def test_bad_recorded_value(self, synth_dir, tmp_path, trained, capsys):
        cfg, out, _ = trained
        model_dir = self.tampered(
            out, tmp_path, lambda fe: fe.update(oov_strategy="bogus")
        )
        with pytest.raises(DataError, match="bogus"):
            run_predict(
                dataclasses.replace(cfg, out_dir=str(tmp_path / "o")),
                model_dir,
                synth_dir / "terms.csv",
            )
        code = self.predict_cli(cfg, model_dir, synth_dir / "terms.csv", tmp_path)
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_predict_config_frontend_fields_ignored(self, synth_dir, tmp_path, trained):
        cfg, out, _ = trained
        same = run_predict(
            dataclasses.replace(cfg, out_dir=str(tmp_path / "same")),
            out,
            synth_dir / "terms.csv",
        )
        other_cfg = apply_preset(
            dataclasses.replace(
                cfg, oov_strategy="zero", out_dir=str(tmp_path / "other")
            ),
            "BL",
        )
        other = run_predict(other_cfg, out, synth_dir / "terms.csv")
        with open(same.path, "rb") as a, open(other.path, "rb") as b:
            assert a.read() == b.read()

    def test_indicator_count_error(self, synth_dir, tmp_path):
        cfg = apply_preset(
            base_cfg(synth_dir, tmp_path, indicators=("Inc.", "Corp", "Ltd")),
            "BL.HF",
        )
        with pytest.raises(DataError, match="exactly 7 indicator substrings"):
            run_cv(cfg, synth_dir / "terms.csv")


def refuse_parse(*args):
    raise AssertionError("the store text was parsed")


class TestStoreSidecar:
    """The parsed-store sidecar changes no artifact: a run that parses the
    store and the run after it, which loads the sidecar, write the same bytes."""

    def test_cold_and_warm_runs_write_identical_artifacts(self, tmp_path, monkeypatch):
        data_dir = tmp_path / "data"
        write_dataset(generate(3, 36, seed=7, dim=8, plant_substrings=True), data_dir)
        sidecar = data_dir / ("embeddings.txt" + embeddings.SIDECAR_SUFFIX)
        terms = data_dir / "terms.csv"
        model_dir = tmp_path / "model"
        run_train(apply_preset(base_cfg(data_dir, model_dir), "BL.HF.OOVm.D2"), terms)
        runs = {
            "predictions.jsonl": lambda out: run_predict(
                apply_preset(base_cfg(data_dir, out), "BL.HF.OOVm.D2"), model_dir, terms
            ),
            "oov.txt": lambda out: run_inspect_oov(
                apply_preset(base_cfg(data_dir, out), "BL.HF.OOVl"), terms
            ),
        }
        for name, run in runs.items():
            sidecar.unlink()
            run(tmp_path / "cold")
            assert sidecar.exists()
            with monkeypatch.context() as patched:
                patched.setattr(embeddings, "_read_header", refuse_parse)
                run(tmp_path / "warm")
            cold = (tmp_path / "cold" / name).read_bytes()
            assert cold and cold == (tmp_path / "warm" / name).read_bytes()


class TestInspectOov:
    def make_inputs(self, tmp_path):
        store = EmbeddingStore(
            ["bond", "option", "swap"], np.eye(3, 4)
        )
        emb = tmp_path / "emb.txt"
        save_embeddings(store, emb)
        csv_path = tmp_path / "terms.csv"
        csv_path.write_text("term,label\nbonds option,A\nswap,B\nbonds,A\n")
        return emb, csv_path

    def test_zero_strategy_reports_zero(self, tmp_path):
        emb, csv_path = self.make_inputs(tmp_path)
        cfg = PipelineConfig(
            embedding_path=str(emb), out_dir=str(tmp_path), oov_strategy="zero"
        )
        run = run_inspect_oov(cfg, csv_path)
        assert run.unique == 1
        assert run.occurrences == 2
        assert "bonds -> ZERO" in run.text
        assert open(run.path).read() == run.text

    def test_levenshtein_substitutes(self, tmp_path):
        emb, csv_path = self.make_inputs(tmp_path)
        cfg = PipelineConfig(
            embedding_path=str(emb),
            out_dir=str(tmp_path),
            oov_strategy="levenshtein",
        )
        run = run_inspect_oov(cfg, csv_path)
        assert "bonds -> bond" in run.text

    def test_augmented_term_only_csv(self, tmp_path):
        emb, _ = self.make_inputs(tmp_path)
        csv_path = tmp_path / "plain.csv"
        csv_path.write_text("term\nswap\n")
        snap = tmp_path / "snap.json"
        snap.write_text(json.dumps({"swap": "Swaps trade bonds. More."}))
        cfg = PipelineConfig(
            embedding_path=str(emb),
            out_dir=str(tmp_path),
            augment=True,
            snapshot_path=str(snap),
        )
        run = run_inspect_oov(cfg, csv_path)
        # the augmented text is "swap. Swaps trade bonds.": "swap." is "swap"
        # once its edge punctuation is stripped; "bonds." strips to "bonds",
        # still out of vocabulary
        assert run.text.splitlines()[2:] == [
            "Swaps -> ZERO",
            "bonds. -> ZERO",
            "trade -> ZERO",
        ]

    def test_all_in_vocab(self, tmp_path):
        emb, _ = self.make_inputs(tmp_path)
        csv_path = tmp_path / "clean.csv"
        csv_path.write_text("term,label\nbond,A\nswap option,B\n")
        cfg = PipelineConfig(embedding_path=str(emb), out_dir=str(tmp_path))
        run = run_inspect_oov(cfg, csv_path)
        assert run.unique == 0
        assert run.occurrences == 0
        assert run.text == "oov_unique: 0\noov_occurrences: 0\n"


class TestAugmentRuns:
    @pytest.fixture
    def snapshot(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(
            json.dumps(
                {
                    "swap": "A swap is a derivative. More.",
                    "corporate bond": "A corporate bond is debt.",
                }
            )
        )
        return path

    def test_apply_labeled(self, tmp_path, snapshot):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("term,label\nSwap,Swap\nunmatchedxyz,Bonds\n")
        cfg = PipelineConfig(
            out_dir=str(tmp_path), snapshot_path=str(snapshot), augment=True
        )
        out_path, coverage = run_augment_apply(cfg, csv_path)
        assert coverage == pytest.approx(0.5)
        rows = open(out_path).read().splitlines()
        assert rows[0] == "term,label,text,matched_headword"
        assert rows[1] == "Swap,Swap,Swap. A swap is a derivative.,swap"
        assert rows[2] == "unmatchedxyz,Bonds,unmatchedxyz,"

    def test_apply_unlabeled(self, tmp_path, snapshot):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("term\nSwap\n")
        cfg = PipelineConfig(out_dir=str(tmp_path), snapshot_path=str(snapshot))
        out_path, coverage = run_augment_apply(cfg, csv_path)
        assert coverage == 1.0
        rows = open(out_path).read().splitlines()
        assert rows[0] == "term,text,matched_headword"

    def test_fetch_requires_base_url(self, tmp_path):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("term\nswap\n")
        cfg = PipelineConfig(out_dir=str(tmp_path))
        with pytest.raises(DataError, match="base URL"):
            run_augment_fetch(cfg, csv_path)

    def test_fetch_with_stub(self, tmp_path, monkeypatch):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("term\nswap\nbond\n")

        class StubFetcher:
            def __init__(self, cfg):
                self.cfg = cfg

            def __call__(self, term):
                if term == "bond":
                    return None
                return term, f"A {term} definition."

        monkeypatch.setattr("finhyp.pipeline.HttpFetcher", StubFetcher)
        cfg = PipelineConfig(
            out_dir=str(tmp_path),
            fetcher_base_url="http://defs.test/api",
            fetcher_rate_limit=0.0,
        )
        snap_path, count, failures = run_augment_fetch(cfg, csv_path)
        assert count == 1
        assert failures == 0
        assert json.loads(open(snap_path).read()) == {
            "swap": "A swap definition."
        }

    def test_flag_overrides_config_url(self, tmp_path, monkeypatch):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("term\nswap\n")
        seen = {}

        class StubFetcher:
            def __init__(self, cfg):
                seen["url"] = cfg.base_url

            def __call__(self, term):
                return None

        monkeypatch.setattr("finhyp.pipeline.HttpFetcher", StubFetcher)
        cfg = PipelineConfig(
            out_dir=str(tmp_path), fetcher_base_url="http://config.test"
        )
        run_augment_fetch(cfg, csv_path, base_url="http://flag.test")
        assert seen["url"] == "http://flag.test"


class TestAugmentedCv:
    def test_empty_snapshot_equals_plain(self, synth_dir, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        out_plain, out_aug = tmp_path / "p", tmp_path / "a"
        plain = apply_preset(base_cfg(synth_dir, out_plain), "BL.HF.OOVm.D2")
        aug = apply_preset(
            base_cfg(synth_dir, out_aug, snapshot_path=str(empty)),
            "BL.HF.OOVm.D2.+",
        )
        rp = run_cv(plain, synth_dir / "terms.csv")
        ra = run_cv(aug, synth_dir / "terms.csv")
        assert ra.coverage == 0.0
        assert rp.coverage is None
        for key in rp.paths:
            assert open(rp.paths[key], "rb").read() == open(
                ra.paths[key], "rb"
            ).read()

    def test_matching_snapshot_changes_texts(self, synth_dir, tmp_path):
        terms, gold = load_dataset(synth_dir / "terms.csv")
        target = terms[0].split()[0]
        snap = tmp_path / "snap.json"
        snap.write_text(json.dumps({target: "A synthetic token. Noise."}))
        cfg = apply_preset(
            base_cfg(synth_dir, tmp_path, snapshot_path=str(snap)),
            "BL.HF.OOVm.D2.+",
        )
        fe = prepare_frontend(cfg, terms, gold)
        matched = [t for t, text in zip(terms, fe.texts) if text != t]
        assert matched
        assert fe.coverage > 0
        for t, text in zip(terms, fe.texts):
            if text != t:
                assert text == f"{t}. A synthetic token."


def pinned_run(root):
    """Artifacts of one small BL.HF.OOVm.D2.+ run: cross-validation, OOV
    inspection, augmented texts, then train and predict on the same rows.
    Every third term has a definition; its augmented text is
    "<term>. <first sentence>"."""
    data = generate(5, 75, seed=11, dim=8, sigma=1.2)
    csv_path, emb_path = write_dataset(data, root / "data")
    definitions = {
        " ".join(term.lower().split()): f"A {label.lower()} contract. Not this one."
        for term, label in data.rows[::3]
    }
    snapshot = root / "snapshot.json"
    snapshot.write_text(json.dumps(definitions))
    cfg = apply_preset(
        PipelineConfig(
            embedding_path=emb_path,
            snapshot_path=str(snapshot),
            c_grid=(0.1, 1.0),
            folds=3,
            seed=2,
        ),
        "BL.HF.OOVm.D2.+",
    )

    def at(name):
        return dataclasses.replace(cfg, out_dir=str(root / name))

    cv = run_cv(at("cv"), csv_path)
    oov = run_inspect_oov(at("oov"), csv_path)
    augmented, _ = run_augment_apply(at("aug"), csv_path)
    run_train(at("model"), csv_path)
    pred = run_predict(at("pred"), str(root / "model"), csv_path)
    paths = {
        "report.txt": cv.paths["report_txt"],
        "report.json": cv.paths["report_json"],
        "grid.json": cv.paths["grid_json"],
        "folds.json": cv.paths["folds_json"],
        "oov.txt": oov.path,
        "augmented.csv": augmented,
    }
    digests = {
        name: hashlib.sha256(open(path, "rb").read()).hexdigest()
        for name, path in paths.items()
    }
    top3 = [json.loads(line)["top3"] for line in open(pred.path)]
    return digests, top3


class TestPinnedArtifacts:
    """The artifacts of one small run, pinned so that any unintended drift
    in tokenisation, features, fitting, ranking or metrics fails here. They
    hold no float bits that depend on the BLAS kernel: metrics are ratios of
    counts, and the probabilities in predictions.jsonl are left out."""

    DIGESTS = {
        "report.txt": "740d959f00cef010907c4035cd8aada66c429651fc9bb969c7a683bc0b76a1d1",
        "report.json": "4c584fc867d988250dc924b83a5f11c8b8eeef6de53db636820855f440b74dd5",
        "grid.json": "67ebbfdd39ba59ffeff40f54e1d5f329f72427435eca523200740b48faad6463",
        "folds.json": "46220c6c8f579b8aa67fa2af67e6bd9762c1211089a46409b4dd3b0906ba8578",
        "oov.txt": "3aa963311125d8023b149020a8c381b5bd04df8afc156c0146dc8a42277c1d6a",
        "augmented.csv": "7fb1358a95d3ee2c60928eba0b04fcf804e7acfc24133ee4c2005178c9892520",
    }
    TOP3_DIGEST = "90e26c8ef8b52baeede0ae522c2ce0ff6c3813adad241ee9bc9db567eb24d008"

    def test_augmented_preset_artifacts(self, tmp_path):
        digests, top3 = pinned_run(tmp_path)
        assert digests == self.DIGESTS
        top3_json = json.dumps(top3).encode("utf-8")
        assert hashlib.sha256(top3_json).hexdigest() == self.TOP3_DIGEST
