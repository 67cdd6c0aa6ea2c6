"""CLI behavior: exit codes, output artifacts, config precedence."""
import json
import os
import stat
import subprocess
import sys
import threading

import pytest

import finhyp
from finhyp.cli import FETCHER_URL_ENV, main
from finhyp.embeddings import SIDECAR_SUFFIX, STAT_SUFFIX
from finhyp.oov import INDEX_SUFFIX, PACK_SUFFIX
from finhyp.pipeline import PRESETS

from conftest import RETIRED_SETTINGS


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-synth")
    code = main(
        [
            "synth",
            "--classes",
            "3",
            "--rows",
            "36",
            "--seed",
            "5",
            "--dim",
            "8",
            "--plant-substrings",
            "--out",
            str(root),
        ]
    )
    assert code == 0
    return root


@pytest.fixture(scope="module")
def fast_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "cfg.json"
    path.write_text(json.dumps({"c_grid": [1.0], "folds": 3}))
    return path


class TestSynthCommand:
    def test_writes_both_files(self, synth_dir):
        assert (synth_dir / "terms.csv").exists()
        assert (synth_dir / "embeddings.txt").exists()
        lines = (synth_dir / "terms.csv").read_text().splitlines()
        assert lines[0] == "term,label"
        assert len(lines) == 37

    def test_bad_classes_is_usage_error(self, tmp_path, capsys):
        code = main(["synth", "--classes", "1", "--out", str(tmp_path)])
        assert code == 1
        assert "usage error:" in capsys.readouterr().err

    def test_bad_rows_is_usage_error(self, tmp_path):
        assert main(["synth", "--classes", "5", "--rows", "3", "--out", str(tmp_path)]) == 1

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert (
                main(
                    ["synth", "--classes", "2", "--rows", "10", "--seed", "3", "--out", str(out)]
                )
                == 0
            )
        assert (a / "terms.csv").read_bytes() == (b / "terms.csv").read_bytes()
        assert (a / "embeddings.txt").read_bytes() == (
            b / "embeddings.txt"
        ).read_bytes()


class TestUsageErrors:
    def test_no_arguments(self):
        assert main([]) == 1

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_unknown_preset(self, synth_dir):
        assert (
            main(
                [
                    "cv",
                    str(synth_dir / "terms.csv"),
                    "--preset",
                    "NOPE",
                    "--embeddings",
                    str(synth_dir / "embeddings.txt"),
                ]
            )
            == 1
        )

    def test_predict_requires_model(self, synth_dir):
        assert main(["predict", str(synth_dir / "terms.csv")]) == 1

    def test_unknown_flag(self):
        assert main(["cv", "x.csv", "--frobnicate"]) == 1

    def test_usage_message_on_stderr(self, capsys):
        main([])
        err = capsys.readouterr().err
        assert "usage error:" in err


class TestDataErrors:
    def test_missing_dataset(self, synth_dir, tmp_path, capsys):
        code = main(
            [
                "cv",
                str(tmp_path / "absent.csv"),
                "--embeddings",
                str(synth_dir / "embeddings.txt"),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_embeddings(self, synth_dir, tmp_path):
        code = main(
            [
                "cv",
                str(synth_dir / "terms.csv"),
                "--embeddings",
                str(tmp_path / "absent.txt"),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2

    def test_malformed_csv(self, synth_dir, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header\nx,y\n")
        code = main(
            [
                "cv",
                str(bad),
                "--embeddings",
                str(synth_dir / "embeddings.txt"),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "store, message",
        [
            (b"2 3\nab\xff 1 2 3\ncd 1 2 3\n", "error: line 2: not UTF-8: "),
            (b"1000000000000 300\nab 1 2 3\n", "error: line 2: row length 3 != dim 300"),
            (b"1000000000000 3\nab 1 2 3\n", "error: expected 1000000000000 rows, found 1"),
        ],
        ids=["not-utf8", "huge-count-short-row", "huge-count"],
    )
    def test_bad_store_exits_2(self, tmp_path, capsys, store, message):
        emb = tmp_path / "emb.txt"
        emb.write_bytes(store)
        terms = tmp_path / "terms.csv"
        terms.write_text("term\nab\n")
        code = main(
            ["inspect-oov", str(terms), "--embeddings", str(emb), "--out", str(tmp_path)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(message)

    def test_header_count_beyond_pipe_exits_2(self, tmp_path, capsys):
        if not hasattr(os, "mkfifo"):
            pytest.skip("no named pipes on this platform")
        emb = tmp_path / "pipe"
        os.mkfifo(emb)
        terms = tmp_path / "terms.csv"
        terms.write_text("term\nab\n")
        writer = threading.Thread(
            target=emb.write_bytes,
            args=(b"1000000000000 300\nab 1 2 3\n",),
            daemon=True,
        )
        writer.start()
        code = main(
            ["inspect-oov", str(terms), "--embeddings", str(emb), "--out", str(tmp_path)]
        )
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: line 2: row length 3 != dim 300"
        )

    def test_bad_config_file(self, synth_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{broken")
        code = main(
            [
                "cv",
                str(synth_dir / "terms.csv"),
                "--config",
                str(cfg),
                "--embeddings",
                str(synth_dir / "embeddings.txt"),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2

    def test_empty_out_dir_in_config_file(self, synth_dir, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"out_dir": ""}')
        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "inspect-oov",
                str(synth_dir / "terms.csv"),
                "--config",
                str(cfg),
                "--embeddings",
                str(synth_dir / "embeddings.txt"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: bad config: out_dir must not be empty\n"
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    @pytest.mark.parametrize(
        "config, preset",
        [
            ({"handcrafted": "no"}, None),
            ({"folds": 2.5}, None),
            ({"seed": True}, None),
            ({"folds": 3.0}, "BL.HF.OOVm.D2"),
            ({"fetcher_timeout": True}, None),
            ({"snapshot_path": 1}, None),
            ({"oov_strategy": ["ngram"]}, "BL.HF"),
            ({"labels": ["Swap", 1]}, None),
            ({"c_grid": [True]}, None),
        ],
        ids=[
            "bool",
            "int",
            "int-not-bool",
            "int-ngram",
            "float",
            "str",
            "str-list",
            "labels",
            "c_grid",
        ],
    )
    def test_wrong_json_type_exits_2(
        self, synth_dir, tmp_path, capsys, config, preset
    ):
        # the store is copied, so that nothing written beside it can hide
        data = tmp_path / "data"
        data.mkdir()
        store = (synth_dir / "embeddings.txt").read_bytes()
        (data / "embeddings.txt").write_bytes(store)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [
            "cv",
            str(synth_dir / "terms.csv"),
            "--config",
            str(cfg),
            "--embeddings",
            str(data / "embeddings.txt"),
            "--out",
            str(tmp_path / "out"),
        ]
        code = main(argv + (["--preset", preset] if preset else []))
        assert code == 2
        (key,) = config
        assert f"error: config key '{key}' must be " in capsys.readouterr().err
        assert os.listdir(data) == ["embeddings.txt"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", sorted(RETIRED_SETTINGS))
    def test_retired_key_exits_2(self, synth_dir, tmp_path, capsys, key):
        # the n-gram range, the indicators and the match threshold are fixed
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: RETIRED_SETTINGS[key]}))
        code = main(
            [
                "cv",
                str(synth_dir / "terms.csv"),
                "--config",
                str(cfg),
                "--embeddings",
                str(synth_dir / "embeddings.txt"),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: unknown config keys: {key}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_c_exits_2(self, synth_dir, tmp_path, capsys, value):
        # json.load reads NaN and Infinity, and NaN passes a "c <= 0" check
        data = tmp_path / "data"
        data.mkdir()
        store = (synth_dir / "embeddings.txt").read_bytes()
        (data / "embeddings.txt").write_bytes(store)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"c_grid": [1.0, %s], "folds": 3}' % value)
        code = main(
            [
                "cv",
                str(synth_dir / "terms.csv"),
                "--config",
                str(cfg),
                "--embeddings",
                str(data / "embeddings.txt"),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: bad config: C must be finite and positive, got {float(value)!r}\n"
        )
        assert os.listdir(data) == ["embeddings.txt"]
        assert not (tmp_path / "out").exists()

    def test_repeated_c_exits_2(self, synth_dir, tmp_path, capsys):
        # a repeated C would write two grid rows from one set of fits
        data = tmp_path / "data"
        data.mkdir()
        store = (synth_dir / "embeddings.txt").read_bytes()
        (data / "embeddings.txt").write_bytes(store)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"c_grid": [1.0, 1.0], "folds": 3}')
        code = main(
            [
                "cv",
                str(synth_dir / "terms.csv"),
                "--config",
                str(cfg),
                "--embeddings",
                str(data / "embeddings.txt"),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: bad config: C grid repeats a value: (1.0, 1.0)\n"
        )
        assert os.listdir(data) == ["embeddings.txt"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["cv", "train"])
    def test_negative_seed_fails_before_the_store(
        self, synth_dir, tmp_path, capsys, command
    ):
        # numpy's generator would refuse it only after the features are built
        data = tmp_path / "data"
        data.mkdir()
        store = (synth_dir / "embeddings.txt").read_bytes()
        (data / "embeddings.txt").write_bytes(store)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": -1}')
        argv = [
            command,
            str(synth_dir / "terms.csv"),
            "--embeddings",
            str(data / "embeddings.txt"),
            "--out",
            str(tmp_path / "out"),
        ]
        assert main(argv + ["--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: bad config: seed must be >= 0, got -1\n"
        assert main(argv + ["--seed", "-1"]) == 1
        assert capsys.readouterr().err == "usage error: seed must be >= 0, got -1\n"
        assert os.listdir(data) == ["embeddings.txt"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("folds", [37, 10**40 - 1], ids=["rows-plus-one", "40-digits"])
    @pytest.mark.parametrize("command", ["cv", "train"])
    def test_folds_beyond_row_count_exits_2(
        self, synth_dir, tmp_path, capsys, command, folds
    ):
        # the synth set has 36 labeled rows; the message does not echo folds
        data = tmp_path / "data"
        data.mkdir()
        store = (synth_dir / "embeddings.txt").read_bytes()
        (data / "embeddings.txt").write_bytes(store)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"folds": folds}))
        code = main(
            [
                command,
                str(synth_dir / "terms.csv"),
                "--config",
                str(cfg),
                "--embeddings",
                str(data / "embeddings.txt"),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: folds must not exceed the number of labeled rows (36)\n"
        )
        assert os.listdir(data) == ["embeddings.txt"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, message",
        [
            ("fetcher_timeout", "fetcher_timeout must be finite and positive"),
            ("fetcher_rate_limit", "fetcher_rate_limit must be finite and >= 0"),
            ("c_grid", "C must be finite and positive, got inf"),
        ],
    )
    def test_int_beyond_float_range_exits_2(self, synth_dir, tmp_path, capsys, key, message):
        # json.load reads 1e400 written as an integer as a Python int, which
        # float() and math.isfinite cannot convert
        huge = "1" + "0" * 400
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"%s": %s}' % (key, f"[{huge}]" if key == "c_grid" else huge))
        code = main(
            [
                "cv",
                str(synth_dir / "terms.csv"),
                "--config",
                str(cfg),
                "--embeddings",
                str(synth_dir / "embeddings.txt"),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: bad config: {message}\n"
        assert not (tmp_path / "out").exists()


class TestCvCommand:
    def test_happy_path(self, synth_dir, fast_cfg, tmp_path, capsys):
        code = main(
            [
                "cv",
                str(synth_dir / "terms.csv"),
                "--config",
                str(fast_cfg),
                "--preset",
                "BL.HF",
                "--embeddings",
                str(synth_dir / "embeddings.txt"),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy:" in out
        assert "mean_rank:" in out
        assert "best_c: 1.0" in out
        assert (tmp_path / "report.txt").exists()
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "grid.json").exists()
        assert (tmp_path / "folds.json").exists()

    @pytest.mark.parametrize("blank", ["", " "])
    def test_label_without_token_exits_2(self, synth_dir, tmp_path, capsys, blank):
        rows = (synth_dir / "terms.csv").read_text().splitlines()[1:]
        labels = sorted({row.rsplit(",", 1)[1] for row in rows}) + [blank]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"c_grid": [1.0], "folds": 3, "labels": labels}))
        code = main(
            ["cv", str(synth_dir / "terms.csv"), "--config", str(cfg),
             "--embeddings", str(synth_dir / "embeddings.txt"),
             "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: bad label set: empty term {blank!r}\n"
        )
        assert not (tmp_path / "out").exists()

    def test_seed_flag_changes_folds(self, synth_dir, fast_cfg, tmp_path):
        outs = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            assert (
                main(
                    [
                        "cv",
                        str(synth_dir / "terms.csv"),
                        "--config",
                        str(fast_cfg),
                        "--embeddings",
                        str(synth_dir / "embeddings.txt"),
                        "--seed",
                        seed,
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            outs.append(json.loads((out / "folds.json").read_text()))
        assert outs[0] != outs[1]


class TestTrainPredictCommands:
    def test_round_trip(self, synth_dir, fast_cfg, tmp_path, capsys):
        model_dir = tmp_path / "model"
        code = main(
            [
                "train",
                str(synth_dir / "terms.csv"),
                "--config",
                str(fast_cfg),
                "--preset",
                "BL.HF.OOVm.D2",
                "--embeddings",
                str(synth_dir / "embeddings.txt"),
                "--out",
                str(model_dir),
            ]
        )
        assert code == 0
        assert (model_dir / "model.txt").exists()
        assert (model_dir / "frontend.json").exists()

        pred_dir = tmp_path / "pred"
        code = main(
            [
                "predict",
                str(synth_dir / "terms.csv"),
                "--model",
                str(model_dir),
                "--embeddings",
                str(synth_dir / "embeddings.txt"),
                "--out",
                str(pred_dir),
            ]
        )
        assert code == 0
        lines = (pred_dir / "predictions.jsonl").read_text().splitlines()
        assert len(lines) == 36
        rec = json.loads(lines[0])
        assert set(rec) == {"term", "top3", "probs"}

    def test_predict_rejects_non_finite_c(self, synth_dir, fast_cfg, tmp_path, capsys):
        terms, store = str(synth_dir / "terms.csv"), str(synth_dir / "embeddings.txt")
        model_dir = tmp_path / "model"
        code = main(
            ["train", terms, "--config", str(fast_cfg), "--embeddings", store,
             "--out", str(model_dir)]
        )
        assert code == 0
        model_txt = model_dir / "model.txt"
        lines = model_txt.read_text().splitlines()
        assert lines[1] == "C 1.0"
        lines[1] = "C nan"
        model_txt.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(
            ["predict", terms, "--model", str(model_dir), "--embeddings", store,
             "--out", str(tmp_path / "pred")]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: bad model file: C must be finite and positive, got nan\n"
        )
        assert not (tmp_path / "pred").exists()

    def test_predict_rejects_unknown_header_key(
        self, synth_dir, fast_cfg, tmp_path, capsys
    ):
        terms, store = str(synth_dir / "terms.csv"), str(synth_dir / "embeddings.txt")
        model_dir = tmp_path / "model"
        code = main(
            ["train", terms, "--config", str(fast_cfg), "--embeddings", store,
             "--out", str(model_dir)]
        )
        assert code == 0
        model_txt = model_dir / "model.txt"
        lines = model_txt.read_text().splitlines()
        lines[1] = "gamma 7.0"
        model_txt.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(
            ["predict", terms, "--model", str(model_dir), "--embeddings", store,
             "--out", str(tmp_path / "pred")]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: bad model file: model file corrupt at line 2\n"
        )
        assert not (tmp_path / "pred").exists()

    def test_predict_missing_model_dir(self, synth_dir, tmp_path):
        code = main(
            [
                "predict",
                str(synth_dir / "terms.csv"),
                "--model",
                str(tmp_path / "void"),
                "--embeddings",
                str(synth_dir / "embeddings.txt"),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2


class TestInspectOovCommand:
    def test_reports_tokens(self, synth_dir, tmp_path, capsys):
        csv_path = tmp_path / "probe.csv"
        csv_path.write_text("term\ncompletelyunknowntokenxyz\n")
        code = main(
            [
                "inspect-oov",
                str(csv_path),
                "--embeddings",
                str(synth_dir / "embeddings.txt"),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "oov_unique: 1" in out
        assert "completelyunknowntokenxyz -> ZERO" in out
        assert (tmp_path / "oov.txt").exists()

    @pytest.mark.parametrize("command", ["inspect-oov", "cv"])
    @pytest.mark.parametrize(
        "preset", [name for name, p in PRESETS.items() if p["oov_strategy"] != "zero"]
    )
    def test_empty_store_is_a_data_error(self, tmp_path, capsys, preset, command):
        store = tmp_path / "empty.txt"
        store.write_text("0 4\n")
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("term,label\nbond,Bond\nswap,Swap\n")
        argv = [command, str(csv_path), "--preset", preset, "--embeddings", str(store)]
        code = main(argv + ["--out", str(tmp_path / "out")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.finhyp-ngram-*"))

    def test_empty_store_under_zero_strategy(self, tmp_path, capsys):
        store = tmp_path / "empty.txt"
        store.write_text("0 4\n")
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("term\nbond\n")
        argv = ["inspect-oov", str(csv_path), "--preset", "BL.HF"]
        code = main(argv + ["--embeddings", str(store), "--out", str(tmp_path)])
        assert code == 0
        assert "bond -> ZERO" in capsys.readouterr().out


class TestAugmentCommands:
    def test_apply(self, tmp_path, capsys):
        snap = tmp_path / "snap.json"
        snap.write_text(json.dumps({"swap": "A swap is a trade. Etc."}))
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("term\nswap\nmysteryzz\n")
        code = main(
            [
                "augment-apply",
                str(csv_path),
                "--snapshot",
                str(snap),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "coverage: 0.5000" in out
        assert (tmp_path / "augmented.csv").exists()

    def test_fetch_without_url(self, tmp_path, monkeypatch):
        monkeypatch.delenv(FETCHER_URL_ENV, raising=False)
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("term\nswap\n")
        code = main(["augment-fetch", str(csv_path), "--out", str(tmp_path)])
        assert code == 2

    def test_env_var_provides_url(self, tmp_path, monkeypatch):
        seen = {}

        class StubFetcher:
            def __init__(self, base_url, timeout, user_agent):
                seen["url"] = base_url

            def __call__(self, term):
                return term, "A definition."

        monkeypatch.setattr("finhyp.pipeline.HttpFetcher", StubFetcher)
        monkeypatch.setenv(FETCHER_URL_ENV, "http://env.test/defs")
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("term\nswap\n")
        code = main(
            [
                "augment-fetch",
                str(csv_path),
                "--out",
                str(tmp_path),
                "--snapshot",
                str(tmp_path / "snap.json"),
            ]
        )
        assert code == 0
        assert seen["url"] == "http://env.test/defs"
        assert (tmp_path / "snap.json").exists()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        seen = {}

        class StubFetcher:
            def __init__(self, base_url, timeout, user_agent):
                seen["url"] = base_url

            def __call__(self, term):
                return None

        monkeypatch.setattr("finhyp.pipeline.HttpFetcher", StubFetcher)
        monkeypatch.setenv(FETCHER_URL_ENV, "http://env.test/defs")
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("term\nswap\n")
        code = main(
            [
                "augment-fetch",
                str(csv_path),
                "--base-url",
                "http://flag.test/defs",
                "--out",
                str(tmp_path),
                "--snapshot",
                str(tmp_path / "s.json"),
            ]
        )
        assert code == 0
        assert seen["url"] == "http://flag.test/defs"

    def test_flag_overrides_config_url(self, tmp_path, monkeypatch):
        # --base-url, then the environment, then the config file
        seen = []

        class StubFetcher:
            def __init__(self, base_url, timeout, user_agent):
                seen.append(base_url)

            def __call__(self, term):
                return None

        monkeypatch.setattr("finhyp.pipeline.HttpFetcher", StubFetcher)
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("term\nswap\n")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"fetcher_base_url": "http://config.test"}))
        cases = [
            (None, [], "http://config.test"),
            ("http://env.test", [], "http://env.test"),
            (None, ["--base-url", "http://flag.test"], "http://flag.test"),
            ("http://env.test", ["--base-url", "http://flag.test"], "http://flag.test"),
        ]
        for env, flag, expected in cases:
            if env is None:
                monkeypatch.delenv(FETCHER_URL_ENV, raising=False)
            else:
                monkeypatch.setenv(FETCHER_URL_ENV, env)
            argv = ["augment-fetch", str(csv_path), "--config", str(config)]
            argv += ["--out", str(tmp_path), *flag]
            assert main(argv) == 0
            assert seen.pop() == expected

    @pytest.mark.parametrize(
        "config",
        [
            '{"fetcher_timeout": NaN}',
            '{"fetcher_timeout": -1}',
            '{"fetcher_timeout": 0}',
            '{"fetcher_rate_limit": NaN}',
            '{"fetcher_rate_limit": -1}',
            '{"fetcher_rate_limit": Infinity}',
        ],
    )
    def test_bad_fetcher_setting_exits_2(self, tmp_path, monkeypatch, capsys, config):
        # a NaN or negative timeout would fail every fetch, and a NaN or
        # negative rate would turn throttling off, each without a word
        def refuse(*args, **kwargs):
            raise AssertionError("a request was made")

        monkeypatch.setattr("urllib.request.urlopen", refuse)
        monkeypatch.delenv(FETCHER_URL_ENV, raising=False)
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("term\nswap\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        out = tmp_path / "out"
        argv = ["augment-fetch", str(csv_path), "--config", str(cfg)]
        argv += ["--base-url", "http://flag.test/defs", "--out", str(out)]
        assert main(argv) == 2
        (key,) = json.loads(config)
        assert capsys.readouterr().err.startswith(f"error: bad config: {key} must be")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "d.csv"]


class TestModuleEntry:
    def test_python_dash_m(self, tmp_path):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "finhyp", "synth", "--classes", "2", "--rows", "8", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "terms.csv").exists()

    def test_exit_code_propagates(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "finhyp", "nope"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1


SRC_DIR = os.path.dirname(os.path.dirname(finhyp.__file__))

# Writes one of every kind of file finhyp makes into the directory argv[1].
WRITE_EVERY_ARTIFACT = """
import dataclasses
import sys
from finhyp import embeddings
from finhyp.augment import DefinitionDict
from finhyp.pipeline import PipelineConfig, run_cv, run_inspect_oov, run_train
from finhyp.synth import generate, write_dataset

# the store's stat is recorded at its first load, however young it is
embeddings._STAT_MARGIN_NS = -sys.maxsize
out = sys.argv[1]
csv_path, emb_path = write_dataset(generate(3, 36, seed=5, dim=8), out)
cfg = PipelineConfig(
    embedding_path=emb_path, c_grid=(1.0,), folds=3, out_dir=out, oov_strategy="ngram"
)
run_cv(cfg, csv_path)
run_train(cfg, csv_path)
run_inspect_oov(dataclasses.replace(cfg, oov_strategy="levenshtein"), csv_path)
DefinitionDict({"swap": "A swap."}).to_snapshot(out + "/snapshot.json")
"""


def run_python(code, *args, umask="022"):
    """Run python -c code in a fresh interpreter under the given umask."""
    return subprocess.run(
        ["sh", "-c", f'umask {umask} && exec "$@"', "sh", sys.executable, "-c", code]
        + list(args),
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC_DIR),
    )


class TestFreshProcess:
    @pytest.mark.parametrize("umask, mode", [("022", 0o644), ("027", 0o640)])
    def test_artifacts_get_the_umask_mode(self, tmp_path, umask, mode):
        proc = run_python(WRITE_EVERY_ARTIFACT, str(tmp_path), umask=umask)
        assert proc.returncode == 0, proc.stderr
        names = [
            "terms.csv",
            "embeddings.txt",
            "embeddings.txt" + SIDECAR_SUFFIX,
            "embeddings.txt" + STAT_SUFFIX,
            "embeddings.txt" + INDEX_SUFFIX,
            "embeddings.txt" + PACK_SUFFIX,
            "oov.txt",
            "report.txt",
            "report.json",
            "grid.json",
            "folds.json",
            "model.txt",
            "frontend.json",
            "snapshot.json",
        ]
        modes = {name: stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in names}
        assert modes == dict.fromkeys(names, mode)
        assert not [name for name in os.listdir(tmp_path) if name.startswith(".tmp-")]

    def test_cli_import_leaves_urllib_request_unloaded(self):
        proc = run_python("import sys, finhyp.cli; print('urllib.request' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"
