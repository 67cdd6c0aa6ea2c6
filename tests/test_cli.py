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
from finhyp.embeddings import SIDECAR_SUFFIX


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
            def __init__(self, cfg):
                seen["url"] = cfg.base_url

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
            def __init__(self, cfg):
                seen["url"] = cfg.base_url

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
import sys
from finhyp.augment import DefinitionDict
from finhyp.pipeline import PipelineConfig, run_cv, run_train
from finhyp.synth import generate, write_dataset

out = sys.argv[1]
csv_path, emb_path = write_dataset(generate(3, 36, seed=5, dim=8), out)
cfg = PipelineConfig(embedding_path=emb_path, c_grid=(1.0,), folds=3, out_dir=out)
run_cv(cfg, csv_path)
run_train(cfg, csv_path)
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
