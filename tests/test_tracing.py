"""perfbench's tracer against the package: every name it wraps still exists
with the arguments its hooks read, and every per-layer metric the
benchmark declares comes out of a traced run.

perfbench/tracing.py is loaded from its file, as perfbench/run.py imports
it, and is not edited here.
"""
import dataclasses
import importlib.util
import json
import os

import pytest

from finhyp import synth
from finhyp.embeddings import load_embeddings
from finhyp.oov import OOVStrategy
from finhyp.pipeline import (
    PipelineConfig,
    apply_preset,
    run_cv,
    run_inspect_oov,
    run_predict,
    run_train,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# trace.overhead_frac compares traced with untraced calls in perfbench/run.py,
# and embeddings.load_mb comes from Tracer.load_peak_mb, not layer_metrics.
NOT_PER_RUN = {"trace.overhead_frac", "embeddings.load_mb"}


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def per_layer_names() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)["per_layer"]]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Tracer and run ids of a cv, a train, a predict, an inspect-oov and
    two resolves of one token, each traced as its own run."""
    work = tmp_path_factory.mktemp("traced")
    data = synth.generate(3, 36, 5, dim=8, typo_rate=0.3)
    csv_path, store_path = synth.write_dataset(data, work / "data")
    base = PipelineConfig(embedding_path=store_path, c_grid=(1.0,), folds=3)
    store = load_embeddings(store_path)
    resolver = OOVStrategy("levenshtein")

    def out(name, preset="BL.HF.OOVm.D2"):
        return dataclasses.replace(apply_preset(base, preset), out_dir=str(work / name))

    calls = {
        "cv": (run_cv, out("cv"), csv_path),
        "train": (run_train, out("model"), csv_path),
        "predict": (run_predict, out("predict"), str(work / "model"), csv_path),
        "oov": (run_inspect_oov, out("oov", "BL.HF.OOVl"), csv_path),
        "resolve": (lambda: [resolver.resolve("zzzq", store) for _ in range(2)],),
    }
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        runs = {}
        for run, (name, (fn, *args)) in enumerate(calls.items(), start=1):
            tracer.call(run, fn, *args)
            runs[name] = run
    finally:
        tracer.uninstall()
    return tracer, runs


def test_every_per_layer_metric_is_emitted(traced):
    tracer, runs = traced
    names = [n for n in per_layer_names() if n not in NOT_PER_RUN]
    for run in runs.values():
        metrics = tracer.layer_metrics(run)
        assert [n for n in names if metrics.get(n) is None] == []
    assert tracer.load_peak_mb() > 0


def test_hooks_see_the_calls_they_wrap(traced):
    tracer, runs = traced
    cv = tracer.layer_metrics(runs["cv"])
    assert cv["embeddings.load_s"] > 0
    assert cv["embeddings.embed_calls"] > 0
    assert cv["oov.index_build_s"] > 0
    assert cv["model.fits"] == 3
    assert cv["model.loss_grad_calls"] > 0
    assert cv["model.converged_frac"] > 0
    assert cv["pipeline.read_s"] > 0
    assert cv["pipeline.write_bytes"] > 0
    predict = tracer.layer_metrics(runs["predict"])
    assert predict["model.predict_calls"] == 1
    # the hand-crafted and edit blocks run inside the names perfbench wraps
    assert predict["features.handcrafted_s"] > 0
    assert predict["features.edit_s"] > 0
    assert tracer.layer_metrics(runs["oov"])["distance.nearest_calls"] == 1
    resolve = tracer.layer_metrics(runs["resolve"])
    assert resolve["oov.resolve_calls"] == 2
    # a strategy keeps no memo, so no resolve is a hit
    assert resolve["oov.memo_hit_frac"] == 0.0


def test_uninstall_restores_every_name(traced):
    from finhyp import embeddings, features, model, oov, pipeline

    for module, name in (
        (embeddings, "embed_term"),
        (features, "embed_term"),
        (oov, "build_ngram_index"),
        (model, "train"),
        (pipeline, "atomic_write"),
        (pipeline, "load_terms"),
    ):
        assert not hasattr(getattr(module, name), "__wrapped__")
    assert not hasattr(OOVStrategy.resolve, "__wrapped__")
