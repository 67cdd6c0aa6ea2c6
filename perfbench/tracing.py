"""Spans around calls into finhyp's layers, recorded from outside the
program for the traced run only.

``Tracer.install`` replaces each wrapped function in every loaded finhyp
module that holds a reference to it (``from .x import y`` copies the
reference), and methods on their classes. Spans are tuples kept in memory:
(id, parent id, name, start, end, run id). ``layer_metrics`` derives the
per-layer numbers from the spans of one traced call.
"""
from __future__ import annotations

import inspect
import sys
import time
import tracemalloc

import numpy as np

# (module, attribute, span name). A layer's busy time counts only its
# outermost spans, so a layer calling itself is not counted twice.
FUNCTIONS = (
    ("finhyp.embeddings", "load_embeddings", "embeddings.load"),
    ("finhyp.embeddings", "embed_term", "embeddings.embed"),
    ("finhyp.oov", "build_ngram_index", "oov.index_build"),
    ("finhyp.distance", "nearest", "distance.nearest"),
    ("finhyp.distance", "levenshtein", "distance.levenshtein"),
    ("finhyp.features", "handcrafted", "features.handcrafted"),
    ("finhyp.features", "cosine_features", "features.cosine"),
    ("finhyp.features", "edit_features", "features.edit"),
    ("finhyp.model", "train", "model.fit"),
    ("finhyp.model", "loss_and_grad", "model.loss_and_grad"),
    ("finhyp.model", "loss_value", "model.loss_value"),
    ("finhyp.model", "predict_proba", "model.predict"),
    ("finhyp.model", "load_model", "pipeline.read"),
    ("finhyp.evaluation", "evaluate", "evaluation"),
    ("finhyp.evaluation", "accuracy", "evaluation"),
    ("finhyp.evaluation", "mean_rank", "evaluation"),
    ("finhyp.evaluation", "stratified_kfold", "evaluation"),
    ("finhyp.pipeline", "load_terms", "pipeline.read"),
    ("finhyp.pipeline", "atomic_write", "pipeline.write"),
)
METHODS = (
    ("finhyp.oov", "OOVStrategy", "resolve", "oov.resolve"),
    ("finhyp.features", "MinMaxScaler", "fit", "features.scale"),
    ("finhyp.features", "MinMaxScaler", "transform", "features.scale"),
)

ROOT = "pipeline.call"

# Per-layer metric name -> the span it is derived from: busy time, then
# call count. Units are in BENCHMARK.json.
SPAN_TIMES = (
    ("embeddings.load_s", "embeddings.load"),
    ("embeddings.embed_s", "embeddings.embed"),
    ("oov.index_build_s", "oov.index_build"),
    ("oov.resolve_s", "oov.resolve"),
    ("distance.nearest_s", "distance.nearest"),
    ("distance.levenshtein_s", "distance.levenshtein"),
    ("features.handcrafted_s", "features.handcrafted"),
    ("features.cosine_s", "features.cosine"),
    ("features.edit_s", "features.edit"),
    ("features.scale_s", "features.scale"),
    ("model.fit_s", "model.fit"),
    ("model.predict_s", "model.predict"),
    ("evaluation.busy_s", "evaluation"),
    ("pipeline.read_s", "pipeline.read"),
    ("pipeline.write_s", "pipeline.write"),
)
SPAN_COUNTS = (
    ("embeddings.embed_calls", "embeddings.embed"),
    ("oov.resolve_calls", "oov.resolve"),
    ("distance.nearest_calls", "distance.nearest"),
    ("distance.levenshtein_calls", "distance.levenshtein"),
    ("model.fits", "model.fit"),
    ("model.loss_grad_calls", "model.loss_and_grad"),
    ("model.loss_calls", "model.loss_value"),
    ("model.predict_calls", "model.predict"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.run = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple] = []
        self._originals: dict[str, object] = {}
        self.load_paths: list = []
        # per run: memo hits, bytes written, fits
        self.memo_hits: dict[int, int] = {}
        self.write_bytes: dict[int, int] = {}
        self.fits: dict[int, list] = {}

    # ---------------------------------------------------------------- spans

    def _open(self, name):
        self._next_id += 1
        span_id = self._next_id
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(span_id)
        return span_id, parent, name, time.perf_counter()

    def _close(self, opened):
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((*opened, end, self.run))

    def call(self, run: int, fn, *args):
        """Run fn(*args) as run id ``run`` under a root span; returns the
        root span's duration in seconds."""
        self.run = run
        opened = self._open(ROOT)
        try:
            fn(*args)
        finally:
            self._close(opened)
        return self.spans[-1][4] - self.spans[-1][3]

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            opened = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(opened)

        traced.__wrapped__ = fn
        return traced

    # --------------------------------------------------- layer-specific hooks

    def _hooks(self, name, fn):
        """Wrapper adding the counters a span alone cannot give."""
        tracer = self
        traced = self._wrap(name, fn)
        if name == "embeddings.load":

            def hooked(path):
                tracer.load_paths.append(path)
                return traced(path)

        elif name == "oov.resolve":

            def hooked(strategy, token, store):
                hit = getattr(strategy, "_store", None) is store and token in getattr(
                    strategy, "_memo", {}
                )
                tracer.memo_hits[tracer.run] = tracer.memo_hits.get(tracer.run, 0) + hit
                return traced(strategy, token, store)

        elif name == "pipeline.write":

            def hooked(path, text):
                tracer.write_bytes[tracer.run] = tracer.write_bytes.get(
                    tracer.run, 0
                ) + len(text.encode("utf-8"))
                return traced(path, text)

        elif name == "model.fit":
            signature = inspect.signature(fn)

            def hooked(*args, **kwargs):
                model = traced(*args, **kwargs)
                bound = signature.bind(*args, **kwargs)
                tracer.fits.setdefault(tracer.run, []).append((bound.arguments, model))
                return model

        else:
            return traced
        hooked.__wrapped__ = fn
        return hooked

    # -------------------------------------------------------- install/remove

    def install(self) -> None:
        modules = [
            m for name, m in sys.modules.items() if name.split(".")[0] == "finhyp"
        ]
        for modname, attr, name in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            self._originals.setdefault(name, original)
            wrapper = self._hooks(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        for modname, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[modname], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._hooks(name, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # ------------------------------------------------------------- metrics

    def load_peak_mb(self) -> float:
        """Peak memory in MB, as tracemalloc counts it, of one more load of
        the first store the traced calls loaded. It runs after them, so
        tracemalloc's own cost stays out of every span."""
        if not self.load_paths:
            return 0.0
        tracemalloc.start()
        try:
            self._originals["embeddings.load"](self.load_paths[0])
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    def fit_diagnostics(self, run: int) -> tuple[float, float]:
        """(converged share, largest final gradient inf-norm) over the fits
        of one run, from the returned parameters. Fits that never reached
        grad_tol count as not converged."""
        from finhyp.model import TrainConfig

        fits = self.fits.get(run, [])
        if not fits:
            return 0.0, 0.0
        converged, worst = 0, 0.0
        for args, model in fits:
            cfg = args.get("cfg") or TrainConfig()
            X = np.asarray(args["X"], dtype=np.float64)
            y = np.asarray(args["y"], dtype=np.int64)
            _, gw, gb = self._originals["model.loss_and_grad"](model.weights, model.bias, X, y, args["c"])
            gmax = float(max(np.abs(gw).max(), np.abs(gb).max()))
            converged += gmax <= cfg.grad_tol
            worst = max(worst, gmax)
        return converged / len(fits), worst

    def layer_metrics(self, run: int) -> dict[str, float]:
        spans = [s for s in self.spans if s[5] == run]
        by_id = {s[0]: s for s in spans}

        def outermost(span):
            parent = by_id.get(span[1])
            while parent is not None:
                if parent[2] == span[2]:
                    return False
                parent = by_id.get(parent[1])
            return True

        busy: dict[str, float] = {}
        count: dict[str, int] = {}
        for span in spans:
            count[span[2]] = count.get(span[2], 0) + 1
            if outermost(span):
                busy[span[2]] = busy.get(span[2], 0.0) + span[4] - span[3]
        root = next(s for s in spans if s[2] == ROOT)
        children = sum(s[4] - s[3] for s in spans if s[1] == root[0])
        resolves = count.get("oov.resolve", 0)
        converged, grad_max = self.fit_diagnostics(run)
        metrics = {name: busy.get(span, 0.0) for name, span in SPAN_TIMES}
        metrics.update({name: count.get(span, 0) for name, span in SPAN_COUNTS})
        metrics.update(
            {
                "oov.memo_hit_frac": self.memo_hits.get(run, 0) / resolves
                if resolves
                else 0.0,
                "model.converged_frac": converged,
                "model.final_grad_max": grad_max,
                "pipeline.write_bytes": self.write_bytes.get(run, 0),
                "pipeline.self_s": (root[4] - root[3]) - children,
            }
        )
        return metrics
