#!/usr/bin/env python3
"""Layered benchmark for finhyp's pipeline entry points.

Run from the repository root:

    python3 perfbench/run.py --workload desk-cv --seed 1 --seconds 20 --trace 0

One process, one caller, one pipeline call at a time (a closed loop), with
BLAS pinned to one thread. ``--trace 0`` sets the workload up 3 times and,
after each set-up, times untraced calls for a third of ``--seconds``; it
prints the end-to-end metrics, with times normalised to the host's nominal
speed by hostspeed.py. ``--trace 1`` sets up once, then alternates untraced and
traced calls and prints the per-layer metrics. Every call's artifacts are
checked; the last line of standard output is one JSON object. Results and
the trace artifact go to ``.perfbench/results/``. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS = 3  # set-ups per untraced run; setup_s is their median
CHILD_TIMEOUT_S = 150


def _metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json, which is the
    one list of the metrics this command reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _compiled_kernel() -> bool:
    try:
        importlib.import_module("finhyp._editdist")
    except ImportError:
        return False
    return True


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


class Run:
    """One benchmark run: calls the workload, checks every call's
    artifacts against the first call's, and counts failures."""

    def __init__(self, wl, seed: int, work: str):
        self.wl = wl
        self.seed = seed
        self.work = work
        self.out_dir = os.path.join(work, "out")
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference = None
        self.quality: dict = {}

    def setup(self, index: int, runner=None):
        """Inputs in a fresh directory plus one untimed warm-up call;
        returns (inputs, what ``runner`` returned for the whole set-up)."""
        made = []

        def body():
            made.append(self.wl.setup(self.seed, os.path.join(self.work, f"setup{index}")))
            self.call(made[0])

        timing = (runner or _timed)(body)
        return made[0], timing

    def call(self, inputs, runner=None):
        """One pipeline call; returns what ``runner(fn, *args)`` returned
        (by default its wall seconds), or None on failure. The traced run
        and the host-speed sampler pass their own runner."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        gc.collect()
        self.attempted += 1
        try:
            timing = (runner or _timed)(self.wl.call, inputs, self.out_dir)
            errors = self._check(inputs)
        except Exception:
            errors = ["pipeline call raised:\n" + traceback.format_exc()]
        if errors:
            self.failed += 1
            self.errors.extend(errors)
            return None
        return timing

    def record_check(self, error: str) -> None:
        """Count a check that is not a pipeline call; error "" is a pass."""
        self.attempted += 1
        if error:
            self.failed += 1
            self.errors.append(error)

    def _check(self, inputs) -> list[str]:
        arts = {}
        for name in self.wl.artifact_names:
            with open(os.path.join(self.out_dir, name), "rb") as fh:
                arts[name] = fh.read()
        if self.reference is None:
            self.reference = arts
            self.quality, errors = self.wl.score(inputs, arts)
            return errors
        return [
            f"{name} differs from the first call's (byte-identical rerun)"
            for name in arts
            if arts[name] != self.reference[name]
        ]


def _parity_check() -> str:
    """C-vs-Python edit-distance parity: bench_distance.py's own check at a
    small size. Returns "" on success, else the failure."""
    script = os.path.join(ROOT, "benchmarks", "bench_distance.py")
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("FINHYP_PURE_PYTHON", None)
    try:
        out = subprocess.run(
            [sys.executable, script, "--pairs", "2000", "--vocab", "2000", "--queries", "20"],
            capture_output=True,
            text=True,
            env=env,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "bench_distance.py parity check timed out"
    return "" if out.returncode == 0 else "bench_distance.py: " + out.stdout + out.stderr


def _python_backend_child(args) -> tuple[dict, str]:
    """Repeat this traced run in a child process forced onto the
    pure-Python backend; returns (its per-layer metrics, error or "")."""
    env = dict(os.environ, FINHYP_PURE_PYTHON="1")
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "1",
    ]
    try:
        out = subprocess.run(
            cmd, capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {}, "python-backend traced run timed out"
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return {}, "python-backend traced run failed:\n" + out.stdout + out.stderr
    metrics = json.loads(lines[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()}, ""


def _write_json(path: str, payload, indent=2) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=indent)
        fh.write("\n")


def _untraced(run: Run, seconds: float):
    """SETUPS set-ups, each followed by timed calls for an equal share of
    ``seconds`` (at least one call), so the timed calls spread over the
    whole run rather than one stretch of it. The host-speed sampler
    (hostspeed.py) runs throughout; the reported times are normalised by
    it, and the raw ones are kept as samples."""
    from hostspeed import Sampler

    sampler = Sampler()
    times = {"wall_s": [], "setup_s": []}
    inputs = None
    sampler.start()
    try:
        for index in range(SETUPS):
            if inputs is not None:
                shutil.rmtree(os.path.dirname(inputs.store_path))
            inputs, timing = run.setup(index, sampler.span)
            times["setup_s"].append(timing)
            deadline = time.perf_counter() + seconds / SETUPS
            while not run.failed:
                timing = run.call(inputs, sampler.span)
                if timing is None:
                    break
                times["wall_s"].append(timing)
                # Stop when the next call would end further past the
                # deadline than it would start before it: the timed calls
                # take about ``seconds`` in all.
                if time.perf_counter() + timing[0] / 2 >= deadline:
                    break
            if run.failed:
                break
    finally:
        sampler.stop()
    norm = {name: [t[1] for t in ts] for name, ts in times.items()}
    metrics = {
        "wall_s": statistics.median(norm["wall_s"]) if norm["wall_s"] else None,
        "setup_s": statistics.median(norm["setup_s"]),
        "peak_rss_mb": _peak_rss_mb(),
        **run.quality,
    }
    samples = {
        "wall_s": norm["wall_s"],
        "setup_s": norm["setup_s"],
        "wall_raw_s": [t[0] for t in times["wall_s"]],
        "setup_raw_s": [t[0] for t in times["setup_s"]],
        "host_spans": sampler.spans,
    }
    return inputs, metrics, samples


def _traced(run: Run, seconds: float):
    from tracing import Tracer

    inputs, _ = run.setup(0)
    tracer = Tracer()
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while not run.failed and (not traced or time.perf_counter() < deadline):
        wall = run.call(inputs)
        tracer.install()
        try:
            wall_traced = run.call(inputs, lambda fn, *a: tracer.call(len(traced) + 1, fn, *a))
        finally:
            tracer.uninstall()
        if wall is None or wall_traced is None:
            break
        untraced.append(wall)
        traced.append(wall_traced)
    per_run = [tracer.layer_metrics(r) for r in range(1, len(traced) + 1)]
    metrics = {
        name: statistics.median(m[name] for m in per_run)
        for name in per_run[0]
    } if per_run else {}
    metrics["embeddings.load_mb"] = tracer.load_peak_mb()
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0 if traced else None
    )
    samples = {"untraced_wall_s": untraced, "traced_wall_s": traced}
    t0 = min((s[3] for s in tracer.spans), default=0.0)
    spans = [
        [s[0], s[1], s[2], round(s[3] - t0, 7), round(s[4] - t0, 7), s[5]]
        for s in tracer.spans
    ]
    return inputs, metrics, samples, spans


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "finhyp", "__init__.py")):
        print(f"perfbench: finhyp sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import numpy as np

    from finhyp import distance
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              + ", ".join(WORKLOADS), file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    units = _metric_units("per_layer" if args.trace else "end_to_end")
    compiled = _compiled_kernel()
    tag = f"{wl.name}-seed{args.seed}-{distance.BACKEND}"
    work = os.path.join(OUT, "work", f"{tag}-pid{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    run = Run(wl, args.seed, work)
    backends = {}
    try:
        if args.trace:
            inputs, metrics, samples, spans = _traced(run, args.seconds)
            backends[distance.BACKEND] = metrics
            if compiled and distance.BACKEND == "c":
                backends["python"], err = _python_backend_child(args)
                run.record_check(err)
        else:
            inputs, metrics, samples = _untraced(run, args.seconds)
        store_mb = os.path.getsize(inputs.store_path) / 1e6
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if distance.BACKEND == "c":
        err = _parity_check()
        run.record_check(err and "C-vs-Python parity: " + err)
    if not run.failed:
        missing = sorted(k for k in units if metrics.get(k) is None)
        unlisted = sorted(set(metrics) - set(units))
        if missing or unlisted:
            run.record_check(f"metrics missing {missing}, not in BENCHMARK.json {unlisted}")
        else:
            run.record_check("")

    metadata = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "backend": distance.BACKEND,
        "compiled_kernel_importable": compiled,
        "backends_recorded": sorted(backends) if args.trace else [distance.BACKEND],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "git_commit": _git_commit(),
        "inputs": {
            "store_tokens": inputs.store_tokens,
            "store_dim": inputs.store_dim,
            "store_mb": store_mb,
            "terms": inputs.terms,
            "unique_oov_tokens": inputs.unique_oov,
        },
    }
    if not compiled:
        metadata["note"] = (
            "finhyp._editdist is not importable: only the python backend is "
            "recorded and the C-vs-Python parity check is skipped"
        )
    result = {
        "metadata": metadata,
        "metrics": {k: {"value": metrics.get(k), "unit": units[k]} for k in units},
        "samples": samples,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
    }
    results_dir = os.path.join(OUT, "results")
    _write_json(os.path.join(results_dir, f"{tag}-trace{args.trace}.json"), result)
    if args.trace:
        _write_json(
            os.path.join(results_dir, f"{tag}.trace.json"),
            {
                "metadata": metadata,
                "per_layer": {
                    b: {k: {"value": m.get(k), "unit": units[k]} for k in units}
                    for b, m in backends.items()
                },
                "span_fields": ["id", "parent", "name", "start_s", "end_s", "run"],
                "spans": spans,
            },
            indent=None,
        )

    for err in run.errors:
        print("CHECK FAILED: " + err, file=sys.stderr)
    print(f"# {wl.name} seed={args.seed} backend={distance.BACKEND} "
          f"commit={metadata['git_commit']} {json.dumps(metadata['inputs'])}")
    if "note" in metadata:
        print("# " + metadata["note"])
    for name, unit in units.items():
        value = metrics.get(name)
        print(f"{name:28s} {'n/a' if value is None else format(value, '14.6g'):>14s} {unit}")
    for name in ("wall_raw_s", "setup_raw_s"):
        if samples.get(name):
            print(f"{name:28s} {statistics.median(samples[name]):>14.6g} s "
                  "(median, not normalised)")
    print(f"{'error_rate':28s} {run.failed / run.attempted:>14.6g} frac "
          f"({run.failed} of {run.attempted} attempted)")
    if wl.name == "store-oov" and "accuracy" in metrics:
        print(f"{'oov_recovered_frac':28s} {metrics['accuracy']:>14.6g} frac")
    ok = run.failed == 0
    print(json.dumps({
        "correct": ok,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": result["metrics"],
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
