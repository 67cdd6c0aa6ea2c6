#!/usr/bin/env python3
"""Throughput comparison of the edit-distance backends.

Runs every available backend on identical workloads: distances from random
words to 17 fixed targets (the shape of the edit-feature block, every term
against every class label), and nearest-word scans over a synthetic
vocabulary (the hot path of OOV resolution). The backends are the compiled
Cython kernel when it is built, the pure-Python twin, and the numpy batch
DPs that ``finhyp.distance`` uses without the kernel: one DP per target over
all words, and scans of the vocabulary packed once (packing is timed with
the scans). Exits non-zero when the backends' outputs disagree.

Usage: python3 benchmarks/bench_distance.py [--pairs N] [--vocab N] [--queries N]
"""
import argparse
import random
import string
import time

from finhyp import _editdist_np, _editdist_py

try:
    from finhyp import _editdist
except ImportError:
    _editdist = None

TARGETS = 17


def make_words(rng, count, min_len=3, max_len=14):
    return [
        "".join(rng.choices(string.ascii_lowercase, k=rng.randint(min_len, max_len)))
        for _ in range(count)
    ]


def scalar_pairs(impl):
    def run(texts, targets):
        return [[impl.levenshtein(t, g) for g in targets] for t in texts]

    return run


def scalar_scans(impl):
    def run(queries, vocab):
        return [impl.nearest(q, vocab) for q in queries]

    return run


def numpy_pairs(texts, targets):
    return _editdist_np.levenshtein_matrix(texts, targets).tolist()


def numpy_scans(queries, vocab):
    packed = _editdist_np.PackedWords(vocab)
    return [packed.nearest(q) for q in queries]


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=200_000)
    parser.add_argument("--vocab", type=int, default=20_000)
    parser.add_argument("--queries", type=int, default=200)
    args = parser.parse_args()

    rng = random.Random(12345)
    targets = make_words(rng, TARGETS)
    texts = make_words(rng, max(1, args.pairs // TARGETS))
    vocab = sorted(set(make_words(rng, args.vocab)))
    queries = make_words(rng, args.queries)
    n_pairs = len(texts) * TARGETS

    backends = [
        ("python", scalar_pairs(_editdist_py), scalar_scans(_editdist_py)),
        ("numpy", numpy_pairs, numpy_scans),
    ]
    if _editdist is not None:
        backends.insert(0, ("c", scalar_pairs(_editdist), scalar_scans(_editdist)))
    else:
        print("compiled kernel not built; timing the python and numpy backends")

    results = {}
    for name, pairs_fn, scans_fn in backends:
        t_pairs, out_pairs = timed(pairs_fn, texts, targets)
        t_near, out_near = timed(scans_fn, queries, vocab)
        results[name] = (t_pairs, t_near, out_pairs, out_near)
        print(
            f"{name:>7}: {n_pairs / t_pairs:>12,.0f} pairs/s"
            f"   {args.queries / t_near:>8,.1f} nearest-scans/s"
            f"   ({len(vocab):,}-word vocabulary)"
        )

    ref = results["python"]
    for name, res in results.items():
        if res[2:] != ref[2:]:
            raise SystemExit(f"{name} and python outputs disagree; benchmark aborted")
    for name, res in results.items():
        if name != "python":
            print(
                f"{name} speedup over python: {ref[0] / res[0]:.1f}x on pairs, "
                f"{ref[1] / res[1]:.1f}x on nearest scans"
            )


if __name__ == "__main__":
    main()
