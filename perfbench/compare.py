#!/usr/bin/env python3
"""Compare two result files written by perfbench/run.py.

    python3 perfbench/compare.py BASE.json HEAD.json

Prints each metric of both files with the relative change. Refuses, with
exit code 2, to compare results recorded under different edit-distance
backends, workloads or trace modes: their numbers measure different code.
"""
import json
import sys

MUST_MATCH = ("backend", "workload", "trace")


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    results = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            results.append(json.load(fh))
    base, head = results
    for key in MUST_MATCH:
        if base["metadata"][key] != head["metadata"][key]:
            print(
                f"refusing to compare: {key} {base['metadata'][key]!r} "
                f"vs {head['metadata'][key]!r}",
                file=sys.stderr,
            )
            return 2
    for key in ("git_commit", "seed", "nproc", "inputs"):
        print(f"# {key}: {base['metadata'][key]} -> {head['metadata'][key]}")
    for name, b in base["metrics"].items():
        h = head["metrics"].get(name, {}).get("value")
        if h is None:
            print(f"{name:28s} {b['value']:>14.6g} {'missing':>14s} {b['unit']}")
            continue
        change = f"{(h - b['value']) / b['value']:+.2%}" if b["value"] else ""
        print(f"{name:28s} {b['value']:>14.6g} {h:>14.6g} {b['unit']:6s} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
