"""Time this checkout against another one in one process, request by request.

    python3 tools/ab_time.py PARENT_DIR --workload minimise [--seeds 1 2 3] [--passes 5]

Run from the root of a checkout.  Both checkouts' conic_nf packages are
loaded side by side (each under its own sys.modules entries, swapped in
before each call), and the requests are the benchmark's own: the inputs of
the given seeds from perfbench/workloads.py, prepared by perfbench/run.py's
helpers (imported, not changed).  Each pass runs every request once in
each checkout, back to back and in alternating order, so a slow moment of
a shared machine lands on both; a request's time is its best over the
passes.  Requests that raise (the
stalled cells) are timed too.

It prints, per cell (kind and field, as in run.py's cells_ms), the mean
best time in both checkouts and their ratio, then the p50, p90 and total
over all requests.  The times are raw seconds of this machine, not scaled
by the benchmark's calibration slice: only the ratios carry over.
"""

from __future__ import annotations

import argparse
import importlib
import os
import statistics
import sys
import tempfile
import time

ROOT = os.getcwd()
SECONDS = 20  # the benchmark's default run length sets the number of inputs


def _load(checkout):
    """The sys.modules entries of checkout's conic_nf, imported afresh."""
    src = os.path.join(os.path.abspath(checkout), "src")
    for name in [m for m in sys.modules if m.split(".")[0] == "conic_nf"]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        package = importlib.import_module("conic_nf")
        importlib.import_module("conic_nf.cli")
    finally:
        sys.path.remove(src)
    if not os.path.abspath(package.__file__).startswith(src + os.sep):
        raise RuntimeError(f"conic_nf imported from {package.__file__}, not from {src}")
    return {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "conic_nf"}


def _calls(run, modules, workload, requests, paths):
    sys.modules.update(modules)
    return [run._prepare(modules["conic_nf"], workload, r, p) for r, p in zip(requests, paths)]


def _timed(modules, call):
    sys.modules.update(modules)  # a call-time import must find this tree
    t0 = time.perf_counter()
    try:
        call()
    except Exception:  # a failing request is timed like any other
        pass
    return time.perf_counter() - t0


def _summary(times):
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    return statistics.median(times), deciles[8], sum(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="root of the other checkout")
    parser.add_argument("--workload", required=True, choices=("certify", "solve", "minimise", "corpus"))
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(args.parent, "src", "conic_nf")):
        parser.error(f"{args.parent} holds no src/conic_nf")
    if not os.path.isdir(os.path.join(ROOT, "src", "conic_nf")):
        parser.error("run from the root of a checkout")

    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import run
    import workloads

    requests = [r for seed in args.seeds for r in workloads.build(args.workload, seed, SECONDS)]
    trees = {"parent": _load(args.parent), "here": _load(ROOT)}
    with tempfile.TemporaryDirectory() as folder:
        paths = [None] * len(requests)
        if args.workload == "corpus":
            paths = [os.path.join(folder, f"{i:05d}.corpus") for i in range(len(requests))]
            for path, req in zip(paths, requests):
                with open(path, "w") as fh:
                    fh.write("".join(text + "\n" for text, *_ in req.lines))
        calls = {k: _calls(run, mods, args.workload, requests, paths) for k, mods in trees.items()}
        best = {k: [float("inf")] * len(requests) for k in trees}
        for n in range(args.passes):
            for i in range(len(requests)):
                # Which tree goes first alternates, so neither gains by going second.
                for k in ("parent", "here") if (n + i) % 2 else ("here", "parent"):
                    best[k][i] = min(best[k][i], _timed(trees[k], calls[k][i]))

    cells = {}
    for i, req in enumerate(requests):
        cells.setdefault(f"{req.cell}:{req.d}", []).append(i)
    print(f"{args.workload}, seeds {args.seeds}: {len(requests)} requests, best of {args.passes} passes")
    print(f"{'cell':<28}{'n':>5}{'parent us':>12}{'here us':>12}{'ratio':>8}")
    for cell, ids in cells.items():
        p, h = (statistics.fmean(best[k][i] for i in ids) * 1e6 for k in ("parent", "here"))
        print(f"{cell:<28}{len(ids):>5}{p:>12.1f}{h:>12.1f}{h / p:>8.3f}")
    (p50, p90, total), (h50, h90, htotal) = (_summary(best[k]) for k in ("parent", "here"))
    for name, p, h in (("p50 ms", p50, h50), ("p90 ms", p90, h90), ("total s", total, htotal)):
        scale = 1 if name == "total s" else 1e3
        print(f"{name:<33}{p * scale:>12.3f}{h * scale:>12.3f}{h / p:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
