"""Benchmark for conic-nf: certify, solve, minimise and corpus workloads.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ./src.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  Every time is scaled to a reference
machine speed measured during the run (see CALIBRATION_REF_S).  Traces and
full results are written to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

# Fresh interpreters that time the set-up on their own, half before the
# worker and half after it, so that one slow moment of a shared machine does
# not set them all; with the worker's own set-up the reported setup_s is the
# median of SETUP_PROBES + 1 samples.
SETUP_PROBES = 6
# Each run starts from the same hash seed, so set and dict layouts, and with
# them the program's caches, start the same way.
HASH_SEED = "0"
WORKER_TIMEOUT_S = 170

# The shared machine's speed swings by up to a half over seconds to minutes
# (a fixed pure-Python loop took 0.13-0.22 s from one second to the next, with
# no steal time reported), which no run length averages away.  So every run
# also times a fixed slice of the benchmark's own Fraction and integer work,
# about once per CALIBRATE_EVERY_S of request time, and every time it reports
# is scaled by CALIBRATION_REF_S / (mean slice time): the times are those of a
# machine on which one slice takes CALIBRATION_REF_S, about what it takes on a
# quiet 2-core 2.1 GHz x86-64 machine.  The raw times are kept in the result
# file.  A change to the program does not touch the slice, so it shows in full.
# Slices run after set-up too, in every set-up probe.
SETUP_SLICES = 8
CALIBRATION_REF_S = 0.004
CALIBRATE_EVERY_S = 0.1


def _child_env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env.pop("PYTHONPATH", None)
    return env


def _child(args, timeout):
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__)] + args,
        env=_child_env(),
        stdout=subprocess.PIPE,
        timeout=timeout,
        check=True,
        text=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- machine speed --------------------------------------------------------------


def calibration_slice():
    """Seconds taken by a fixed piece of pure-Python work of the program's
    kind (Fractions, integers, tuples, a dict); the garbage collector is off
    meanwhile, so the program's heap does not change what it costs."""
    from fractions import Fraction

    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        for i in range(1, 400):
            q = Fraction(i * i + 1, 2 * i + 3)
            r = q * q + Fraction(i, 7) - q / 3
            table[i % 31] = (r.numerator % 1009, r.denominator % 1013)
        x = 3**200
        for i in range(300):
            x = (x * x + i) % (10**120 + 7)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed_scale(slices):
    """The factor that turns this run's times into reference-machine times."""
    return CALIBRATION_REF_S / statistics.fmean(slices)


# -- the program's side --------------------------------------------------------


def _import_program():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import conic_nf
    import conic_nf.cli

    if not os.path.abspath(conic_nf.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"conic_nf imported from {conic_nf.__file__}, not from {SRC}")
    return conic_nf


def _to_program(conic_nf, d, x):
    K = conic_nf.make_field(d)
    return K.element(x[0]) if d is None else K.element(x[0], x[1])


def _equation(conic_nf, d, coeffs):
    return conic_nf.ConicEquation(*(_to_program(conic_nf, d, c) for c in coeffs))


def _triple(conic_nf, d, point):
    return conic_nf.SolutionTriple(*(_to_program(conic_nf, d, t) for t in point))


def _corpus_argv(path):
    return ["corpus", path, "--jobs", "2", "--json"]


def _warmup(workload):
    """Set-up: import the program and serve one request not in the list."""
    import workloads

    t0 = time.perf_counter()
    conic_nf = _import_program()
    spec = workloads.WARMUP[workload]
    if workload == "certify":
        conic_nf.check_solvable(_equation(conic_nf, *spec))
    elif workload == "solve":
        conic_nf.solve_conic(_equation(conic_nf, *spec))
    elif workload == "minimise":
        d, coeffs, start = spec
        conic_nf.reduce_solution(_equation(conic_nf, d, coeffs), _triple(conic_nf, d, start))
    else:
        path = os.path.join(OUT, "warmup.corpus")
        code = conic_nf.cli.run(_corpus_argv(path), out=io.StringIO())
        if code != 0:
            raise RuntimeError(f"warm-up corpus exited with {code}")
    return conic_nf, time.perf_counter() - t0


# -- requests and their checks -------------------------------------------------


def _prepare(conic_nf, workload, req, path):
    """A zero-argument call into the program for one request.  Module
    attributes are looked up at call time, so traced wrappers are used."""
    mods = sys.modules
    if workload == "corpus":
        argv = _corpus_argv(path)

        def call():
            buf = io.StringIO()
            return mods["conic_nf.cli"].run(argv, out=buf), buf.getvalue()

        return call
    eq = _equation(conic_nf, req.d, req.coeffs)
    if workload == "certify":
        return lambda: mods["conic_nf.solvability"].check_solvable(eq)
    if workload == "solve":
        return lambda: mods["conic_nf.descent"].solve_conic(eq)
    start = _triple(conic_nf, req.d, req.start)
    return lambda: mods["conic_nf.holzer"].reduce_solution(eq, start)


def _coords(x):
    """The (u, v) coordinates the program returns, as plain Fractions."""
    import oracle

    return oracle.elem(x.u, x.v)


def _check(workload, req, out):
    """None when the output is right, else what is wrong with it."""
    import oracle
    from workloads import fracs

    if workload == "certify":
        return None if out.solvable == req.expect else f"verdict {out.solvable}, expected {req.expect}"
    if workload in ("solve", "minimise"):
        point = tuple(_coords(t) for t in (out.x, out.y, out.z))
        coeffs = fracs(req.coeffs)
        if not all(oracle.is_integral(t) for t in point):
            return f"non-integral output {point}"
        if not oracle.is_solution(req.d, coeffs, point):
            return f"{point} is not a nontrivial solution"
        if workload == "minimise" and not oracle.meets_holzer_bound(req.d, coeffs, point[2]):
            return f"{point} misses Holzer's bound"
        return None
    code, text = out
    if code != 0:
        return f"corpus exit status {code}"
    rows = sorted((json.loads(r) for r in text.splitlines()), key=lambda r: r["line"])
    if len(rows) != len(req.lines):
        return f"{len(rows)} result lines for {len(req.lines)} corpus lines"
    for row, (_, d, coeffs, solvable) in zip(rows, req.lines):
        if row["status"] != "ok":
            return f"line {row['line']}: {row['status']} {row['detail']}"
        verdict, _, rest = row["detail"].partition(" ")
        if verdict != ("solvable" if solvable else "unsolvable"):
            return f"line {row['line']}: {verdict}"
        if solvable:
            point = tuple(oracle.parse(d, t) for t in rest.strip("()").split(", "))
            if not oracle.is_solution(d, fracs(coeffs), point):
                return f"line {row['line']}: {rest} is not a solution"
    return None


def _write_warmup_corpus():
    import workloads

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "warmup.corpus"), "w") as fh:
        fh.write(workloads.WARMUP_CORPUS)


def _write_corpus(requests, seed):
    folder = os.path.join(OUT, f"corpus-{seed}")
    shutil.rmtree(folder, ignore_errors=True)
    os.makedirs(folder)
    _write_warmup_corpus()
    paths = []
    for i, req in enumerate(requests):
        path = os.path.join(folder, f"{i:05d}.corpus")
        with open(path, "w") as fh:
            fh.write("".join(text + "\n" for text, *_ in req.lines))
        paths.append(path)
    return paths


# -- roles ---------------------------------------------------------------------


def probe(args):
    if args.workload == "corpus":
        _write_warmup_corpus()
    _, setup = _warmup(args.workload)
    slices = [calibration_slice() for _ in range(SETUP_SLICES)]
    print(json.dumps({"setup_s": setup * speed_scale(slices), "raw_setup_s": setup}))


def worker(args):
    import workloads

    requests = workloads.build(args.workload, args.seed, args.seconds)
    os.makedirs(OUT, exist_ok=True)
    paths = _write_corpus(requests, args.seed) if args.workload == "corpus" else [None] * len(requests)
    conic_nf, setup = _warmup(args.workload)
    calls = [_prepare(conic_nf, args.workload, r, p) for r, p in zip(requests, paths)]

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    results = []
    slices = [calibration_slice() for _ in range(SETUP_SLICES)]
    setup_scale = speed_scale(slices)
    slice_at = [-1] * len(slices)  # the request each slice ran after
    since = 0.0
    wall0 = time.perf_counter()
    for i, call in enumerate(calls):
        if tracer:
            tracer.request = i
        t0 = time.perf_counter()
        try:
            out, error = call(), None
        except Exception as exc:  # a failed request is counted, not fatal
            out, error = None, exc
        dt = time.perf_counter() - t0
        results.append((dt, out, error))
        since += dt
        while since >= CALIBRATE_EVERY_S:
            since -= CALIBRATE_EVERY_S
            slices.append(calibration_slice())
            slice_at.append(i)
    wall = time.perf_counter() - wall0
    scale = speed_scale(slices)

    latencies, failures, wrong = [], [], []
    cli_lines = 0
    for req, (dt, out, error) in zip(requests, results):
        if error is not None:
            failures.append((req.cell, type(error).__name__, str(error)))
            if req.cell != "stalled":
                print(f"unexpected failure on {req}: {error!r}", file=sys.stderr)
            continue
        latencies.append(dt)
        problem = _check(args.workload, req, out)
        if problem:
            wrong.append((req, problem))
            print(f"wrong output on {req}: {problem}", file=sys.stderr)
        if args.workload == "corpus":
            cli_lines += len(out[1].splitlines())

    cells = {}
    for req, (dt, _, error) in zip(requests, results):
        if error is None:
            cells.setdefault(f"{req.cell}:{req.d}", []).append(dt)
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    busy = sum(dt for dt, _, _ in results)  # wall time minus the slices
    raw = {
        "ops_per_s": len(latencies) / busy,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": deciles[8] * 1e3,
        "setup_s": setup,
        "wall_s": wall,
    }
    e2e = {
        "ops_per_s": raw["ops_per_s"] / scale,
        "latency_p50_ms": raw["latency_p50_ms"] * scale,
        "latency_p90_ms": raw["latency_p90_ms"] * scale,
        "setup_s": setup * setup_scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    result = {
        "correct": not wrong,
        "attempted": len(requests),
        "failed": len(failures),
        "end_to_end": e2e,
        "raw": raw,
        "speed_scale": scale,
        "slices_ms": [[at, round(x * 1e3, 4)] for at, x in zip(slice_at, slices)],
        "request_ms": [round(dt * 1e3, 3) for dt, _, _ in results],
        "above_p90": sum(1 for x in latencies if x > deciles[8]),
        "failures": failures[:20],
        "cells_ms": {k: [round(statistics.median(v) * 1e3, 2), round(max(v) * 1e3, 2), len(v)] for k, v in cells.items()},
        "latencies_ms": [round(x * 1e3, 3) for x in latencies],
    }
    if tracer:
        from tracer import layer_metrics

        layers = layer_metrics(tracer.spans, len(requests), cli_lines)
        result["per_layer"] = {k: v * scale if k.endswith("_s") else v for k, v in layers.items()}
        _write_trace(tracer, args)
    print(json.dumps(result))


def _write_trace(tracer, args):
    path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl")
    keys = ("id", "name", "parent", "request", "thread", "start", "end", "cpu_s")
    with open(path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def launcher(args):
    if not os.path.isfile(os.path.join(SRC, "conic_nf", "__init__.py")):
        print(f"error: the program's source is not at {SRC}", file=sys.stderr)
        return 2
    common = ["--workload", args.workload]
    sample_setup = lambda: _child(["--role", "probe"] + common, 30)["setup_s"]
    setups = [sample_setup() for _ in range(SETUP_PROBES // 2)]
    run = _child(
        ["--role", "worker", "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)] + common,
        WORKER_TIMEOUT_S,
    )
    setups += [sample_setup() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    setups.append(run["end_to_end"]["setup_s"])
    run["end_to_end"]["setup_s"] = statistics.median(setups)
    run["setup_samples_s"] = setups
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(run, fh)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    values = run["per_layer"] if args.trace else run["end_to_end"]
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    summary = {k: run[k] for k in ("correct", "attempted", "failed")}
    summary["metrics"] = metrics
    print(json.dumps(summary))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("certify", "solve", "minimise", "corpus"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("launcher", "worker", "probe"), default="launcher")
    args = parser.parse_args(argv)
    if args.role == "probe":
        probe(args)
        return 0
    if args.role == "worker":
        worker(args)
        return 0
    return launcher(args)


if __name__ == "__main__":
    sys.exit(main())
