"""Spans around the calls into each module's public functions, recorded
from outside the program, and the per-layer metrics computed from them.

Each traced function is replaced by a wrapper at every module attribute of
the package through which other code reaches it, so calls made through a
module global (recursive descent, cli -> solvability, ...) are seen too.
A span is (id, name, parent id, request id, thread id, start, end, thread
CPU seconds).  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time

# Span name -> the module that defines the function.
TRACED = {
    "solvability.check_solvable": "conic_nf.solvability",
    "residues.local_solvable_at_two": "conic_nf.residues",
    "residues.sqrt_mod_odd_prime_power": "conic_nf.residues",
    "residues.sqrt_mod_ideal": "conic_nf.residues",
    "residues.closest_in_coset": "conic_nf.residues",
    "ideals.factor_ideal": "conic_nf.ideals",
    "ideals.valuation": "conic_nf.ideals",
    "ideals.square_decompose": "conic_nf.ideals",
    "ideals.is_principal": "conic_nf.ideals",
    "lattice.lll_reduce": "conic_nf.lattice",
    "descent.solve_conic": "conic_nf.descent",
    "descent.legendre_descent": "conic_nf.descent",
    "descent.solve_pell": "conic_nf.descent",
    "holzer.reduce_solution": "conic_nf.holzer",
    "holzer.is_reduced": "conic_nf.holzer",
    "fields.nearest_integer": "conic_nf.fields",
    "fields.euclid_divmod": "conic_nf.fields",
    "fields.gcd_elems": "conic_nf.fields",
    "fields.elem_sqrt": "conic_nf.fields",
    "cli.run": "conic_nf.cli",
}

class Tracer:
    def __init__(self):
        self.spans = []
        self.request = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()  # created on the thread that sends requests

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self):
        """Wrap every traced function at every attribute that holds it."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("conic_nf") and m]
        for name, home in TRACED.items():
            fn = getattr(sys.modules[home], name.split(".", 1)[1])
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)

    def _wrap(self, name, fn):
        spans = self.spans
        ids = self._ids
        main_stack = self._main_stack
        perf, cpu = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # A pool thread's first span belongs to whatever the main thread
            # is inside, i.e. the cli.run call that started the pool.
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            sid = next(ids)
            stack.append(sid)
            c0, t0 = cpu(), perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1, c1 = perf(), cpu()
                stack.pop()
                spans.append((sid, name, parent, self.request, threading.get_ident(), t0, t1, c1 - c0))

        return wrapper


def _union(intervals):
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def layer_metrics(spans, requests: int, cli_lines: int) -> dict:
    """The per-layer metrics of BENCHMARK.json: totals per run, except the
    three ratios (checks_per_request, steps_per_solve / steps_per_reduce and
    parallelism)."""
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s[2], []).append(s)

    def outermost(s):
        p = by_id.get(s[2])
        while p is not None:
            if p[1] == s[1]:
                return False
            p = by_id.get(p[2])
        return True

    calls = {}
    incl = {}
    for s in spans:
        calls[s[1]] = calls.get(s[1], 0) + 1
        if outermost(s):
            incl[s[1]] = incl.get(s[1], 0.0) + (s[6] - s[5])

    def self_time(prefix):
        total = 0.0
        for s in spans:
            if s[1].startswith(prefix):
                kids = [(k[5], k[6]) for k in children.get(s[0], [])]
                total += (s[6] - s[5]) - _union(kids)
        return total

    n = lambda name: calls.get(name, 0)
    t = lambda name: incl.get(name, 0.0)
    ratio = lambda a, b: a / b if b else 0.0

    cli_spans = [s for s in spans if s[1] == "cli.run"]
    cli_wall = sum(s[6] - s[5] for s in cli_spans)
    cli_busy = sum(k[7] for s in cli_spans for k in children.get(s[0], []))

    values = {
        "solvability.check_calls": n("solvability.check_solvable"),
        "solvability.check_s": t("solvability.check_solvable"),
        "solvability.checks_per_request": ratio(n("solvability.check_solvable"), requests),
        "residues.dyadic_calls": n("residues.local_solvable_at_two"),
        "residues.dyadic_s": t("residues.local_solvable_at_two"),
        "residues.odd_roots_s": t("residues.sqrt_mod_odd_prime_power"),
        "residues.sqrt_mod_ideal_calls": n("residues.sqrt_mod_ideal"),
        "residues.sqrt_mod_ideal_s": t("residues.sqrt_mod_ideal"),
        "residues.closest_in_coset_calls": n("residues.closest_in_coset"),
        "residues.closest_in_coset_s": t("residues.closest_in_coset"),
        "ideals.factor_ideal_calls": n("ideals.factor_ideal"),
        "ideals.factor_ideal_s": t("ideals.factor_ideal"),
        "ideals.valuation_calls": n("ideals.valuation"),
        "ideals.valuation_s": t("ideals.valuation"),
        "ideals.square_decompose_s": t("ideals.square_decompose"),
        "ideals.is_principal_s": t("ideals.is_principal"),
        "lattice.lll_calls": n("lattice.lll_reduce"),
        "lattice.lll_s": t("lattice.lll_reduce"),
        "descent.solve_calls": n("descent.solve_conic"),
        "descent.self_s": self_time("descent."),
        "descent.steps_per_solve": ratio(n("descent.legendre_descent"), n("descent.solve_conic")),
        "descent.pell_calls": n("descent.solve_pell"),
        "descent.pell_s": t("descent.solve_pell"),
        "holzer.reduce_calls": n("holzer.reduce_solution"),
        "holzer.self_s": self_time("holzer."),
        "holzer.steps_per_reduce": ratio(
            n("holzer.is_reduced") - n("holzer.reduce_solution"), n("holzer.reduce_solution")
        ),
        "fields.nearest_integer_calls": n("fields.nearest_integer"),
        "fields.nearest_integer_s": t("fields.nearest_integer"),
        "fields.euclid_divmod_calls": n("fields.euclid_divmod"),
        "fields.euclid_divmod_s": t("fields.euclid_divmod"),
        "fields.gcd_s": t("fields.gcd_elems"),
        "fields.elem_sqrt_calls": n("fields.elem_sqrt"),
        "fields.elem_sqrt_s": t("fields.elem_sqrt"),
        "cli.lines": cli_lines,
        "cli.self_s": self_time("cli."),
        "cli.parallelism": ratio(cli_busy, cli_wall),
    }
    return values
