"""Map which lines of src/conic_nf the program's inputs reach.

    python3 tools/reach.py [--tests]

Run from the root of a checkout.  A sys.settrace line tracer, limited to
src/conic_nf and started before conic_nf is first imported, records the
lines that each source reaches:

- program: the inputs of the four benchmark workloads for seeds 1-3, from
  perfbench/workloads.py, served in-process by perfbench/run.py's helpers
  (imported, not changed), and the commands of the README's "Command line"
  block, run through cli.run;
- tier-1 (with --tests): the tests under tests/, run by pytest in this
  process.  A plugin re-arms the tracer at each test phase: an alarm that
  fires inside the trace function makes CPython drop the tracer.

Lines are those of function bodies, from the line tables of the compiled
code objects; module and class bodies run at import and are not counted.
A function body that runs at import counts as reached by every source.

It prints, per module, the executable lines and how many of them the
program reaches, tier-1 reaches, tier-1 only reaches and no source
reaches.  It then lists each function that no program source reaches, with
its reason from UNREACHED below: the seed test that pins it, the exported
API it belongs to or the user path it serves.  It exits 1 when such a
function is missing from UNREACHED, or when an entry of UNREACHED names a
function that a program source now reaches or that is gone, and 0
otherwise.  The program pass takes about 30 s on a 2-core x86-64 Xeon;
--tests adds tier-1, which runs about three times slower under the tracer
than without it.
"""

from __future__ import annotations

import argparse
import ast
import inspect
import io
import os
import shlex
import sys
import tempfile
import types

ROOT = os.getcwd()
PKG = os.path.join(ROOT, "src", "conic_nf")
SEEDS = (1, 2, 3)
SECONDS = 20  # the benchmark's default run length sets the number of inputs

_ELEMENT = "exported API: conic_nf.FieldElement"
_FIELD = "exported API: conic_nf.FieldDescriptor"

# Every function that no workload input and no README command reaches, with
# the reason it stays: a seed test (one of the first commit's tests) that
# calls it, the exported API it belongs to or the user path it serves.
UNREACHED = {
    "cli.main": "user path: the conic-nf console script, which CI's README step runs",
    "descent._enumerate_small": "seed test test_descent.py::test_solve_pell_examples, through solve_pell",
    "descent.compose_solution": "seed test test_descent.py::test_compose_solution_identity",
    "descent.solve_pell": "seed test test_descent.py::test_solve_pell_examples",
    "descent.to_norm_form": "seed test test_descent.py::test_to_norm_form",
    "fields.FieldDescriptor.__reduce__": _FIELD + ": copy and pickle give the cached descriptor",
    "fields.FieldDescriptor.__repr__": _FIELD + ": the field named in error messages",
    "fields.FieldDescriptor.zero": _FIELD + "; seed test test_fields.py::test_gcd_examples",
    "fields.FieldElement.__pow__": _ELEMENT,
    "fields.FieldElement.__repr__": _ELEMENT,
    "fields.FieldElement.__rsub__": _ELEMENT,
    "fields.FieldElement.__rtruediv__": _ELEMENT,
    "fields.FieldElement.conj": _ELEMENT + "; seed test test_fields.py::test_norm_multiplicativity_and_trace_additivity",
    "fields.FieldElement.trace": _ELEMENT + "; seed test test_fields.py::test_norm_multiplicativity_and_trace_additivity",
    "fields.FieldElement.u": _ELEMENT + "; seed test test_parametrize.py::test_param_solution_known_values",
    "fields.FieldElement.v": _ELEMENT + "; seed test test_fields.py::test_nearest_integer_certified_minimality",
    "fields.IntSurd.__float__": "seed test test_acceptance.py::test_acceptance_2_reference_descent_instance",
    "fields.IntSurd.__hash__": "the value of size_sq (seed-pinned), hashable beside its __eq__",
    "fields.IntSurd.__repr__": "the value of size_sq (seed-pinned)",
    "fields.Surd.__init__": "seed test test_fields.py::test_surd_comparisons",
    "fields.divides": "seed test test_fields.py::test_gcd_examples",
    "fields.elem_size": "seed test test_fields.py::test_size_examples",
    "fields.elem_sqrt": "seed test test_fields.py::test_elem_sqrt; serves solve_pell",
    "fields.euclid_divmod": "seed test test_fields.py::test_euclid_divmod_examples",
    "fields.is_unit": "seed test test_fields.py::test_is_unit",
    "fields.nearest_integer": "seed test test_acceptance.py::test_acceptance_8_property_suites",
    "fields.normalize_associate": "seed test test_fields.py::test_normalize_associate_deterministic",
    "fields.size_lt_size_minus_one": "seed test test_fields.py::test_size_examples",
    "fields.size_sq": "seed test test_acceptance.py::test_acceptance_8_property_suites",
    "holzer.xgcd": "seed test test_holzer.py::test_xgcd_identity",
    "ideals.Ideal.__eq__": "seed test test_ideals.py::test_factor_ideal_reconstructs",
    "ideals.Ideal.__hash__": "keeps Ideal hashable beside its __eq__",
    "ideals.Ideal.__pow__": "seed test test_ideals.py::test_factor_ideal_reconstructs",
    "ideals.Ideal.__repr__": "the ideal named in error messages",
    "ideals.Ideal.contains": "seed test test_ideals.py::test_ideal_hnf_and_membership",
    "ideals.Ideal.reduce": "seed test test_residues.py::test_sqrt_mod_prime_random_against_enumeration",
    "ideals.Ideal.residues": "seed test test_residues.py::test_sqrt_mod_ideal_minimality_small_moduli",
    "ideals.PrimeIdeal.ideal": "seed test test_ideals.py::test_factor_ideal_reconstructs",
    "ideals.ideal_from_generators": "seed test test_ideals.py::test_is_principal_examples",
    "ideals.kronecker": "seed test test_ideals.py::test_kronecker",
    "lattice._dot": "seed test test_lattice.py::test_short_pair_congruence_property, through pair_measure",
    "lattice._gso": "seed test test_lattice.py::test_lll_random_properties",
    "lattice.pair_measure": "seed test test_lattice.py::test_short_pair_congruence_property",
    "parametrize.solutions_cover": "seed test test_parametrize.py::test_solutions_cover_solver_output",
    "residues.sqrt_mod_prime": "seed test test_residues.py::test_sqrt_mod_prime_examples",
    "solvability.ConicEquation.evaluate": "seed test test_solvability.py::test_check_solvable_field_example; the reference of verify's differential test",
    "solvability.embedding_condition": "seed test test_solvability.py::test_embedding_condition",
}


# -- the tracer ----------------------------------------------------------------

_hits: set = set()


def _line(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(PKG + os.sep) else None


def _traced(fn, *args):
    """The lines of src/conic_nf that fn(*args) reaches, in this thread:
    the program starts no thread."""
    global _hits
    _hits = set()
    sys.settrace(_call)
    try:
        fn(*args)
    finally:
        sys.settrace(None)
    return _hits


# -- the sources ---------------------------------------------------------------


def _import_program():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import conic_nf
    import conic_nf.cli  # noqa: F401  (run.py imports it too)

    if not os.path.abspath(conic_nf.__file__).startswith(PKG + os.sep):
        raise RuntimeError(f"conic_nf imported from {conic_nf.__file__}, not from {PKG}")


def _workloads(folder):
    """Serve every request of the four workloads for SEEDS, as run.py does."""
    import conic_nf

    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import run
    import workloads

    for workload in ("certify", "solve", "minimise", "corpus"):
        for seed in SEEDS:
            for i, req in enumerate(workloads.build(workload, seed, SECONDS)):
                path = None
                if workload == "corpus":
                    path = os.path.join(folder, f"{seed}-{i:05d}.corpus")
                    with open(path, "w") as fh:
                        fh.write("".join(text + "\n" for text, *_ in req.lines))
                try:
                    run._prepare(conic_nf, workload, req, path)()
                except Exception:  # a request that fails on purpose reaches lines too
                    pass


def readme_commands():
    """The argv lists of the README's "Command line" block."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("conic-nf ")]


def _readme(folder):
    """Run the README commands through cli.run in folder, so that files they
    write land there; an argument naming a file of the checkout is made
    absolute."""
    import conic_nf.cli

    here = os.getcwd()
    os.chdir(folder)
    try:
        for argv in readme_commands():
            argv = [os.path.join(ROOT, a) if os.path.isfile(os.path.join(ROOT, a)) else a for a in argv]
            code = conic_nf.cli.run(argv, out=io.StringIO())
            if code != 0:
                raise RuntimeError(f"README command {argv} exited with {code}")
    finally:
        os.chdir(here)


def _program():
    with tempfile.TemporaryDirectory() as folder:
        _workloads(folder)
        _readme(folder)


class _Rearm:
    """A pytest plugin that arms the tracer at each test phase."""

    def pytest_runtest_setup(self, item):
        sys.settrace(_call)

    def pytest_runtest_call(self, item):
        sys.settrace(_call)

    def pytest_runtest_teardown(self, item):
        sys.settrace(_call)


def _tier1():
    import pytest

    code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", "tests"],
                       plugins=[_Rearm()])
    print(f"(tier-1 exited with {int(code)} under the tracer)\n")


# -- the map ---------------------------------------------------------------------


def _functions(path):
    """(qualname, first line, last line) of each function of the module at
    path, methods of its classes included; a nested function belongs to the
    function that holds it."""
    with open(path) as fh:
        tree = ast.parse(fh.read())

    def walk(body, prefix):
        for node in body:
            if isinstance(node, ast.FunctionDef):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield prefix + node.name, first, node.end_lineno
            elif isinstance(node, ast.ClassDef):
                yield from walk(node.body, prefix + node.name + ".")

    return list(walk(tree.body, ""))


def _body_lines(path):
    """The lines of path's function bodies that a tracer can report: the
    line tables of every code object but the module's and the classes',
    without each function's own first line (its def, where 3.11 puts RESUME)."""
    with open(path) as fh:
        module = compile(fh.read(), path, "exec")
    lines = set()

    def walk(code, counted):
        if counted:
            lines.update(n for _, _, n in code.co_lines() if n is not None and n != code.co_firstlineno)
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                # A class body is not optimised; its methods are.
                walk(const, bool(const.co_flags & inspect.CO_OPTIMIZED))

    walk(module, False)
    return lines


def _modules():
    """{module name: (path, executable lines, functions)} for src/conic_nf."""
    out = {}
    for name in sorted(os.listdir(PKG)):
        if name.endswith(".py"):
            path = os.path.join(PKG, name)
            out[name[:-3]] = (path, _body_lines(path), _functions(path))
    return out


def _owner(functions, line):
    for qualname, first, last in functions:
        if first <= line <= last:
            return qualname
    return None


def report(program, tier1=None):
    """Print the map; return the unreached functions missing from UNREACHED
    and the entries of UNREACHED that name a reached or missing function.
    tier1 is None when tier-1 was not traced, and its columns are left out."""

    def show(name, cells):
        cells = cells if tier1 is not None else (cells[0], cells[1], cells[4])
        print(f"{name:<14}" + "".join(f"{c:>12}" for c in cells))

    show("module", ("lines", "program", "tier-1", "tier-1 only", "none"))
    totals = [0] * 5
    unreached = []
    for module, (path, lines, functions) in _modules().items():
        hit_p = {n for n in lines if (path, n) in program}
        hit_t = {n for n in lines if (path, n) in (tier1 or ())}
        row = [len(lines), len(hit_p), len(hit_t), len(hit_t - hit_p), len(lines - hit_p - hit_t)]
        totals = [a + b for a, b in zip(totals, row)]
        show(module, row)
        owned = {}
        for n in lines:
            owned.setdefault(_owner(functions, n), set()).add(n)
        for qualname, _, _ in functions:
            if qualname in owned and not owned[qualname] & hit_p:
                unreached.append((f"{module}.{qualname}", len(owned[qualname])))
    show("total", totals)
    print(f"\nFunctions that no workload input or README command reaches ({len(unreached)}):")
    missing = []
    for name, n in unreached:
        reason = UNREACHED.get(name)
        if reason is None:
            missing.append(name)
        print(f"  {name} ({n} lines): {reason or 'MISSING from tools/reach.py: UNREACHED'}")
    stale = sorted(set(UNREACHED) - {name for name, _ in unreached})
    if stale:
        print("\nIn UNREACHED but reached, or gone:", ", ".join(stale))
    return missing, stale


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tests", action="store_true", help="also trace tier-1 under pytest")
    args = parser.parse_args(argv)
    if not os.path.isdir(PKG):
        parser.error("run from the root of a checkout")
    imported = _traced(_import_program)
    program = _traced(_program) | imported
    tier1 = _traced(_tier1) | imported if args.tests else None
    missing, stale = report(program, tier1)
    if missing:
        print(f"\n{len(missing)} unreached function(s) with no reason in UNREACHED", file=sys.stderr)
    if stale:
        print(f"\n{len(stale)} UNREACHED entries name a reached or missing function", file=sys.stderr)
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
