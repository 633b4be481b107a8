"""Rules the package source keeps.

Correctness checks must still run under `python -O`, which strips every
`assert` statement, so the package raises explicit errors instead.
Resource caps are module constants read at call time, never per-call
parameters, and the piece cap's refusal is written once, in `approx`.  No function memoizes through `functools.cache` or
`lru_cache`: such a cache is state of the whole process, and results must
not depend on which calls a process, or a pool worker, made before.  The
memo of q's pair expansions on an `overlap` arithmetic row is state of one
row list, not of the process: it is built empty with the rows of one scan
or suite and dropped with them, so the rule still holds.
Every name the package exports is read somewhere in the package itself,
so no public function survives only because a test calls it; the
allowlist names the oracles the tests reach on purpose.  Likewise every
public `TorusIntervalSet` method is read outside the class's public
methods, or is on the allowlist of reference operations tests compare
other code against.  The phi(gcd)
brute force stays independent of the divisor identity it is checked
against: it names no factorization, totient or divisor-form helper; so
does the brute-force f(c) histogram against the closed form, which also
names no sieved residue list.  `ExperimentConfig` configures the pairwise
scan alone, so only the scan's callers construct one.  `_pairwise_worker`
is the one pair-summing loop and receives its kernel as data: no function
of `experiments` calls a pair kernel by name.  `overlap._arith_rows` and
`overlap._overlap_rows` are the row builders: no function of `experiments`
or `verification` calls the arithmetic row constructor `_arith_row` or the
target part constructor `_target_part` by name, so `overlap` alone knows
the row layout.  `overlap` alone holds the closed-form gate: it defines
the flags, measures and pair counts of weights at most 1/2, and no
comparison in `experiments`, `verification` or `cli` reads `_HALF` or
`Fraction(1, 2)` (`approx` clips `div3` and `pow` at 1/2, and its measure
oracle tests the same bound: those define a weight or check a set, and
stay).  Only `cli` builds a report header: `experiments` has no
`describe` method and its report records carry no header field, and no
other module writes the unread header key "seed".  A verification suite
fails one way, by raising, so in `verification` only the `_suite` wrapper
constructs a `CheckResult`.  The Monte Carlo hit count and its arc
tables use no float, so every count is
exact on the points drawn, and the tables are read off the approximation
sets, so the package keeps one interval encoding.  No module imports
`dataclasses`: records are `typing.NamedTuple`s and classes that validate
or change state are plain `__slots__` classes, so that a command does not
pay for `dataclasses` and the `inspect` it pulls in at every start.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "torusapprox"


def test_package_source_has_no_assert_statements():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_functions_take_no_cap_parameters():
    found = [
        f"{path.name}:{arg.lineno} {arg.arg}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.arguments)
        for arg in [*node.posonlyargs, *node.args, *node.kwonlyargs, node.vararg, node.kwarg]
        if arg is not None and (arg.arg == "cap" or arg.arg.endswith("_cap"))
    ]
    assert found == []


def test_package_source_has_no_functools_caches():
    banned = {"cache", "lru_cache"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [f"{path.name}:{node.lineno} {a.name}" for a in node.names
                          if a.name in banned]
            elif (isinstance(node, ast.Attribute) and node.attr in banned
                  and isinstance(node.value, ast.Name) and node.value.id == "functools"):
                found.append(f"{path.name}:{node.lineno} functools.{node.attr}")
    assert found == []


def test_every_exported_name_has_a_reader_in_the_package():
    oracles = {"hit_test", "decompose_pair"}
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {
        alias.asname or alias.name
        for node in ast.walk(init) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    read = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert sorted(exported - read - oracles) == []


def test_every_public_torus_method_has_a_reader_in_the_package():
    references = {"intersect", "contains", "translate"}
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    (cls,) = [node for node in trees["torus.py"].body
              if isinstance(node, ast.ClassDef) and node.name == "TorusIntervalSet"]
    public = {node.name: node for node in cls.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    # A public method read only by another public method has no reader.
    inside = {id(node) for method in public.values() for node in ast.walk(method)}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and id(node) not in inside}
    assert sorted(set(public) - read - references) == []


def _names_in(module: str, function: str) -> set[str]:
    """The names and attributes a top-level function of a module reads."""
    tree = ast.parse((PACKAGE / module).read_text())
    (body,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == function]
    named = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
    return named | {node.attr for node in ast.walk(body) if isinstance(node, ast.Attribute)}


def test_phigcd_brute_force_names_no_factorization_or_totient():
    banned = {"factorize", "factorize_with_table", "spf_table", "totient",
              "totient_range", "_divisor_form", "_divisor_forms"}
    assert sorted(_names_in("experiments.py", "_phigcd_brute") & banned) == []


def test_pair_histogram_names_no_factorization_or_totient():
    banned = {"factorize", "factorize_with_table", "spf_table", "totient",
              "coprime_residues"}
    assert sorted(_names_in("overlap.py", "coprime_pair_histogram") & banned) == []


def test_only_the_scans_callers_construct_an_experiment_config():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "ExperimentConfig" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)
                ):
                    found.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert sorted(found) == [
        "cli._cmd_pairwise",
        "experiments.quasi_independence_ladder",
        "verification.check_quasi_ladder",
    ]


def _pair_kernel_callers(source: str) -> list[str]:
    """The top-level definitions of source that call a pair kernel by name."""
    named = {"_pair_overlap_units", "_main_term_units", "_main_term_excess_units"}
    return sorted({
        getattr(top, "name", "<module>")
        for top in ast.parse(source).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and named & {
            getattr(node.func, "id", None), getattr(node.func, "attr", None)}
    })


def test_no_function_of_experiments_calls_a_pair_kernel():
    # The pair loop receives its kernel as data, so no driver names one in a call.
    assert _pair_kernel_callers((PACKAGE / "experiments.py").read_text()) == []
    driver = "def driver(rows):\n    return overlap._main_term_units(rows[1], rows[2])\n"
    assert _pair_kernel_callers(driver) == ["driver"]


def _row_constructor_callers(*modules: str) -> list[str]:
    """The top-level definitions of the modules that call the arithmetic
    row or the target part constructor by name."""
    named = {"_arith_row", "_target_part"}
    return sorted({
        f"{name}.{getattr(top, 'name', '<module>')}"
        for name in modules
        for top in ast.parse((PACKAGE / f"{name}.py").read_text()).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and named & {
            getattr(node.func, "id", None), getattr(node.func, "attr", None)}
    })


def test_only_the_row_builder_calls_overlap_row():
    assert _row_constructor_callers("experiments", "verification") == []
    # The rule reads the constructors' present names: the builders call them.
    assert {"overlap._arith_rows", "overlap._overlap_rows"} <= set(
        _row_constructor_callers("overlap"))


def _gate_sites(module: str, source: str) -> tuple[list[str], list[str]]:
    """Where a module writes the closed-form gate: (its definitions of the
    flag, measure or pair-count function, when the module is not
    `overlap`; its comparisons with `_HALF` or `Fraction(1, 2)` as an
    operand)."""
    gate = {"_closed_form_flags", "_set_measure", "_pair_counts"}
    defined, compared = [], []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name in gate and module != "overlap":
            defined.append(f"{module}.{node.name}")
        elif isinstance(node, ast.Compare):
            for operand in [node.left, *node.comparators]:
                if (getattr(operand, "id", None) == "_HALF"
                        or getattr(operand, "attr", None) == "_HALF"
                        or isinstance(operand, ast.Call)
                        and getattr(operand.func, "id", None) == "Fraction"
                        and [getattr(arg, "value", None) for arg in operand.args] == [1, 2]):
                    compared.append(f"{module}:{node.lineno}")
    return defined, compared


def test_only_overlap_holds_the_closed_form_gate():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        defined, compared = _gate_sites(path.stem, path.read_text())
        found += defined
        if path.stem in ("experiments", "verification", "cli"):
            found += compared
    assert found == []
    # The rule reads the present form: overlap's flags compare with 1/2 once,
    # and approx's clip of div3 and pow compares with its own _HALF.
    assert len(_gate_sites("overlap", (PACKAGE / "overlap.py").read_text())[1]) == 1
    assert _gate_sites("approx", (PACKAGE / "approx.py").read_text())[1]
    snippet = ("_HALF = Fraction(1, 2)\n"
               "def _closed_form_flags(psi, Q):\n    return [psi(q) <= _HALF for q in Q]\n"
               "def measure(w):\n    return 0 <= w <= Fraction(1, 2)\n")
    defined, compared = _gate_sites("experiments", snippet)
    assert (defined, sorted(compared)) == (
        ["experiments._closed_form_flags"], ["experiments:3", "experiments:5"])


def _report_header_builders(module: str, source: str) -> list[str]:
    """What a module builds of a report header: in `experiments` a
    `describe` method, a `config` field on `SumReport` or an `m` field on
    `MainTermRow`; in any module a dict key "seed"."""
    fields = {"SumReport": "config", "MainTermRow": "m"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and module == "experiments":
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "describe":
                    found.append(f"{node.name}.describe")
                elif (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                      and item.target.id == fields.get(node.name)):
                    found.append(f"{node.name}.{item.target.id}")
        elif isinstance(node, ast.Dict):
            found += [f"{module}:{key.lineno} seed" for key in node.keys
                      if isinstance(key, ast.Constant) and key.value == "seed"]
    return found


def test_only_cli_builds_a_report_header():
    found = [item for path in sorted(PACKAGE.glob("*.py")) if path.name != "cli.py"
             for item in _report_header_builders(path.stem, path.read_text())]
    assert found == []
    # The rule reads the present form: cli's pairwise and mc headers keep "seed".
    assert len(_report_header_builders("cli", (PACKAGE / "cli.py").read_text())) == 2
    snippet = ("class SumReport(NamedTuple):\n    config: dict\n"
               "class MainTermRow(NamedTuple):\n    Q: int\n    m: int\n"
               "class ExperimentConfig:\n    def describe(self):\n        return {'seed': 0}\n")
    assert sorted(_report_header_builders("experiments", snippet)) == [
        "ExperimentConfig.describe", "MainTermRow.m", "SumReport.config", "experiments:8 seed"]


def _check_result_constructions(source: str) -> list[str]:
    """The top-level definition of source around each CheckResult call."""
    return [
        getattr(top, "name", "<module>")
        for top in ast.parse(source).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and "CheckResult" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_only_the_suite_wrapper_constructs_a_check_result():
    found = _check_result_constructions((PACKAGE / "verification.py").read_text())
    assert sorted(set(found)) == ["_suite"]
    suite = 'def check_x():\n    return CheckResult("x", False, "detail")\n'
    assert _check_result_constructions(suite) == ["check_x"]


def test_piece_cap_policy_is_written_once():
    found = [
        f"{path.name}:{number}"
        for path in sorted(PACKAGE.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if "approximation-set cap" in line
    ]
    assert len(found) == 1, found


def test_monte_carlo_hit_count_uses_no_float():
    tree = ast.parse((PACKAGE / "experiments.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    found = [
        f"{name}:{node.lineno}"
        for name in ("_mc_hits", "_arc_units")
        for node in ast.walk(functions[name])
        if isinstance(node, ast.Constant) and isinstance(node.value, float)
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "float"
    ]
    assert found == []


def test_monte_carlo_arc_tables_are_read_off_the_approximation_sets():
    tree = ast.parse((PACKAGE / "experiments.py").read_text())
    (tables,) = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_arc_units"]
    called = [node.func.id if isinstance(node.func, ast.Name) else node.func.attr
              for node in ast.walk(tables) if isinstance(node, ast.Call)
              and isinstance(node.func, (ast.Name, ast.Attribute))]
    assert "build_approx_set" in called
    assert sorted({"sorted", "sort"} & set(called)) == []


def test_package_source_imports_no_dataclasses():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Import) and any(
            alias.name.split(".")[0] == "dataclasses" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses"
    ]
    assert found == []


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # -S skips site, whose .pth hooks may import any of them on their own.
    script = ("import sys, torusapprox.cli; print(sorted("
              "{'dataclasses', 'inspect', 'importlib.resources'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
