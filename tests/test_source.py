"""Checks on the package source itself."""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import dirichletj

SRC = Path(dirichletj.__file__).parent

# Modules import strictly upward through these layers; modules of one layer do not import each other.
LAYERS = [("exactalg",), ("cyclotomic",), ("characters",), ("bernoulli",), ("padic",), ("homotopy",),
          ("eisenstein", "dedekind"), ("cli",)]


def _package_imports(node: ast.AST) -> list[str]:
    """The package modules an import statement names; empty for any other node."""
    if isinstance(node, ast.Import):
        return [alias.name.partition(".")[2] or alias.name for alias in node.names
                if alias.name.split(".")[0] == "dirichletj"]
    if not isinstance(node, ast.ImportFrom):
        return []
    module = node.module or ""
    if node.level == 0:
        if module.split(".")[0] != "dirichletj":
            return []
        module = module.partition(".")[2]
    return [module] if module else [alias.name for alias in node.names]


def test_no_bare_assert_in_package():
    # `python -O` strips assert statements; every internal check must be a raise.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"bare assert statements: {found}"


def test_only_exactalg_reads_group_atoms():
    # The atom tuples of AbelianGroupExpr are private to exactalg; other modules ask the group.
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "exactalg":
            found += [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
                      if isinstance(node, ast.Attribute) and node.attr == "atoms"]
    assert not found, f"AbelianGroupExpr.atoms read outside exactalg: {found}"


def test_exactalg_does_not_import_fractions():
    # exactalg is integer-only; rational arithmetic must not grow back into it.
    tree = ast.parse((SRC / "exactalg.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert "fractions" not in imported



def test_bernoulli_pipelines_share_no_code():
    # The polynomial-sum oracle checks the series; neither may name the other's code.
    tree = ast.parse((SRC / "bernoulli.py").read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    series = {"_gbn_series", "_SeriesState", "_series_state"}
    polysum = {"_gbn_polysum", "_PolysumState", "_polysum_state"}
    checks = [("_gbn_series", polysum), ("_SeriesState", polysum), ("_gbn_polysum", series), ("_PolysumState", series)]
    for name, other in checks:
        named = {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(defs[name])
                 if isinstance(node, (ast.Name, ast.Attribute))}
        assert not named & other, f"{name} names {sorted(named & other)}"


def test_padic_resultant_check_shares_no_code_with_the_elimination():
    # The resultant checks the Smith elimination; it may not name the elimination or a row builder.
    tree = ast.parse((SRC / "padic.py").read_text())
    check = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_resultant_mod")
    named = {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(check)
             if isinstance(node, (ast.Name, ast.Attribute))}
    assert not named & {"padic_invariant_exponents", "times_x_rows", "_times_u_rows"}, sorted(named)


def test_padic_builds_no_dense_multiplication_matrix():
    # The oracle's matrices are built as sparse rows; the d^2 dense builder stays out of padic.
    tree = ast.parse((SRC / "padic.py").read_text())
    named = {node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else node.name
             for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute, ast.alias))}
    assert "times_x_rows" not in named


def test_cyclotomic_factor_count_shares_no_code_with_the_splitting():
    # Berlekamp's count checks padic_splitting's cosets of <p>; neither may name the other's mechanism.
    tree = ast.parse((SRC / "cyclotomic.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def named(name):
        return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(functions[name])
                if isinstance(node, (ast.Name, ast.Attribute))}

    assert not named("cyclotomic_factor_count") & {"padic_splitting", "_multiplicative_order", "_vp", "gcd"}
    assert not named("padic_splitting") & {
        "cyclotomic_factor_count", "padic_invariant_exponents", "zeta_power", "get_field"}


def test_homotopy_assembly_shares_no_code_with_the_direct_tables():
    # pi_jn_chi compares the p-completion assembly with the direct case tables; the assembly
    # and its per-character plan may not name the direct route.
    tree = ast.parse((SRC / "homotopy.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    direct = {"_pi_jnchi_direct", "_direct_data", "_direct_case1", "_direct_case5", "_qualifying_prime",
              "kernel_order_match", "tame_order"}
    for name in ("_pi_jnchi_assembly", "_assembly_summands"):
        named = {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(functions[name])
                 if isinstance(node, (ast.Name, ast.Attribute))}
        assert not named & direct, f"{name} names {sorted(named & direct)}"


def test_eisenstein_shares_no_code_with_the_membership_route():
    # tests/test_eisenstein.py checks the denominator tests by membership in the oracle's IdealLattice.
    tree = ast.parse((SRC / "eisenstein.py").read_text())
    named = {node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else node.name
             for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute, ast.alias))}
    assert not named & {"IdealLattice", "contains", "_contains_vector", "ideal_sum"}, sorted(named)


def test_carlitz_check_builds_no_ideal_lattice():
    # tests/test_bernoulli.py checks the residue tests against the ideal route.
    tree = ast.parse((SRC / "bernoulli.py").read_text())
    check = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "verify_carlitz")
    named = {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(check)
             if isinstance(node, (ast.Name, ast.Attribute))}
    assert not named & {"IdealLattice", "full_ring", "denominator_ideal", "denom_ideal", "contains",
                        "is_full_ring", "hermite_normal_form"}, sorted(named)


def _names_by_function(path: Path) -> dict[str, set[str]]:
    """The names and attributes each top-level function of a module mentions."""
    return {node.name: {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                        if isinstance(n, (ast.Name, ast.Attribute))}
            for node in ast.parse(path.read_text()).body if isinstance(node, ast.FunctionDef)}


def test_quotients_and_indices_compute_no_lattice():
    # Every quotient and index is read off local elementary divisors; tests/test_sympy_oracles.py
    # compares them with the Smith form of the HNF basis.
    lattice = {"hermite_normal_form", "denominator_ideal"}
    for module, name in (("cyclotomic", "quotient_group"), ("cyclotomic", "denominator_invariants"),
                         ("eisenstein", "congruence_check"), ("cli", "suite_gbn_theorem")):
        named = _names_by_function(SRC / f"{module}.py")[name]
        assert not named & lattice, f"{name} names {sorted(named & lattice)}"


def test_only_bern_reaches_the_hnf():
    # hermite_normal_form is called by denominator_ideal alone, and denominator_ideal by cmd_bern alone.
    callers = {name: {f"{path.stem}.{fn}" for path in sorted(SRC.glob("*.py"))
                      for fn, named in _names_by_function(path).items() if name in named}
               for name in ("hermite_normal_form", "denominator_ideal")}
    assert callers == {"hermite_normal_form": {"cyclotomic.denominator_ideal"},
                       "denominator_ideal": {"cli.cmd_bern"}}, callers


def test_no_function_imports_a_package_module():
    # An import inside a function hides a dependency, typically one that closes a cycle.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(fn) if _package_imports(node)]
    assert not found, f"package imports inside functions: {found}"


def test_modules_import_strictly_upward():
    rank = {name: i for i, layer in enumerate(LAYERS) for name in layer}
    modules = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    assert modules == set(rank), "every package module has a place in LAYERS"
    wrong = []
    for name in sorted(modules):
        for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text())):
            wrong += [f"{name} imports {target}" for target in _package_imports(node)
                      if rank.get(target, len(LAYERS)) >= rank[name]]
    assert not wrong, f"imports against the layer order: {wrong}"


def test_only_cli_main_writes_stdout():
    # Subcommands return (payload, text, code); main is the one place that prints.
    tree = ast.parse((SRC / "cli.py").read_text())
    main = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main")
    in_main = {id(node) for node in ast.walk(main)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "stdout":
            found.append(f"sys.stdout at line {node.lineno}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
            if id(node) not in in_main:
                found.append(f"print at line {node.lineno}")
    assert not found, f"stdout written outside cli.main: {found}"


# Run in a fresh interpreter: imports every package module, and only then lists each
# module-level lru_cache (anything with ``cache_info``, under the module that
# defines it) with its size and maxsize, and each module-level ``*CACHE*`` dict,
# set or list with its size.
_CACHE_SIZES = textwrap.dedent("""
    import importlib, json, pkgutil
    import dirichletj
    names = sorted(info.name for info in pkgutil.iter_modules(dirichletj.__path__))
    modules = {name: importlib.import_module("dirichletj." + name) for name in names}
    sizes = {}
    for short, module in modules.items():
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == module.__name__:
                info = obj.cache_info()
                sizes[short + "." + name] = {"size": info.currsize, "maxsize": info.maxsize}
            elif "CACHE" in name.upper() and isinstance(obj, (dict, set, list)):
                sizes[short + "." + name] = {"size": len(obj)}
    print(json.dumps(sizes))
""")


def _cold_caches() -> dict[str, dict]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _CACHE_SIZES], capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


def test_caches_are_empty_after_a_cold_import():
    # Every call of the CLI starts cold; a cache filled at import would hide that cost.
    sizes = {name: cache["size"] for name, cache in _cold_caches().items()}
    assert {"characters.get_structure", "characters.character_from_index", "homotopy._duality_setup",
            "homotopy._direct_data", "bernoulli._series_state", "bernoulli._polysum_state",
            "padic._TOPGEN_CACHE"} <= set(sizes), sorted(sizes)
    assert not {name: n for name, n in sizes.items() if n}, sizes


def test_every_lru_cache_is_bounded():
    # An unbounded cache grows for the life of the process.
    lru = {name: cache["maxsize"] for name, cache in _cold_caches().items() if "maxsize" in cache}
    assert {"bernoulli._gbn_primitive", "bernoulli._bernoulli_list", "bernoulli._bernoulli_poly_coeffs",
            "cyclotomic.get_field", "homotopy._assembly_summands"} <= set(lru), sorted(lru)
    unbounded = sorted(name for name, maxsize in lru.items() if maxsize is None)
    assert not unbounded, unbounded


def test_every_cache_but_one_is_an_lru_cache():
    # One cache mechanism, which bounds itself and reports its size and maxsize.  The one
    # dict left is padic._TOPGEN_CACHE: perfbench's cache list and its cold-start test look
    # it up by that name, which an lru_cache on topological_generator would not have.
    dicts = sorted(name for name, cache in _cold_caches().items() if "maxsize" not in cache)
    assert dicts == ["padic._TOPGEN_CACHE"], dicts


def test_cli_import_loads_every_module_but_not_dataclasses_or_inspect():
    # A CLI call is one cold process, and these two modules took longer to import than a
    # typical call's work.  Every package module still loads at import: none is deferred
    # into the call.  -S keeps site hooks from importing either module on their own.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    code = "import json, sys, dirichletj.cli; print(json.dumps(sorted(sys.modules)))"
    loaded = set(json.loads(subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                                           env=env, check=True).stdout))
    package = {f"dirichletj.{path.stem}" for path in SRC.glob("*.py")} - {"dirichletj.__init__"}
    assert len(package) == 9 and package <= loaded, sorted(package - loaded)
    assert not {"dataclasses", "inspect"} & loaded
