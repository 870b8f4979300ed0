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


def test_only_characters_names_the_unit_group_layout():
    # The generators of (Z/N)^x and the discrete logs over them are private to characters;
    # other modules ask a character for its tame exponent, tame order or prime-to-p part.
    layout = {"_dlog_table", "get_structure", "generators"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "characters":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.Name, ast.Attribute, ast.alias)):
                    name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) \
                        else node.name
                    if name in layout:
                        found.append(f"{path.name}:{node.lineno}: {name}")
    assert not found, f"unit-group layout named outside characters: {found}"


def test_fields_are_built_only_in_characters():
    # homotopy and dedekind read one AbelianField: neither builds H or lists characters itself.
    found = []
    for stem in ("homotopy", "dedekind"):
        for node in ast.walk(ast.parse((SRC / f"{stem}.py").read_text())):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) \
                else node.name if isinstance(node, ast.alias) else None
            if name in ("unit_subgroup", "enumerate_characters"):
                found.append(f"{stem}.py:{node.lineno}: {name}")
    assert not found, found


def test_no_module_imports_fractions_or_names_fraction():
    # A rational has one form: integer pairs inside a module, a CycElement of Q(zeta_1) at the API.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, (ast.Name, ast.Attribute)):
                names = [node.id if isinstance(node, ast.Name) else node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] == "fractions" or name == "Fraction"]
    assert not found, found


def test_bernoulli_pipelines_share_no_code():
    # The polynomial-sum oracle checks the series; neither may name the other's code.  The series
    # takes the parity zeros from the theorem (``parity``, kept as ``zero_parity``); the oracle
    # computes them, so it names neither.
    tree = ast.parse((SRC / "bernoulli.py").read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    series = {"_gbn_series", "_SeriesState", "parity", "zero_parity", "vanishes"}
    polysum = {"_gbn_polysum", "_PolysumState"}
    checks = [("_gbn_series", polysum), ("_SeriesState", polysum), ("_gbn_polysum", series), ("_PolysumState", series)]
    for name, other in checks:
        named = {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(defs[name])
                 if isinstance(node, (ast.Name, ast.Attribute))}
        assert not named & other, f"{name} names {sorted(named & other)}"


def test_pipelines_and_sieve_read_the_value_classes_and_evaluate_nothing():
    # Only characters evaluates chi residue by residue.  The Eisenstein sieve reads its one
    # table of values, and so does the one cache of both B_(k,chi) states, which hands the
    # table to each state and runs no step of either pipeline.
    def named(module, name):
        tree = ast.parse((SRC / f"{module}.py").read_text())
        node = next(node for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name)
        return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))}

    states = named("bernoulli", "_states")
    assert {"value_classes", "_SeriesState", "_PolysumState"} <= states, sorted(states)
    assert not states & {"extend", "value", "vanishes"}, sorted(states)
    for module, name in (("bernoulli", "_SeriesState"), ("bernoulli", "_PolysumState"), ("eisenstein", "_sigma_rows")):
        names = named(module, name)
        assert not names & {"evaluate", "_value_exponent"}, (name, sorted(names))
    assert "value_classes" in named("eisenstein", "_sigma_rows")


def test_padic_resultant_check_shares_no_code_with_the_elimination():
    # The resultant checks the Smith elimination; it may not name the elimination or a row builder.
    tree = ast.parse((SRC / "padic.py").read_text())
    check = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_resultant_mod")
    named = {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(check)
             if isinstance(node, (ast.Name, ast.Attribute))}
    assert not named & {"padic_invariant_exponents", "times_x_rows", "_times_u_rows"}, sorted(named)


def test_padic_resultant_and_its_helpers_name_no_elimination():
    # The resultant and every padic function it calls, followed through their calls, may name
    # neither the elimination, its row builder nor the cached quotient whose sum they check.
    tree = ast.parse((SRC / "padic.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def names(node):
        return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))}

    reached, frontier = set(), ["_resultant_mod"]
    while frontier:
        name = frontier.pop()
        reached.add(name)
        frontier += sorted((names(functions[name]) & set(functions)) - reached)
    assert reached == {"_resultant_mod", "_nonzero_terms"}, sorted(reached)
    named = set().union(*(names(functions[name]) for name in reached))
    assert not named & {"padic_invariant_exponents", "_times_u_rows", "_smith_quotient"}, sorted(named)


def test_only_the_cached_elimination_names_the_elimination_and_its_rows():
    # _smith_quotient is cached on exactly what the elimination reads; an elimination or row
    # builder named anywhere else in padic would run outside the cache and its key.
    tree = ast.parse((SRC / "padic.py").read_text())
    found = {}
    for top in tree.body:
        named = {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(top)
                 if isinstance(node, (ast.Name, ast.Attribute))} & {"padic_invariant_exponents", "_times_u_rows"}
        if named:
            found[getattr(top, "name", type(top).__name__)] = sorted(named)
    assert found == {"_smith_quotient": ["_times_u_rows", "padic_invariant_exponents"]}, found


def test_padic_oracle_runs_at_one_precision():
    # Every accepted input has v_p(Res) <= 1, so the oracle has no precision to escalate or pass:
    # _stable_quotient computes the resultant once with no loop statement, and no oracle function
    # takes a precision.
    tree = ast.parse((SRC / "padic.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    stable = functions["_stable_quotient"]
    loops = [node.lineno for node in ast.walk(stable) if isinstance(node, (ast.For, ast.While))]
    assert not loops, f"loop statements in _stable_quotient at lines {loops}"
    resultants = [node for node in ast.walk(stable) if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name) and node.func.id == "_resultant_mod"]
    assert len(resultants) == 1
    params = {name: [arg.arg for arg in functions[name].args.args]
              for name in ("_stable_quotient", "quotient_oracle", "quotient_oracle_2")}
    assert params == {"_stable_quotient": ["phi", "u", "p"], "quotient_oracle": ["p", "v", "a", "t"],
                      "quotient_oracle_2": ["v", "t"]}, params
    assert "PrecisionError" not in {node.name for node in tree.body if isinstance(node, ast.ClassDef)}


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
    direct = {"_pi_jnchi_direct", "_direct_plan", "_direct_wedge",
              "qualifying_prime", "kernel_order_match", "tame_order"}
    for name in ("_pi_jnchi_assembly", "_assembly_summands"):
        named = {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(functions[name])
                 if isinstance(node, (ast.Name, ast.Attribute))}
        assert not named & direct, f"{name} names {sorted(named & direct)}"


def _reached(root: str) -> set[tuple[str, str]]:
    """The (module, function) pairs a homotopy function reaches: the homotopy functions it names,
    followed through the ones they name, and every characters helper any of them names, followed
    through the helpers it names."""
    functions = {module: _names_by_function(SRC / f"{module}.py") for module in ("homotopy", "characters")}
    reached, frontier = set(), [("homotopy", root)]
    while frontier:
        item = frontier.pop()
        if item in reached:
            continue
        reached.add(item)
        named = functions[item[0]][item[1]]
        followed = ("homotopy", "characters") if item[0] == "homotopy" else ("characters",)
        frontier += [(module, name) for module in followed for name in named & functions[module].keys()]
    return reached


def test_homotopy_direct_tables_share_no_code_with_the_assembly():
    # The reverse direction, followed through every call: the direct route writes its own tables
    # and reads none of the per-prime tables or the p-adic plan that the assembly sums, and no
    # characters helper is read by both routes, so a wrong tame exponent, tame order or prime-to-p
    # order cannot reach both tables alike and pass the comparison.
    direct, assembly = _reached("_pi_jnchi_direct"), _reached("_pi_jnchi_assembly")
    assert {("homotopy", "_direct_plan"), ("characters", "qualifying_prime"), ("characters", "tame_order")} <= direct
    assert {("homotopy", "pi_DK1"), ("homotopy", "decompose_p"), ("characters", "tame_exponent"),
            ("characters", "prime_to_p_order")} <= assembly
    assert not direct & assembly, sorted(direct & assembly)


def test_homotopy_direct_tables_read_the_character_once_per_plan():
    # Everything that does not depend on the degree is read once by the cached _direct_plan;
    # each degree of the direct route runs no primality test, factorization or character read.
    names = _names_by_function(SRC / "homotopy.py")
    per_character = {"is_prime", "factorize", "kernel_order_match", "tame_order", "parity", "qualifying_prime"}
    for name in ("_pi_jnchi_direct", "_direct_wedge"):
        assert not names[name] & per_character, f"{name} names {sorted(names[name] & per_character)}"


def test_the_homotopy_and_l_value_sides_import_nothing_from_each_other():
    # gbn-theorem and dedekind-jk check pi_* of the J-spectra against the L-values; an import
    # between the two sides would let one route of that comparison read the other's code.  Only
    # the modules that compare them import both.
    sides = ({"padic", "homotopy"}, {"bernoulli", "eisenstein"})
    imports = {path.stem: {target for node in ast.walk(ast.parse(path.read_text()))
                           for target in _package_imports(node)} for path in SRC.glob("*.py")}
    crossing = [f"{name} imports {target}" for ours, theirs in (sides, sides[::-1])
                for name in sorted(ours) for target in sorted(imports[name] & theirs)]
    assert not crossing, crossing
    both = sorted(name for name, targets in imports.items() if all(targets & side for side in sides))
    assert both == ["cli", "dedekind"], both


def test_duality_rows_read_only_the_checked_tables():
    # Every duality row, at p = 2 too, reads both sides through pi_jn_chi and so passes its
    # direct-vs-assembly check; none reads the p-adic summands around it.
    names = _names_by_function(SRC / "homotopy.py")
    summands = {"pi_DK1", "decompose_p"}
    for name in ("check_duality_dirichlet", "_duality_setup"):
        assert not names[name] & summands, f"{name} names {sorted(names[name] & summands)}"


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


def test_carlitz_check_decides_the_p_power_congruence_by_one_gcd():
    # The p^v congruence is one gcd and one division over F_p[x]; the rank of multiplication mod p is
    # its oracle in tests/test_bernoulli.py, and neither the check nor its helpers reach into the
    # B_(k,chi) pipelines.
    check = _names_by_function(SRC / "bernoulli.py")["verify_carlitz"]
    assert {"poly_gcd_mod_p", "poly_rem_mod_p"} <= check
    assert not check & {"padic_invariant_exponents", "times_x_rows"}, sorted(check)
    helpers = _names_by_function(SRC / "exactalg.py")
    pipelines = {"_states", "_SeriesState", "_PolysumState", "value_classes"}
    for named in (check, helpers["poly_gcd_mod_p"], helpers["poly_rem_mod_p"]):
        assert not named & pipelines, sorted(named & pipelines)
    imported = {alias.name for node in ast.walk(ast.parse((SRC / "bernoulli.py").read_text()))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & {"padic_invariant_exponents", "times_x_rows"}, sorted(imported)


def test_quotients_and_indices_compute_no_lattice():
    # Every quotient and index is read off local elementary divisors; tests/test_sympy_oracles.py
    # compares them with the Smith form of the HNF basis.
    lattice = {"hermite_normal_form", "denominator_ideal"}
    for module, name in (("cyclotomic", "quotient_group"), ("cyclotomic", "denominator_invariants"),
                         ("eisenstein", "congruence_check"), ("cli", "suite_gbn_theorem")):
        named = _names_by_function(SRC / f"{module}.py")[name]
        assert not named & lattice, f"{name} names {sorted(named & lattice)}"


def test_denominator_invariants_read_a_prime_to_the_first_power_off_one_gcd():
    # p || c is read off gcd(Phi_n, A) mod p and p^v, v >= 2, off the elimination mod p^v.  cmd_bern
    # checks their index against the HNF pivots of denominator_ideal, which reaches neither.
    cyclotomic, exactalg = _names_by_function(SRC / "cyclotomic.py"), _names_by_function(SRC / "exactalg.py")
    local = {"denominator_invariants", "poly_gcd_mod_p", "poly_rem_mod_p", "padic_invariant_exponents"}
    assert {"poly_gcd_mod_p", "padic_invariant_exponents"} <= cyclotomic["denominator_invariants"]
    for named in (cyclotomic["denominator_ideal"], exactalg["hermite_normal_form"]):
        assert not named & local, sorted(named & local)
    assert {"denominator_ideal", "denominator_invariants"} <= _names_by_function(SRC / "cli.py")["cmd_bern"]


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
    assert {"characters.get_structure", "characters.character_from_index", "characters.field_characters",
            "homotopy._jk_setup", "homotopy._duality_setup", "homotopy._direct_plan", "bernoulli._states",
            "padic._TOPGEN_CACHE"} <= set(sizes), sorted(sizes)
    assert not {name: n for name, n in sizes.items() if n}, sizes


def test_every_lru_cache_is_bounded():
    # An unbounded cache grows for the life of the process.
    lru = {name: cache["maxsize"] for name, cache in _cold_caches().items() if "maxsize" in cache}
    assert {"bernoulli._gbn_primitive", "bernoulli._bernoulli_list", "bernoulli._bernoulli_poly_coeffs",
            "cyclotomic.get_field", "homotopy._assembly_summands", "padic._smith_quotient"} <= set(lru), sorted(lru)
    unbounded = sorted(name for name, maxsize in lru.items() if maxsize is None)
    assert not unbounded, unbounded


def test_group_renderings_and_phi_terms_sit_in_bounded_lru_caches():
    lru = {name: cache["maxsize"] for name, cache in _cold_caches().items() if "maxsize" in cache}
    assert lru.get("exactalg._render") and lru.get("padic._nonzero_terms"), sorted(lru)


def test_every_cache_but_one_is_an_lru_cache():
    # One cache mechanism, which bounds itself and reports its size and maxsize.  The one
    # dict left is padic._TOPGEN_CACHE: perfbench's cache list and its cold-start test look
    # it up by that name, which an lru_cache on topological_generator would not have.
    dicts = sorted(name for name, cache in _cold_caches().items() if "maxsize" not in cache)
    assert dicts == ["padic._TOPGEN_CACHE"], dicts


def test_cli_import_loads_every_module_but_not_dataclasses_inspect_or_fractions():
    # A CLI call is one cold process, and dataclasses and inspect took longer to import than
    # a typical call's work; fractions, with decimal and numbers, cost about 3 ms of CPU.
    # Every package module still loads at import: none is deferred into the call.  -S keeps
    # site hooks from importing any of them on their own.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    code = "import json, sys, dirichletj.cli; print(json.dumps(sorted(sys.modules)))"
    loaded = set(json.loads(subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                                           env=env, check=True).stdout))
    package = {f"dirichletj.{path.stem}" for path in SRC.glob("*.py")} - {"dirichletj.__init__"}
    assert len(package) == 9 and package <= loaded, sorted(package - loaded)
    assert not {"dataclasses", "inspect", "fractions", "decimal", "numbers"} & loaded


def _unreached_defs() -> list[str]:
    """The src functions and methods, as module.name or module.Class.name, that nothing reaches by name.

    The roots are ``cli.main``, every ``@suite`` function and every name in module-level code
    (tables, class bodies and decorators).  A def is reached when a reached def names it, as a
    name or as an attribute; a reached class reaches its dunder methods.  Imports name nothing.
    """
    def named(nodes) -> set[str]:
        return {n.id if isinstance(n, ast.Name) else n.attr for node in nodes for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))}

    defs: dict[str, tuple[str, set[str]]] = {}  # key -> (bare name, the names its body uses)
    top_names, reached = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                top_names |= named([top])
                continue
            key = f"{path.stem}.{top.name}"
            top_names |= named(top.decorator_list)
            if isinstance(top, ast.FunctionDef):
                defs[key] = top.name, named(top.body + [top.args])
                suites = [d for d in top.decorator_list if isinstance(d, ast.Call) and named([d.func]) == {"suite"}]
                if suites or key == "cli.main":
                    reached.add(key)
                continue
            defs[key] = top.name, set()
            top_names |= named(top.bases)
            for node in top.body:
                if isinstance(node, ast.FunctionDef):
                    defs[f"{key}.{node.name}"] = node.name, named(node.body + [node.args])
                    top_names |= named(node.decorator_list)
                else:
                    top_names |= named([node])
    while True:
        names = top_names.union(*(defs[key][1] for key in reached))
        grown = reached | {key for key, (name, _) in defs.items() if name in names} | {
            key for key, (name, _) in defs.items()
            if name.startswith("__") and name.endswith("__") and key.rpartition(".")[0] in reached}
        if grown == reached:
            return sorted(defs.keys() - reached)
        reached = grown


def test_every_src_def_is_reached_from_the_cli_or_a_suite():
    # src holds no code that only tests read: every function and method, public or private, is
    # reached by name from cli.main, a registered suite or module-level code.
    assert _unreached_defs() == []
