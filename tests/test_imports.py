"""The package's internal import graph: acyclic, and resolved at import
time; the package's __all__ is its modules' lists, with no name in two of
them; every public name, and every property and method of a public class,
has a reader in the package; and importing the CLI leaves out the modules
that only the tests need and those that would slow every start."""

import ast
import os
import pathlib
import subprocess
import sys

import ternrep

PACKAGE = pathlib.Path(ternrep.__file__).parent


def package_imports():
    """(importing module, imported module, at module level) for every
    import of a ternrep module in the package's own source."""
    edges = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top_level = set(map(id, tree.body))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets = [node.module] if node.module else [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ternrep."):
                targets = [node.module.split(".")[1]]
            elif isinstance(node, ast.Import):
                targets = [a.name.split(".")[1] for a in node.names
                           if a.name.startswith("ternrep.")]
            else:
                continue
            for target in targets:
                edges.append((path.stem, target, id(node) in top_level))
    return edges


def test_import_graph_is_acyclic():
    graph = {}
    for source, target, _ in package_imports():
        graph.setdefault(source, set()).add(target)
    assert graph["oracle"] >= {"pipeline"}

    done, path = set(), []

    def visit(module):
        if module in path:
            raise AssertionError("import cycle: %s" % " -> ".join(path + [module]))
        if module in done:
            return
        path.append(module)
        for target in sorted(graph.get(module, ())):
            visit(target)
        path.pop()
        done.add(module)

    for module in sorted(graph):
        visit(module)


def test_no_function_local_package_imports():
    local = [(s, t) for s, t, top in package_imports() if not top]
    assert local == []


def module_lists():
    """{module: its __all__} for each module of the package that has one,
    read from the source.  __init__.py is left out: its __all__ is built
    from these."""
    lists = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                lists[path.stem] = ast.literal_eval(node.value)
    return lists


def public_names():
    """The names in each module's __all__."""
    return {name for names in module_lists().values() for name in names}


def star_imports():
    """The modules that __init__.py star-imports, in order; it must import
    nothing else of the package."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert all(node.level == 1 and [a.name for a in node.names] == ["*"]
               for node in imports)
    return [node.module for node in imports]


def test_package_all_is_the_module_lists():
    # Every module's list but the CLI's is re-exported, in import order,
    # and __init__.py names no public name by hand.
    lists = module_lists()
    modules = star_imports()
    assert sorted(modules) == sorted(set(lists) - {"cli"})
    assert ternrep.__all__ == ["__version__", *(n for m in modules for n in lists[m])]
    assert all(hasattr(ternrep, name) for name in ternrep.__all__)


def test_no_name_in_two_module_lists():
    # a later star import would silently shadow an earlier module's name
    seen = {}
    for module, names in module_lists().items():
        for name in names:
            assert name not in seen, (name, seen.get(name), module)
            seen[name] = module


# ternrep.__all__ when it was written out by hand in __init__.py.
HAND_KEPT_ALL = [
    "__version__",
    "is_prime", "sqrt_mod_prime", "inv_mod", "crt", "PRIMALITY_LIMIT",
    "factorize", "squarefree_decompose", "ord_p", "RHO_STEP_BUDGET",
    "TernaryForm", "Eligibility", "EligibilityVerdict",
    "eligibility", "evaluate", "reduce_to_core", "lift_representation",
    "CaseProfile", "PROFILES", "select_case",
    "compose", "represent_binary",
    "brute_force_ternary", "first_triples", "oracle_triple", "ORACLE_STEP_BUDGET",
    "represented_bits", "SCAN_HI_LIMIT", "POOL_MIN_ROWS", "ScanRow", "ScanReport",
    "scan_compare",
    "Construction", "Witness", "build_witness", "construction_frame", "find_q",
    "solve_t", "solve_bh", "enumerate_point", "Q_CANDIDATE_BUDGET",
    "verify_witness",
    "witness_problems", "witness_fields", "witness_from_fields",
    "TernrepError", "NonResidueError", "NotInvertibleError",
    "NonCoprimeModuliError", "NotRepresentableError",
    "ResourceCapError", "InternalError",
]


def test_every_hand_kept_name_is_still_exported():
    assert len(HAND_KEPT_ALL) == 52
    assert sorted(set(HAND_KEPT_ALL) - set(ternrep.__all__)) == []


def names_read_in_package():
    """Every name the package's modules other than __init__.py read, as a
    bare name or as an attribute."""
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def public_members():
    """(class, member) for every public property and method of a class
    whose name is public, such as CaseProfile."""
    public = public_names()
    members = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and node.name in public:
                members.update((node.name, item.name) for item in node.body
                               if isinstance(item, ast.FunctionDef)
                               and not item.name.startswith("_"))
    return members


def test_every_public_name_is_read_in_the_package():
    # A helper that only the tests call belongs in tests/reference.py.
    assert sorted(public_names() - names_read_in_package()) == []


def test_every_public_member_is_read_in_the_package():
    members = public_members()
    assert ("CaseProfile", "n0") in members
    read = names_read_in_package()
    assert sorted((cls, name) for cls, name in members if name not in read) == []


def test_cli_import_leaves_out_slow_stdlib_modules():
    # fractions and decimal are for the tests only; dataclasses, and the
    # inspect it imports, and typing would each add milliseconds to every
    # start of the CLI.  -S keeps site's own imports out of the check;
    # PYTHONPATH finds the package under test.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    slow = {"fractions", "decimal", "dataclasses", "inspect", "typing"}
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, ternrep.cli; print(sorted(%r & set(sys.modules)))" % (slow,)],
        capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
