"""The package's internal import graph: acyclic, and resolved at import
time; and every public name has a reader in the package."""

import ast
import pathlib

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


def public_names():
    """The names in ternrep.__all__ and in each module's __all__, read from
    the source, without __version__."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                names.update(ast.literal_eval(node.value))
    return names - {"__version__"}


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


def test_every_public_name_is_read_in_the_package():
    # A helper that only the tests call belongs in tests/reference.py.
    assert sorted(public_names() - names_read_in_package()) == []
