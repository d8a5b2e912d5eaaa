"""The package's internal import graph: acyclic, and resolved at import time."""

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
