import ast
import importlib
from pathlib import Path

import chaoscast
from chaoscast.ensemble import ModelGroup, PredictorKey

PACKAGE = Path(chaoscast.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _unused_imports(source: str) -> list[str]:
    """Names a module binds by import but never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports to re-export, so it is exempt
    unused = {path.name: names for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py"
              and (names := _unused_imports(path.read_text()))}
    assert unused == {}


def test_no_module_imports_a_private_name_from_another_module():
    # a name with a leading underscore belongs to its module; a second module
    # that needs it needs a public function instead
    private = [f"{path.name}: {node.module}.{alias.name}"
               for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").startswith("chaoscast"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def _resolve(module: str, name: str):
    """The object ``from module import name`` binds: an attribute or a submodule."""
    parent = importlib.import_module(module)
    if hasattr(parent, name):
        return getattr(parent, name)
    return importlib.import_module(f"{module}.{name}")


def test_every_name_the_benchmark_takes_from_the_package_resolves():
    # the benchmark imports package names at module level and calls methods on
    # what they return; a rename in the package must fail here, not in a run
    missing = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("chaoscast"):
                for alias in node.names:
                    try:
                        bound = _resolve(node.module, alias.name)
                    except ImportError:
                        missing.append(f"{path.name}: {node.module}.{alias.name}")
                        continue
                    if isinstance(bound, type(chaoscast)):
                        modules[alias.asname or alias.name] = bound
        missing += [f"{path.name}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and not hasattr(modules[node.value.id], node.attr)]
    assert missing == []
    assert callable(ModelGroup.predict) and callable(PredictorKey.predict)


def _public_functions(tree):
    """(qualified name, node) of a module's public top-level functions and methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))


def test_every_public_function_is_used_outside_its_definition():
    # a public function or method that only __init__.py re-exports, and that no
    # module of the package and no benchmark module reads, is dead API
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    readers = [*trees.values(), *(ast.parse(path.read_text())
                                  for path in sorted(PERFBENCH.glob("*.py")))]
    refs = {}  # name -> ids of the nodes that read it, by name, attribute or import
    for tree in readers:
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else node.attr
                    if isinstance(node, ast.Attribute) else node.name
                    if isinstance(node, ast.alias) else None)
            refs.setdefault(name, set()).add(id(node))
    unused = [f"{module}: {qualified}" for module, tree in trees.items()
              for qualified, fn in _public_functions(tree)
              if not refs.get(fn.name, set()) - {id(node) for node in ast.walk(fn)}]
    assert unused == []
