"""Static checks on the package source."""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "latentwire"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def modules(tree):
    """Names bound by ``import X`` statements: other packages' modules."""
    return {a.asname or a.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for a in node.names}


def unused_imports(tree):
    """Names bound by import statements that no Name node reads."""
    imported = modules(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []


# Definitions that nothing in the package reads but that stay, with the reason.
ENTRY_POINTS = {
    "WireClientSink": "the wire's TCP client; the benchmark drives it",
    "DeviceNode.encode": "the device's per-sample encode call; the serve workload drives it",
    "Hub.predict": "the hub's per-sample serving call; the benchmark drives it",
    "save_config": "the writer for load_config's file format",
    "FrameScanner.pending": "bytes still buffered; the wire tests check resync by it",
    "_Handler.handle": "hook that socketserver calls per connection",
}


def definitions(tree, prefix=""):
    """(qualified name, node) for every function, class and method below
    `tree`, dunders excepted."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + node.name
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield name, node
            yield from definitions(node, name + ".")
        else:
            yield from definitions(node, prefix)


def reads(tree, skip=frozenset()):
    """Names read through Name or Attribute nodes, with their counts. An
    attribute of a name in `skip` is not counted: ``np.load`` reads numpy's
    ``load``, not one of ours."""
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            counts[node.id] += 1
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and not (isinstance(node.value, ast.Name) and node.value.id in skip)):
            counts[node.attr] += 1
    return counts


def unreached(paths):
    """Qualified names of the definitions in `paths` that no code outside the
    definition itself reads."""
    trees = [(t, modules(t)) for t in (ast.parse(p.read_text()) for p in paths)]
    total = sum((reads(t, m) for t, m in trees), Counter())
    return sorted(name for tree, m in trees for name, node in definitions(tree)
                  if total[node.name] - reads(node, m)[node.name] <= 0)


def test_every_definition_is_reached():
    assert unreached(sorted(PACKAGE.glob("*.py"))) == sorted(ENTRY_POINTS)


def dataclass_fields(tree):
    """(qualified name, field name) for every annotated field of a
    @dataclass class."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
        if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass"
                   for d in decorators):
            continue
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                yield f"{cls.name}.{stmt.target.id}", stmt.target.id


def field_reads(tree):
    """Attribute loads, and string constants, which reach fields by name
    through getattr or setattr."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def unread_fields(paths):
    trees = [ast.parse(p.read_text()) for p in paths]
    read = set().union(*map(field_reads, trees))
    return sorted(name for tree in trees for name, attr in dataclass_fields(tree)
                  if attr not in read)


def test_every_dataclass_field_is_read():
    assert unread_fields(sorted(PACKAGE.glob("*.py"))) == []
