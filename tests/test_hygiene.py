"""Static checks on the package source."""

import ast
import builtins
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "latentwire"
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
    "HubServer": "the hub's TCP server; the wire workload drives them",
    "HubServer.address": "the server's bound (host, port); the wire workload drives them",
    "FrameScanner.pending": "bytes still buffered; the wire tests check resync by it",
    "AutoencoderPair.latent_shape": "the wire workload of the benchmark builds its "
                                    "frame shapes from it",
    "_Handler.handle": "hook that socketserver calls per connection",
    "decode_record": "the first frame a fresh FrameScanner finds in a buffer; the "
                     "wire tests decode through it and the benchmark's tracer wraps "
                     "it by name",
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


# Names that two or more of the package's own definitions or dataclass
# fields bind. The checks above match bare names, so a read of one owner
# counts for every owner; each owner below was checked to be read, at the
# places the reason names.
SHARED_NAMES = {
    "backward": "Network.backward is called by _fit; ops.backward by Network.backward",
    "dense": "ops.dense is called by Network.forward; zoo.dense by build_vanilla_classifier",
    "dropout": "ops.dropout is called by Network.forward; zoo.dropout by build_vanilla_classifier",
    "evaluate": "Hub.evaluate is called by run_cell; train.evaluate by Hub.evaluate",
    "flatten": "ops.flatten is called by Network.forward; zoo.flatten by build_vanilla_classifier",
    "num_classes": "LabeledDataset.num_classes is read across the pipeline; "
                   "SyntheticSpec.num_classes by gen_synthetic",
    "push": "HubSink.push and WireClientSink.push are both called through "
            "export_latents' sink",
    "seed": "ReportRow.seed is read by normalize_metrics and cli.main; "
            "TrainConfig.seed by _fit and fit_autoencoder",
    "train_classifier": "Hub.train_classifier is called by run_cell; "
                        "train.train_classifier by Hub.train_classifier",
}


def shared_names(paths):
    """Names that two or more definitions or dataclass fields in `paths` bind."""
    owners = Counter()
    for path in paths:
        tree = ast.parse(path.read_text())
        owners.update(node.name for _, node in definitions(tree))
        owners.update(attr for _, attr in dataclass_fields(tree))
    return sorted(name for name, n in owners.items() if n > 1)


def test_every_shared_name_is_listed():
    """A name two of our own definitions or fields share hides an unread
    owner from the checks above, so each is listed and checked by hand.
    Names shared with foreign attributes, such as numpy's ``.shape``, are
    out of scope: the bare-name checks cannot tell those reads apart."""
    assert shared_names(sorted(PACKAGE.glob("*.py"))) == sorted(SHARED_NAMES)


# Exception classes that no except clause names but that stay, with the reason.
REPORTED = {
    "UnachievableRatioError": "a failed cell's report row names it",
    "DivergenceError": "a failed cell's report row names it",
    "TooManyDevicesError": "a failed cell's report row names it",
}


def exception_classes(trees):
    """Names of the classes in `trees` that derive from a built-in exception,
    directly or through other classes in `trees`."""
    bases = {node.name: {getattr(b, "id", getattr(b, "attr", None)) for b in node.bases}
             for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    found = {name for name, value in vars(builtins).items()
             if isinstance(value, type) and issubclass(value, BaseException)}
    builtin = set(found)
    while more := {name for name, b in bases.items() if b & found} - found:
        found |= more
    return found - builtin


def caught(trees):
    """Names that the except clauses in `trees` catch."""
    return {getattr(node, "id", getattr(node, "attr", None))
            for tree in trees for handler in ast.walk(tree)
            if isinstance(handler, ast.ExceptHandler) and handler.type is not None
            for node in ast.walk(handler.type)}


def test_every_exception_class_is_told_apart():
    """A subclass earns its place only where a reader tells it apart: an
    except clause in the package or the benchmark, or a failed cell's report
    row, which starts with the exception's type name. Any other refusal is a
    plain LatentWireError whose message says which check fired."""
    package = [ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))]
    bench = [ast.parse(p.read_text()) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert sorted(exception_classes(package) - caught(package + bench)) == sorted(REPORTED)


def bound_names(tree):
    """Names that the module's top-level statements bind by import or
    assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def package_reads(tree):
    """Names that `tree` reads from the package: ``lw.X`` where ``lw`` is an
    ``import latentwire`` binding, and ``from latentwire import X``."""
    aliases = {a.asname or "latentwire" for node in ast.walk(tree)
               if isinstance(node, ast.Import) for a in node.names
               if a.name == "latentwire" or (a.name.startswith("latentwire.")
                                             and a.asname is None)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "latentwire":
            names.update(a.name for a in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            names.add(node.attr)
    return names


def test_every_package_name_has_a_reader():
    """The tests import from the modules; ``__init__.py`` binds only what the
    benchmark and the tools read from the package itself."""
    readers = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
    read = set().union(*(package_reads(ast.parse(p.read_text())) for p in readers))
    assert sorted(bound_names(ast.parse((PACKAGE / "__init__.py").read_text())) - read) == []
