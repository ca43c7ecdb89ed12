"""Every function, class and method in the library has a caller outside the
tests, and every name a library module imports is used in that module.

Code that only tests call belongs in `tests/oracles.py`. A use is the
definition's name (as a name, an attribute or a string, the way the benchmark
tracer names its hooks) somewhere in `src/dpsynth` other than its own
definition and the package's `__init__.py` re-exports, or in `perfbench/` or
`scripts/`. A method `C.m` counts as used only where `.m` or `"m"` appears in a
file that names `C` or one of its subclasses, so a dead method cannot hide
behind a live one of the same name on an unrelated class.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dpsynth"

# documented entry points that callers of the library use and nothing inside calls
ENTRY_POINTS = {
    "canonical_json",  # report: the byte-stable form of a report
}
# methods that a base class outside the library calls
FRAMEWORK_HOOKS = {
    "_Parser.error",  # cli: argparse calls it on a command line it rejects
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _definitions():
    """(path, node, owning class or None) of every library definition."""
    for path in sorted(SRC.glob("*.py")):
        tree = _parse(path)
        owner = {
            id(item): cls
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for item in cls.body
            if isinstance(item, ast.FunctionDef)
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__"):
                yield path, node, owner.get(id(node))


def _family(cls, bases):
    """The class's name and its subclasses', given each class's base names."""
    family = {cls}
    for _ in bases:
        family |= {c for c, bs in bases.items() if bs & family}
    return family


def _references():
    """Uses outside the package's __init__.py.

    Returns name -> [(path, line, is a name rather than an attribute or
    string)], and path -> every name the file mentions (names, attributes,
    strings, imports and class definitions).
    """
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    refs: dict[str, list] = {}
    mentions: dict[Path, set] = {}
    for path in files:
        names = mentions.setdefault(path, set())
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ClassDef):
                names.add(node.name)
            elif isinstance(node, ast.alias):
                names.add(node.asname or node.name)
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            names.add(name)
            refs.setdefault(name, []).append((path, node.lineno, isinstance(node, ast.Name)))
    return refs, mentions


def test_every_library_definition_has_a_non_test_caller():
    refs, mentions = _references()
    definitions = list(_definitions())
    bases = {
        node.name: {getattr(b, "attr", getattr(b, "id", None)) for b in node.bases}
        for _, node, _ in definitions
        if isinstance(node, ast.ClassDef)
    }
    unused = []
    for path, node, owner in definitions:
        if node.name in ENTRY_POINTS or (owner and f"{owner.name}.{node.name}" in FRAMEWORK_HOOKS):
            continue
        family = _family(owner.name, bases) if owner else None
        outside = [
            (p, line)
            for p, line, bare in refs.get(node.name, [])
            if not (p == path and node.lineno <= line <= node.end_lineno)
            and (family is None or (not bare and family & mentions[p]))
        ]
        if not outside:
            unused.append(f"{path.name}:{node.lineno} {owner.name + '.' if owner else ''}{node.name}")
    assert not unused, "only tests call: " + ", ".join(unused)


def test_every_library_import_is_used():
    # __init__.py imports to re-export; every other module must read what it imports
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _parse(path)
        imported = {
            alias.asname or alias.name.split(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]
    assert not unused, "imported and never used: " + ", ".join(unused)
