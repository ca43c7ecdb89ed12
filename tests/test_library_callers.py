"""Every function and class in the library has a caller outside the tests.

Code that only tests call belongs in `tests/oracles.py`. A definition counts
as used when its name appears (as a name, an attribute or a string, the way
the benchmark tracer names its hooks) somewhere in `src/dpsynth` other than
its own definition and the package's `__init__.py` re-exports, or in
`perfbench/` or `scripts/`.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dpsynth"

# documented entry points that callers of the library use and nothing inside calls
ENTRY_POINTS = {
    "canonical_json",  # report: the byte-stable form of a report
    "load_report",  # report: read back a written report
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _definitions():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__"):
                yield path, node


def _references():
    """name -> [(path, line)] of every use outside the package's __init__.py."""
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    refs: dict[str, list] = {}
    for path in files:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            refs.setdefault(name, []).append((path, node.lineno))
    return refs


def test_every_library_definition_has_a_non_test_caller():
    refs = _references()
    unused = []
    for path, node in _definitions():
        if node.name in ENTRY_POINTS:
            continue
        outside = [
            (p, line)
            for p, line in refs.get(node.name, [])
            if not (p == path and node.lineno <= line <= node.end_lineno)
        ]
        if not outside:
            unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, "only tests call: " + ", ".join(unused)
