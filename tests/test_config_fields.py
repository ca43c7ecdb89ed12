"""Every field of each `*Config` dataclass in the library is set somewhere.

A field counts as set where a call to its class passes it by keyword, in
`src/dpsynth`, `perfbench/` or `scripts/`, outside the class's own definition,
or where a row of the CLI's `METHOD_FLAGS` table names it: the CLI passes
those fields to the method's config as keywords from that table.
A field that nothing sets has one value in use, and belongs in a module
constant instead. And every check in a `__post_init__` raises `ConfigError`.
"""
import ast
from collections import defaultdict
from pathlib import Path

from dpsynth.cli import METHOD_FLAGS
from dpsynth.methods import CONFIGS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dpsynth"


def _name(node):
    """The name a call or decorator refers to: `f`, `f(...)` or `mod.f`."""
    if isinstance(node, ast.Call):
        node = node.func
    return getattr(node, "attr", getattr(node, "id", None))


def _configs():
    """(path, class node, field names) of every `*Config` dataclass in the library."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.ClassDef)
                and node.name.endswith("Config")
                and any(_name(d) == "dataclass" for d in node.decorator_list)
            ):
                fields = {s.target.id for s in node.body if isinstance(s, ast.AnnAssign)}
                yield path, node, fields


def _keywords(configs):
    """class name -> the keywords that calls to it pass outside its definition."""
    inside = {(path, node.name): (node.lineno, node.end_lineno) for path, node, _ in configs}
    files = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    files += sorted((ROOT / "scripts").glob("*.py"))
    given = defaultdict(set)
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            cls = _name(node)
            lo, hi = inside.get((path, cls), (0, -1))
            if not lo <= node.lineno <= hi:
                given[cls] |= {kw.arg for kw in node.keywords if kw.arg}
    for method, field in METHOD_FLAGS.values():
        given[CONFIGS[method].__name__].add(field)
    return given


def test_every_config_field_is_set_by_keyword_outside_its_definition():
    configs = list(_configs())
    assert {"MwemConfig", "PepConfig", "GemConfig", "RapConfig", "RunConfig", "DualQueryConfig", "FemConfig"} <= {
        node.name for _, node, _ in configs
    }
    given = _keywords(configs)
    unset = [
        f"{path.name}: {node.name}.{field}"
        for path, node, fields in configs
        for field in sorted(fields - given[node.name])
    ]
    assert not unset, "never set: " + ", ".join(unset)


def test_config_checks_raise_config_error():
    # a bad setting exits the CLI with code 2 only when its check raises ConfigError
    # (BudgetError is one); DataError would exit 4
    wrong = []
    for path, node, _ in _configs():
        for fn in node.body:
            if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__":
                for r in ast.walk(fn):
                    if isinstance(r, ast.Raise) and _name(r.exc) not in ("ConfigError", "BudgetError"):
                        wrong.append(f"{path.name}:{r.lineno} {node.name}")
    assert not wrong, "raises other than ConfigError: " + ", ".join(wrong)
