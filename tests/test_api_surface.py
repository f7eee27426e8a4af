"""The package exports only what it runs or documents: every name in a
srofdm module's `__all__` is used by another srofdm module or listed under
the README's "Analysis API" heading. Code that only the tests call belongs in
the tests (see tests/oracles.py). Each config type checks its own rules as it
is built, so no src module asks an instance to validate itself. No src or
test module imports a name it never references, and no src module imports
scipy at module scope."""
import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "srofdm"
TESTS = ROOT / "tests"
README = ROOT / "README.md"


def module_name(path: Path) -> str:
    return "srofdm" if path.stem == "__init__" else f"srofdm.{path.stem}"


def exporting_modules():
    return sorted(
        module_name(p) for p in SRC.glob("*.py")
        if hasattr(importlib.import_module(module_name(p)), "__all__")
    )


def identifiers(path: Path) -> set:
    """Every name, attribute and imported name that a module's code mentions."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def documented_api() -> dict:
    """{module: names} from the Analysis API section's "- `srofdm.x`: ..." lines."""
    section = README.read_text().split("\n## Analysis API\n", 1)[1].split("\n## ", 1)[0]
    api = {}
    for line in section.splitlines():
        entry = re.match(r"- `(srofdm(?:\.\w+)?)`:(.*)", line)
        if entry:
            api.setdefault(entry.group(1), set()).update(re.findall(r"`(\w+)", entry.group(2)))
    return api


@pytest.mark.parametrize("module", exporting_modules())
def test_every_export_is_used_or_documented(module):
    used_elsewhere = set().union(
        *(identifiers(p) for p in SRC.glob("*.py") if module_name(p) != module)
    )
    documented = documented_api().get(module, set())
    orphans = [
        name for name in importlib.import_module(module).__all__
        if name not in used_elsewhere and name not in documented
    ]
    assert not orphans, (
        f"{module} exports {orphans}, which no other srofdm module uses and the "
        "README's Analysis API does not list; move test-only code into tests/"
    )


def test_documented_names_are_exported():
    for module, names in documented_api().items():
        exported = set(importlib.import_module(module).__all__)
        assert names <= exported, f"README lists {sorted(names - exported)} under {module}"


def test_no_private_imports_between_modules():
    # a name with a leading underscore is its module's own; another module that
    # needs it needs it exported, and dunders such as __version__ are public
    private = []
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        modules = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                   and node.module == "srofdm" for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("srofdm"):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                names = [node.attr]
            else:
                continue
            private += [f"{path.name}: {name}" for name in names
                        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))]
    assert not private, f"private names used across srofdm modules: {private}"


def test_configs_are_valid_once_built():
    # each config type checks its rules as it is built (or replaced), so no
    # caller asks an instance whether it is valid
    tree = {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    calls = [f"{name}:{node.lineno}" for name, module in tree.items() for node in ast.walk(module)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "validate"]
    assert not calls, f".validate() calls in srofdm: {calls}"
    checked = {node.name for module in tree.values() for node in ast.walk(module)
               if isinstance(node, ast.ClassDef)
               and any(isinstance(item, ast.FunctionDef) and item.name == "__post_init__" for item in node.body)}
    missing = {"SystemConfig", "ChannelConfig", "Scenario", "SweepSpec"} - checked
    assert not missing, f"no __post_init__ on {sorted(missing)}"


def test_version_matches_pyproject():
    # the version is written twice: in pyproject.toml and as srofdm.__version__
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["version"] == importlib.import_module("srofdm").__version__


def unused_imports(path: Path) -> list:
    """The names a module imports and never references: not as a name in its
    code and not in its `__all__`. `from __future__` imports are directives,
    not names."""
    tree = ast.parse(path.read_text())
    referenced = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            referenced |= set(ast.literal_eval(node.value))
        elif isinstance(node, ast.Import):
            imported += [(node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    return [f"{path.relative_to(ROOT)}:{line}: {name}" for line, name in imported if name not in referenced]


def test_no_unused_imports():
    unused = [entry for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
              for entry in unused_imports(path)]
    assert not unused, f"imported and never referenced: {unused}"


def module_scope_imports(tree: ast.Module) -> list:
    """(line, module) of every import that runs when the module is imported:
    all but those inside a function body."""
    found, todo = [], list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append((node.lineno, node.module or ""))
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo.extend(ast.iter_child_nodes(node))
    return found


def test_scipy_is_imported_only_inside_functions():
    # scipy serves only the closed-form companions: a run that evaluates none
    # must not pay its import time and memory
    sample = "import scipy\nif 1:\n    from scipy.special import erfc\ndef f():\n    import scipy.stats\n"
    assert sorted(module_scope_imports(ast.parse(sample))) == [(1, "scipy"), (3, "scipy.special")]
    eager = [f"{path.relative_to(ROOT)}:{line}: {module}"
             for path in sorted(SRC.rglob("*.py"))
             for line, module in module_scope_imports(ast.parse(path.read_text()))
             if module.split(".")[0] == "scipy"]
    assert not eager, f"scipy imported at module scope: {eager}"
