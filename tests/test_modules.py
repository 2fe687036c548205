"""The package's module boundaries: no module reaches into another's private names."""

import ast
import pathlib

import cayleylab

PACKAGE = pathlib.Path(cayleylab.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _private_imports(path: pathlib.Path) -> list[str]:
    """Underscore names that path takes from another module of the package, by import or attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found, imported = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("cayleylab")):
            for alias in node.names:
                if alias.name.startswith("_") and alias.name not in MODULES:
                    found.append(f"{node.module}.{alias.name}")
                elif alias.name in MODULES:
                    imported.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in imported and node.attr.startswith("_"):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_imports_another_modules_private_names():
    assert len(MODULES) > 5
    offenders = {path.name: names for path in sorted(PACKAGE.glob("*.py")) if (names := _private_imports(path))}
    assert offenders == {}
