import ast
from pathlib import Path

import grassmean

SRC = Path(grassmean.__file__).resolve().parent


def _unused_imports(path: Path) -> list:
    """The names that ``path`` binds with ``from ... import`` and never reads again."""
    tree = ast.parse(path.read_text())
    imported = [alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_every_name_imported_from_a_module_is_used_in_src():
    # a name a module imports and never uses is a leftover of a route that is
    # gone; ``__init__.py`` imports to re-export, so it is left out
    unused = {path.name: names for path in sorted(SRC.glob("*.py"))
              if path.name != "__init__.py" and (names := _unused_imports(path))}
    assert not unused, f"imported but never used: {unused}"
