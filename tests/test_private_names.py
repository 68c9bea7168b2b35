import ast
import re
from pathlib import Path

import grassmean

SRC = Path(grassmean.__file__).resolve().parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(path: Path):
    """The private names ``path`` defines, and the words of the code that names
    anything: identifiers, attributes, imports and string constants other than
    docstrings (comments never reach the tree)."""
    tree = ast.parse(path.read_text())
    defined, words, docstrings = set(), [], set()
    for node in ast.walk(tree):
        if isinstance(node, (*DEFINITIONS, ast.Module)) and ast.get_docstring(node) is not None:
            docstrings.add(id(node.body[0].value))
        if isinstance(node, DEFINITIONS):
            if node.name.startswith("_") and not node.name.endswith("__"):
                defined.add(node.name)
        elif isinstance(node, ast.Name):
            words.append(node.id)
        elif isinstance(node, ast.Attribute):
            words.append(node.attr)
        elif isinstance(node, ast.alias):
            words.append(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                words.append(node.value)
    return defined, words


def test_every_private_definition_is_named_again_in_src():
    # a private helper that no code in the package names any more is dead:
    # delete it with its tests rather than keep it for them
    defined, words = set(), []
    for path in sorted(SRC.glob("*.py")):
        found, used = _names(path)
        defined |= found
        words += used
    text = "\n".join(words)
    unnamed = sorted(name for name in defined if not re.search(rf"\b{name}\b", text))
    assert not unnamed, f"defined but never named again in src/: {unnamed}"
