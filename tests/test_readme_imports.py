"""README's python snippets import only what the package provides.

Every ``from repro… import …`` and ``import repro…`` in a fenced python
block of README.md is checked: the module imports and each imported
name exists.  The snippets are parsed, never run.
"""

import ast
import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _is_repro(module: str | None) -> bool:
    return module is not None and module.split(".")[0] == "repro"


def readme_imports() -> list[tuple[str, str | None]]:
    """``(module, name)`` for every repro import; ``name`` is None for
    a plain ``import repro…``."""
    found: list[tuple[str, str | None]] = []
    for block in PYTHON_BLOCK.findall(README.read_text(encoding="utf-8")):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and _is_repro(node.module):
                found.extend((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                found.extend((alias.name, None) for alias in node.names if _is_repro(alias.name))
    return found


def _resolves(module: str, name: str | None) -> bool:
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return False
    if name is None or name == "*" or hasattr(mod, name):
        return True
    try:  # ``from package import submodule``
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_readme_imports_resolve():
    imports = readme_imports()
    assert imports, "README.md has no repro imports left to check"
    stale = [
        module if name is None else f"{module}.{name}"
        for module, name in imports
        if not _resolves(module, name)
    ]
    assert not stale, f"README.md imports names that do not exist: {stale}"
