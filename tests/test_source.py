"""The package source, read as syntax.

Core claim:
    - no module of ``src/orbsde`` has a catch-all handler (a bare
      ``except:``, or ``Exception`` or ``BaseException`` caught alone or in
      a tuple): a handler names the errors the call it guards is documented
      to raise, so a defect that raises anything else cannot be absorbed by
      a fallback that gives the same output
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "orbsde"
_CATCH_ALL = {"Exception", "BaseException"}


def _catch_alls(text: str) -> list[int]:
    """The line of every catch-all ``except`` in the module ``text``."""
    def names(node):
        if isinstance(node, ast.Tuple):
            return [n for element in node.elts for n in names(element)]
        if isinstance(node, ast.Attribute):   # builtins.Exception
            return [node.attr]
        return [node.id] if isinstance(node, ast.Name) else []

    return [node.lineno for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.ExceptHandler)
            and (node.type is None or _CATCH_ALL & set(names(node.type)))]


def test_no_module_catches_every_exception():
    modules = sorted(SOURCE.glob("*.py"))
    assert len(modules) >= 9
    found = {path.name: lines for path in modules
             if (lines := _catch_alls(path.read_text()))}
    assert found == {}


def test_the_guard_sees_every_catch_all_form():
    handlers = ["except:", "except Exception:", "except BaseException as err:",
                "except (ValueError, Exception):", "except (KeyError, (OSError, BaseException)):",
                "except builtins.Exception:"]
    for handler in handlers:
        assert _catch_alls(f"try:\n    pass\n{handler}\n    pass\n") == [3], handler
    named = "try:\n    pass\nexcept (ValueError, ExceptionGroup):\n    pass\n"
    assert _catch_alls(named) == []
