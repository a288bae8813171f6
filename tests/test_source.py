"""The package source, read as syntax.

Core claim:
    - no module of ``src/orbsde`` has a catch-all handler (a bare
      ``except:``, or ``Exception`` or ``BaseException`` caught alone or in
      a tuple): a handler names the errors the call it guards is documented
      to raise, so a defect that raises anything else cannot be absorbed by
      a fallback that gives the same output
    - no module of ``src/orbsde`` reaches a private numpy module
      (``numpy._core``, ``numpy.core``, ``numpy.lib._*``, any ``numpy._*``)
      by an import, an attribute of the numpy name or a module-name
      string: these move between the numpy versions ``pyproject.toml``
      admits (>= 1.24), and numpy 2 warns on ``numpy.core``, which the
      test configuration turns into an error
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "orbsde"
_CATCH_ALL = {"Exception", "BaseException"}
# a dotted numpy path through a private or deprecated module
_PRIVATE_NUMPY = re.compile(r"numpy(\.lib)?\.(core\b|_(?!_)\w*)")


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


def _private_numpy(text: str) -> list[int]:
    """The line of every use of a private numpy module in the module
    ``text``: an import of one, an attribute chain on a name bound to
    numpy, or a string naming one (``importlib.import_module``)."""
    tree = ast.parse(text)
    aliases = {"numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names if a.name == "numpy" and a.asname}

    def dotted(node) -> str | None:
        if isinstance(node, ast.Name):
            return "numpy" if node.id in aliases else None
        if isinstance(node, ast.Attribute):
            base = dotted(node.value)
            return None if base is None else f"{base}.{node.attr}"
        return None

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names = [base] + [f"{base}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Attribute):
            names = [dotted(node) or ""]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            continue
        if any(_PRIVATE_NUMPY.match(name) for name in names):
            lines.append(node.lineno)
    return sorted(set(lines))


def test_no_module_reaches_a_private_numpy_module():
    found = {path.name: lines for path in sorted(SOURCE.glob("*.py"))
             if (lines := _private_numpy(path.read_text()))}
    assert found == {}


def test_the_guard_sees_every_private_numpy_form():
    private = ["import numpy._core", "import numpy.core.multiarray as ma",
               "from numpy._core import multiarray", "from numpy.core import umath",
               "from numpy.lib._function_base_impl import interp",
               "from numpy.lib import _index_tricks_impl",
               "import numpy as np\nnp._core.multiarray.interp",
               "import numpy as xp\nxp.core.umath", "import numpy\nnumpy.lib._utils_impl",
               "import importlib\nimportlib.import_module('numpy._core.multiarray')"]
    for text in private:
        assert _private_numpy(text), text
    public = ["import numpy as np\nnp.interp\nnp.lib.stride_tricks\nnp.__version__",
              "from numpy.lib import stride_tricks", "from numpy import interp",
              "import numpy.linalg", "x = 'numpy is fast'", "core = 1\ncore._x"]
    for text in public:
        assert _private_numpy(text) == [], text
