"""The lower layers of ppabt import downwards only.

``ppabt.ltlf`` is the formula layer and imports no other ppabt module.
The tick engine ``ppabt.bt`` reads formulas through ``ltlf`` alone and
knows nothing of the mission language.  The check reads the source with
``ast``, so an import inside a function counts as well.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ppabt"


def ppabt_imports(path: Path) -> set[str]:
    """Names of the ppabt modules that the ppabt source file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("ppabt."))
        elif isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 0:
                if name != "ppabt" and not name.startswith("ppabt."):
                    continue
                name = name.removeprefix("ppabt").lstrip(".")
            if name:
                found.add(name.split(".")[0])
            else:  # from . import x / from ppabt import x
                found.update(alias.name for alias in node.names)
    return found


def test_the_scanner_sees_every_import_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import os\nimport ppabt.a\nfrom ppabt import b\nfrom ppabt.c import x\n"
        "from . import d, e\nfrom .f import y\n\ndef g():\n    from .h import z\n")
    assert ppabt_imports(probe) == {"a", "b", "c", "d", "e", "f", "h"}


@pytest.mark.parametrize("module, allowed", [("ltlf", set()), ("bt", {"ltlf"})])
def test_layer_imports_only_below_it(module, allowed):
    assert ppabt_imports(SRC / f"{module}.py") <= allowed
