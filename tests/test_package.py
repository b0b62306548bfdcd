import ast
from pathlib import Path

import hstv


def test_modules_import_hstv_only_relatively():
    """No module of the package imports `hstv` by its absolute name, so two
    checkouts of it can be imported side by side under different names."""
    absolute = []
    for path in sorted(Path(hstv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            absolute += [f"{path.name}:{node.lineno} {name}" for name in names
                         if name == "hstv" or name.startswith("hstv.")]
    assert not absolute
