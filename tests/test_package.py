import ast
from pathlib import Path

import hstv


def package_imports() -> list[tuple[str, int, str, bool]]:
    """(file name, line, module, inside a function) for every absolute
    import in the package's modules."""
    found = []
    for path in sorted(Path(hstv.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        nested = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(path.name, node.lineno, name, id(node) in nested) for name in names]
    return found


def test_modules_import_hstv_only_relatively():
    """No module of the package imports `hstv` by its absolute name, so two
    checkouts of it can be imported side by side under different names."""
    absolute = [f"{file}:{line} {name}" for file, line, name, _ in package_imports()
                if name == "hstv" or name.startswith("hstv.")]
    assert not absolute


def test_fractions_and_scipy_stay_inside_their_boundaries():
    """`fractions` is imported only by the approximation pipeline and the
    acceptance suite, which build frames and plan spacings from Fractions;
    scipy only inside a function of the acceptance suite, so importing the
    package does not load it."""
    stray = [f"{file}:{line} {name}" for file, line, name, nested in package_imports()
             if (name == "fractions" and file not in ("approx.py", "acceptance.py"))
             or (name.split(".")[0] == "scipy" and not (file == "acceptance.py" and nested))]
    assert not stray
