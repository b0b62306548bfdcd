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


def test_public_names():
    """The public API, submodules included (`__all__` is built from the
    package namespace): adding or removing a name is an edit of this list."""
    assert sorted(hstv.__all__) == [
        "CpwlFunction", "Decomposition", "ExtremalError", "FieldError", "GridSample",
        "HstvError", "HtvReport", "MeshError", "MeshPlan", "PlanError", "RationalAngle",
        "SmoothField", "SquareFrame", "Triangulation", "approx", "assemble_global",
        "build_frames", "builtin_field", "constrained_space", "convergence_experiment",
        "decompose", "discrete_htv", "dual_norm_estimate", "errors", "extend_reflection",
        "extremal", "fields", "htv", "htv_cpwl", "htv_quadrature", "interpolate",
        "interpolation_error_estimate", "is_extremal", "load_mesh", "mesh", "min_angle",
        "mollify", "p_independence_check", "parse_field", "perturbation_identity_check",
        "plan_mesh", "rational_angle_approx", "render_svg", "save_mesh", "schatten",
        "schatten_norms", "support_mask_by_jump", "sym_eigen_frame", "uniform_diagonal_mesh",
    ]
