"""Module layering: geometry -> compression -> attention -> evaluation -> CLI.

Each module of the package may import only from the modules below it; a
back-edge (say ``pod`` importing ``attention``) fails here.
"""

import ast
from pathlib import Path

import pytest

import lamp

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lamp"
PERFBENCH = PACKAGE.parent.parent / "perfbench"

_COMPRESSION = {"errors", "patches", "pod"}
ALLOWED = {
    "errors": set(),
    "patches": {"errors"},
    "pod": {"errors", "patches"},
    "synthetic": {"errors", "patches"},
    "attention": _COMPRESSION,
    "gappy": _COMPRESSION,
    "formats": _COMPRESSION | {"attention"},
    "metrics": _COMPRESSION | {"attention", "synthetic"},
}
FACADES = {"cli", "__init__"}  # may import any module of the package


def package_imports(path: Path) -> set[str]:
    """Sibling modules a module imports with ``from .x import`` or ``from . import x``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert modules == set(ALLOWED) | FACADES


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_imports_only_from_lower_layers(module):
    imports = package_imports(PACKAGE / f"{module}.py")
    assert imports <= ALLOWED[module], f"{module} imports {sorted(imports - ALLOWED[module])}"


def test_parser_sees_both_import_forms():
    assert package_imports(PACKAGE / "cli.py") >= {"formats", "metrics", "synthetic", "attention"}


def test_no_post_init_freezes_arrays_itself():
    """Array fields are frozen by ``patches.freeze`` only, never by hand."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
                offenders += [
                    f"{path.stem}:{call.lineno}"
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "setflags"
                ]
    assert not offenders, f"__post_init__ calls .setflags( at {offenders}"


def test_only_patches_compares_a_mask_with_a_grid():
    """Masks meet grids through ``PatchGrid.check_mask`` alone; ``matches`` is gone."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.stem == "patches":
            grid = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "PatchGrid")
            assert "matches" not in {n.name for n in grid.body if isinstance(n, ast.FunctionDef)}
            continue
        offenders += [
            f"{path.stem}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            for operand in (node.left, *node.comparators)
            if isinstance(operand, ast.Attribute)
            and operand.attr == "n_patches"
            and isinstance(operand.value, ast.Name)
            and "mask" in operand.value.id
        ]
    assert not offenders, f"mask.n_patches compared outside patches.py at {offenders}"


def formats_layout_offenders(source: str) -> list[str]:
    """What in ``formats.py`` source bypasses its one declaration per layout:
    a call of the ``struct`` module's own pack/unpack/calcsize (every header
    goes through a ``struct.Struct`` constant), a class, or a public ``*_bytes``
    function (the writers are the only producers of their bytes)."""
    offenders = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "struct"
            and node.func.attr != "Struct"
        ) or (isinstance(node, ast.ImportFrom) and node.module == "struct"):
            offenders.append(f"struct call or import at line {node.lineno}")
        elif isinstance(node, ast.ClassDef):
            offenders.append(f"class {node.name}")
        elif (
            isinstance(node, ast.FunctionDef)
            and node.name.endswith("_bytes")
            and not node.name.startswith("_")
        ):
            offenders.append(f"def {node.name}")
    return offenders


def test_formats_declares_each_layout_once():
    offenders = formats_layout_offenders((PACKAGE / "formats.py").read_text())
    assert not offenders, f"formats.py: {offenders}"


@pytest.mark.parametrize(
    "planted",
    [
        'HEAD = struct.pack("<4IB", 1, 1, 1, 1, 0)',
        'N = struct.calcsize("<5IB2d")',
        "from struct import unpack",
        "class _Reader:\n    pass",
        "def ppm_bytes(rgb):\n    return b''",
    ],
    ids=["pack", "calcsize", "import", "class", "public-bytes"],
)
def test_layout_guard_catches_a_planted_bypass(planted):
    source = (PACKAGE / "formats.py").read_text() + "\n\n" + planted + "\n"
    assert formats_layout_offenders(source)


#: Calls that read or write a file's contents, or draw and write a PPM: ``open``
#: (builtin or method), the ``Path`` read/write helpers, ``write_ppm`` and ``heatmap_rgb``.
FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes", "write_ppm",
              "heatmap_rgb"}


def file_layout_offenders(source: str) -> list[str]:
    """What in a module other than ``formats.py`` handles a file layout itself
    instead of calling ``formats``: a call in ``FILE_CALLS``, an import of
    ``csv``, or a ``"patch_index"`` string (the power-map columns are declared
    once, in ``formats``)."""
    offenders = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in FILE_CALLS:
                offenders.append(f"{name}( at line {node.lineno}")
        elif (isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names)) or (
            isinstance(node, ast.ImportFrom) and node.module == "csv"
        ):
            offenders.append(f"csv import at line {node.lineno}")
        elif isinstance(node, ast.Constant) and node.value == "patch_index":
            offenders.append(f"'patch_index' at line {node.lineno}")
    return offenders


@pytest.mark.parametrize("module", sorted((set(ALLOWED) | FACADES) - {"formats"}))
def test_only_formats_handles_file_layouts(module):
    offenders = file_layout_offenders((PACKAGE / f"{module}.py").read_text())
    assert not offenders, f"{module}.py: {offenders}"


@pytest.mark.parametrize(
    "planted",
    [
        'with open("power.csv", newline="") as handle:\n    pass',
        'handle = Path("power.csv").open("rb")',
        'text = Path("power.csv").read_text()',
        "import csv",
        "from csv import DictReader",
        'formats.write_ppm(rgb, "a.ppm")',
        "rgb = formats.heatmap_rgb(values, 0.0, 1.0)",
        'COLUMNS = ["patch_index", "row", "col", "value"]',
    ],
    ids=["open", "path-open", "read-text", "import-csv", "from-csv", "write-ppm", "heatmap-rgb",
         "columns"],
)
def test_file_layout_guard_catches_a_planted_bypass(planted):
    source = (PACKAGE / "cli.py").read_text() + "\n\n" + planted + "\n"
    assert file_layout_offenders(source)


def lapack_handler_offenders(source: str) -> list[str]:
    """Lines of ``except`` clauses that name ``LinAlgError``, alone or in a tuple."""
    return [
        f"except at line {node.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        for name in ast.walk(node.type)
        if (isinstance(name, ast.Attribute) and name.attr == "LinAlgError")
        or (isinstance(name, ast.Name) and name.id == "LinAlgError")
    ]


@pytest.mark.parametrize("module", sorted((set(ALLOWED) | FACADES) - {"errors"}))
def test_only_errors_catches_lapack_failures(module):
    """Every factorization goes through ``errors.lapack`` or ``errors.solve``."""
    offenders = lapack_handler_offenders((PACKAGE / f"{module}.py").read_text())
    assert not offenders, f"{module}.py: {offenders}"


@pytest.mark.parametrize(
    "planted",
    [
        "try:\n    pass\nexcept np.linalg.LinAlgError:\n    pass",
        "try:\n    pass\nexcept (ValueError, LinAlgError) as exc:\n    pass",
    ],
    ids=["attribute", "tuple-name"],
)
def test_lapack_handler_guard_catches_a_planted_handler(planted):
    source = (PACKAGE / "gappy.py").read_text() + "\n\n" + planted + "\n"
    assert lapack_handler_offenders(source)


def test_errors_is_where_lapack_failures_are_caught():
    assert lapack_handler_offenders((PACKAGE / "errors.py").read_text())


#: The only ``scipy.linalg`` name a module other than ``errors`` may import
#: (``errors.solve`` alone imports ``cho_solve``); it reports bad input as
#: ``ValueError``, never as ``LinAlgError``.
SCIPY_LINALG = {"scipy.linalg.blas.dgemm"}


def lapack_call_offenders(source: str) -> list[str]:
    """``np.linalg`` outside the op of a ``lapack(...)`` call, and imports that
    reach LAPACK some other way: so no ``LinAlgError`` can leave the package
    and :data:`lamp.errors.EXIT_CODES` needs no entry for it."""
    tree = ast.parse(source)
    ops = set()  # nodes of a lapack call's op: the np.linalg routine itself or a lambda
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "lapack" and isinstance(node.args[0], (ast.Attribute, ast.Lambda)):
                ops.update(map(id, ast.walk(node.args[0])))
    offenders = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "linalg"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
                and id(node) not in ops):
            offenders.append(f"np.linalg at line {node.lineno}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            prefix = f"{node.module}." if isinstance(node, ast.ImportFrom) else ""
            for alias in node.names:
                dotted = prefix + alias.name
                if dotted.startswith("numpy.linalg") or dotted == "scipy" or (
                    dotted.startswith("scipy.linalg") and dotted not in SCIPY_LINALG
                ):
                    offenders.append(f"import of {dotted} at line {node.lineno}")
    return offenders


@pytest.mark.parametrize("module", sorted((set(ALLOWED) | FACADES) - {"errors"}))
def test_lapack_is_called_only_through_batched(module):
    """Outside ``errors.py``, every LAPACK call is the op of ``errors.lapack``."""
    offenders = lapack_call_offenders((PACKAGE / f"{module}.py").read_text())
    assert not offenders, f"{module}.py: {offenders}"


@pytest.mark.parametrize(
    "planted",
    [
        "np.linalg.solve(a, b)",
        "from scipy.linalg import cho_factor",
        "from scipy.linalg import cho_solve",
        'lam = lapack(np.linalg.eigh(gram), gram, "failed")',
        "import scipy.linalg",
        "from numpy import linalg",
    ],
    ids=["module-body", "cho-factor", "cho-solve", "evaluated-op", "import-scipy-linalg",
         "import-numpy-linalg"],
)
def test_lapack_call_guard_catches_a_planted_bypass(planted):
    source = (PACKAGE / "pod.py").read_text() + "\n\n" + planted + "\n"
    assert lapack_call_offenders(source)


def test_pod_calls_lapack_only_as_the_op_of_lapack():
    """pod's Gram eigh and SVD fallback pass only because ``lapack`` runs them."""
    source = (PACKAGE / "pod.py").read_text()
    assert not lapack_call_offenders(source)
    assert len(lapack_call_offenders(source.replace("lapack(", "apply("))) == 2


def noise_draw_offenders(source: str) -> list[str]:
    """Lines that name ``draw_noise``, as a name, an attribute or an import: the
    noise protocol is implemented once, in ``synthetic.py``."""
    return [
        f"draw_noise at line {node.lineno}"
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Name) and node.id == "draw_noise")
        or (isinstance(node, ast.Attribute) and node.attr == "draw_noise")
        or (isinstance(node, ast.alias) and node.name == "draw_noise")
    ]


@pytest.mark.parametrize("module", sorted((set(ALLOWED) | FACADES) - {"synthetic"}))
def test_only_synthetic_references_draw_noise(module):
    """Every other module observes noise through ``synthetic.observe``."""
    offenders = noise_draw_offenders((PACKAGE / f"{module}.py").read_text())
    assert not offenders, f"{module}.py: {offenders}"


@pytest.mark.parametrize(
    "planted",
    [
        "eps = draw_noise(test_norm.data.shape, sigma2, noise_seed)",
        "from .synthetic import draw_noise",
        "eps = synthetic.draw_noise((2, 2), 1.0, 0)",
    ],
    ids=["call", "import", "attribute"],
)
def test_noise_guard_catches_a_planted_draw(planted):
    source = (PACKAGE / "metrics.py").read_text() + "\n\n" + planted + "\n"
    assert noise_draw_offenders(source)


def test_only_observe_calls_draw_noise():
    tree = ast.parse((PACKAGE / "synthetic.py").read_text())
    callers = {
        fn.name
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "draw_noise"
    }
    assert callers == {"observe"}


def thread_import_offenders(source: str) -> list[str]:
    """Imports of ``concurrent.futures`` or ``threading``, in any import form."""
    offenders = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        offenders += [f"import of {name} at line {node.lineno}" for name in names
                      if name.split(".")[0] in ("concurrent", "threading")]
    return offenders


@pytest.mark.parametrize("module", sorted((set(ALLOWED) | FACADES) - {"errors"}))
def test_only_errors_makes_threads(module):
    """Every thread pool is ``errors.each``'s."""
    offenders = thread_import_offenders((PACKAGE / f"{module}.py").read_text())
    assert not offenders, f"{module}.py: {offenders}"


@pytest.mark.parametrize(
    "planted",
    [
        "from concurrent.futures import ThreadPoolExecutor",
        "import concurrent.futures",
        "from concurrent import futures",
        "import threading",
        "from threading import Thread",
    ],
    ids=["from-futures", "import-futures", "from-concurrent", "import-threading", "from-threading"],
)
def test_thread_import_guard_catches_a_planted_import(planted):
    source = (PACKAGE / "metrics.py").read_text() + "\n\n" + planted + "\n"
    assert thread_import_offenders(source)


def test_errors_is_where_threads_are_made():
    assert thread_import_offenders((PACKAGE / "errors.py").read_text())


def private_import_offenders(source: str) -> list[str]:
    """Private names imported from a sibling module (``from .x import _name``):
    a name with a leading underscore is used only in the module defining it."""
    return [
        f"{alias.name} from .{node.module or ''} at line {node.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level >= 1
        for alias in node.names
        if alias.name.startswith("_")
    ]


@pytest.mark.parametrize("module", sorted(set(ALLOWED) | FACADES))
def test_no_private_name_crosses_a_module(module):
    offenders = private_import_offenders((PACKAGE / f"{module}.py").read_text())
    assert not offenders, f"{module}.py: {offenders}"


@pytest.mark.parametrize(
    "planted",
    [
        "from .pod import _fix_signs",
        "from .patches import (\n    MaskSpec,\n    _integer,\n)",
    ],
    ids=["single", "in-a-list"],
)
def test_private_import_guard_catches_a_planted_import(planted):
    source = (PACKAGE / "gappy.py").read_text() + "\n\n" + planted + "\n"
    assert private_import_offenders(source)


#: Names whose attributes are the package's own: ``pod.encode``, ``lamp.encode``.
PACKAGE_MODULES = {path.stem for path in PACKAGE.glob("*.py")} | {"lamp"}


def referenced_names(source: str) -> set[str]:
    """Names a module refers to as a name, an imported name or an attribute of a
    package module, each outside the top-level definition of that name."""
    found = set()
    for top in ast.parse(source).body:
        own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.alias):
                name = node.name
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in PACKAGE_MODULES):
                name = node.attr
            else:
                continue
            if name != own:
                found.add(name)
    return found


def api_user_sources() -> list[str]:
    """The code that may use the public API: the package outside ``__init__.py``
    and the benchmark harness outside its tests."""
    paths = [path for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"]
    paths += [path for path in sorted(PERFBENCH.glob("*.py")) if not path.stem.startswith("test_")]
    return [path.read_text() for path in paths]


def unused_public_names(names, sources: list[str]) -> list[str]:
    used = set().union(*map(referenced_names, sources))
    return sorted(set(names) - used)


def test_every_public_name_has_a_user_besides_the_tests():
    """No public API that only the tests use."""
    assert not unused_public_names(lamp.__all__, api_user_sources())


@pytest.mark.parametrize(
    "planted",
    [
        "def unused_helper():\n    return 0",
        "def unused_helper(n):\n    return unused_helper(n - 1) if n else 0",
        "class unused_helper:\n    def copy(self):\n        return unused_helper()",
    ],
    ids=["unreferenced", "recursive", "own-method"],
)
def test_public_api_guard_catches_an_unused_name(planted):
    sources = api_user_sources()
    sources[0] += "\n\n" + planted + "\n"
    assert unused_public_names([*lamp.__all__, "unused_helper"], sources) == ["unused_helper"]
