import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import twosphere

MODULES = [twosphere] + [
    importlib.import_module(f"twosphere.{info.name}")
    for info in pkgutil.iter_modules(twosphere.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


# The benchmark (perfbench/) reads the program from outside its source: the
# tracer patches functions by "module:attribute", and the workloads call the
# program by name. A name that moves must keep resolving where they read it.
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(dotted: str):
    """The object at ``dotted``: its longest module prefix, then attributes
    (``twosphere.calibrate`` is the module, not the function of that name)."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
            break
        except ModuleNotFoundError:
            continue
    for part in parts[cut:]:
        obj = getattr(obj, part)
    return obj


def twosphere_names(source: str) -> set:
    """Dotted paths of the twosphere names ``source`` imports, and of the
    attributes it reads off an imported twosphere name."""
    tree = ast.parse(source)
    bound = {}  # local name -> dotted path
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name: a.name for a in node.names
                      if a.name.split(".")[0] == "twosphere"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "twosphere":
            bound |= {a.asname or a.name: f"{node.module}.{a.name}" for a in node.names}
    return set(bound.values()) | {
        f"{bound[node.value.id]}.{node.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in bound}


def test_every_benchmark_binding_resolves():
    tracer = perfbench_module("tracing").Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.missing == []


def test_every_name_the_benchmark_reads_resolves():
    names = set().union(*(twosphere_names(path.read_text()) for path in PERFBENCH.glob("*.py")))
    assert {f"twosphere.simulate.{name}" for name in
            ("preset", "NoiseSpec", "render_scene", "rotation_about_y")} <= names
    unresolved = []
    for name in sorted(names):
        try:
            resolve(name)
        except (ImportError, AttributeError):
            unresolved.append(name)
    assert unresolved == []
