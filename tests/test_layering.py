"""Dependencies run one way: core -> profile/marking/shortcircuit/senders ->
ransim -> harness.  Checked from the source with ``ast``, so lazy imports
inside functions count too."""

import ast
from pathlib import Path

import pytest

PKG = Path(__file__).resolve().parents[1] / "src" / "l4span"
LIBRARY = ["core", "profile", "marking", "shortcircuit", "senders"]
RANSIM = sorted(f"ransim/{p.name}" for p in (PKG / "ransim").glob("*.py"))
# the one harness edge left: sim.py records into harness.metrics, whose
# MetricsCollector the benchmark patches at l4span.harness.metrics, so the
# collector stays there until the benchmark reads a public telemetry
# surface (ROADMAP item 1)
HARNESS_EDGES = {
    "ransim/sim.py": ["l4span.harness.metrics", "l4span.harness.metrics.INTERVAL_SECS",
                      "l4span.harness.metrics.MetricsCollector"],
}


def _imported_modules(rel: str) -> set[str]:
    """Absolute names of everything a source file under l4span/ imports."""
    path = PKG / rel
    package = ("l4span",) + Path(rel).parent.parts
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else ()
            module = ".".join(base + ((node.module,) if node.module else ()))
            names.add(module)
            # `from ..harness import metrics` names a submodule
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def _reaches(names: set[str], package: str) -> list[str]:
    return sorted(n for n in names if n == package or n.startswith(package + "."))


@pytest.mark.parametrize("rel", [f"{m}.py" for m in LIBRARY] + RANSIM)
def test_no_harness_imports(rel):
    """None, apart from the edges HARNESS_EDGES pins name by name."""
    assert _reaches(_imported_modules(rel), "l4span.harness") == HARNESS_EDGES.get(rel, [])


@pytest.mark.parametrize("rel", [f"{m}.py" for m in LIBRARY])
def test_library_does_not_import_ransim(rel):
    assert _reaches(_imported_modules(rel), "l4span.ransim") == []


def test_resolver_sees_relative_imports():
    names = _imported_modules("ransim/sim.py")
    assert "l4span.harness.metrics" in names
    assert "l4span.ransim.layer" in names
