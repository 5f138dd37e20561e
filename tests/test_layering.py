"""Dependencies run one way: core -> profile/marking/shortcircuit/senders ->
ransim -> harness.  Checked from the source with ``ast``, so lazy imports
inside functions count too."""

import ast
from pathlib import Path

import pytest

PKG = Path(__file__).resolve().parents[1] / "src" / "l4span"
LIBRARY = ["core", "profile", "marking", "shortcircuit", "senders"]
# sim.py still builds its topology from harness.scenario and records into
# harness.metrics; it can move once ransim takes a plain topology config
# (the benchmark imports Simulator and TcpEndpoint from l4span.ransim.sim)
RANSIM = sorted(f"ransim/{p.name}" for p in (PKG / "ransim").glob("*.py") if p.name != "sim.py")


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
    assert _reaches(_imported_modules(rel), "l4span.harness") == []


@pytest.mark.parametrize("rel", [f"{m}.py" for m in LIBRARY])
def test_library_does_not_import_ransim(rel):
    assert _reaches(_imported_modules(rel), "l4span.ransim") == []


def test_resolver_sees_relative_imports():
    names = _imported_modules("ransim/sim.py")
    assert "l4span.harness.metrics" in names
    assert "l4span.ransim.layer" in names
