"""The public names that the benchmark and the demos use stay on the package.

The names are read from the callers' source with ast, not copied here, so a
later cut of the API that removes one of them fails here first.
"""

import ast
from pathlib import Path

import rectchar

ROOT = Path(__file__).resolve().parent.parent


def _resolves(dotted: str) -> bool:
    """Whether getattr along the dotted path from the package succeeds."""
    obj = rectchar
    for attr in dotted.split("."):
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def _rc_chains(path: Path) -> set[str]:
    """Every longest attribute chain read off the name rc, such as
    "interpolation.normalized_character" for rc.interpolation.normalized_character."""
    tree = ast.parse(path.read_text())
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    chains = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id == "rc":
            chains.add(".".join(reversed(attrs)))
    return chains


def _tracer_private_names() -> set[str]:
    """The private functions the tracer wraps for its counters, "layer.name"."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        targets = [t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)]
        if targets == ["PRIVATE"]:
            private = ast.literal_eval(node.value)
            return {f"{layer}.{name}" for layer, names in private.items() for name in names}
    raise AssertionError("perfbench/tracer.py defines no PRIVATE")


def test_names_the_benchmark_reads_resolve():
    names = set()
    for source in ("workloads.py", "test_perfbench.py"):
        names |= _rc_chains(ROOT / "perfbench" / source)
    names |= _tracer_private_names()
    assert "factorization_poly" in names  # the parse found the workload calls
    missing = [dotted for dotted in sorted(names) if not _resolves(dotted)]
    assert not missing, missing


def test_names_the_demos_import_resolve():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    imported = [
        f"{demo.name}: {alias.name}"
        for demo in demos
        for node in ast.walk(ast.parse(demo.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "rectchar"
        for alias in node.names
    ]
    assert len(imported) >= len(demos)
    missing = [entry for entry in imported if not _resolves(entry.split(": ")[1])]
    assert not missing, missing


def test_all_has_no_duplicates_and_resolves():
    assert len(rectchar.__all__) == len(set(rectchar.__all__))
    assert [name for name in rectchar.__all__ if not _resolves(name)] == []
