"""The names other code reaches the package through."""

import ast
import importlib.util
from pathlib import Path

import msel
import msel.cli
import msel.dataio
import msel.dcsel
import msel.graph
import msel.similarity
from msel import Solution

# The module attributes bench/spans.py rebinds to time the layers of a run.
# It reads each through vars() of its module, so a name imported there only
# for that must stay a name of that module.
TRACED = {
    msel.dcsel: ["disjoint_union", "parse_schedule", "modified_sgsel",
                 "incident_weight", "is_feasible", "cross_weight"],
    msel.dataio: ["SimGraph", "read_msg1", "parse_bridges", "load_content_cites",
                  "normalize_attributes", "build_similarity_graph"],
    msel.similarity: ["SimGraph"],
    msel.cli: ["load_content_cites", "write_msg1"],
}


def test_every_exported_name_resolves():
    missing = [name for name in msel.__all__ if not hasattr(msel, name)]
    assert missing == []


def test_traced_names_are_module_attributes():
    for module, names in TRACED.items():
        for name in names:
            assert callable(vars(module).get(name)), f"{module.__name__}.{name}"
    assert "from_members" in vars(Solution)
    # the tracer itself rebinds every name, through vars() of its module,
    # and restores it: a name deleted as an unused import fails here, not
    # only in a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = [(module, name) for module, names in TRACED.items() for name in names]
    before = [vars(module)[name] for module, name in names]
    tracer = spans.Tracer("api")
    tracer.install()
    try:
        during = [vars(module)[name] for module, name in names]
    finally:
        tracer.uninstall()
    assert [f"{m.__name__}.{n}" for (m, n), old, new in zip(names, before, during) if new is old] == []
    assert [vars(module)[name] for module, name in names] == before


def _imported_modules(path: Path) -> set[str]:
    """Every module an ``msel`` source file imports, or imports a name from,
    as an absolute dotted name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["msel" if node.level else "", node.module]))
            found.add(base)
            found.update(f"{base}.{a.name}" for a in node.names)
    return found


def test_graph_and_peel_do_not_import_the_session():
    # the session builds on the peel and the graph's group state, never the
    # other way round
    src = Path(msel.graph.__file__).parent
    for name in ("graph", "peel"):
        assert "msel.dcsel" not in _imported_modules(src / f"{name}.py"), name
    assert msel.dcsel._Group is msel.graph._Group
