"""The names other code reaches the package through."""

import msel
import msel.cli
import msel.dataio
import msel.dcsel
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
