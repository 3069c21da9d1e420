"""Each module's public names against a literal list, so that dead surface
cannot grow back unnoticed.

A public name is bound at module level by a `def`, a `class` or an
assignment (an import does not count) and does not start with an
underscore.  The lists hold every name that the benchmark in `perfbench/`
reads: the entry points `perfbench/tracer.py` wraps by name and the names
`perfbench/codec_worker.py` calls.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "polydissect"

PUBLIC = {
    "__init__": [],
    "bijection": ["BijectionImage", "decode", "encode"],
    "cli": [
        "COMMANDS", "EXIT_INTERNAL", "EXIT_OK", "EXIT_RESOURCE", "EXIT_USAGE", "EXIT_VIOLATION",
        "SUITES", "SUITE_CHECKS", "build_parser", "cmd_count", "cmd_decode", "cmd_encode",
        "cmd_enumerate", "cmd_facets", "cmd_homology", "cmd_render", "cmd_shelling",
        "cmd_verify", "main", "run",
    ],
    "complexes": [
        "COUNT_MAX_BIT_OPERATIONS", "DEFAULT_MAX_FACES", "Face", "FaceTable", "MAX_FACES_ENV",
        "abstract_facets", "check_pure", "diameter_count", "enumerate_faces",
        "face_from_diagonals", "facet_region_audit", "is_face", "max_faces_bound",
        "non_negative_int", "region_sizes",
    ],
    "counting": [
        "diameter_face_count", "f_entry_bits", "f_vector", "face_counts", "h_from_f",
        "is_m_sequence",
        "macaulay_bound", "macaulay_representation", "narayana", "narayana_vector",
        "reduced_euler",
    ],
    "documents": [
        "REPORT_SCHEMA", "diagonal_from_labels", "diagonal_to_labels", "dump_json",
        "face_to_document", "load_face", "make_report", "params_from_document",
        "parse_face_document",
    ],
    "errors": [
        "FaceDocumentError", "InvalidImageError", "MalformedFaceError", "PolydissectError",
        "ResourceLimitError", "ShellingError", "count_text", "digit_count",
    ],
    "homology": ["BoundaryMatrix", "boundary_matrix", "matrix_rank", "reduced_betti"],
    "polygons": [
        "Chord", "Diagonal", "FAMILY_A", "FAMILY_B", "KIND_CHORD", "KIND_DIAMETER", "KIND_PAIR",
        "PolygonParams", "a_diagonal", "all_diagonals", "b_diagonal", "chord",
        "constituent_positions", "diameter", "initial_position", "pair_chord",
        "pairwise_compatible", "positions_cross",
    ],
    "render": ["DIAMETER_COLOR", "EDGE_COLOR", "LABEL_RADIUS", "PAIR_COLOR", "RADIUS", "SIZE",
               "face_svg"],
    "simplicial": [
        "AbstractComplex", "Certificate", "DEFAULT_MAX_STATES", "DecompositionLeaf",
        "DecompositionNode", "ShellingOrder", "faces_by_dimension", "find_vertex_decomposition",
        "parse_facet_lines", "shelling_from_decomposition",
        "sort_vertices", "verify_shelling", "verify_vertex_decomposition",
    ],
}


def public_names(path: Path) -> list[str]:
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return sorted(n for n in names if not n.startswith("_"))


def benchmark_reads() -> set[tuple[str, str]]:
    """(module, name) for each polydissect name the benchmark reads: the
    tracer's `ENTRY_POINTS` and `CONSTRUCTORS`, and the codec worker's
    `from polydissect.M import name` and `M.name` on an imported module M."""
    reads = set()
    for node in ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8")).body:
        target = getattr(node, "targets", [None])[0]
        if getattr(target, "id", None) in ("ENTRY_POINTS", "CONSTRUCTORS"):
            for module, names in ast.literal_eval(node.value).items():
                reads.update((module, name) for name in names)
    worker = ast.parse((ROOT / "perfbench" / "codec_worker.py").read_text(encoding="utf-8"))
    modules = {}
    for node in ast.walk(worker):
        if isinstance(node, ast.ImportFrom) and node.module == "polydissect":
            modules.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("polydissect."):
            reads.update((node.module.split(".")[1], a.name) for a in node.names)
    for node in ast.walk(worker):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            reads.add((modules[node.value.id], node.attr))
    return reads


def test_every_module_is_listed():
    assert sorted(p.stem for p in SRC.glob("*.py")) == sorted(PUBLIC)


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_public_names_match_the_list(module):
    assert public_names(SRC / f"{module}.py") == sorted(PUBLIC[module])


def test_the_lists_hold_every_name_the_benchmark_reads():
    reads = benchmark_reads()
    # a few that each source contributes, so an empty read cannot pass
    assert {("homology", "boundary_matrix"), ("simplicial", "AbstractComplex"),
            ("polygons", "diameter"), ("complexes", "face_from_diagonals")} <= reads
    assert sorted(r for r in reads if r[1] not in PUBLIC.get(r[0], ())) == []


def test_runtime_imports_only_the_standard_library():
    """Every absolute import in `src/polydissect` names a standard-library
    module, so the runtime stays stdlib-only."""
    imported = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert {"argparse", "math", "json"} <= imported  # an empty walk cannot pass
    assert sorted(imported - sys.stdlib_module_names) == []
