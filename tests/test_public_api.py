"""The package root's export list, unused imports in the modules, and
definitions that nothing names."""
import ast
import importlib
import re
from pathlib import Path

import tentplane

ROOT_NAMES = """
AmbiguousAtDepth ChartOverflow ConflictError KneadingSequence LeftTail
MalformedSequence MalformedStarPeriod NotAdmissible ParseError RightSeq
SceneJoin TentplaneError WrongContext accessibility_probe arc_projection
betweenness_check block_midpoint boundary_pairs build_glue_stack build_scene
cantor_coordinate cauchy_certificate ceiling_certificate collapse_certificate
collapse_profile compare_tails displacement_certificate enumerate_cylinders
fiber_collapse is_admissible_tail kneading_from_slope parse_left parse_right
render_scene resolve_x scene_from_json scene_to_json support_certificate
validate_kneading verify_noncrossing
""".split()

REMOVED = """
TwoSidedSeq shift_two_sided parse_two_sided compare_tail_windows
identify_partner tau_left tau_right is_admissible_right RankTie
_window_violation _word_admissible match_indices window_taus cauchy_gap
tent_itinerary _crosses_exact
""".split()

# __main__ runs the command line on import, so only the ast pass reads it
SOURCES = sorted(p for p in Path(tentplane.__file__).parent.glob("*.py") if p.name != "__init__.py")
MODULES = [p.stem for p in SOURCES if not p.stem.startswith("_")]


def test_root_exports():
    assert sorted(tentplane.__all__) == ROOT_NAMES
    for name in tentplane.__all__:
        assert hasattr(tentplane, name), name
    for stem in MODULES:
        mod = importlib.import_module(f"tentplane.{stem}")
        for name in REMOVED:
            assert not hasattr(mod, name), (stem, name)
    for name in REMOVED:
        assert not hasattr(tentplane, name), name
    for name in ("pop", "is_pure"):
        assert not hasattr(tentplane.LeftTail, name), name
    assert not hasattr(importlib.import_module("tentplane.glue").GlueRegion, "hull_bound_ok")


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add((alias.asname or alias.name).split(".")[0])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in bound if name not in used)


def test_modules_use_every_import():
    unused = {p.stem: _unused_imports(p.read_text()) for p in SOURCES}
    assert {mod: names for mod, names in unused.items() if names} == {}


REPO = Path(__file__).resolve().parent.parent


def _definitions(tree) -> list:
    """Top-level functions and classes, and the methods of the classes,
    as (qualified name, bare name); dunder methods are called implicitly."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    out.append((f"{node.name}.{item.name}", item.name))
    return out


def unreached_definitions(repo: Path) -> list:
    """Definitions in the package whose name appears nowhere but in their
    own def line: not in src/, tests/, perfbench/ nor the README."""
    files = [p for d in ("src", "tests", "perfbench") for p in (repo / d).rglob("*.py")]
    text = "\n".join(p.read_text() for p in files + [repo / "README.md"])
    out = []
    for path in sorted((repo / "src" / "tentplane").glob("*.py")):
        for qual, name in _definitions(ast.parse(path.read_text())):
            if len(re.findall(rf"\b{re.escape(name)}\b", text)) < 2:
                out.append(f"{path.stem}.{qual}")
    return out


def test_every_definition_is_named_somewhere():
    assert unreached_definitions(REPO) == []
