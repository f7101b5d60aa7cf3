"""The package root's export list, unused imports in the modules, and
definitions that nothing names."""
import ast
import dataclasses
import importlib
import re
import sys
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
tent_itinerary _crosses_exact _match_data _cylinder_pairs tail_matches join_reach
_orbit_cmp_merge _sample_floats stage_map apply_gluing moved_stages
scene_samples in_region in_carved_region
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
    region = importlib.import_module("tentplane.glue").GlueRegion
    for name in ("hull_bound_ok", "r_max", "hull_diam", "r_outer", "region_diam"):
        assert not hasattr(region, name), name


def test_cached_values_are_frozen_dataclasses():
    # Scene.grid, GlueRegion.chart and the sample memo hold only while
    # these values cannot change
    from tentplane.cantor import CantorCoordinate
    from tentplane.glue import GlueRegion
    from tentplane.scene import Scene, SceneJoin, Segment

    for cls in (Scene, Segment, SceneJoin, GlueRegion, CantorCoordinate):
        assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen, cls.__name__


def test_runtime_imports_only_the_standard_library():
    # every absolute import of the package names a standard-library module
    outside = []
    for path in sorted(Path(tentplane.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, n) for n in names if n.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


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


# defaulted parameters that no call in src/, perfbench/ or the README
# sets, each with the reason it stays a parameter
KNOB_ALLOWLIST = {
    "glue.support_certificate(tol)": "tests pass tol=-1.0 to drive every failure branch",
    "glue.displacement_certificate(tol)": "tests pass tol=-1.0 to drive every failure branch",
    "glue.cauchy_certificate(tol)": "tests pass tol=-1.0 to drive every failure branch",
    "glue.collapse_certificate(tol)": "tests pass tol=-1.0 to drive every failure branch",
    "glue.ceiling_certificate(tol)": "tests pass tol=-1.0 to drive every failure branch",
    "arcs.boundary_pairs(check_tau)": "the only check of the landing-index condition on the figure",
}


def _knobs(path: Path) -> list:
    """Defaulted parameters of every function in a module, as (knob, call
    name, position among the call's positional arguments or None when
    keyword-only).  Methods skip their bound first argument, and
    ``__init__`` is called through its class name."""
    out = []

    def visit(node, cls, prefix):
        for item in ast.iter_child_nodes(node):
            if isinstance(item, ast.ClassDef):
                visit(item, item.name, f"{prefix}{item.name}.")
            elif isinstance(item, ast.FunctionDef):
                a = item.args
                pos = a.posonlyargs + a.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in item.decorator_list)
                bound = 1 if cls and not static else 0
                call = cls if item.name == "__init__" else item.name
                first = len(pos) - len(a.defaults)
                params = [(p.arg, i - bound) for i, p in enumerate(pos[first:], first)]
                params += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                for name, index in params:
                    out.append((f"{path.stem}.{prefix}{item.name}({name})", call, name, index))
                visit(item, None, f"{prefix}{item.name}.")

    visit(ast.parse(path.read_text()), None, "")
    return out


def _name(node):
    if isinstance(node, ast.Attribute) and node.attr == "__wrapped__":
        node = node.value
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _calls(tree) -> list:
    """(called name, positional count, keyword names) of every call.  A
    starred argument counts as setting every later position,
    ``f.__wrapped__(...)`` as a call of ``f``, and a call whose first
    argument names a function (the benchmark's ``call(f, *args)``) also
    as a call of that function with the other arguments."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        keys = {k.arg for k in node.keywords}
        npos = 10**9 if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
        out.append((_name(node.func), npos, keys))
        if node.args:
            out.append((_name(node.args[0]), npos - 1, keys))
    return out


def unset_knobs(repo: Path) -> list:
    """Defaulted parameters in the package that no call in src/,
    perfbench/ or the README's Python examples sets, by keyword or by
    position."""
    files = [p for d in ("src", "perfbench") for p in (repo / d).rglob("*.py")]
    readme = (repo / "README.md").read_text()
    trees = [ast.parse(p.read_text()) for p in files]
    trees += [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", readme, re.S)]
    calls = [c for tree in trees for c in _calls(tree)]
    out = []
    for path in sorted((repo / "src" / "tentplane").glob("*.py")):
        for knob, call, name, index in _knobs(path):
            if not any(
                cname == call and (name in keys or (index is not None and npos > index))
                for cname, npos, keys in calls
            ):
                out.append(knob)
    return out


def test_every_parameter_default_is_overridden_somewhere():
    unset = unset_knobs(REPO)
    assert sorted(k for k in unset if k not in KNOB_ALLOWLIST) == []
    # an allowlisted parameter that is gone or gained a caller leaves the list
    assert sorted(unset) == sorted(KNOB_ALLOWLIST)
