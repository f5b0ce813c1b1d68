"""The package's modules import one another only downwards, at module level,
annotate with no class of a higher layer, and export a frozen set of names."""

import ast
import collections
import os
import subprocess
import sys
import types
from pathlib import Path

import semiring_lab

LAYERS = ("core", "relations", "congruences", "varieties", "enumeration", "cli")
PACKAGE = Path(semiring_lab.__file__).parent


def _intra_package_imports(tree):
    """(node, imported module) for every import of a sibling module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                yield node, node.module.split(".")[0]
            elif node.level == 1:  # from . import x
                for alias in node.names:
                    yield node, alias.name
            elif node.module and node.module.split(".")[0] == "semiring_lab":
                yield node, (node.module.split(".") + [""])[1]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "semiring_lab":
                    yield node, (parts + [""])[1]


def test_modules_import_downwards_at_module_level():
    files = sorted(PACKAGE.glob("*.py"))
    assert {f.stem for f in files} == set(LAYERS) | {"__init__"}
    seen = 0
    for path in files:
        tree = ast.parse(path.read_text(), str(path))
        top = set(map(id, tree.body))
        # the package itself sits above every layer
        rank = len(LAYERS) if path.stem == "__init__" else LAYERS.index(path.stem)
        for node, target in _intra_package_imports(tree):
            seen += 1
            where = "%s:%d" % (path.name, node.lineno)
            assert id(node) in top, "%s imports %s inside a block" % (where, target)
            assert target in LAYERS and LAYERS.index(target) < rank, (
                "%s imports %s against the layer order" % (where, target))
    assert seen >= len(LAYERS)


def _annotation_names(node):
    """The names an annotation refers to, reading string annotations too."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield from _annotation_names(ast.parse(sub.value, mode="eval"))


def _annotations(tree):
    """(line, annotation) for every argument, return and variable annotation."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs
                        + [a for a in (args.vararg, args.kwarg) if a]):
                if arg.annotation is not None:
                    yield arg.lineno, arg.annotation
            if node.returns is not None:
                yield node.lineno, node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.lineno, node.annotation


def test_annotations_name_no_class_of_a_higher_layer():
    trees = {m: ast.parse((PACKAGE / (m + ".py")).read_text()) for m in LAYERS}
    home = {node.name: m for m, tree in trees.items()
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    seen = 0
    for module, tree in trees.items():
        for line, annotation in _annotations(tree):
            seen += 1
            for name in _annotation_names(annotation):
                owner = home.get(name, module)
                assert LAYERS.index(owner) <= LAYERS.index(module), (
                    "%s.py:%d names %s.%s" % (module, line, owner, name))
    assert seen > 100


# the parent of every move, frozen: a move must neither drop nor rename one
PUBLIC_NAMES = (
    "Analysis", "BinRelation", "BudgetExceededError", "CATALOG",
    "CongruenceSet", "EnumConfig", "Identity", "InternalConsistencyError",
    "Partition", "PreconditionError", "ResourceBoundError",
    "SemiringFormatError", "SemiringTable", "SpinedDecomposition", "THEOREMS",
    "Term", "TheoremReport", "ValidationReport", "VarietySpec",
    "all_congruences", "all_idempotent_semirings", "canonical_form",
    "congruence_closure", "enumerate_idempotent_semirings", "eta",
    "eta_equals_relation", "eval_term", "format_semiring_text", "green_add",
    "green_mult", "in_variety", "is_congruence", "is_distributive_lattice",
    "is_isomorphic", "least_dl_congruence", "malcev_membership",
    "malcev_product", "parse_identity", "parse_semiring_text", "parse_term",
    "quasi_orders", "quotient", "reconstruct", "satisfies_identity", "sigma",
    "sigma_star", "spined_decompose", "spined_product", "validate_semiring",
    "variety_membership", "verify_theorem")


def test_public_names_are_frozen():
    public = {name for name, value in vars(semiring_lab).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(PUBLIC_NAMES) == 51
    assert public == set(PUBLIC_NAMES)


def _loaded_by_cli_import(modules):
    """Which of modules a fresh interpreter loads to import semiring_lab.cli."""
    probe = ("import sys; before = set(sys.modules); import semiring_lab.cli; "
             "print(sorted(%r & (set(sys.modules) - before)))" % set(modules))
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return out.strip()


def test_cli_import_loads_neither_hashlib_nor_multiprocessing():
    # hashlib, json and the worker farm's modules are imported where they
    # are used, off the start-up path
    assert _loaded_by_cli_import({"hashlib", "json", "multiprocessing", "pickle",
                                  "select", "signal"}) == "[]"


def _entry_probe(*argv):
    """The freeze count before and after, and whether json is loaded, as an
    atexit hook reads them in a fresh interpreter running cli.entry() on argv."""
    probe = ("import atexit, gc, sys\n"
             "before = gc.get_freeze_count()\n"
             "atexit.register(lambda: print(before, gc.get_freeze_count(), 'json' in sys.modules))\n"
             "sys.argv[1:] = %r\n"
             "from semiring_lab.cli import entry\n"
             "entry()" % list(argv))
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    before, after, json_loaded = out.splitlines()[-1].split()
    return int(before), int(after), json_loaded == "True"


def test_entry_freezes_the_import_time_heap():
    # the console script freezes what the imports built, once, before main()
    before, after, _ = _entry_probe("verify", "--max-order", "2", "--iso")
    assert before == 0 and after > 0


def test_enumerate_loads_no_json():
    # json is imported where a report is written, and enumerate writes none
    assert _entry_probe("enumerate", "-n", "3", "--iso", "--count-only")[2] is False


def test_pooled_verify_loads_no_multiprocessing_and_starts_no_thread():
    # the worker farm forks its workers and feeds them from the main thread
    probe = ("import contextlib, io, sys, threading; from semiring_lab.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = main(['verify', '--max-order', '2', '--iso', '--workers', '2'])\n"
             "print(code, sorted(m for m in sys.modules if m.startswith('multiprocessing')),"
             " threading.active_count())")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "0 [] 1"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # the records are NamedTuples; dataclasses would load inspect, and
    # together they were about half the import time of the CLI
    assert _loaded_by_cli_import({"hashlib", "multiprocessing", "dataclasses",
                                  "inspect"}) == "[]"
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([node.module or ""] if isinstance(node, ast.ImportFrom) else
                     [a.name for a in node.names] if isinstance(node, ast.Import) else [])
            assert "dataclasses" not in names, "%s:%d" % (path.name, node.lineno)


def _calls():
    """(module, enclosing definitions joined by ".", called name) for every
    call in the package."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                yield ".".join(scope), getattr(func, "id", getattr(func, "attr", None))
            yield from walk(child, scope)

    for path in PACKAGE.glob("*.py"):
        for scope, name in walk(ast.parse(path.read_text(), str(path)), ()):
            yield path.stem, scope, name


def test_one_search_driver():
    # enumeration.sweep is the one driver: no other module runs the band or
    # . search or keeps a budget, and the . search has one call site
    sites = collections.Counter((module, name) for module, _, name in _calls()
                                if name in ("bands", "completions", "_Budget"))
    assert {stem for stem, _ in sites} == {"enumeration"}, sites
    assert sites["enumeration", "completions"] == 1, sites
    assert sites["enumeration", "bands"] >= 1


def test_one_per_table_path():
    # each table reaches a sweep check as one Analysis, which alone makes
    # the facts of its band; and whether a partition relates an
    # identity's instances is read by core._relates alone, at the five
    # sites that ask it, through each identity's compiled relates.  The
    # instances themselves only seed merges: the closure of rho, and the
    # lower bound Analysis.member takes of a three-factor product, the
    # equivalence they generate (core._relates read them until it was compiled)
    sites = collections.defaultdict(set)
    for module, scope, name in _calls():
        sites[name].add((module, scope))
    assert sites["BandFacts"] == {("varieties", "Analysis.__init__"),
                                  ("varieties", "")}, sites["BandFacts"]
    assert "BandFacts" not in vars(semiring_lab.enumeration)
    assert sites["_instances"] == {("varieties", "Analysis.member"),
                                   ("varieties", "Analysis._rho_blocks")}, sites["_instances"]
    assert sites["relates"] == {("core", "_relates")}, sites["relates"]
    assert sites["_relates"] == {
        ("core", "variety_membership"), ("congruences", "all_congruences"),
        ("varieties", "Analysis.member"), ("varieties", "_spined_obstruction"),
        ("varieties", "_lemma_4_2_clause")}, sites["_relates"]
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            assert "band" not in [a.arg for a in args.posonlyargs + args.args
                                  + args.kwonlyargs], node.name
