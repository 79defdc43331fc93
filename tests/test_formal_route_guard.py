"""The formal Hopf route stays off the program's verdict paths.

An AST scan of ``src/qsp``: only ``lusztig`` imports ``qsp.algebra`` (for
the braid automorphisms the tests compare against), no module defines,
imports or names ``TensorElement`` or ``act_tensor`` (the formal coproduct
lives in ``tests/formal_algebra.py``), nothing imports from the tests, and
one module, ``blocks``, defines the block types that the R-matrix, the
Vogan side and the KZ engine share, while ``kzmono`` finds, packs, gathers
and scatters no blocks of its own.  No module calls ``np.kron``: every
Kronecker product goes through ``uqrep.kron``.  Every public top-level function or
class of ``src/qsp`` has a user: the program outside its own body, the
benchmark (``perfbench/*.py``, read only), or the CLI as a registered
command; the one kept for the tests alone is named in ``TEST_ONLY_API``.
scipy is imported only inside the bodies of ``kzmono._decompose`` and
``kzmono.mkz_consistency``.  No statement stores into a ``.cache`` or
``.kept`` dict by subscript outside ``rootsys.kept``, the one way to keep
derived data.
"""

import ast
from collections import Counter
from pathlib import Path

import qsp

SRC = Path(qsp.__file__).parent
BENCH = SRC.parent.parent / "perfbench"
TEST_MODULES = {path.stem for path in Path(__file__).parent.glob("*.py")}
FORMAL_NAMES = {"TensorElement", "act_tensor"}
# public API with no user in the program, the benchmark or the CLI, and why
# it stays
TEST_ONLY_API = {
    "lusztig.braid_word_on_algebra": "named only as a string by the "
                                     "benchmark's tracer, which wraps it",
}
# scipy is a test dependency: the two routes that need it import it in
# their bodies, (module, top-level function)
SCIPY_ROUTES = {("kzmono", "_decompose"), ("kzmono", "mkz_consistency")}


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _imported_modules(tree):
    """Absolute names of the modules an AST imports from, with the names it
    takes from each."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(alias.name, ()) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"qsp.{base}" if base else "qsp"
            out.append((base, tuple(alias.name for alias in node.names)))
    return out


def test_only_two_routes_import_scipy():
    found = set()
    for name, tree in _trees().items():
        for node in tree.body:
            for module, _ in _imported_modules(node):
                if module.split(".")[0] == "scipy":
                    found.add((name, getattr(node, "name", None)))
    assert found == SCIPY_ROUTES


def test_only_lusztig_imports_the_formal_algebra():
    importers = set()
    for name, tree in _trees().items():
        for module, names in _imported_modules(tree):
            if module == "qsp.algebra" or (module == "qsp"
                                           and "algebra" in names):
                importers.add(name)
    assert importers == {"lusztig"}


def test_no_formal_coproduct_in_the_program():
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            found = set()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found = {node.name}
            elif isinstance(node, ast.Name):
                found = {node.id}
            elif isinstance(node, ast.Attribute):
                found = {node.attr}
            elif isinstance(node, ast.alias):
                found = {node.name.split(".")[-1], node.asname}
            assert not found & FORMAL_NAMES, (name, found)


def test_the_program_imports_nothing_from_the_tests():
    trees = _trees()
    assert "uqrep" in trees and "lusztig" in trees
    for name, tree in trees.items():
        for module, _ in _imported_modules(tree):
            top = module.split(".")[0]
            assert top != "tests" and top not in TEST_MODULES, (name, module)


def test_one_weight_block_layer():
    trees = _trees()
    owners = {name for name, tree in trees.items() for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) and "Block" in node.name}
    assert owners == {"blocks"}
    for name in ("rmatrix", "vogan10"):
        assert ("qsp.blocks", "WeightBlocks") in {
            (module, taken) for module, names in _imported_modules(trees[name])
            for taken in names}, name
    # the KZ engine takes its blocks, their packing, gather and scatter from
    # qsp.blocks: it defines no function for any of them and names none of
    # the numpy routines a block finder or a per-block loop is built from
    kz = trees["kzmono"]
    assert ("qsp.blocks", ("pattern_blocks",)) in _imported_modules(kz)
    words = ("block", "pack", "gather", "scatter", "component", "slot")
    defined = {node.name for node in ast.walk(kz)
               if isinstance(node, ast.FunctionDef)}
    assert not {name for name in defined
                if any(word in name.lower() for word in words)}, defined
    named = {node.attr for node in ast.walk(kz)
             if isinstance(node, ast.Attribute)}
    assert not named & {"ix_", "flatnonzero", "unique", "minimum"}


def test_every_kronecker_product_goes_through_uqrep_kron():
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            assert not (isinstance(node, ast.Attribute) and node.attr == "kron"
                        and getattr(node.value, "id", None) in ("np", "numpy")
                        ), name
        assert not any(module == "numpy" and "kron" in names
                       for module, names in _imported_modules(tree)), name


def _names(tree):
    """How often an AST reads each name, as a plain name or an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def _is_cli_command(module, node):
    """A function of ``qsp.cli`` registered by a decorator (``_command``,
    ``click.group`` or ``main.group``)."""
    return module == "cli" and any(
        isinstance(dec, ast.Call) and getattr(
            dec.func, "id", getattr(dec.func, "attr", None)) in (
            "_command", "group", "command") for dec in node.decorator_list)


def test_every_public_definition_has_a_user():
    trees = _trees()
    bench = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bench |= set(_names(tree)) | {alias.name for node in ast.walk(tree)
                                      if isinstance(node, ast.ImportFrom)
                                      for alias in node.names}
    assert "kz_coeffs" in bench   # the benchmark was read
    program = sum((_names(tree) for tree in trees.values()), Counter())
    unused = {f"{module}.{node.name}" for module, tree in trees.items()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and not _is_cli_command(module, node)
              and node.name not in bench
              # read nowhere but inside its own body
              and program[node.name] == _names(node)[node.name]}
    assert unused == set(TEST_ONLY_API), sorted(unused ^ set(TEST_ONLY_API))


def test_only_rootsys_kept_stores_into_a_cache():
    trees = _trees()
    inside_kept = {id(node) for fn in trees["rootsys"].body
                   if isinstance(fn, ast.FunctionDef) and fn.name == "kept"
                   for node in ast.walk(fn)}
    stores = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if id(node) in inside_kept or not isinstance(
                    node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            stores += [(name, node.lineno) for target in targets
                       for sub in ast.walk(target)
                       if isinstance(sub, ast.Subscript)
                       and isinstance(sub.value, ast.Attribute)
                       and sub.value.attr in ("cache", "kept")]
    assert stores == []
