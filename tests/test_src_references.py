"""`src/` holds what runs: every definition of the package has a caller
outside the unit tests.

A module-level function or class of `src/suspshift` counts as referenced
when a scope other than its own body reads it as a global: in its own
module, or in a module that imports it by name from its module.  A public
method counts as referenced when some attribute access `.name` reads its
name.  Places searched are `src/suspshift` (the re-exports of `__init__`
excluded), `scripts/` and `bench/`; names in strings do not count.
Reference code that only tests use belongs in the tests.
"""

import ast
import symtable
from pathlib import Path

import suspshift

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "suspshift"

# definitions kept with no caller outside the tests, each with its reason
ALLOWED = {
    "suspension.flow": "the flow map itself; acceptance criteria call it",
    "recode.BalancedCode.rank": "the inverse of unrank; acceptance criteria check the "
                                "codes are bijections through it",
}


def _sources():
    """(module name or None, path) of every file searched for references."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            yield path.stem, path
    for folder in ("scripts", "bench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            yield None, path


def _definitions(module, tree):
    """(qualified name, name, own line span, is_method) of each checked
    definition in one module."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield f"{module}.{node.name}", node.name, (node.lineno, node.end_lineno), False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds[:2]) and not item.name.startswith("_"):
                    yield (f"{module}.{node.name}.{item.name}", item.name,
                           (item.lineno, item.end_lineno), True)


def _global_reads(table, inside=()):
    """(name, enclosing definitions) for each global read of each scope:
    `inside` holds the (name, first line) of the definitions around it."""
    for sym in table.get_symbols():
        if not sym.is_referenced():
            continue
        if table.get_type() == "module" or sym.is_global():
            yield sym.get_name(), inside
    for child in table.get_children():
        yield from _global_reads(child, inside + ((child.get_name(), child.get_lineno()),))


def _imported_names(tree):
    """module -> names imported from `suspshift.<module>` by name."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("suspshift."):
            out.setdefault(node.module.split(".", 1)[1], set()).update(
                alias.asname or alias.name for alias in node.names)
    return out


def _unreferenced():
    trees = {path: ast.parse(path.read_text(), str(path)) for _, path in _sources()}
    reads, attributes = [], []
    for module, path in _sources():
        imports = _imported_names(trees[path])
        table = symtable.symtable(path.read_text(), str(path), "exec")
        for name, inside in _global_reads(table):
            for source in [module] + [m for m, names in imports.items() if name in names]:
                reads.append((source, name, inside))
        attributes.extend((path, node.attr, node.lineno) for node in ast.walk(trees[path])
                          if isinstance(node, ast.Attribute))
    missing = []
    for module, path in _sources():
        if module is None:
            continue
        for qualname, name, (first, last), is_method in _definitions(module, trees[path]):
            if is_method:
                used = any(attr == name and not (where == path and first <= line <= last)
                           for where, attr, line in attributes)
            else:
                used = any(source == module and got == name and (name, first) not in inside
                           for source, got, inside in reads)
            if not used:
                missing.append(qualname)
    return missing


def test_every_definition_has_a_caller_outside_the_tests():
    missing = _unreferenced()
    unexpected = sorted(set(missing) - set(ALLOWED))
    assert not unexpected, "only tests use: " + ", ".join(unexpected)
    # an entry whose definition found a caller, or went, leaves the list
    stale = sorted(set(ALLOWED) - set(missing))
    assert not stale, "allowed but used or gone: " + ", ".join(stale)


def test_all_names_resolve():
    assert [name for name in suspshift.__all__ if not hasattr(suspshift, name)] == []
