"""`src/` holds what runs: every definition of the package has a caller
outside the unit tests.

A module-level function or class of `src/suspshift` counts as referenced
when a scope other than its own body reads it as a global: in its own
module, or in a module that imports it by name from its module.  A public
method counts as referenced when some attribute access `.name` reads its
name.  Places searched are `src/suspshift` (the re-exports of `__init__`
excluded), `scripts/` and `bench/`; names in strings do not count.
Reference code that only tests use belongs in the tests.

Likewise every defaulted parameter of a module-level function, a public
method or an `__init__` is passed by some call in those places, by keyword
or by position; a default nobody else sets is a constant, not a knob.
Calls are matched by name, as methods are above: an `__init__` by its
class's name, and a `*args` or `**kwargs` in a call passes everything.

Likewise the config vocabulary is what the shipped files use: every string
a `*_from_json` reader or the cli's measure reader compares (a kind, a key,
a measure spec) occurs quoted in some file under `configs/`, `scripts/` or
`bench/`.
"""

import ast
import math
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

# defaulted parameters kept with no caller outside the tests passing them,
# each with its reason
ALLOWED_DEFAULTS = {
    "suspension.make_flow_point.index": "tests start a point off coordinate 0",
    "suspension.flow.max_shifts": "tests cut a flow short to reach HorizonExceeded",
    "quadratic.qr.b": "qr(a, b, d) writes the number a + b*sqrt(d); tests write "
                      "irrational literals with it",
    "quadratic.qr.d": "the radicand of such a literal",
    "cli.main.argv": "the console script reads sys.argv; tests pass the argument list",
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


def _defaulted(module, tree):
    """(qualified name, called name, own line span, name, position) of each
    defaulted parameter of one module's functions, public methods and
    `__init__`s; the position leaves out `self` and is None for a
    keyword-only parameter."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, kinds):
            defs = [(f"{module}.{node.name}", node.name, node, 0)]
        elif isinstance(node, ast.ClassDef):
            defs = [(f"{module}.{node.name}.{item.name}",
                     node.name if item.name == "__init__" else item.name, item, 1)
                    for item in node.body if isinstance(item, kinds)
                    and (item.name == "__init__" or not item.name.startswith("_"))]
        else:
            continue
        for qualname, called, fn, skip in defs:
            args = fn.args.posonlyargs + fn.args.args
            first = len(args) - len(fn.args.defaults)
            span = (fn.lineno, fn.end_lineno)
            for i, arg in enumerate(args[first:], first):
                yield f"{qualname}.{arg.arg}", called, span, arg.arg, i - skip
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield f"{qualname}.{arg.arg}", called, span, arg.arg, None


def _calls(tree):
    """(called name, positional count, keywords, line) of each call of a
    name or an attribute; a `*args` counts as every position, and a
    `**kwargs` as the keyword None."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            yield (name, math.inf if starred else len(node.args),
                   {kw.arg for kw in node.keywords}, node.lineno)


def _unset_defaults():
    trees = {path: ast.parse(path.read_text(), str(path)) for _, path in _sources()}
    calls = [(path, *call) for path, tree in trees.items() for call in _calls(tree)]
    unset = []
    for module, path in _sources():
        if module is None:
            continue
        for qualname, called, (first, last), name, position in _defaulted(module, trees[path]):
            passed = any(
                got == called and not (where == path and first <= line <= last)
                and (name in keywords or None in keywords
                     or (position is not None and count > position))
                for where, got, count, keywords, line in calls)
            if not passed:
                unset.append(qualname)
    return unset


def test_every_definition_has_a_caller_outside_the_tests():
    missing = _unreferenced()
    unexpected = sorted(set(missing) - set(ALLOWED))
    assert not unexpected, "only tests use: " + ", ".join(unexpected)
    # an entry whose definition found a caller, or went, leaves the list
    stale = sorted(set(ALLOWED) - set(missing))
    assert not stale, "allowed but used or gone: " + ", ".join(stale)


def test_every_default_is_passed_by_a_caller_outside_the_tests():
    unset = _unset_defaults()
    unexpected = sorted(set(unset) - set(ALLOWED_DEFAULTS))
    assert not unexpected, "only tests set: " + ", ".join(unexpected)
    stale = sorted(set(ALLOWED_DEFAULTS) - set(unset))
    assert not stale, "allowed but set or gone: " + ", ".join(stale)


def _compared_strings():
    """(reader, string) for each string constant compared in a
    `*_from_json` function of `src/suspshift` or in `cli._measure_param`."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.FunctionDef) or not (
                    node.name.endswith("from_json") or node.name == "_measure_param"):
                continue
            for compare in ast.walk(node):
                if isinstance(compare, ast.Compare):
                    for side in (compare.left, *compare.comparators):
                        for const in ast.walk(side):
                            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                                yield f"{path.stem}.{node.name}", const.value


def test_config_vocabulary_is_used_by_a_shipped_file():
    texts = [path.read_text() for folder in ("configs", "scripts", "bench")
             for path in sorted((ROOT / folder).glob("*")) if path.suffix in (".json", ".py")]
    compared = sorted(set(_compared_strings()))
    readers = {reader for reader, _ in compared}
    assert {"subshifts.subshift_from_json", "cli._measure_param"} <= readers
    unused = [f"{reader}: {word!r}" for reader, word in compared
              if not any(f'"{word}"' in text or f"'{word}'" in text for text in texts)]
    assert not unused, "no shipped config, script or bench workload uses " + ", ".join(unused)


def test_all_names_resolve():
    assert [name for name in suspshift.__all__ if not hasattr(suspshift, name)] == []
