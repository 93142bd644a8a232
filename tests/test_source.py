"""Checks on the library's source text."""

import ast
import importlib
from pathlib import Path

import karpkit

SOURCE = Path(karpkit.__file__).parent
BENCH = Path(__file__).resolve().parent.parent / "bench"
# calls whose result has no length: a tuple built from one grows as it goes
UNSIZED = {"map", "zip", "filter", "enumerate"}


def _unsized(arg):
    if isinstance(arg, ast.GeneratorExp):
        return True
    if not isinstance(arg, ast.Call):
        return False
    f = arg.func
    return (isinstance(f, ast.Name) and f.id in UNSIZED
            or isinstance(f, ast.Attribute) and f.attr == "from_iterable")


def test_tuples_are_built_at_their_final_size():
    # tuple() of an iterator of unknown length takes a 10-slot tuple and
    # resizes it, and frees the result into the free list of its final
    # size; a process that never runs a full collection keeps those lists
    # full, so peak RSS grows with the op count.  tuple([...]) and
    # tuple([*map(...)]) allocate once, at the final size.
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "tuple" and len(node.args) == 1
                    and _unsized(node.args[0])):
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found, "tuple() of an unsized iterator at " + ", ".join(found)


def _chain(node):
    """`a.b.c` as ["a", "b", "c"], or None if it is not a chain of plain names."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return [node.id, *reversed(names)] if isinstance(node, ast.Name) else None


def test_benchmark_names_resolve():
    # the benchmark's files stay as they are, so every karpkit name they read
    # must stay: each `from karpkit... import`, each `kk.X`, and each chain
    # such as `karpkit.genlab.generate` or `ReductionSpec.apply`
    missing = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        bound = {}  # a name the file binds -> the karpkit object behind it
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "karpkit":
                        module = importlib.import_module(alias.name)
                        bound[alias.asname or "karpkit"] = module if alias.asname else karpkit
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("karpkit"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    if hasattr(module, alias.name):
                        bound[alias.asname or alias.name] = getattr(module, alias.name)
                    else:
                        missing.add("%s: %s.%s" % (path.name, node.module, alias.name))
        for node in ast.walk(tree):
            chain = _chain(node) if isinstance(node, ast.Attribute) else None
            if not chain or chain[0] not in bound:
                continue
            obj = bound[chain[0]]
            for depth, attribute in enumerate(chain[1:], start=2):
                if not hasattr(obj, attribute):
                    missing.add("%s: %s" % (path.name, ".".join(chain[:depth])))
                    break
                obj = getattr(obj, attribute)
    assert not missing, "the benchmark reads missing names: " + ", ".join(sorted(missing))


def test_one_json_writer():
    # serialize.dumps_json writes every JSON text karpkit produces; a second
    # writer could bring back the stdlib's pure-Python indent path.  The one
    # other call is the compact value quoted in cli._params' error message.
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        if path.name == "cli.py":
            params = next(node for node in tree.body
                          if isinstance(node, ast.FunctionDef) and node.name == "_params")
            allowed = {id(call.func) for call in ast.walk(params)
                       if isinstance(call, ast.Call) and not call.keywords}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                found += ["%s:%d" % (path.name, node.lineno)
                          for alias in node.names if alias.name in ("dump", "dumps")]
            elif (isinstance(node, ast.Attribute) and id(node) not in allowed
                    and _chain(node) in (["json", "dump"], ["json", "dumps"])):
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found, "JSON written outside serialize.dumps_json at " + ", ".join(found)


def test_no_unused_imports():
    # no linter runs on the source, so a name imported and never read would
    # stay; __init__.py imports to re-export, and the __future__ import is
    # a compiler switch
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}  # bound name -> line
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found += ["%s:%d %s" % (path.name, line, name)
                  for name, line in imported.items() if name not in read]
    assert not found, "imported and never read: " + ", ".join(found)


def test_transforms_build_no_problem():
    # a ReductionSpec names its reduction's kinds, and its apply alone makes
    # the image: a transform returns the image's (payload, param)
    tree = ast.parse((SOURCE / "reductions.py").read_text())
    spec = next(node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "ReductionSpec")
    apply = next(node for node in spec.body
                 if isinstance(node, ast.FunctionDef) and node.name == "apply")
    allowed = {id(node) for node in ast.walk(apply)}
    found = ["reductions.py:%d" % node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "Problem" and id(node) not in allowed]
    assert not found, "Problem built outside ReductionSpec.apply at " + ", ".join(found)
