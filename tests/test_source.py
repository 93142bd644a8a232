"""Checks on the library's source text."""

import ast
from pathlib import Path

import karpkit

SOURCE = Path(karpkit.__file__).parent
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
