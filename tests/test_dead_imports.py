"""Every module-level import in the package is used by its module, and
every function in it reads each of its parameters.

The package's __init__ imports only to re-export, and `from __future__`
imports switch on language features; neither binds a name the module reads.
A method need not read self.  The step kernels (dynamics.KERNELS) share
one signature, the kernel protocol, whether or not each reads every
argument.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hamgame"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
KERNEL_PROTOCOL = {("dynamics.py", name) for name in ("_euler", "_rk4", "_leapfrog")}


def _bound_names(tree):
    """(name, line) of every name a module-level import binds."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in _bound_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def _parameters(args):
    every = (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
    return [a.arg for a in every if a is not None and a.arg != "self"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_functions_read_their_parameters(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (path.name, node.name) not in KERNEL_PROTOCOL:
            read = {n.id for statement in node.body for n in ast.walk(statement) if isinstance(n, ast.Name)}
            unread += [f"{node.name}({name}) (line {node.lineno})" for name in _parameters(node.args) if name not in read]
    assert not unread, f"{path.name} has parameters no function body reads: {', '.join(unread)}"
