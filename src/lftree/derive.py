"""Yield-free copies of generator cores, derived from their one source.

The operation cores (tree.py) and rebalance phases (rebalance.py) are
generators that yield before every shared-word access, so the schedule
explorer can interleave them step by step. Real threads need no such
hand-off points: the interpreter preempts them on its own. `yield_free`
re-compiles every module-level generator function of a module from its
source with each bare `yield` statement dropped and each `yield from g`
replaced by `g`, so a core calls its sub-cores directly and returns their
value. The copies live in a new module that shares every other global
with the original; globals named in `rebind` are replaced, so a derived
module can call another derived module in place of the original.

One loop form is also rewritten once its yields are gone. A slot loop
`for i in range(len(xs)): w = xs[i]; BODY` becomes `for w in xs: BODY`
when `xs` and `w` are plain names, the first statement reads `xs[i]`
itself, `i` occurs nowhere else in the function, and the loop never
rebinds `xs`. A list iterator reads `xs[0]`, `xs[1]`, ... once each, in
order, as the index loop does, and a word list never changes length; so
the rewrite keeps every read, and it drops only the range object and the
subscript, which cost about a quarter of a 32-slot leaf scan. A loop that
uses its index (an insert's empty slot, a remove's best slot) keeps it.

The copies perform exactly the reads, CASes and allocations of the
generators, in the same order, minus the scheduling points.
"""

from __future__ import annotations

import __future__
import ast
import collections
import inspect
import types


class _Unyield(ast.NodeTransformer):
    def __init__(self, fn: ast.FunctionDef):
        # how often each name occurs in the function, in any context
        self.names = collections.Counter(
            node.id for node in ast.walk(fn) if isinstance(node, ast.Name))

    def visit_For(self, node):
        """The slot-loop rule of the module docstring."""
        self.generic_visit(node)  # the body's yields go first
        match node:
            case ast.For(target=ast.Name(id=i), body=[
                    ast.Assign(targets=[ast.Name() as w], value=ast.Subscript(
                        value=ast.Name() as xs, slice=ast.Name(id=index))),
                    *body]) if (
                        index == i and self.names[i] == 2  # for i, xs[i]
                        and ast.unparse(node.iter) == f"range(len({xs.id}))"
                        and xs.id not in _bound_in(node)):
                node.target, node.iter = w, xs
                node.body = body or [ast.Pass()]
        return node

    def visit_Expr(self, node):
        if isinstance(node.value, ast.Yield) and node.value.value is None:
            return None  # a bare `yield`: a scheduling point, dropped
        return self.generic_visit(node)

    def visit_YieldFrom(self, node):
        return self.visit(node.value)

    def visit_Yield(self, node):
        raise SyntaxError(f"line {node.lineno}: a `yield` that carries or "
                          f"receives a value has no yield-free form")


def _bound_in(node: ast.AST) -> set[str]:
    """The names that `node` assigns or deletes."""
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)}


def yield_free(module: types.ModuleType, **rebind) -> types.ModuleType:
    """A module holding yield-free copies of `module`'s generator
    functions; every other global is the original object."""
    source = ast.parse(inspect.getsource(module))
    defs = [node for node in source.body
            if isinstance(node, ast.FunctionDef)
            and inspect.isgeneratorfunction(module.__dict__.get(node.name))]
    tree = ast.Module(body=[_Unyield(node).visit(node) for node in defs],
                      type_ignores=[])
    code = compile(tree, module.__file__, "exec",
                   flags=__future__.annotations.compiler_flag,
                   dont_inherit=True)
    derived = types.ModuleType(module.__name__, module.__doc__)
    derived.__dict__.update(module.__dict__)
    exec(code, derived.__dict__)
    derived.__dict__.update(rebind)
    return derived
