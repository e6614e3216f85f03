"""Yield-free and counted copies of generator cores, derived from their one
source.

The operation cores (tree.py) and rebalance phases (rebalance.py) are
generators that yield before every shared-word access, so the schedule
explorer can interleave them step by step. `copies` re-compiles every
module-level generator function of a module from its source, once, into
two plain-function forms. In both, each `yield from g` is replaced by `g`,
so a core calls its sub-cores directly and returns their value. Each form
lives in a new module that shares every other global with the original;
globals named in `rebind` are replaced, so a derived module can call
another derived module of the same form in place of the original.

The counted form. Each bare `yield` becomes `_steps.n += 1`, one tick of
the process-wide counter `STEPS`; so a counted copy returns what the
generator returns, and `STEPS.n` moves by the number of scheduling points
it passed. The simulator (sim.py) runs counted copies where a thread runs
alone, and advances its clock by the ticks.

The yield-free form. Real threads need no hand-off points: the
interpreter preempts them on its own. Each bare `yield` is dropped, and
one loop form is rewritten once its yields are gone. A slot loop
`for i in range(len(xs)): w = xs[i]; BODY` becomes `for w in xs: BODY`
when `xs` and `w` are plain names, the first statement reads `xs[i]`
itself, `i` occurs nowhere else in the function, and the loop never
rebinds `xs`. A list iterator reads `xs[0]`, `xs[1]`, ... once each, in
order, as the index loop does, and a word list never changes length; so
the rewrite keeps every read, and it drops only the range object and the
subscript, which cost about a quarter of a 32-slot leaf scan. A loop that
uses its index (an insert's empty slot, a remove's best slot) keeps it.
The slot-loop rule does not fire in the counted form, where the tick, not
the slot read, opens the loop body.

Both forms perform exactly the reads, CASes and allocations of the
generators, in the same order. The counted form is compiled first; the
yield-free form is then made from it in place, by dropping its ticks and
applying the slot-loop rule, so one parse and one pass over each
function's whole tree serve both.
"""

from __future__ import annotations

import __future__
import ast
import collections
import inspect
import types


class Steps:
    """A count of the scheduling points counted copies have passed."""
    __slots__ = ("n",)

    def __init__(self):
        self.n = 0


# One counter per process, shared by every counted copy. The simulator
# drives every thread from its caller's OS thread, and only the simulator
# runs counted copies, so no two threads ever tick it at once.
STEPS = Steps()


class _Count(ast.NodeTransformer):
    """One pass over a generator function that makes its counted form:
    each bare `yield` becomes a tick of `_steps`, and each `yield from g`
    becomes `g`. It notes the ticks it makes, the function's for loops
    (inner ones first) and how often each name occurs in it, in any
    context, for the yield-free form made from the counted one."""

    def __init__(self):
        self.ticks: set[int] = set()  # ids of the tick statements
        self.loops: list[ast.For] = []
        self.names: collections.Counter = collections.Counter()

    def visit_Expr(self, node):
        if not (isinstance(node.value, ast.Yield)
                and node.value.value is None):
            return self.generic_visit(node)
        tick = ast.AugAssign(
            target=ast.Attribute(value=ast.Name("_steps", ast.Load()),
                                 attr="n", ctx=ast.Store()),
            op=ast.Add(), value=ast.Constant(1))
        self.ticks.add(id(tick))
        return ast.fix_missing_locations(ast.copy_location(tick, node))

    def visit_YieldFrom(self, node):
        return self.visit(node.value)

    def visit_Yield(self, node):
        raise SyntaxError(f"line {node.lineno}: a `yield` that carries or "
                          f"receives a value has no yield-free form")

    def visit_For(self, node):
        self.generic_visit(node)
        self.loops.append(node)
        return node

    def visit_Name(self, node):
        self.names[node.id] += 1
        return node


def _unyield(count: _Count, fn: ast.FunctionDef) -> ast.FunctionDef:
    """Turn `fn`, in the counted form `count` made, yield-free in place:
    drop its ticks, then apply the slot-loop rule of the module docstring
    to its loops."""
    _drop(fn, count.ticks)
    names = count.names
    for node in count.loops:
        match node:
            case ast.For(target=ast.Name(id=i), body=[
                    ast.Assign(targets=[ast.Name() as w], value=ast.Subscript(
                        value=ast.Name() as xs, slice=ast.Name(id=index))),
                    *body]) if (
                        index == i and names[i] == 2  # for i, xs[i]
                        and ast.unparse(node.iter) == f"range(len({xs.id}))"
                        and xs.id not in _bound_in(node)):
                node.target, node.iter = w, xs
                node.body = body or [ast.Pass()]
    return fn


def _drop(node: ast.AST, ticks: set) -> None:
    """Remove the statements in `ticks` from every statement list under
    `node`; a list left empty holds a `pass`."""
    for field in ("body", "orelse", "finalbody", "handlers", "cases"):
        stmts = getattr(node, field, None)
        if stmts:
            kept = [s for s in stmts if id(s) not in ticks]
            for s in kept:
                _drop(s, ticks)
            setattr(node, field, kept or [ast.Pass()])


def _bound_in(node: ast.AST) -> set[str]:
    """The names that `node` assigns or deletes."""
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)}


def _generator_defs(module: types.ModuleType) -> list[ast.FunctionDef]:
    """The parsed module-level generator functions of `module`."""
    source = ast.parse(inspect.getsource(module))
    return [node for node in source.body
            if isinstance(node, ast.FunctionDef)
            and inspect.isgeneratorfunction(module.__dict__.get(node.name))]


def _module(module: types.ModuleType, defs: list, rebind: dict,
            **extra) -> types.ModuleType:
    """A module running `defs` whose other globals are `module`'s, then
    `extra`'s and `rebind`'s."""
    code = compile(ast.Module(body=defs, type_ignores=[]), module.__file__,
                   "exec", flags=__future__.annotations.compiler_flag,
                   dont_inherit=True)
    derived = types.ModuleType(module.__name__, module.__doc__)
    derived.__dict__.update(module.__dict__, **extra)
    exec(code, derived.__dict__)
    derived.__dict__.update(rebind)
    return derived


def copies(module: types.ModuleType, **rebind) -> tuple:
    """(yield-free copy, counted copy) of `module`'s generator functions;
    every other global is the original object. Each value in `rebind` is
    a (yield-free, counted) pair, such as another module's `copies`."""
    passes = []
    for fn in _generator_defs(module):
        count = _Count()
        passes.append((count, count.visit(fn)))
    counted = _module(module, [fn for _, fn in passes],
                      {k: v[1] for k, v in rebind.items()}, _steps=STEPS)
    return (_module(module, [_unyield(*p) for p in passes],
                    {k: v[0] for k, v in rebind.items()}), counted)
