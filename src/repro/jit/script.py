"""``jit.script`` — an embedded-language compiler into the TS-style IR.

This is the second Figure-5 baseline.  Instead of running the model,
it *compiles* the Python source of ``forward`` (and, recursively, of every
method and submodule it calls) with a traditional parse-and-lower pipeline
(§2.1: "a traditional lexer-parser-compiler toolchain", reusing Python's
``ast`` as the front half).  Faithful to TorchScript's representational
choices, the compiler:

* keeps structured control flow: ``if`` becomes ``prim::If`` with **both**
  branches compiled (even the branch the example inputs would never take;
  what a branch assigns or returns stays in its block), ``for`` becomes
  ``prim::Loop`` or compile-time unrolling over module containers;
* materializes every scalar/immediate as a ``prim::Constant`` node and
  every tuple as ``prim::TupleConstruct`` (a list of runtime values as
  ``prim::ListConstruct``);
* models ``assert``/``raise`` as ``prim::If`` + ``prim::RaiseException``
  (the ``AssertionError`` constants visible in Figure 5(a));
* resolves module/parameter accesses to ``prim::GetAttr`` chains.

It models what the Figure-5 models use.  A Python construct it does not
model (``while``, ``+=``, comprehensions, slices, ...) is lowered to one
``prim::Unknown`` node rather than rejected, and recorded in
``ScriptedModule.warnings``.  (Real TorchScript errors out instead; for
the op-count study the conservative node is the fairer choice, since it
never *inflates* the count.)
"""

from __future__ import annotations

import ast
import builtins
import inspect
import textwrap
from typing import Any, Callable, Optional

from ..nn import Module
from ..tensor import Tensor
from .ts_ir import TSBlock, TSGraph, TSValue

__all__ = ["script", "ScriptedModule", "parse_function"]


def parse_function(fn: Callable) -> ast.FunctionDef:
    """Parse *fn*'s source into a function AST with file line numbers.

    This is the shared parsing front end: the jit.script compiler uses it to
    inline called functions, and the graph-break analyzer
    (:mod:`repro.fx.analysis.breaks`) uses it to map specialization events
    back to the enclosing AST construct.  The source is dedented before
    parsing and line numbers are shifted back to *file* coordinates, so an
    ``ast.If`` node's ``lineno``/``end_lineno`` can be compared directly
    against frame line numbers from a traceback.

    Raises ``OSError``/``TypeError``/``SyntaxError`` when the source is
    unavailable (builtins, REPL-defined functions, exec'd code).
    """
    source = textwrap.dedent(inspect.getsource(fn))
    tree = ast.parse(source).body[0]
    if not isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef)):
        raise TypeError(f"source of {fn!r} is not a function definition")
    code = getattr(fn, "__code__", None)    # a bound method's too
    if code is not None:
        ast.increment_lineno(tree, code.co_firstlineno - 1)
    return tree


class _Return:
    """Signal object carrying a return value up from a compiled body."""

    def __init__(self, value: Any):
        self.value = value


_BINOP_ATEN = {
    ast.Add: "aten::add", ast.Sub: "aten::sub", ast.Mult: "aten::mul",
    ast.Div: "aten::div", ast.FloorDiv: "aten::floordiv", ast.Mod: "aten::remainder",
    ast.Pow: "aten::pow", ast.MatMult: "aten::matmul",
}
_CMP_ATEN = {
    ast.Eq: "aten::eq", ast.NotEq: "aten::ne", ast.Lt: "aten::lt",
    ast.LtE: "aten::le", ast.Gt: "aten::gt", ast.GtE: "aten::ge",
    ast.Is: "aten::__is__", ast.IsNot: "aten::__isnot__", ast.In: "aten::__contains__",
}
_CMP_PY = {
    ast.Eq: lambda a, b: a == b, ast.NotEq: lambda a, b: a != b,
    ast.Lt: lambda a, b: a < b, ast.LtE: lambda a, b: a <= b,
    ast.Gt: lambda a, b: a > b, ast.GtE: lambda a, b: a >= b,
    ast.Is: lambda a, b: a is b, ast.IsNot: lambda a, b: a is not b,
    ast.In: lambda a, b: a in b, ast.NotIn: lambda a, b: a not in b,
}


class ScriptedModule:
    """Result of :func:`script`: TS graph + callable fallback + warnings."""

    def __init__(self, module: Module, graph: TSGraph, warnings: list[str]):
        self.module = module
        self.graph = graph
        self.warnings = warnings

    def __call__(self, *args, **kwargs):
        return self.module(*args, **kwargs)

    @property
    def code(self) -> str:
        return str(self.graph)


class _ScriptCompiler:
    def __init__(self, root: Module):
        self.root = root
        self.graph = TSGraph()
        self.warnings: list[str] = []
        self.self_value = self.graph.add_input("self", type_=type(root).__name__)
        self.module_values: dict[int, TSValue] = {id(root): self.self_value}
        self.module_paths: dict[int, str] = {
            id(m): name for name, m in root.named_modules()
        }
        self.state_owner: dict[int, tuple[Module, str]] = {}
        for _, m in root.named_modules():
            for pname, p in m._parameters.items():
                if p is not None:
                    self.state_owner[id(p)] = (m, pname)
            for bname, b in m._buffers.items():
                if b is not None:
                    self.state_owner[id(b)] = (m, bname)

    # ------------------------------------------------------------------ values

    def module_value(self, mod: Module) -> TSValue:
        v = self.module_values.get(id(mod))
        if v is not None:
            return v
        path = self.module_paths.get(id(mod))
        if path is None:
            raise RuntimeError(f"module {type(mod).__name__} not in hierarchy")
        cursor = self.self_value
        walked: Module = self.root
        for atom in path.split("."):
            walked = getattr(walked, atom)
            cached = self.module_values.get(id(walked))
            if cached is not None:
                cursor = cached
                continue
            cursor = self.graph.get_attr(cursor, atom, type_=type(walked).__name__)
            self.module_values[id(walked)] = cursor
        return cursor

    def as_value(self, obj: Any, block: TSBlock) -> TSValue:
        """Materialize a compile-time value as IR (constants, constructs)."""
        if isinstance(obj, TSValue):
            return obj
        if isinstance(obj, Tensor) and id(obj) in self.state_owner:
            mod, name = self.state_owner[id(obj)]
            return self.graph.get_attr(self.module_value(mod), name, type_="Tensor")
        if isinstance(obj, (int, float, bool, str)) or obj is None:
            return self.graph.constant(obj, block=block)
        if isinstance(obj, tuple):
            elems = [self.as_value(x, block) for x in obj]
            return self.graph.tuple_construct(elems, block=block)
        return self.unknown(f"compile-time value {type(obj).__name__}", block)

    def unknown(self, what: str, block: TSBlock) -> TSValue:
        """A construct the compiler does not model: ``prim::Unknown``."""
        self.warnings.append(f"unsupported {what}; emitted prim::Unknown")
        return self.graph.create("prim::Unknown", [], 1, {"what": what},
                                 block=block).outputs[0]

    # --------------------------------------------------------------- statements

    def compile_body(self, stmts: list[ast.stmt], env: dict, block: TSBlock) -> Optional[_Return]:
        for stmt in stmts:
            ret = self.compile_stmt(stmt, env, block)
            if isinstance(ret, _Return):
                return ret
        return None

    def compile_stmt(self, stmt: ast.stmt, env: dict, block: TSBlock) -> Optional[_Return]:
        if isinstance(stmt, ast.Return):
            value = self.eval(stmt.value, env, block) if stmt.value else None
            return _Return(value)
        if isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value, env, block)
            for target in stmt.targets:
                self.assign_target(target, value, env, block)
            return None
        if isinstance(stmt, ast.If):
            return self.compile_if(stmt, env, block)
        if isinstance(stmt, ast.For):
            self.compile_for(stmt, env, block)
            return None
        if isinstance(stmt, ast.Assert):
            cond = self.eval(stmt.test, env, block)
            if_node = self.graph.create("prim::If", [self.as_value(cond, block)], 0,
                                        block=block)
            if_node.add_block()  # pass
            fail = if_node.add_block()
            msg = self.graph.constant("AssertionError: ", block=fail)
            extra = (
                self.as_value(self.eval(stmt.msg, env, fail), fail)
                if stmt.msg is not None else msg
            )
            self.graph.create("prim::RaiseException", [msg, extra], 0, block=fail)
            return None
        if isinstance(stmt, ast.Raise):
            inputs = [] if stmt.exc is None else [
                self.as_value(self.eval(stmt.exc, env, block), block)]
            self.graph.create("prim::RaiseException", inputs, 0, block=block)
            return None
        if isinstance(stmt, ast.Expr):
            self.eval(stmt.value, env, block)
            return None
        self.unknown(f"statement {type(stmt).__name__}", block)
        return None

    def assign_target(self, target: ast.expr, value: Any, env: dict, block: TSBlock) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            if isinstance(value, TSValue):
                value = self.graph.create(
                    "prim::TupleUnpack", [value], n_outputs=len(target.elts), block=block
                ).outputs
            for t, p in zip(target.elts, value):
                self.assign_target(t, p, env, block)
            return
        self.unknown(f"assignment target {type(target).__name__}", block)

    def compile_if(self, stmt: ast.If, env: dict, block: TSBlock) -> Optional[_Return]:
        cond = self.eval(stmt.test, env, block)
        if not isinstance(cond, TSValue):
            # Compile-time decidable (e.g. `self.downsample is not None`):
            # TorchScript keeps the If node with the refined branch compiled.
            if_node = self.graph.create(
                "prim::If", [self.as_value(bool(cond), block)], 0, block=block
            )
            taken = if_node.add_block()
            if_node.add_block()
            body = stmt.body if cond else stmt.orelse
            return self.compile_body(body, env, taken)
        # Both branches are compiled; what either assigns or returns stays
        # inside its block.
        if_node = self.graph.create("prim::If", [cond], 0, block=block)
        self.compile_body(stmt.body, dict(env), if_node.add_block())
        self.compile_body(stmt.orelse, dict(env), if_node.add_block())
        return None

    def compile_for(self, stmt: ast.For, env: dict, block: TSBlock) -> None:
        it = self.eval(stmt.iter, env, block)
        if isinstance(it, TSValue):
            # runtime trip count: prim::Loop with a single compiled body
            loop = self.graph.create("prim::Loop", [it], 0, block=block)
            body = loop.add_block()
            iv = self.graph.fresh_value("loop_iter", "int")
            body.inputs.append(iv)
            env_b = dict(env)
            self.assign_target(stmt.target, iv, env_b, body)
            self.compile_body(stmt.body, env_b, body)
            for k in sorted(env_b):
                if k in env and env_b[k] is not env[k]:
                    out = self.graph.fresh_value(k)
                    body.outputs.append(self.as_value(env_b[k], body))
                    loop.outputs.append(out)
                    env[k] = out
            return
        # compile-time iterable (range with constant bounds, module
        # containers, tuples): unrolled, like TS constant propagation over
        # module structure
        for item in it:
            self.assign_target(stmt.target, item, env, block)
            self.compile_body(stmt.body, env, block)

    # -------------------------------------------------------------- expressions

    def eval(self, expr: ast.expr, env: dict, block: TSBlock) -> Any:
        if isinstance(expr, ast.Constant):
            return expr.value
        if isinstance(expr, ast.Name):
            for scope in (env, env["__globals__"], vars(builtins)):
                if expr.id in scope:
                    return scope[expr.id]
            return self.unknown(f"name {expr.id!r}", block)
        if isinstance(expr, ast.Attribute):
            base = self.eval(expr.value, env, block)
            return self.eval_attribute(base, expr.attr, block)
        if isinstance(expr, ast.Call):
            return self.eval_call(expr, env, block)
        if isinstance(expr, ast.BinOp):
            lhs = self.eval(expr.left, env, block)
            rhs = self.eval(expr.right, env, block)
            kind = _BINOP_ATEN.get(type(expr.op), "prim::Unknown")
            return self.graph.create(
                kind, [self.as_value(lhs, block), self.as_value(rhs, block)], 1, block=block
            ).outputs[0]
        if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, (ast.Not, ast.USub)):
            operand = self.eval(expr.operand, env, block)
            if not isinstance(operand, TSValue):
                return not operand if isinstance(expr.op, ast.Not) else -operand
        if isinstance(expr, ast.Compare):
            lhs = self.eval(expr.left, env, block)
            result: Any = None
            for op, comparator in zip(expr.ops, expr.comparators):
                rhs = self.eval(comparator, env, block)
                result = self.compare(type(op), lhs, rhs, block)
                lhs = rhs
            return result
        if isinstance(expr, ast.BoolOp):
            kind = "aten::__and__" if isinstance(expr.op, ast.And) else "aten::__or__"
            values = [self.eval(v, env, block) for v in expr.values]
            acc = self.as_value(values[0], block)
            for v in values[1:]:
                acc = self.graph.create(kind, [acc, self.as_value(v, block)], 1,
                                        output_type="bool", block=block).outputs[0]
            return acc
        if isinstance(expr, (ast.Tuple, ast.List)):
            elems = [self.eval(e, env, block) for e in expr.elts]
            if all(not isinstance(e, TSValue) for e in elems):
                return tuple(elems) if isinstance(expr, ast.Tuple) else list(elems)
            values = [self.as_value(e, block) for e in elems]
            if isinstance(expr, ast.Tuple):
                return self.graph.tuple_construct(values, block=block)
            return self.graph.list_construct(values, block=block)
        if isinstance(expr, ast.Subscript):
            base = self.eval(expr.value, env, block)
            idx = self.eval(expr.slice, env, block)
            return self.graph.create(
                "aten::__getitem__",
                [self.as_value(base, block), self.as_value(idx, block)],
                1, block=block,
            ).outputs[0]
        if isinstance(expr, ast.JoinedStr):
            # f-string → aten::format over the pieces (TS behaviour)
            parts = []
            for v in expr.values:
                if isinstance(v, ast.FormattedValue):
                    parts.append(self.as_value(self.eval(v.value, env, block), block))
                else:
                    parts.append(self.as_value(v.value, block))
            return self.graph.create("aten::format", parts, 1,
                                     output_type="str", block=block).outputs[0]
        return self.unknown(f"expression {type(expr).__name__}", block)

    def eval_attribute(self, base: Any, attr: str, block: TSBlock) -> Any:
        if isinstance(base, TSValue):
            if attr == "shape":
                return self.graph.create("aten::size", [base], 1,
                                         output_type="int[]", block=block).outputs[0]
            if attr == "ndim":
                return self.graph.create("aten::dim", [base], 1,
                                         output_type="int", block=block).outputs[0]
            return _RuntimeMethod(base, attr)
        if isinstance(base, Module) and attr == "training":
            # a runtime bool attribute; other module attributes (parameters,
            # buffers, hyper-parameters) are compile-time values
            return self.graph.get_attr(self.module_value(base), "training",
                                       type_="bool", block=block)
        return getattr(base, attr)

    # ------------------------------------------------------------------- calls

    def eval_call(self, expr: ast.Call, env: dict, block: TSBlock) -> Any:
        func = self.eval(expr.func, env, block)
        args = [self.eval(a, env, block) for a in expr.args]
        kwargs = {
            kw.arg: self.eval(kw.value, env, block)
            for kw in expr.keywords if kw.arg is not None
        }
        return self.apply(func, args, kwargs, block)

    def apply(self, func: Any, args: list, kwargs: dict, block: TSBlock) -> Any:
        if isinstance(func, _RuntimeMethod):
            inputs = [func.base] + [self.as_value(a, block) for a in args]
            inputs += [self.as_value(v, block) for v in kwargs.values()]
            return self.graph.create(f"aten::{func.name}", inputs, 1,
                                     block=block).outputs[0]
        if isinstance(func, Module):
            return self.inline_module(func, args, kwargs, block)
        if getattr(func, "__tensor_dispatch__", False):
            inputs = [self.as_value(a, block) for a in args]
            inputs += [self.as_value(v, block) for v in kwargs.values()]
            return self.graph.create(f"aten::{func.__name__}", inputs, 1,
                                     block=block).outputs[0]
        if inspect.ismethod(func) and isinstance(func.__self__, Module):
            return self.inline_function(func.__func__, [func.__self__] + args,
                                        kwargs, block)
        if callable(func) and not any(isinstance(a, TSValue)
                                      for a in [*args, *kwargs.values()]):
            # compile-time call: range(3), len(self.layers), math.sqrt(...)
            return func(*args, **kwargs)
        if func is isinstance:
            return self.graph.create(
                "prim::isinstance", [self.as_value(args[0], block)], 1,
                output_type="bool", block=block,
            ).outputs[0]
        inputs = [self.as_value(a, block) for a in args]
        inputs += [self.as_value(v, block) for v in kwargs.values()]
        name = getattr(func, "__name__", "call")
        return self.graph.create("prim::CallFunction", inputs, 1,
                                 {"name": name}, block=block).outputs[0]

    def inline_module(self, mod: Module, args: list, kwargs: dict, block: TSBlock) -> Any:
        self.module_value(mod)  # GetAttr chain, as TS would emit
        return self.inline_function(type(mod).forward, [mod] + args, kwargs, block)

    def inline_function(self, fn: Callable, args: list, kwargs: dict,
                        block: TSBlock) -> Any:
        try:
            tree = parse_function(fn)
        except (OSError, TypeError, SyntaxError) as e:
            return self.unknown(f"call of {fn.__qualname__} ({e})", block)
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        env = {"__globals__": fn.__globals__, **bound.arguments}
        ret = self.compile_body(tree.body, env, block)
        return ret.value if ret is not None else None

    # -------------------------------------------------------------------- helpers

    def compare(self, op_type: type, lhs: Any, rhs: Any, block: TSBlock) -> Any:
        if not isinstance(lhs, TSValue) and not isinstance(rhs, TSValue):
            return _CMP_PY[op_type](lhs, rhs)
        kind = _CMP_ATEN.get(op_type)
        if kind is None:
            return self.unknown(f"comparison {op_type.__name__}", block)
        return self.graph.create(
            kind, [self.as_value(lhs, block), self.as_value(rhs, block)], 1,
            output_type="bool", block=block,
        ).outputs[0]

    # ---------------------------------------------------------------------- main

    def compile(self) -> TSGraph:
        fn = type(self.root).forward
        sig = inspect.signature(fn)
        args: list[Any] = [self.root]
        for name in list(sig.parameters)[1:]:
            args.append(self.graph.add_input(name))
        result = self.inline_function(fn, args, {}, self.graph.block)
        if isinstance(result, TSValue):
            self.graph.outputs.append(result)
        return self.graph


class _RuntimeMethod:
    """A method bound to a runtime TSValue, awaiting its call."""

    def __init__(self, base: TSValue, name: str):
        self.base = base
        self.name = name


def script(root: Module) -> ScriptedModule:
    """Compile *root*'s ``forward`` (recursively) into TS-style IR."""
    compiler = _ScriptCompiler(root)
    graph = compiler.compile()
    return ScriptedModule(root, graph, compiler.warnings)
