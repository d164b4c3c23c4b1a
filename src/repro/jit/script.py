"""``jit.script`` — an embedded-language compiler into the TS-style IR.

This is the second Figure-5 baseline.  Instead of running the model,
it *compiles* the Python source of ``forward`` (and, recursively, of every
method and submodule it calls) with a traditional parse-and-lower pipeline
(§2.1: "a traditional lexer-parser-compiler toolchain", reusing Python's
``ast`` as the front half).  Faithful to TorchScript's representational
choices, the compiler:

* keeps structured control flow: ``if`` becomes ``prim::If`` with **both**
  branches compiled (even the branch the example inputs would never take),
  ``for`` becomes ``prim::Loop`` or compile-time unrolling over module
  containers;
* materializes every scalar/immediate as a ``prim::Constant`` node and
  every tuple/list as ``prim::ListConstruct``/``prim::TupleConstruct``;
* models ``assert``/``raise`` as ``prim::If`` + ``prim::RaiseException``
  (the ``AssertionError`` constants visible in Figure 5(a));
* resolves module/parameter accesses to ``prim::GetAttr`` chains.

Compilation is best-effort for the long tail: a Python construct the
compiler does not model precisely is lowered to a ``prim::Unknown`` node
over its operand values rather than rejected, and recorded in
``ScriptedModule.warnings``.  (Real TorchScript errors out instead; for
the op-count study the conservative node is the fairer choice, since it
never *inflates* the count.)
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from typing import Any, Callable, Optional

from ..nn import Module, Parameter
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
    code = getattr(fn, "__code__", None)
    if code is None and hasattr(fn, "__func__"):
        code = fn.__func__.__code__
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
    ast.Is: "aten::__is__", ast.IsNot: "aten::__isnot__",
    ast.In: "aten::__contains__", ast.NotIn: "aten::__contains__",
}
_BINOP_PY = {
    ast.Add: lambda a, b: a + b, ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b, ast.Div: lambda a, b: a / b,
    ast.FloorDiv: lambda a, b: a // b, ast.Mod: lambda a, b: a % b,
    ast.Pow: lambda a, b: a ** b,
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
        self.attr_values: dict[int, TSValue] = {}
        self._inline_depth = 0

    # ------------------------------------------------------------------ values

    def module_value(self, mod: Module, block: TSBlock) -> TSValue:
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

    def state_value(self, t: Tensor, block: TSBlock) -> TSValue:
        v = self.attr_values.get(id(t))
        if v is not None:
            return v
        owner = self.state_owner.get(id(t))
        if owner is None:
            v = self.graph.constant(f"<tensor {tuple(t.shape)}>")
        else:
            mod, name = owner
            v = self.graph.get_attr(self.module_value(mod, block), name, type_="Tensor")
        self.attr_values[id(t)] = v
        return v

    def as_value(self, obj: Any, block: TSBlock) -> TSValue:
        """Materialize a compile-time value as IR (constants, constructs)."""
        if isinstance(obj, TSValue):
            return obj
        if isinstance(obj, (Parameter, Tensor)):
            return self.state_value(obj, block)
        if isinstance(obj, Module):
            return self.module_value(obj, block)
        if isinstance(obj, (int, float, bool, str)) or obj is None:
            return self.graph.constant(obj, block=block)
        if isinstance(obj, (tuple, list)):
            elems = [self.as_value(x, block) for x in obj]
            if isinstance(obj, tuple):
                return self.graph.tuple_construct(elems, block=block)
            return self.graph.list_construct(elems, block=block)
        if isinstance(obj, slice):
            parts = [self.as_value(x, block) for x in (obj.start, obj.stop, obj.step)]
            return self.graph.list_construct(parts, elem_type="int?", block=block)
        self.warn(f"opaque compile-time value {type(obj).__name__} materialized as str constant")
        return self.graph.constant(repr(obj), block=block)

    def warn(self, msg: str) -> None:
        self.warnings.append(msg)

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
        if isinstance(stmt, ast.AugAssign):
            cur = self.eval(stmt.target, env, block)
            rhs = self.eval(stmt.value, env, block)
            merged = self.binop(type(stmt.op), cur, rhs, block)
            self.assign_target(stmt.target, merged, env, block)
            return None
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                value = self.eval(stmt.value, env, block)
                self.assign_target(stmt.target, value, env, block)
            return None
        if isinstance(stmt, ast.If):
            return self.compile_if(stmt, env, block)
        if isinstance(stmt, ast.For):
            self.compile_for(stmt, env, block)
            return None
        if isinstance(stmt, ast.While):
            self.compile_while(stmt, env, block)
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
            inputs = []
            if stmt.exc is not None:
                try:
                    val = self.eval(stmt.exc, env, block)
                    inputs.append(self.as_value(val, block))
                except Exception:
                    inputs.append(self.graph.constant("<exception>", block=block))
            self.graph.create("prim::RaiseException", inputs, 0, block=block)
            return None
        if isinstance(stmt, ast.Expr):
            self.eval(stmt.value, env, block)
            return None
        if isinstance(stmt, ast.Pass):
            return None
        self.warn(f"unsupported statement {type(stmt).__name__}; emitted prim::Unknown")
        self.graph.create("prim::Unknown", [], 0, {"stmt": type(stmt).__name__}, block=block)
        return None

    def assign_target(self, target: ast.expr, value: Any, env: dict, block: TSBlock) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            if isinstance(value, TSValue):
                unpack = self.graph.create(
                    "prim::TupleUnpack", [value], n_outputs=len(target.elts), block=block
                )
                parts: list[Any] = list(unpack.outputs)
            elif isinstance(value, (tuple, list)):
                parts = list(value)
            else:
                self.warn("cannot unpack value; bound all targets to it")
                parts = [value] * len(target.elts)
            for t, p in zip(target.elts, parts):
                self.assign_target(t, p, env, block)
            return
        self.warn(f"unsupported assignment target {type(target).__name__}")

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
        if_node = self.graph.create("prim::If", [cond], 0, block=block)
        then_b, else_b = if_node.add_block(), if_node.add_block()
        env_t, env_f = dict(env), dict(env)
        ret_t = self.compile_body(stmt.body, env_t, then_b)
        ret_f = self.compile_body(stmt.orelse, env_f, else_b)
        if ret_t is not None and ret_f is not None:
            # both branches return: merge as the statement's return
            out = self.graph.fresh_value("if_ret")
            then_b.outputs.append(self.as_value(ret_t.value, then_b))
            else_b.outputs.append(self.as_value(ret_f.value, else_b))
            if_node.outputs.append(out)
            return _Return(out)
        # merge variables assigned in either branch
        changed = [
            k for k in sorted(set(env_t) | set(env_f))
            if env_t.get(k) is not env_f.get(k)
        ]
        for k in changed:
            if k in env_t and k in env_f:
                out = self.graph.fresh_value(k)
                then_b.outputs.append(self.as_value(env_t[k], then_b))
                else_b.outputs.append(self.as_value(env_f[k], else_b))
                if_node.outputs.append(out)
                out.producer = if_node
                env[k] = out
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
        try:
            items = list(it)
        except TypeError:
            self.warn("non-iterable in for loop; skipped")
            return
        for item in items:
            self.assign_target(stmt.target, item, env, block)
            self.compile_body(stmt.body, env, block)

    def compile_while(self, stmt: ast.While, env: dict, block: TSBlock) -> None:
        cond = self.eval(stmt.test, env, block)
        loop = self.graph.create("prim::Loop", [self.as_value(cond, block)], 0, block=block)
        body = loop.add_block()
        env_b = dict(env)
        self.compile_body(stmt.body, env_b, body)

    # -------------------------------------------------------------- expressions

    def eval(self, expr: ast.expr, env: dict, block: TSBlock) -> Any:
        if isinstance(expr, ast.Constant):
            return expr.value
        if isinstance(expr, ast.Name):
            if expr.id in env:
                return env[expr.id]
            g = env.get("__globals__", {})
            if expr.id in g:
                return g[expr.id]
            import builtins

            if hasattr(builtins, expr.id):
                return getattr(builtins, expr.id)
            self.warn(f"unresolved name {expr.id!r}")
            return None
        if isinstance(expr, ast.Attribute):
            base = self.eval(expr.value, env, block)
            return self.eval_attribute(base, expr.attr, block)
        if isinstance(expr, ast.Call):
            return self.eval_call(expr, env, block)
        if isinstance(expr, ast.BinOp):
            lhs = self.eval(expr.left, env, block)
            rhs = self.eval(expr.right, env, block)
            return self.binop(type(expr.op), lhs, rhs, block)
        if isinstance(expr, ast.UnaryOp):
            operand = self.eval(expr.operand, env, block)
            if isinstance(expr.op, ast.Not):
                if isinstance(operand, TSValue):
                    return self.graph.create("aten::__not__", [operand], 1,
                                             output_type="bool", block=block).outputs[0]
                return not operand
            if isinstance(expr.op, ast.USub):
                if isinstance(operand, TSValue):
                    return self.graph.create("aten::neg", [operand], 1,
                                             block=block).outputs[0]
                return -operand
            if isinstance(expr.op, ast.UAdd):
                return operand
            self.warn("unsupported unary op")
            return operand
        if isinstance(expr, ast.Compare):
            lhs = self.eval(expr.left, env, block)
            result: Any = None
            for op, comparator in zip(expr.ops, expr.comparators):
                rhs = self.eval(comparator, env, block)
                result = self.compare(type(op), lhs, rhs, block)
                lhs = rhs
            return result
        if isinstance(expr, ast.BoolOp):
            values = [self.eval(v, env, block) for v in expr.values]
            if all(not isinstance(v, TSValue) for v in values):
                if isinstance(expr.op, ast.And):
                    out = values[0]
                    for v in values[1:]:
                        out = out and v
                    return out
                out = values[0]
                for v in values[1:]:
                    out = out or v
                return out
            kind = "aten::__and__" if isinstance(expr.op, ast.And) else "aten::__or__"
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
            if not isinstance(base, TSValue) and not isinstance(idx, TSValue):
                try:
                    return base[idx]
                except Exception:
                    self.warn("failed compile-time subscript")
                    return None
            return self.graph.create(
                "aten::__getitem__",
                [self.as_value(base, block), self.as_value(idx, block)],
                1, block=block,
            ).outputs[0]
        if isinstance(expr, ast.Slice):
            lower = self.eval(expr.lower, env, block) if expr.lower else None
            upper = self.eval(expr.upper, env, block) if expr.upper else None
            step = self.eval(expr.step, env, block) if expr.step else None
            if any(isinstance(v, TSValue) for v in (lower, upper, step)):
                return self.graph.list_construct(
                    [self.as_value(v, block) for v in (lower, upper, step)],
                    elem_type="int?", block=block,
                )
            return slice(lower, upper, step)
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
        if isinstance(expr, ast.IfExp):
            cond = self.eval(expr.test, env, block)
            if not isinstance(cond, TSValue):
                return self.eval(expr.body if cond else expr.orelse, env, block)
            if_node = self.graph.create("prim::If", [cond], 0, block=block)
            then_b, else_b = if_node.add_block(), if_node.add_block()
            tv = self.as_value(self.eval(expr.body, env, then_b), then_b)
            fv = self.as_value(self.eval(expr.orelse, env, else_b), else_b)
            then_b.outputs.append(tv)
            else_b.outputs.append(fv)
            out = self.graph.fresh_value("ifexp")
            if_node.outputs.append(out)
            out.producer = if_node
            return out
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp)):
            return self.eval_comprehension(expr, env, block)
        if isinstance(expr, ast.Starred):
            return self.eval(expr.value, env, block)
        self.warn(f"unsupported expression {type(expr).__name__}; prim::Unknown")
        node = self.graph.create("prim::Unknown", [], 1,
                                 {"expr": type(expr).__name__}, block=block)
        return node.outputs[0]

    def eval_comprehension(self, expr, env: dict, block: TSBlock) -> Any:
        gen = expr.generators[0]
        it = self.eval(gen.iter, env, block)
        if isinstance(it, TSValue):
            self.warn("runtime comprehension lowered to prim::Unknown")
            return self.graph.create("prim::Unknown", [it], 1, block=block).outputs[0]
        results = []
        for item in it:
            env_c = dict(env)
            self.assign_target(gen.target, item, env_c, block)
            if all(
                not isinstance(self.eval(c, env_c, block), TSValue) and
                self.eval(c, env_c, block)
                for c in gen.ifs
            ) if gen.ifs else True:
                results.append(self.eval(expr.elt, env_c, block))
        return results

    def eval_attribute(self, base: Any, attr: str, block: TSBlock) -> Any:
        if isinstance(base, TSValue):
            if attr in ("shape",):
                return self.graph.create("aten::size", [base], 1,
                                         output_type="int[]", block=block).outputs[0]
            if attr == "ndim":
                return self.graph.create("aten::dim", [base], 1,
                                         output_type="int", block=block).outputs[0]
            if attr == "dtype":
                return self.graph.create("prim::dtype", [base], 1,
                                         output_type="int", block=block).outputs[0]
            if attr == "T":
                return self.graph.create("aten::t", [base], 1, block=block).outputs[0]
            return _RuntimeMethod(base, attr, self)
        if isinstance(base, Module):
            # Parameters/buffers produce GetAttr chains; plain attributes are
            # compile-time constants; 'training' is a runtime bool attribute.
            if attr == "training":
                return self.graph.get_attr(self.module_value(base, block), "training",
                                           type_="bool", block=block)
            value = getattr(base, attr)
            return value
        return getattr(base, attr)

    # ------------------------------------------------------------------- calls

    def eval_call(self, expr: ast.Call, env: dict, block: TSBlock) -> Any:
        func = self.eval(expr.func, env, block)
        args = []
        for a in expr.args:
            v = self.eval(a, env, block)
            if isinstance(a, ast.Starred) and isinstance(v, (tuple, list)):
                args.extend(v)
            else:
                args.append(v)
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
        has_runtime = any(isinstance(a, TSValue) for a in args) or any(
            isinstance(v, TSValue) for v in kwargs.values()
        )
        if not has_runtime and callable(func):
            if func in (range, len, isinstance, getattr, repr, str, int, float,
                        bool, tuple, list, zip, enumerate, sorted, reversed, min,
                        max, abs, sum):
                try:
                    return func(*args, **kwargs)
                except Exception:
                    self.warn(f"compile-time call to {func} failed")
                    return None
            mod = getattr(func, "__module__", "") or ""
            if mod.startswith(("math",)):
                return func(*args, **kwargs)
            if inspect.isfunction(func):
                return self.inline_function(func, args, kwargs, block)
            try:
                return func(*args, **kwargs)
            except Exception:
                self.warn(f"compile-time call to {func!r} failed")
                return None
        # runtime call of a python-level function: builtins get aten nodes,
        # user functions are inlined
        name = getattr(func, "__name__", "call")
        if func in (int,):
            return self.graph.create("aten::Int", [self.as_value(args[0], block)], 1,
                                     output_type="int", block=block).outputs[0]
        if func in (float,):
            return self.graph.create("aten::Float", [self.as_value(args[0], block)], 1,
                                     output_type="float", block=block).outputs[0]
        if func in (len,):
            return self.graph.create("aten::len", [self.as_value(args[0], block)], 1,
                                     output_type="int", block=block).outputs[0]
        if func in (isinstance,):
            return self.graph.create(
                "prim::isinstance", [self.as_value(args[0], block)], 1,
                output_type="bool", block=block,
            ).outputs[0]
        if inspect.isfunction(func):
            return self.inline_function(func, args, kwargs, block)
        inputs = [self.as_value(a, block) for a in args]
        inputs += [self.as_value(v, block) for v in kwargs.values()]
        return self.graph.create("prim::CallFunction", inputs, 1,
                                 {"name": name}, block=block).outputs[0]

    def inline_module(self, mod: Module, args: list, kwargs: dict, block: TSBlock) -> Any:
        self.module_value(mod, block)  # GetAttr chain, as TS would emit
        return self.inline_function(type(mod).forward, [mod] + args, kwargs, block)

    def inline_function(self, fn: Callable, args: list, kwargs: dict,
                        block: TSBlock) -> Any:
        if self._inline_depth > 40:
            self.warn(f"inline depth limit at {fn.__qualname__}")
            return self.graph.create("prim::CallFunction", [], 1, block=block).outputs[0]
        try:
            tree = parse_function(fn)
        except (OSError, TypeError, SyntaxError) as e:
            self.warn(f"cannot get source of {fn!r}: {e}")
            inputs = [self.as_value(a, block) for a in args]
            return self.graph.create("prim::CallFunction", inputs, 1, block=block).outputs[0]
        env: dict[str, Any] = {"__globals__": fn.__globals__}
        params = [a.arg for a in tree.args.args]
        defaults = tree.args.defaults
        default_offset = len(params) - len(defaults)
        bound = dict(zip(params, args))
        for i, p in enumerate(params):
            if p in bound:
                continue
            if p in kwargs:
                bound[p] = kwargs[p]
            elif i >= default_offset:
                bound[p] = ast.literal_eval(defaults[i - default_offset])
            else:
                self.warn(f"missing argument {p!r} for {fn.__qualname__}")
                bound[p] = None
        for kwonly, kwdefault in zip(tree.args.kwonlyargs, tree.args.kw_defaults):
            if kwonly.arg in kwargs:
                bound[kwonly.arg] = kwargs[kwonly.arg]
            elif kwdefault is not None:
                bound[kwonly.arg] = ast.literal_eval(kwdefault)
        env.update(bound)
        self._inline_depth += 1
        try:
            ret = self.compile_body(tree.body, env, block)
        finally:
            self._inline_depth -= 1
        return ret.value if ret is not None else None

    # -------------------------------------------------------------------- helpers

    def binop(self, op_type: type, lhs: Any, rhs: Any, block: TSBlock) -> Any:
        if not isinstance(lhs, TSValue) and not isinstance(rhs, TSValue):
            fold = _BINOP_PY.get(op_type)
            if fold is not None:
                try:
                    return fold(lhs, rhs)
                except Exception:
                    pass
            self.warn(f"cannot fold {op_type.__name__}")
            return None
        kind = _BINOP_ATEN.get(op_type, "prim::Unknown")
        return self.graph.create(
            kind, [self.as_value(lhs, block), self.as_value(rhs, block)], 1, block=block
        ).outputs[0]

    def compare(self, op_type: type, lhs: Any, rhs: Any, block: TSBlock) -> Any:
        if not isinstance(lhs, TSValue) and not isinstance(rhs, TSValue):
            fold = _CMP_PY.get(op_type)
            if fold is not None:
                try:
                    return fold(lhs, rhs)
                except Exception:
                    pass
            return None
        kind = _CMP_ATEN.get(op_type, "prim::Unknown")
        out = self.graph.create(
            kind, [self.as_value(lhs, block), self.as_value(rhs, block)], 1,
            output_type="bool", block=block,
        ).outputs[0]
        if op_type is ast.NotIn:
            out = self.graph.create("aten::__not__", [out], 1,
                                    output_type="bool", block=block).outputs[0]
        return out

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
        elif isinstance(result, (tuple, list)):
            for r in result:
                if isinstance(r, TSValue):
                    self.graph.outputs.append(r)
        return self.graph


class _RuntimeMethod:
    """A method bound to a runtime TSValue, awaiting its call."""

    def __init__(self, base: TSValue, name: str, compiler: _ScriptCompiler):
        self.base = base
        self.name = name
        self.compiler = compiler


def script(root: Module) -> ScriptedModule:
    """Compile *root*'s ``forward`` (recursively) into TS-style IR."""
    compiler = _ScriptCompiler(root)
    graph = compiler.compile()
    return ScriptedModule(root, graph, compiler.warnings)
