"""``GraphModule`` — a Graph paired with the module state it references.

GraphModule is a real ``nn.Module`` (§4.2): it owns the parameters, buffers
and submodules that its Graph's ``call_module`` / ``get_attr`` nodes refer
to, and its ``forward`` is *generated Python source* compiled from the
Graph (§4.3).  That makes transformed programs first-class citizens: they
can be called, further transformed, re-traced (Figure 3), saved to disk
(:meth:`GraphModule.to_folder`), and composed with untransformed modules.
"""

from __future__ import annotations

import itertools
import linecache
import os
import pickle
import types
from typing import Any

from ..nn import Module, Parameter
from ..tensor import Tensor
from .cache import register_stage
from .graph import Graph, PythonCode

__all__ = ["GraphModule"]

# Each generated forward gets a unique pseudo-filename registered in
# linecache so pdb / tracebacks can show the generated source (§5.4).
# itertools.count: next() is atomic, so concurrent recompiles can never
# mint the same filename (a list-cell counter could).
_NEXT_CODE_ID = itertools.count()


def _evict_source(filename: str) -> None:
    linecache.cache.pop(filename, None)


def _compile_forward(python_code: PythonCode) -> tuple:
    """Exec *python_code* under a fresh linecache filename; returns the
    ``(src, forward, globals, filename)`` entry the codegen cache stores.

    The globals in the entry are a private copy taken *before* exec: the
    table belongs to the caller of ``python_code()``, who may mutate it,
    and the copy keeps every object the structural hash tokenized by
    ``id()`` alive for exactly as long as the entry exists, so a cache key
    can never alias a recycled id.
    """
    src = python_code.src
    filename = f"<fx-generated-{next(_NEXT_CODE_ID)}>"
    linecache.cache[filename] = (len(src), None, src.splitlines(True), filename)
    namespace = dict(python_code.globals)
    exec(compile(src, filename, "exec"), namespace)
    return src, namespace["forward"], dict(python_code.globals), filename


#: Compiled ``forward`` functions keyed on ``(Graph.structural_hash(
#: include_attrs=False), node names, arena slots)``: the generated source
#: depends only on graph structure plus the variable names, never on
#: parameter values, so identical graphs across modules (pickle
#: round-trips, no-op transforms, fuzz iterations) share one compile + one
#: linecache entry instead of re-exec'ing the source every ``recompile()``.
#: An entry leaving the cache drops its linecache registration, so repeated
#: recompilation cannot grow ``linecache.cache`` without bound.
_CODEGEN_CACHE = register_stage(
    "codegen", 256, on_evict=lambda entry: _evict_source(entry[3]))


def _rebuild_graph_module(cls: type, state: dict) -> "GraphModule":
    gm = cls.__new__(cls)
    Module.__init__(gm)
    gm._modules.update(state["modules"])
    gm._parameters.update(state["parameters"])
    gm._buffers.update(state["buffers"])
    for k, v in state["plain"].items():
        object.__setattr__(gm, k, v)
    gm.graph = state["graph"]
    return gm


def _copy_attr(src: Module, dst: Module, target: str) -> None:
    """Copy the attribute at dotted path *target* from one module tree to
    another, creating intermediate containers as needed."""
    *prefix, leaf = target.split(".")
    src_cursor, dst_cursor = src, dst
    for atom in prefix:
        src_cursor = getattr(src_cursor, atom)
        nxt = dst_cursor._modules.get(atom)
        if nxt is None:
            nxt = Module()
            dst_cursor.add_module(atom, nxt)
        dst_cursor = nxt
    value = getattr(src_cursor, leaf)
    _assign_attr(dst_cursor, leaf, value, buffer_hint=leaf in getattr(src_cursor, "_buffers", {}))


def _assign_attr(mod: Module, name: str, value: Any, buffer_hint: bool = False) -> None:
    if isinstance(value, Parameter) or isinstance(value, Module):
        setattr(mod, name, value)
    elif isinstance(value, Tensor) and buffer_hint:
        mod.register_buffer(name, value)
    else:
        setattr(mod, name, value)


class _GeneratedForward:
    """``GraphModule.forward`` until it is first read: a non-data
    descriptor, so the bound function :meth:`GraphModule._generate`
    installs in the instance ``__dict__`` shadows it, and every later
    ``gm.forward`` — the call path, ``inspect.signature``, re-tracing — is
    a plain attribute read of a real method.  On the class it reads as the
    inherited ``Module.forward``, as it did when ``forward`` only ever
    existed on instances."""

    def __get__(self, gm: "GraphModule | None", owner: type | None = None):
        return Module.forward if gm is None else gm._generate()[1]


class GraphModule(Module):
    """Container for a transformed program.

    Args:
        root: a Module whose attributes referenced by the graph are copied
            in, or a plain ``dict`` mapping qualified names to values.
        graph: the Graph this module executes.
        class_name: name used in ``repr`` and ``to_folder`` output.

    The ``graph`` property is assignable; assignment calls
    :meth:`recompile`.  Code is generated on the first *use* of
    ``forward`` / ``code`` after that, so a module that is transformed
    again before it runs never pays for source nobody executes.
    """

    forward = _GeneratedForward()

    def __init__(self, root: Module | dict, graph: Graph, class_name: str = "GraphModule"):
        super().__init__()
        self._class_name = class_name
        targets = {
            node.target
            for node in graph.nodes
            if node.op in ("call_module", "get_attr")
        }
        if isinstance(root, Module):
            object.__setattr__(self, "training", root.training)
            for target in sorted(targets):
                _copy_attr(root, self, target)
        elif isinstance(root, dict):
            for target in sorted(targets):
                if target not in root:
                    raise RuntimeError(
                        f"graph refers to {target!r} but it is missing from the root dict"
                    )
                *prefix, leaf = target.split(".")
                cursor: Module = self
                for atom in prefix:
                    nxt = cursor._modules.get(atom)
                    if nxt is None:
                        nxt = Module()
                        cursor.add_module(atom, nxt)
                    cursor = nxt
                value = root[target]
                _assign_attr(cursor, leaf, value,
                             buffer_hint=isinstance(value, Tensor)
                             and not isinstance(value, Parameter))
        else:
            raise TypeError(f"root must be a Module or dict, got {type(root).__name__}")
        self.graph = graph

    # -- graph / code ------------------------------------------------------------

    @property
    def graph(self) -> Graph:
        return self._graph

    @graph.setter
    def graph(self, g: Graph) -> None:
        object.__setattr__(self, "_graph", g)
        g.owning_module = self
        self.recompile()

    @property
    def code(self) -> str:
        """The generated Python source of ``forward``."""
        src = self.__dict__.get("_code")
        return src if src is not None else self._generate()[0]

    def recompile(self) -> None:
        """Tell the module its graph changed: the generated ``forward``
        and ``code`` are dropped, and regenerated from the graph as it is
        when one of them is next used."""
        self.__dict__.pop("forward", None)
        self.__dict__.pop("_code", None)

    def _generate(self) -> tuple[str, types.MethodType]:
        """Generate ``(source, bound forward)`` from the current graph and
        install both on the instance.

        Compilation is memoized on the graph's structural hash: a graph
        identical to one compiled before (same structure *and* node names)
        reuses the cached function object and linecache entry instead of
        re-exec'ing the source.  The generated code reads all state through
        ``self.<path>``, so one compiled forward is valid for every module
        whose graph hashes equal.
        """
        try:
            key = (
                self._graph.structural_hash(include_attrs=False),
                tuple(n.name for n in self._graph.nodes),
                # Arena-slot assignments live only in node.meta (not in
                # the structural hash) yet change the generated source
                # (out=<slot> arguments). Two structurally identical
                # graphs with different plans must not share code; the
                # id() is pinned live by the stored globals table.
                tuple(
                    (i, id(n.meta.get("arena_slot")))
                    for i, n in enumerate(self._graph.nodes)
                    if n.meta.get("arena_slot") is not None
                ),
            )
        except Exception:
            key = None  # unhashable target/arg: fall back to a fresh compile

        def build() -> tuple:
            return _compile_forward(self._graph.python_code(root_module="self"))

        if key is not None:
            src, fn, _, _ = _CODEGEN_CACHE.get_or_build(key, build)
            private = None
        else:
            # Uncached compile: this module owns the linecache entry and
            # must evict it on the next generation (or leak one per call).
            src, fn, _, private = build()
        stale = self.__dict__.get("_private_fx_filename")
        if stale is not None:
            _evict_source(stale)
        forward = types.MethodType(fn, self)
        self.__dict__.update(_private_fx_filename=private, _code=src,
                             forward=forward)
        return src, forward

    def print_readable(self) -> str:
        """Print (and return) the generated code."""
        code = self.code
        print(code)
        return code

    # -- submodule management -------------------------------------------------------

    def add_submodule(self, target: str, m: Module) -> bool:
        """Install *m* at dotted path *target*, creating intermediate
        plain Modules along the way.  Returns False if a non-Module sits
        where an intermediate is needed."""
        *prefix, leaf = target.split(".")
        cursor: Module = self
        for atom in prefix:
            nxt = cursor._modules.get(atom)
            if nxt is None:
                nxt = Module()
                cursor.add_module(atom, nxt)
            if not isinstance(nxt, Module):
                return False
            cursor = nxt
        cursor.add_module(leaf, m)
        return True

    def delete_submodule(self, target: str) -> bool:
        """Remove the submodule at *target*. Returns False if absent."""
        *prefix, leaf = target.split(".")
        cursor: Module = self
        for atom in prefix:
            nxt = cursor._modules.get(atom)
            if nxt is None:
                return False
            cursor = nxt
        if leaf not in cursor._modules:
            return False
        del cursor._modules[leaf]
        return True

    def delete_all_unused_submodules(self) -> None:
        """Drop submodules not referenced by any call_module/get_attr node.

        Used after transforms that replace module calls (e.g. fusion) so
        the module tree does not keep dead state alive.
        """
        used: set[str] = set()
        for node in self._graph.nodes:
            if node.op in ("call_module", "get_attr"):
                path = node.target.split(".")
                for i in range(1, len(path) + 1):
                    used.add(".".join(path[:i]))

        def prune(mod: Module, prefix: str) -> None:
            for name in list(mod._modules):
                child_path = f"{prefix}.{name}" if prefix else name
                child = mod._modules[name]
                if child_path not in used:
                    # keep containers that still have used descendants
                    if any(u.startswith(child_path + ".") for u in used):
                        prune(child, child_path)
                    else:
                        del mod._modules[name]
                else:
                    prune(child, child_path)

        prune(self, "")

    # -- persistence -------------------------------------------------------------------

    def to_folder(self, folder: str, module_name: str = "FxModule") -> None:
        """Write the generated module out as an importable Python package.

        Produces ``<folder>/module.py`` containing a class whose
        ``__init__`` loads pickled state and whose ``forward`` is this
        module's generated code, plus ``state.pkl`` holding the module's
        submodules, parameters and buffers.
        """
        os.makedirs(folder, exist_ok=True)
        state = {
            "submodules": dict(self._modules),
            "parameters": dict(self._parameters),
            "buffers": dict(self._buffers),
        }
        with open(os.path.join(folder, "state.pkl"), "wb") as f:
            pickle.dump(state, f)

        # Re-indent the generated forward as a method body.
        fwd_lines = self.code.splitlines()
        fwd = "\n".join("    " + line for line in fwd_lines)
        src = f'''"""Auto-generated by repro.fx GraphModule.to_folder()."""
import os
import pickle

import repro
import repro.functional
from repro import nn
from repro.nn import Module


class {module_name}(Module):
    def __init__(self):
        super().__init__()
        state_path = os.path.join(os.path.dirname(__file__), "state.pkl")
        with open(state_path, "rb") as f:
            state = pickle.load(f)
        for name, mod in state["submodules"].items():
            self.add_module(name, mod)
        for name, p in state["parameters"].items():
            self.register_parameter(name, p)
        for name, b in state["buffers"].items():
            self.register_buffer(name, b)

{fwd}
'''
        with open(os.path.join(folder, "module.py"), "w") as f:
            f.write(src)
        with open(os.path.join(folder, "__init__.py"), "w") as f:
            f.write(f"from .module import {module_name}\n")

    # -- serialization ---------------------------------------------------------------------

    def __reduce__(self):
        """Pickle support: serialize registration tables + the Graph, and
        regenerate ``forward`` on load (the compiled method itself is not
        picklable, and does not need to be — codegen is deterministic)."""
        plain = {
            k: v for k, v in self.__dict__.items()
            if k not in ("_graph", "_code", "forward", "_private_fx_filename",
                         "_parameters", "_buffers", "_modules")
        }
        state = {
            "modules": dict(self._modules),
            "parameters": dict(self._parameters),
            "buffers": dict(self._buffers),
            "plain": plain,
            "graph": self._graph,
        }
        return (_rebuild_graph_module, (type(self), state))

    # -- repr -----------------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"{self._class_name}(\n  (generated forward follows)\n){os.linesep}{self.code}"
