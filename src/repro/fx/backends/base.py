"""The ``Backend`` protocol and the three built-in backend names.

A *backend* is anything that can compile an fx subgraph into a faster (or
differently-executed) ``Module``: the numpy graph compiler of
:func:`repro.fx.compile`, the TensorRT-like engine builder of
:mod:`repro.trt`, an identity "eager" backend, or any ``Backend``
instance a user passes.  The paper's use cases (§5, §6.2, §6.4) all follow the same
shape — capture, run preferred passes, carve out the supported region,
compile it, fall back to eager for the rest — so that shape lives *once*
in :func:`repro.fx.backends.to_backend` and individual backends only
answer four questions:

* ``name`` — what reports call it;
* ``is_node_supported(node, modules)`` — can I execute this node?
* ``preferred_passes(gm)`` — which passes should run (under
  :class:`~repro.fx.passes.PassManager`) before partitioning?
* ``compile_subgraph(gm)`` — turn one fully-supported subgraph into a
  callable ``Module``.

:func:`get_backend` resolves the names ``"numpy"``, ``"eager"`` and
``"trt"``, importing each on first use (``repro.trt`` itself imports
:mod:`repro.fx`, so importing it here would form a cycle).
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, Optional, Sequence, Union

from ...nn import Module
from ..graph_module import GraphModule
from ..node import Node

__all__ = [
    "Backend",
    "UnsupportedNodesError",
    "get_backend",
    "override_support",
]


class UnsupportedNodesError(RuntimeError):
    """``to_backend(..., allow_fallback=False)`` found nodes the backend
    cannot compile.  ``nodes`` holds their names (in graph order)."""

    def __init__(self, backend_name: str, node_names: Sequence[str]):
        self.backend_name = backend_name
        self.nodes = list(node_names)
        preview = ", ".join(self.nodes[:5])
        if len(self.nodes) > 5:
            preview += f", … ({len(self.nodes)} total)"
        super().__init__(
            f"backend {backend_name!r} does not support: {preview}; "
            f"pass allow_fallback=True to run them eagerly"
        )


class Backend:
    """Base class / protocol for pluggable compilation backends.

    Subclasses override the four core hooks.  The optional class
    attribute ``respects_effects`` says the backend executes mutation
    exactly like eager mode, so effectful/aliasing nodes need not be
    fenced out of its partitions.  Default ``False`` (the partitioner
    conservatively keeps mutating nodes, and anything sharing storage
    with a mutated value, out of compiled partitions).
    """

    name: str = "base"
    respects_effects: bool = False

    def is_node_supported(self, node: Node, modules: Dict[str, Module]) -> bool:
        """Can this backend execute *node*?  ``get_attr`` / ``placeholder``
        / ``output`` nodes are never asked — the partitioner handles them
        structurally (``get_attr`` inherits from its consumers)."""
        raise NotImplementedError

    def preferred_passes(self, gm: GraphModule) -> list:
        """Passes to run (in order, under ``PassManager``) on the whole
        captured graph before partitioning.  Entries are pass callables
        or ``(name, callable)`` pairs; return ``[]`` for none."""
        return []

    def compile_subgraph(self, gm: GraphModule) -> Module:
        """Compile one fully-supported subgraph into a callable Module."""
        raise NotImplementedError

    def validate_input(self, gm: GraphModule) -> None:
        """Optional pre-flight check on the captured module (e.g. the TRT
        backend requires eval mode).  Raise to abort ``to_backend``."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"


#: name -> (module, class) of the built-in backends.
_BUILTIN = {
    "eager": ("repro.fx.backends.eager", "EagerBackend"),
    "numpy": ("repro.fx.backends.numpy_backend", "NumpyBackend"),
    "trt": ("repro.trt.backend", "TRTBackend"),
}


def get_backend(name: str) -> Backend:
    """A fresh instance of the built-in backend called *name*, so per-run
    state (e.g. a configured pipeline) never leaks between ``to_backend``
    calls.  Any other backend is passed as an instance."""
    try:
        module, cls = _BUILTIN[name]
    except KeyError:
        raise KeyError(
            f"no built-in backend {name!r}; known: {', '.join(_BUILTIN)} "
            f"(pass any other backend as a Backend instance)") from None
    return getattr(importlib.import_module(module), cls)()


class _FilteredBackend(Backend):
    """A backend with an extra support predicate ANDed in (see
    :func:`override_support`)."""

    def __init__(self, base: Backend,
                 predicate: Callable[[Node, Dict[str, Module]], bool],
                 name: Optional[str] = None):
        self.base = base
        self.predicate = predicate
        self.name = name or f"{base.name}+filter"
        self.respects_effects = base.respects_effects

    def is_node_supported(self, node: Node, modules: Dict[str, Module]) -> bool:
        return bool(self.predicate(node, modules)) \
            and self.base.is_node_supported(node, modules)

    def preferred_passes(self, gm: GraphModule) -> list:
        return self.base.preferred_passes(gm)

    def compile_subgraph(self, gm: GraphModule) -> Module:
        return self.base.compile_subgraph(gm)

    def validate_input(self, gm: GraphModule) -> None:
        self.base.validate_input(gm)


def override_support(backend: Union[str, Backend],
                     predicate: Callable[[Node, Dict[str, Module]], bool],
                     *, name: Optional[str] = None) -> Backend:
    """Wrap *backend* so a node is supported only when *predicate* also
    accepts it — the standard way to force a fallback region for tests
    and benchmarks (e.g. "pretend pooling is unsupported")."""
    base = get_backend(backend) if isinstance(backend, str) else backend
    return _FilteredBackend(base, predicate, name=name)
