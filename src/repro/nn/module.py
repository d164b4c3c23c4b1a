"""The ``Module`` base class: hierarchical, stateful model containers.

This is the substrate for the paper's "functional graphs but stateful
modules" design (§5.6): modules own parameters and buffers (mutable state),
while :class:`repro.fx.Graph` stays purely functional and reaches the state
through ``call_module`` / ``get_attr`` nodes.

Symbolic tracing hooks module invocation through
:data:`_MODULE_CALL_INTERCEPTOR`: during a trace, ``fx.Tracer`` installs an
interceptor so every ``module(x)`` call is routed to the tracer, which
decides whether to emit a ``call_module`` node (leaf) or trace through the
module's ``forward`` (non-leaf).  This mirrors how torch.fx "overrides
PyTorch's Module abstraction to record calls to Modules" (§4.1).
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Any, Callable, Iterator

from ..tensor import Tensor
from .parameter import Parameter

__all__ = ["Module"]

# Installed by fx.Tracer for the duration of a symbolic trace.  Signature:
# (module, args, kwargs) -> result.  ``None`` means normal eager execution.
_MODULE_CALL_INTERCEPTOR: Callable | None = None

# Moved by every funnel below that can change what a dotted path resolves
# to: a generated forward bound at another epoch re-binds.  ``next()`` is
# atomic, so a racing store never brings back an epoch a binder saw.
_EPOCH = [0]
_TICKS = itertools.count(1)


def _bump() -> None:
    _EPOCH[0] = next(_TICKS)


class Module:
    """Base class for all neural network modules.

    Mirrors ``torch.nn.Module``'s registration semantics:

    * assigning a :class:`Parameter` registers it in ``_parameters``;
    * assigning a ``Module`` registers it in ``_modules``;
    * buffers (non-trainable tensors such as BatchNorm running stats) are
      registered with :meth:`register_buffer`;
    * the full tree is reachable through ``named_modules`` /
      ``named_parameters`` with dotted paths — the same paths fx uses as
      ``call_module`` / ``get_attr`` targets.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # -- attribute registration -------------------------------------------------

    def __setattr__(self, name: str, value: Any) -> None:
        if "_parameters" not in self.__dict__:
            raise AttributeError(
                "cannot assign attributes before Module.__init__() call"
            )
        params, buffers, modules = self._parameters, self._buffers, self._modules
        # A tensor re-assigned to a registration stays in its table, so
        # transforms can swap parameters for plain tensors (e.g. quantized
        # weights) without the name leaving state_dict.
        home = params if isinstance(value, Parameter) else \
            modules if isinstance(value, Module) else \
            next((t for t in (params, buffers) if name in t), None) \
            if isinstance(value, Tensor) else None
        for table in (params, buffers, modules):
            if table is not home:
                table.pop(name, None)
        if home is None:
            object.__setattr__(self, name, value)
        else:
            home[name] = value
        _bump()

    def __getattr__(self, name: str) -> Any:
        # Only called when normal lookup fails; check registration tables.
        for table_name in ("_parameters", "_buffers", "_modules"):
            table = self.__dict__.get(table_name)
            if table is not None and name in table:
                return table[name]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def __delattr__(self, name: str) -> None:
        for table in (self._parameters, self._buffers, self._modules):
            if name in table:
                del table[name]
                break
        else:
            object.__delattr__(self, name)
        _bump()

    def register_buffer(self, name: str, tensor: Tensor | None) -> None:
        """Register non-trainable state (e.g. running statistics)."""
        if tensor is not None and not isinstance(tensor, Tensor):
            raise TypeError(f"buffer {name!r} must be a Tensor or None")
        self._buffers[name] = tensor
        _bump()

    def register_parameter(self, name: str, param: Parameter | None) -> None:
        if param is not None and not isinstance(param, Parameter):
            raise TypeError(f"parameter {name!r} must be a Parameter or None")
        self._parameters[name] = param
        _bump()

    def add_module(self, name: str, module: "Module | None") -> None:
        if module is not None and not isinstance(module, Module):
            raise TypeError(f"{name!r} is not a Module")
        self._modules[name] = module
        _bump()

    # -- hierarchy traversal -----------------------------------------------------

    def children(self) -> Iterator["Module"]:
        for m in self._modules.values():
            if m is not None:
                yield m

    def named_children(self) -> Iterator[tuple[str, "Module"]]:
        for name, m in self._modules.items():
            if m is not None:
                yield name, m

    def modules(self) -> Iterator["Module"]:
        for _, m in self.named_modules():
            yield m

    def named_modules(self, prefix: str = "", memo: set | None = None):
        if memo is None:
            memo = set()
        if id(self) in memo:
            return
        memo.add(id(self))
        yield prefix, self
        for name, m in self._modules.items():
            if m is None:
                continue
            sub_prefix = f"{prefix}.{name}" if prefix else name
            yield from m.named_modules(sub_prefix, memo)

    def named_parameters(self, prefix: str = "", recurse: bool = True):
        gen = self.named_modules(prefix) if recurse else [(prefix, self)]
        seen: set[int] = set()
        for mod_prefix, mod in gen:
            for name, p in mod._parameters.items():
                if p is None or id(p) in seen:
                    continue
                seen.add(id(p))
                yield (f"{mod_prefix}.{name}" if mod_prefix else name), p

    def parameters(self, recurse: bool = True) -> Iterator[Parameter]:
        for _, p in self.named_parameters(recurse=recurse):
            yield p

    def named_buffers(self, prefix: str = "", recurse: bool = True):
        gen = self.named_modules(prefix) if recurse else [(prefix, self)]
        for mod_prefix, mod in gen:
            for name, b in mod._buffers.items():
                if b is None:
                    continue
                yield (f"{mod_prefix}.{name}" if mod_prefix else name), b

    def buffers(self, recurse: bool = True) -> Iterator[Tensor]:
        for _, b in self.named_buffers(recurse=recurse):
            yield b

    def get_submodule(self, target: str) -> "Module":
        """Resolve a dotted path (fx ``call_module`` target) to a module."""
        if target == "":
            return self
        mod: Module = self
        for atom in target.split("."):
            sub = mod._modules.get(atom)
            if sub is None:
                raise AttributeError(f"{type(mod).__name__} has no submodule {atom!r} "
                                     f"(resolving {target!r})")
            mod = sub
        return mod

    def get_parameter(self, target: str) -> Parameter:
        """Resolve a dotted path (fx ``get_attr`` target) to a parameter."""
        prefix, _, name = target.rpartition(".")
        mod = self.get_submodule(prefix)
        param = mod._parameters.get(name)
        if param is None:
            raise AttributeError(f"no parameter {target!r}")
        return param

    def get_buffer(self, target: str) -> Tensor:
        prefix, _, name = target.rpartition(".")
        mod = self.get_submodule(prefix)
        buf = mod._buffers.get(name)
        if buf is None:
            raise AttributeError(f"no buffer {target!r}")
        return buf

    # -- state dict ---------------------------------------------------------------

    def state_dict(self) -> "OrderedDict[str, Tensor]":
        out: OrderedDict[str, Tensor] = OrderedDict()
        for name, p in self.named_parameters():
            out[name] = p
        for name, b in self.named_buffers():
            out[name] = b
        return out

    def load_state_dict(self, state: dict, strict: bool = True):
        own = self.state_dict()
        missing = [k for k in own if k not in state]
        unexpected = [k for k in state if k not in own]
        if strict and (missing or unexpected):
            raise KeyError(f"state_dict mismatch: missing={missing} unexpected={unexpected}")
        for key, value in state.items():
            if key in own:
                if not own[key].data.flags.writeable:   # compiled: rebind
                    own[key].data = own[key].data.copy()
                own[key].copy_(value)
        return missing, unexpected

    # -- mode ----------------------------------------------------------------------

    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        _bump()
        for m in self.children():
            m.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def apply(self, fn: Callable[["Module"], None]) -> "Module":
        for m in self.children():
            m.apply(fn)
        fn(self)
        return self

    # -- invocation ------------------------------------------------------------------

    def forward(self, *args, **kwargs):
        raise NotImplementedError(
            f"Module [{type(self).__name__}] is missing a forward() implementation"
        )

    def __call__(self, *args, **kwargs):
        interceptor = _MODULE_CALL_INTERCEPTOR
        if interceptor is not None:
            return interceptor(self, args, kwargs)
        return self.forward(*args, **kwargs)

    # -- pretty printing ----------------------------------------------------------------

    def extra_repr(self) -> str:
        """Per-class one-line summary of configuration (override in layers)."""
        return ""

    def __repr__(self) -> str:
        lines: list[str] = []
        extra = self.extra_repr()
        child_lines = [
            f"({name}): {_indent(repr(m))}" for name, m in self.named_children()
        ]
        if not child_lines:
            return f"{type(self).__name__}({extra})"
        lines.append(f"{type(self).__name__}(")
        if extra:
            lines.append(f"  {extra}")
        lines.extend(f"  {cl}" for cl in child_lines)
        lines.append(")")
        return "\n".join(lines)


def _indent(s: str, by: int = 2) -> str:
    first, *rest = s.split("\n")
    if not rest:
        return first
    pad = " " * by
    return "\n".join([first] + [pad + line for line in rest])
