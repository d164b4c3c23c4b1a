"""Spelling-insensitive op recognition: :class:`OpPattern` /
:class:`PatternIndex`.

The same logical op reaches a graph under several spellings —
``F.relu(x)`` (call_function), ``x.relu()`` (call_method),
``nn.ReLU()(x)`` (call_module).  Hand-written passes used to each carry
their own three-way tables (``pointwise_fuser``'s target maps,
``quantize_fx``'s ``_is_relu``).  An :class:`OpPattern` declares the
spellings once; a :class:`PatternIndex` resolves a node to
``(key, params)`` in O(1), with an optional per-spelling extractor for
ops whose parameters live on the module instance (e.g. ``LeakyReLU's``
slope).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..node import Node

__all__ = ["OpPattern", "PatternIndex"]


@dataclass(frozen=True)
class OpPattern:
    """All the spellings of one logical op.

    Attributes:
        key: the logical op name (what a match resolves to).
        functions: ``call_function`` targets.
        methods: ``call_method`` target names.
        module_types: ``call_module`` submodule classes.
        extract: optional ``(node, module_or_None) -> dict | None`` pulling
            op parameters out of the call site; returning ``None`` vetoes
            the match (e.g. an unsupported parameterization).
    """

    key: str
    functions: tuple = ()
    methods: tuple = ()
    module_types: tuple = ()
    extract: Optional[Callable[[Node, Any], Optional[dict]]] = None


@dataclass
class PatternIndex:
    """O(1) node -> pattern -> (key, params) resolution over a set of
    OpPatterns."""

    _by_function: dict = field(default_factory=dict)
    _by_method: dict = field(default_factory=dict)
    _by_module_type: dict = field(default_factory=dict)

    def add(self, pattern: OpPattern) -> "PatternIndex":
        for f in pattern.functions:
            self._by_function[f] = pattern
        for m in pattern.methods:
            self._by_method[m] = pattern
        for t in pattern.module_types:
            self._by_module_type[t] = pattern
        return self

    def extend(self, patterns) -> "PatternIndex":
        for p in patterns:
            self.add(p)
        return self

    def find(self, node: Node, module: Any = None) -> Optional[OpPattern]:
        """The pattern *node* spells; *module* is the resolved target of a
        ``call_module``.  A callable *instance* (a generated kernel) spells
        what its class was registered as; a module, what the nearest class
        in its MRO was."""
        if node.op == "call_function":
            try:
                return self._by_function.get(node.target) \
                    or self._by_function.get(type(node.target))
            except TypeError:   # an unhashable target spells nothing
                return None
        if node.op == "call_method":
            return self._by_method.get(node.target)
        for cls in type(module).__mro__ if module is not None else ():
            if cls in self._by_module_type:
                return self._by_module_type[cls]
        return None

    def match(self, node: Node, modules: Optional[dict] = None):
        """Resolve *node* to ``(key, params)`` or ``None``.

        *modules* (a ``named_modules()`` dict) is only needed to resolve
        ``call_module`` spellings.
        """
        module = modules.get(node.target) \
            if node.op == "call_module" and modules is not None else None
        pattern = self.find(node, module)
        if pattern is None:
            return None
        params = {} if pattern.extract is None else pattern.extract(node, module)
        return None if params is None else (pattern.key, params)

    def matches(self, node: Node, key: str,
                modules: Optional[dict] = None) -> bool:
        """Does *node* spell the logical op *key*?"""
        m = self.match(node, modules)
        return m is not None and m[0] == key
