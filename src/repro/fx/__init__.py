"""``repro.fx`` — program capture and transformation (the paper's system).

Public surface mirrors ``torch.fx``:

* :func:`symbolic_trace` / :class:`Tracer` — program capture (§4.1);
* :class:`Graph` / :class:`Node` — the 6-opcode IR (§4.2);
* :class:`GraphModule` — stateful container + code generation (§4.3);
* :class:`Interpreter` / :class:`Transformer` — graph execution and
  rewriting;
* :func:`replace_pattern` — declarative subgraph rewriting;
* :func:`compile` — one-call optimizing pipeline (pointwise fusion +
  memory planning, §6.2);
* :mod:`repro.fx.backends` / :func:`to_backend` — the unified backend
  registry and dependency-aware capability-partitioned lowering (§6.4);
* :mod:`repro.fx.analysis` — the unified dataflow analysis framework
  (alias/escape, purity, dtype promotion, mutation hazards), lint rules
  (also ``python -m repro.fx.analysis``), and the pass verifier;
* :mod:`repro.fx.passes` — shape propagation, fusion, splitting,
  visualization, cost modelling, scheduling;
* :mod:`repro.fx.vm` / :func:`compile_to_vm` — the flat bytecode VM
  execution tier (``compile(..., executor="vm")``);
* :func:`cache_info` / :func:`clear_caches` — the one stats surface over
  every memoised compile stage (:class:`ArtifactCache`);
* :mod:`repro.fx.testing` — differential testing and graph fuzzing of
  everything above.
"""

from .graph import Graph, PythonCode, UnstableHashError
from .cache import ArtifactCache, cache_info, clear_caches
from .graph_module import GraphModule
from .interpreter import Interpreter, Transformer
from .node import Node, map_arg, map_aggregate
from .proxy import Attribute, Proxy, TraceError
from .subgraph_rewriter import Match, replace_pattern
from .tracer import Tracer, TracerBase, symbolic_trace, wrap
from . import analysis
from .analysis import PassVerifier, VerificationError, lint_graph
from . import passes
from . import backends
from .backends import Backend, BackendReport, register_backend, to_backend
from . import vm
from .vm import VMModule, VMProgram, compile_to_vm
from .compiler import CompileReport, compile  # noqa: A004 - mirrors torch.compile
from . import testing

__all__ = [
    "ArtifactCache",
    "Attribute",
    "Backend",
    "BackendReport",
    "CompileReport",
    "Graph",
    "GraphModule",
    "Interpreter",
    "Match",
    "Node",
    "PassVerifier",
    "Proxy",
    "PythonCode",
    "TraceError",
    "VerificationError",
    "Tracer",
    "TracerBase",
    "Transformer",
    "UnstableHashError",
    "VMModule",
    "VMProgram",
    "analysis",
    "backends",
    "cache_info",
    "clear_caches",
    "compile",
    "compile_to_vm",
    "lint_graph",
    "map_aggregate",
    "map_arg",
    "passes",
    "register_backend",
    "replace_pattern",
    "symbolic_trace",
    "testing",
    "to_backend",
    "vm",
    "wrap",
]
