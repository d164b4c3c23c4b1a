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
* :mod:`repro.fx.backends` / :func:`to_backend` — the backend protocol
  and dependency-aware capability-partitioned lowering (§6.4);
* :mod:`repro.fx.analysis` — the dataflow analyses (alias/escape,
  purity, mutation hazards), lint rules, and the pass
  verifier;
* :mod:`repro.fx.passes` — shape propagation, fusion, splitting,
  visualization, cost modelling, scheduling;
* :mod:`repro.fx.vm` / :func:`compile_to_vm` — the flat bytecode VM
  execution tier (``compile(..., executor="vm")``);
* :func:`cache_info` / :func:`clear_caches` — the one stats surface over
  every memoised compile stage (:class:`ArtifactCache`);
* :mod:`repro.fx.testing` — differential testing and graph fuzzing of
  everything above.

The interpreter, the rewriter, the VM and the fuzzer load on first use.
"""

from .graph import Graph, PythonCode, UnstableHashError
from .cache import ArtifactCache, cache_info, clear_caches
from .graph_module import GraphModule
from .node import Node, map_arg, map_aggregate
from .proxy import Attribute, Proxy, TraceError
from .tracer import Tracer, TracerBase, symbolic_trace, wrap
from . import analysis
from .analysis import PassVerifier, VerificationError, lint_graph
from . import passes
from . import backends
from .backends import Backend, BackendReport, to_backend
from .compiler import CompileReport, compile  # noqa: A004 - mirrors torch.compile
from .. import _lazy
__getattr__, __dir__ = _lazy.attach(__name__, {
    "interpreter": "interpreter Interpreter Transformer",
    "subgraph_rewriter": "subgraph_rewriter Match replace_pattern",
    "testing": "testing",
    "vm": "vm VMModule VMProgram compile_to_vm",
})

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
    "replace_pattern",
    "symbolic_trace",
    "testing",
    "to_backend",
    "vm",
    "wrap",
]
