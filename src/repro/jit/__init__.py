"""``repro.jit`` — TorchScript-style baseline front-ends (§6.1, Figure 5).

Two program-capture baselines targeting a rich TS-style IR:

* :func:`trace` — example-based tracing (``torch.jit.trace`` analogue);
* :func:`script` — AST compilation with control flow
  (``torch.jit.script`` analogue).

Both exist to measure IR complexity against fx's 6-opcode IR on the same
input models.
"""

from .script import ScriptedModule, script
from .trace import TracedModule, trace
from .ts_ir import TSBlock, TSGraph, TSNode, TSValue

__all__ = [
    "ScriptedModule",
    "TSBlock",
    "TSGraph",
    "TSNode",
    "TSValue",
    "TracedModule",
    "script",
    "trace",
]
