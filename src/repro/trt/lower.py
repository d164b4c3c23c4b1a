"""Top-level lowering API: ``lower_to_trt`` (§6.4, Figure 8).

Since the backend-registry refactor this is a thin wrapper over
:func:`repro.fx.to_backend` with the ``"trt"`` backend
(:class:`~repro.trt.backend.TRTBackend`).  The pipeline a call runs:

1. symbolically trace the model (program capture);
2. run the backend's preferred passes — Conv–BN fusion, dead code
   elimination — under the instrumented ``PassManager``;
3. partition by the interpreter's operator-support table (a *pre-pass*:
   unsupported operators are found before any engine build starts);
4. translate each supported partition with
   :class:`~repro.trt.interpreter.TRTInterpreter` into a flat execution
   engine with fused epilogues and pre-resolved weights, wrapped in a
   :class:`~repro.trt.engine.TRTModule`.

Fully-supported models come back as a single ``TRTModule``; with
``allow_fallback=True``, unsupported regions stay eager submodules of a
split GraphModule (see :func:`repro.fx.backends.to_backend`).
"""

from __future__ import annotations

from ..fx import GraphModule
from ..fx.backends import UnsupportedNodesError, to_backend
from ..nn import Module
from .backend import TRTBackend
from .interpreter import UnsupportedOperatorError

__all__ = ["lower_to_trt"]


def lower_to_trt(
    model: Module | GraphModule,
    fuse: bool = True,
    allow_fallback: bool = False,
) -> Module:
    """Compile *model* for the TensorRT-like backend.

    Args:
        model: an eval-mode model (or an already-traced GraphModule).
        fuse: run Conv–BatchNorm fusion before building the engine.
        allow_fallback: if True, unsupported graph regions run eagerly
            (returns a split module); if False, unsupported operators
            raise :class:`UnsupportedOperatorError`.

    Returns:
        A callable Module: a :class:`TRTModule` when the whole graph
        lowered, or a split GraphModule mixing engine and eager blocks.
    """
    try:
        return to_backend(
            model,
            TRTBackend(fuse=fuse),
            allow_fallback=allow_fallback,
            # Keep the historical result shape: fallback regions become
            # eager submodules, not inline top-level nodes.
            inline_unsupported=False,
        )
    except UnsupportedNodesError as exc:
        raise UnsupportedOperatorError(
            f"unsupported operators for TRT lowering: "
            f"{', '.join(exc.nodes)}") from exc
