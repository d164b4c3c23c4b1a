"""Graph transformation and analysis passes built on the fx IR.

Each submodule corresponds to a capability the paper evaluates or cites:

* :mod:`.shape_prop` — shape analysis (§6.3): one forward sweep over
  the op table (:mod:`repro.fx.opinfo`) from example inputs;
* :mod:`.graph_drawer` — Graphviz visualization (§6.3);
* :mod:`.fuser` — Conv–BatchNorm fusion (§6.2.2);
* :mod:`.cost_model` — FLOPs / bandwidth / size estimation (§6.3), priced
  from the same table;
* :mod:`.scheduler` — software pipelining simulation (§6.2.3);
* :mod:`.split_module` — partitioning (§6.2.3, §6.4);
* :mod:`.cse` / :mod:`.dce` — classic cleanups made trivial by the
  basic-block IR (§5.5);
* :mod:`.pass_manager` — instrumented pipeline driver with per-pass
  metrics, lint validation, and run-granular transform caching (§4.4);
* :mod:`.pointwise_fuser` — pointwise-region fusion into generated
  kernels, the optimization backend of :func:`repro.fx.compile` (§6.2).
"""

from . import const_fold, cse, dce, fuser
from . import pass_manager, pointwise_fuser
from . import shape_prop
from .const_fold import fold_constants
from .pass_manager import (
    PassError,
    PassManager,
    PassManagerResult,
    PassRecord,
    Specialized,
)
from .cse import eliminate_common_subexpressions
from .dce import eliminate_dead_code
from .fuser import fuse_conv_bn, fuse_conv_bn_weights
from .pointwise_fuser import (
    FusedKernel,
    FusedSpec,
    FusedStep,
    OpDef,
    fuse_pointwise,
)
from .shape_prop import ShapeProp, TensorMetadata
from ... import _lazy
__getattr__, __dir__ = _lazy.attach(__name__, {
    "cost_model": "cost_model CostReport DeviceModel NodeCost estimate",
    "graph_drawer": "graph_drawer FxGraphDrawer graph_to_dot",
    "net_min": "net_min DivergenceReport compare_outputs find_first_divergence",
    "profiler": "profiler NodeProfile ProfileReport ProfilingInterpreter profile",
    "scheduler": "scheduler Schedule ScheduledOp pipeline_schedule",
    "split_module": "split_module_pass Partition split_module",
})

__all__ = [
    "CostReport",
    "FusedKernel",
    "FusedSpec",
    "FusedStep",
    "OpDef",
    "fuse_pointwise",
    "pointwise_fuser",
    "DivergenceReport",
    "compare_outputs",
    "const_fold",
    "find_first_divergence",
    "fold_constants",
    "net_min",
    "NodeProfile",
    "PassError",
    "PassManager",
    "PassManagerResult",
    "PassRecord",
    "ProfileReport",
    "ProfilingInterpreter",
    "Specialized",
    "profile",
    "profiler",
    "pass_manager",
    "DeviceModel",
    "FxGraphDrawer",
    "NodeCost",
    "Partition",
    "Schedule",
    "ScheduledOp",
    "ShapeProp",
    "TensorMetadata",
    "cost_model",
    "cse",
    "dce",
    "eliminate_common_subexpressions",
    "eliminate_dead_code",
    "estimate",
    "fuse_conv_bn",
    "fuse_conv_bn_weights",
    "fuser",
    "graph_drawer",
    "graph_to_dot",
    "pipeline_schedule",
    "scheduler",
    "shape_prop",
    "split_module",
    "split_module_pass",
]
