"""Graph transformation and analysis passes built on the fx IR.

Each submodule corresponds to a capability the paper evaluates or cites:

* :mod:`.shape_prop` / :mod:`.symbolic_shape_prop` / :mod:`.type_check` —
  shape analysis (§6.3) as three faces of one sweep over the op table
  (:mod:`repro.fx.opinfo`): plain ints, symbolic dims, gradual dims;
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
* :mod:`.pointwise_fuser` / :mod:`.memory_planner` — pointwise-region
  fusion into generated kernels and liveness-based buffer pooling, the
  optimization backend of :func:`repro.fx.compile` (§6.2).
"""

from . import const_fold, cost_model, cse, dce, fuser, graph_drawer, net_min
from . import memory_planner, normalize, pass_manager, pointwise_fuser
from . import profiler, scheduler, shape_prop
from . import symbolic_shape_prop, type_check
from . import split_module as split_module_pass
from .const_fold import fold_constants
from .net_min import DivergenceReport, compare_outputs, find_first_divergence
from .normalize import normalize_args
from .pass_manager import (
    PassError,
    PassManager,
    PassManagerResult,
    PassRecord,
    Specialized,
    Unchanged,
)
from .profiler import NodeProfile, ProfileReport, ProfilingInterpreter, profile
from .type_check import Dyn, TensorType, TypeCheckError, type_check as check_types
from .symbolic_shape_prop import (
    ShapeInferenceError,
    SymbolicShapeProp,
    SymDim,
    SymExpr,
    SymShape,
)
from .cost_model import CostReport, DeviceModel, NodeCost, estimate
from .cse import eliminate_common_subexpressions
from .dce import eliminate_dead_code
from .fuser import fuse_conv_bn, fuse_conv_bn_weights
from .graph_drawer import FxGraphDrawer, graph_to_dot
from .memory_planner import Arena, ArenaSlot, MemoryPlan, plan_memory
from .pointwise_fuser import (
    FusedKernel,
    FusedSpec,
    FusedStep,
    OpDef,
    fuse_pointwise,
    pointwise_registry,
    register_pointwise_op,
)
from .scheduler import Schedule, ScheduledOp, pipeline_schedule
from .shape_prop import ShapeProp, TensorMetadata
from .split_module import Partition, split_module

__all__ = [
    "Arena",
    "ArenaSlot",
    "CostReport",
    "FusedKernel",
    "FusedSpec",
    "FusedStep",
    "MemoryPlan",
    "OpDef",
    "fuse_pointwise",
    "memory_planner",
    "plan_memory",
    "pointwise_fuser",
    "pointwise_registry",
    "register_pointwise_op",
    "DivergenceReport",
    "ShapeInferenceError",
    "SymDim",
    "SymExpr",
    "SymShape",
    "SymbolicShapeProp",
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
    "Unchanged",
    "profile",
    "profiler",
    "pass_manager",
    "normalize",
    "normalize_args",
    "Dyn",
    "TensorType",
    "TypeCheckError",
    "check_types",
    "type_check",
    "symbolic_shape_prop",
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
