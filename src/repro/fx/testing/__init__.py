"""``repro.fx.testing`` — differential testing and graph fuzzing for the fx
pipeline.

The correctness claim of the whole system (paper §4–§5) is that every
transform preserves program semantics.  This package checks that claim
mechanically, in the style of TorchProbe (Su et al., 2023):

* :mod:`.generator` — a seedable, shape-aware random program generator
  covering all six IR opcodes, aggregates, shared subexpressions, and
  multi-output values;
* :mod:`.oracle` — a differential oracle that runs each program via eager
  execution, generated Python source, the :class:`~repro.fx.Interpreter`,
  a re-trace, and every registered pass pipeline, demanding numeric
  agreement and ``graph.lint()`` cleanliness after each transform;
* :mod:`.minimize` — delta-debugging over generator decisions plus
  first-divergence localization, emitting replayable repro scripts;
* :mod:`.fuzz` — the CLI / pytest entrypoint
  (``python -m repro.fx.testing.fuzz --seed N --iters K``).
"""

from .generator import GeneratedProgram, ProgramSpec, generate_program, spec_for_iteration
from .minimize import MinimizedRepro, minimize_failure, render_repro_script
from .oracle import (
    CHECKS,
    CheckOutcome,
    OracleReport,
    PASS_MANAGERS,
    PASS_PIPELINES,
    max_abs_diff,
    run_oracle,
)
from .fuzz import FuzzFailure, FuzzResult, fuzz

__all__ = [
    "CHECKS",
    "CheckOutcome",
    "FuzzFailure",
    "FuzzResult",
    "GeneratedProgram",
    "MinimizedRepro",
    "OracleReport",
    "PASS_MANAGERS",
    "PASS_PIPELINES",
    "ProgramSpec",
    "fuzz",
    "generate_program",
    "max_abs_diff",
    "minimize_failure",
    "render_repro_script",
    "run_oracle",
    "spec_for_iteration",
]
