"""Auto-minimization of failing fuzz cases.

Two cooperating mechanisms:

* **delta-debugging over generator decisions** — every op slot of a
  :class:`~repro.fx.testing.generator.ProgramSpec` draws its randomness
  from an independent per-index stream, so slots can be suppressed one at
  a time (``spec.skip``) without perturbing the rest of the program.  The
  minimizer greedily removes every slot whose removal preserves the
  failure, yielding a 1-minimal spec (no single remaining op can be
  dropped).
* **first-divergence localization** — numeric failures are pinned to the
  earliest bad node by :func:`repro.fx.passes.net_min.find_first_divergence`
  (the oracle attaches the :class:`DivergenceReport` to the outcome).

The result is a replayable repro script: a few lines that rebuild the
minimized program from its spec and re-run the oracle, failing loudly if
the bug has been fixed in the meantime.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .generator import ProgramSpec, generate_program
from .oracle import OracleReport, run_oracle

__all__ = ["MinimizedRepro", "minimize_failure", "render_repro_script"]


@dataclass
class MinimizedRepro:
    """A 1-minimal failing spec plus its replay artifacts."""

    spec: ProgramSpec
    failing_checks: list[str]
    ops_remaining: int
    report: Optional[OracleReport]
    script: str

    def __repr__(self) -> str:
        return (
            f"MinimizedRepro(seed={self.spec.seed}, family={self.spec.family!r}, "
            f"ops={self.ops_remaining}, checks={self.failing_checks})"
        )


def _failing_checks(spec: ProgramSpec) -> tuple[list[str], Optional[OracleReport]]:
    """Names of failing checks for *spec* (generator crashes count too)."""
    try:
        program = generate_program(spec)
    except Exception as exc:
        return [f"generate: {type(exc).__name__}"], None
    try:
        report = run_oracle(program, localize=False)
    except Exception as exc:
        return [f"oracle: {type(exc).__name__}"], None
    return [o.name for o in report.failures], report


def minimize_failure(spec: ProgramSpec) -> MinimizedRepro:
    """Shrink a failing spec until no single op removal keeps it failing.

    A candidate reduction is kept only if at least one of the *original*
    failing checks still fails — so minimization cannot wander off to a
    different bug.
    """
    baseline, _ = _failing_checks(spec)
    if not baseline:
        raise ValueError(f"spec {spec} does not fail any oracle check")
    target = set(baseline)

    changed = True
    while changed:   # each changing round skips one more op: at most n_ops
        changed = False
        for i in range(spec.n_ops):
            if i in spec.skip:
                continue
            candidate = spec.dropping(i)
            got, _ = _failing_checks(candidate)
            if set(got) & target:
                spec = candidate
                changed = True

    # Trim trailing fully-skipped slots so the spec reads minimally.
    n_ops = spec.n_ops
    while n_ops > 0 and (n_ops - 1) in spec.skip:
        n_ops -= 1
    spec = replace(spec, n_ops=n_ops,
                   skip=frozenset(i for i in spec.skip if i < n_ops))

    final_checks, report = _failing_checks(spec)
    # Re-run with localization on for the committed report.
    if report is not None:
        try:
            report = run_oracle(generate_program(spec), localize=True)
        except Exception:
            pass
    remaining = spec.n_ops - len(spec.skip)
    return MinimizedRepro(
        spec=spec,
        failing_checks=sorted(set(final_checks) or target),
        ops_remaining=remaining,
        report=report,
        script=render_repro_script(spec, sorted(set(final_checks) or target), report),
    )


def render_repro_script(spec: ProgramSpec, failing_checks: list[str],
                        report: Optional[OracleReport] = None) -> str:
    """Emit a standalone script that replays the minimized failure."""
    header_lines = [f"Failing checks: {', '.join(failing_checks)}."]
    if report is not None:
        for o in report.failures:
            if o.divergence is not None and o.divergence.diverged:
                header_lines.append(
                    f"First divergence ({o.name}): node {o.divergence.node.name!r}, "
                    f"max_abs_error={o.divergence.max_abs_error:.3g}."
                )
    header = "\n".join(header_lines)
    return f'''"""Auto-minimized fuzz failure (generated by repro.fx.testing.minimize).

{header}

Replay with:  PYTHONPATH=src python <this file>
"""
from repro.fx.testing import ProgramSpec, generate_program, run_oracle

spec = ProgramSpec(
    seed={spec.seed},
    family={spec.family!r},
    n_ops={spec.n_ops},
    skip=frozenset({sorted(spec.skip)}),
)
program = generate_program(spec)
print(program.source)
report = run_oracle(program)
print(report.summary())
assert not report.ok, "failure no longer reproduces -- bug fixed? delete this repro"
'''
