"""Fuzzing entrypoint: ``python -m repro.fx.testing.fuzz --seed N --iters K``.

Each iteration derives a :class:`ProgramSpec` from ``(seed, i)``, generates
the program, and runs the full differential oracle.  Failures are
auto-minimized (delta-debugging over generator decisions) and written out
as standalone replay scripts.  The run is fully deterministic: the same
``--seed`` reproduces the same programs, verdicts, and scripts.

The same loop is importable as :func:`fuzz` for the pytest-integrated
smoke mode (see ``tests/test_fuzz_smoke.py``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from .generator import ProgramSpec, generate_program, spec_for_iteration
from .minimize import MinimizedRepro, minimize_failure
from .oracle import run_oracle, validate_checks

__all__ = ["FuzzFailure", "FuzzResult", "fuzz", "main"]


@dataclass
class FuzzFailure:
    """One failing iteration, with its minimized repro when available."""

    iteration: int
    spec: ProgramSpec
    failing_checks: list[str]
    summary: str
    minimized: Optional[MinimizedRepro] = None
    script_path: Optional[str] = None


@dataclass
class FuzzResult:
    """Outcome of one fuzz run."""

    seed: int
    iterations: int
    failures: list[FuzzFailure] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def programs_per_sec(self) -> float:
        return self.iterations / self.elapsed if self.elapsed > 0 else 0.0

    def summary(self) -> str:
        verdict = "OK" if self.ok else f"{len(self.failures)} FAILURES"
        lines = [
            f"fuzz: seed={self.seed} iters={self.iterations} "
            f"({self.programs_per_sec:.1f} programs/sec) -> {verdict}"
        ]
        for f in self.failures:
            where = f" [repro: {f.script_path}]" if f.script_path else ""
            mini = ""
            if f.minimized is not None:
                mini = (f" minimized to {f.minimized.ops_remaining} ops"
                        f" (spec skip={sorted(f.minimized.spec.skip)})")
            lines.append(
                f"  iter {f.iteration}: {', '.join(f.failing_checks)}{mini}{where}"
            )
        return "\n".join(lines)


def fuzz(
    seed: int = 0,
    iters: int = 100,
    minimize_failures: bool = True,
    out_dir: Optional[str] = None,
    verbose: bool = False,
    only: Optional[frozenset] = None,
) -> FuzzResult:
    """Run *iters* generate-and-check iterations; returns a :class:`FuzzResult`.

    Args:
        seed: master seed; every iteration derives its own spec from it.
        iters: number of programs to generate and judge.
        minimize_failures: delta-debug each failure down to a 1-minimal spec.
        out_dir: where to write replay scripts (created on first failure;
            nothing is written when the run is clean or ``out_dir`` is None).
        verbose: print each failure's oracle summary as it happens.
        only: restrict the oracle to the named checks (see
            :func:`~repro.fx.testing.run_oracle`); ``None`` runs them all.
    """
    result = FuzzResult(seed=seed, iterations=iters)
    start = time.perf_counter()
    for i in range(iters):
        spec = spec_for_iteration(seed, i)
        failure = _run_iteration(i, spec, verbose, only)
        if failure is None:
            continue
        if minimize_failures:
            try:
                failure.minimized = minimize_failure(spec)
            except Exception as exc:  # minimization must never mask the bug
                failure.summary += f"\n(minimization itself failed: {exc!r})"
        if out_dir is not None:
            failure.script_path = _write_repro(out_dir, failure)
        result.failures.append(failure)
    result.elapsed = time.perf_counter() - start
    return result


def _run_iteration(i: int, spec: ProgramSpec, verbose: bool,
                   only: Optional[frozenset] = None) -> Optional[FuzzFailure]:
    try:
        program = generate_program(spec)
    except Exception as exc:
        return FuzzFailure(i, spec, [f"generate: {type(exc).__name__}"],
                           f"generator raised: {exc!r}")
    try:
        report = run_oracle(program, only=only)
    except Exception as exc:
        return FuzzFailure(i, spec, [f"oracle: {type(exc).__name__}"],
                           f"oracle harness raised: {exc!r}")
    if report.ok:
        return None
    if verbose:
        print(report.summary(), file=sys.stderr)
    return FuzzFailure(i, spec, [o.name for o in report.failures], report.summary())


def _write_repro(out_dir: str, failure: FuzzFailure) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"repro_iter{failure.iteration}_seed{failure.spec.seed}.py")
    if failure.minimized is not None:
        script = failure.minimized.script
    else:
        from .minimize import render_repro_script

        script = render_repro_script(failure.spec, failure.failing_checks)
    with open(path, "w") as f:
        f.write(script)
    return path


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fx.testing.fuzz",
        description="Differential fuzzing of the repro.fx capture/transform stack.",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    parser.add_argument("--iters", type=int, default=100,
                        help="number of programs to generate (default 100)")
    parser.add_argument("--out", default="fuzz_repros",
                        help="directory for minimized repro scripts (default fuzz_repros/)")
    parser.add_argument("--no-minimize", action="store_true",
                        help="skip delta-debugging of failures")
    parser.add_argument("--verbose", action="store_true",
                        help="print each failure's full oracle report")
    parser.add_argument("--checks", default=None,
                        help="comma-separated names from "
                             "repro.fx.testing.CHECKS to run "
                             "(e.g. 'vm,vm_compiled'); default: all")
    args = parser.parse_args(argv)

    only = None
    if args.checks:
        only = frozenset(c.strip() for c in args.checks.split(",") if c.strip())
        try:
            validate_checks(only)
        except ValueError as exc:
            parser.error(str(exc))

    result = fuzz(
        seed=args.seed,
        iters=args.iters,
        minimize_failures=not args.no_minimize,
        out_dir=args.out,
        verbose=args.verbose,
        only=only,
    )
    print(result.summary())
    return 0 if result.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
