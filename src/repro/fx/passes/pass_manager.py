"""``PassManager`` — an instrumented driver for pipelines of graph passes.

The paper's position (§4.4) is that fx passes are ordinary Python
functions, composable by calling one after another.  This module keeps
that calling convention (a pass is any ``Callable[[GraphModule], Any]``:
return a new ``GraphModule`` to replace the input, or anything else —
``None``, a change count — to signal an in-place transform) but runs the
pipeline under one managed driver that adds what ad-hoc composition
cannot:

* **per-pass metrics** — wall time and node-count delta for every stage,
  rendered as a table by :meth:`PassManagerResult.format`;
* **validation** — optional :meth:`Graph.lint` after every pass, so a
  pass that corrupts the IR is caught at the stage that broke it, not
  three passes later;
* **error context** — any exception is re-raised as a :class:`PassError`
  naming the failing pass and its position in the pipeline;
* **transform caching** — a *run* of consecutive cacheable passes is
  stored once, under everything the run read, and replayed whole.

**Runs.**  A pass is cacheable when its callable re-resolves from its
module by qualname (lambdas, closures and bound methods only have ``id()``
identity, which garbage collection can recycle: they always execute, and
split the pipeline into runs).  The manager hashes the module entering a
run once and looks up a :class:`RunKey`: the passes' qualnames, the
example-input signature of those that take example inputs
(:class:`Specialized`), :meth:`Graph.structural_hash` of the module —
module hyper-parameters, training flags *and* the ``tensor_meta`` its
nodes carry, because fusion reads it —
and whether it lints and verifies.  A miss executes the passes with
per-pass timing, lint and verification, then stores *one* end state and
hashes nothing more (a stretch that executes separates it from the next
run and hashes afresh); a hit rebuilds its :class:`PassRecord` s from the
entry.  Either way the result is built from the entry.  What that gives
up is prefix sharing between different pipelines.

**Weights are inputs, not key bytes.**  Only a run of nothing but the
numpy pipeline's stages (:data:`_STRUCTURAL`) over a graph whose every
call has an op-table entry is cached.  It reads weight values only
through :func:`~repro.fx.state.derive`: its key takes each tensor's shape
and dtype, no byte, and its entry's :class:`~repro.fx.state.Recipe`
replays the folds on the caller's weights.  An entry never holds an
array.  Any other run executes uncached, and
:attr:`PassManagerResult.misses` says why: a user pass (it may read a
value), a call with no op-table entry, or a call ``ShapeProp`` executed
because its rule declined it (what that returned may hang on values).

**State.**  :meth:`PassManager.run` never mutates its argument.  Passes
that execute get a structure copy over read-only views of the caller's
arrays, so no weight is copied up front and an in-place write fails at
the write.  A result's arrays are frozen, and its fused kernels the
entry's (see :mod:`repro.fx.state`).  Caching is best-effort: a run whose
input has no stable hash (:class:`~repro.fx.graph.UnstableHashError`),
whose end state does not pickle, or whose graph may write module state
executes uncached, and its result views the caller's arrays that no pass
replaced: read-only, unless its graph writes module state (a training
batch norm), which then writes the caller's, as eager does.
"""

from __future__ import annotations

import time
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import groupby
from typing import Any, Callable, NamedTuple, Optional, Sequence, Union

from ...tensor import Tensor
from .. import opinfo
from ..analysis.purity import classify_effect
from ..cache import ArtifactCache
from ..graph import UnstableHashError, _hash_token_for_object
from ..graph_module import GraphModule
from ..node import BASE_ARGUMENT_TYPES
from ..state import (_UNPICKLABLE, TRANSFORM_CACHE, Recipe, _borrow,
                     copy_module, note_stored, rebuild, recipe, recording,
                     state_scope)

__all__ = [
    "CacheEntry",
    "PassError",
    "PassManager",
    "PassManagerResult",
    "PassRecord",
    "RunKey",
    "Specialized",
    "format_records",
]

Pass = Callable[[GraphModule], Any]


class PassError(RuntimeError):
    """A pass (or its post-pass lint) failed; names the offending pass."""


def _signature(value: Any) -> str:
    """*value* as a cache-key term: shape and dtype of a tensor, the
    ``repr`` of a plain immediate, recursively through sequences;
    ``TypeError`` for anything whose only identity is ``id()``."""
    if isinstance(value, Tensor):
        return f"{tuple(value.shape)}:{value.dtype}"
    if isinstance(value, (tuple, list)):
        return f"{type(value).__name__}({','.join(map(_signature, value))})"
    if isinstance(value, BASE_ARGUMENT_TYPES):
        return f"{type(value).__name__}:{value!r}"
    raise TypeError(f"{type(value).__name__} has no stable signature")


class Specialized:
    """A module-level pass ``fn(gm, *example_inputs)`` bound to the example
    inputs it specialises the graph for (``ShapeProp`` is the model).

    Its cache identity is ``fn``'s qualname plus the inputs' *signature* —
    shape and dtype per tensor, the value of any other immediate, never an
    ``id()`` — which is what ``fx.compile`` itself promises its result
    depends on.  Inputs without one (arbitrary objects) leave ``signature``
    ``None`` and the pass uncacheable.
    """

    def __init__(self, fn: Callable, example_inputs: Sequence):
        self.fn = fn
        self.example_inputs = tuple(example_inputs)
        self.__name__ = getattr(fn, "__name__", type(self).__name__)
        try:
            self.signature: Optional[str] = _signature(self.example_inputs)
        except TypeError:
            self.signature = None

    def __call__(self, gm: GraphModule) -> Any:
        return self.fn(gm, *self.example_inputs)


class RunKey(NamedTuple):
    """Everything a run of consecutive cacheable passes read — its key in
    the transform cache.  The field names are also how a miss is explained
    (:attr:`PassManagerResult.misses`)."""

    pipeline: tuple   #: each pass's ``f:module.qualname`` token
    inputs: tuple     #: each pass's example-input signature ("" if none)
    state: str        #: hash of the module entering the run, meta included
    checks: tuple     #: (lint_after_each, verified)


@dataclass
class PassRecord:
    """Metrics for one pass execution within a pipeline run."""

    name: str
    wall_time: float
    nodes_before: int
    nodes_after: int
    cache_hit: bool = False
    linted: bool = False
    verified: bool = False

    @property
    def node_delta(self) -> int:
        return self.nodes_after - self.nodes_before


def format_records(records: Sequence[PassRecord], total_time: float,
                   misses: Sequence[tuple] = ()) -> str:
    """The per-pass timing / node-delta table, and under it one line saying
    how many stages were replayed from how many cache entries (consecutive
    hits are one run, hence one entry) and why each run that missed did."""
    header = ("pass", "time (ms)", "nodes", "delta", "cache", "lint", "verify")
    rows = [header]
    for r in records:
        rows.append((
            r.name,
            f"{r.wall_time * 1e3:.3f}",
            f"{r.nodes_before}->{r.nodes_after}",
            f"{r.node_delta:+d}" if r.node_delta else "0",
            "hit" if r.cache_hit else "-",
            "ok" if r.linted else "-",
            "ok" if r.verified else "-",
        ))
    hits = [r.cache_hit for r in records]
    rows.append(("total", f"{total_time * 1e3:.3f}", "", "",
                 f"{sum(hits)}/{len(hits)}", "", ""))
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
             for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    entries = sum(hit and not (i and hits[i - 1]) for i, hit in enumerate(hits))
    lines.append(
        f"replayed {sum(hits)} of {len(hits)} stages from {entries} cache "
        f"entr{'y' if entries == 1 else 'ies'}"
        + "".join(f"; uncached: {why[1]}" if why[0] == "uncached"
                  else f"; missed on {'+'.join(why)}" for why in misses))
    return "\n".join(lines)


@dataclass
class PassManagerResult:
    """The transformed module plus the per-pass instrumentation report.

    ``misses`` explains each cacheable run that had to execute: the
    :class:`RunKey` fields in which it differs from the nearest stored
    entry (``("state",)``: same pipeline, another module or other shape
    metadata; ``("inputs",)``: another example signature; ``("checks",)``:
    other lint / verify settings), ``("cold",)`` when the cache
    holds no run at all, and ``("uncached", why)`` for a run that cannot
    be keyed on structure: ``"user pass pkg.fn"``, ``"no op-table entry
    for MultiheadAttention at attn"`` or ``"ShapeProp executed
    MultiheadAttention at attn"``."""

    graph_module: GraphModule
    records: list[PassRecord] = field(default_factory=list)
    total_time: float = 0.0
    misses: list[tuple] = field(default_factory=list)

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.records if r.cache_hit)

    def format(self) -> str:
        """Render the report (see :func:`format_records`)."""
        return format_records(self.records, self.total_time, self.misses)


@dataclass
class CacheEntry:
    """One memoised run of passes: its end state plus what rebuilds the
    run's records and lets the pipeline go on without analysing anything.

    Attributes:
        snapshot: the end state, a :class:`~repro.fx.state.Recipe`: where
            each array comes from.
        stages: per pass ``(nodes_after, linted, verified)`` as they were
            when the run executed.
        baseline: the verifier's baseline after the run, to ``adopt``.
    """

    snapshot: Recipe
    stages: tuple
    baseline: Any = None


class _NotStored(Exception):
    """Raised by the cache-fill builder after it executed a run whose end
    state cannot be stored (may write state, no provenance, no pickle, a
    call ``ShapeProp`` executed)."""


def _pass_name(p: Pass, index: int) -> str:
    name = getattr(p, "__name__", None)
    if name in (None, "<lambda>"):
        return f"pass_{index}"
    return name


def _pass_identity(fn: Pass) -> Optional[tuple[str, str]]:
    """``(qualname token, example-input signature)`` of a pass callable,
    or ``None`` if it has no stable identity.

    Only callables that re-resolve from their module to the same object
    (``f:mod.qualname`` tokens) qualify: the token survives garbage
    collection and distinguishes same-named functions from different
    modules.  Lambdas, closures, bound methods and callable instances
    only have ``id()`` identity, which GC can hand to a different object
    later — caching on it could replay another pass's result.  A
    :class:`Specialized` pass is its function plus the signature of the
    inputs it was bound to.
    """
    signature = ""
    if isinstance(fn, Specialized):
        fn, signature = fn.fn, fn.signature
        if signature is None:
            return None
    token = _hash_token_for_object(fn)
    return (token, signature) if token.startswith("f:") else None


#: The numpy pipeline's stages.  Each reads weight values only through
#: :func:`repro.fx.state.derive` (conv-bn folding, constant folding) or not
#: at all, so a run of nothing else is keyed on its input's structure.
_STRUCTURAL = frozenset(f"f:repro.fx.{name}" for name in (
    "backends.numpy_backend._shape_prop", "passes.dce.eliminate_dead_code",
    "passes.cse.eliminate_common_subexpressions",
    "passes.const_fold.fold_constants", "passes.fuser.fuse_conv_bn",
    "passes.pointwise_fuser.fuse_pointwise"))


def _no_entry(gm: GraphModule) -> Optional[str]:
    """The first call in *gm* with no op-table entry, as a reason not to
    key a run on structure (``ShapeProp`` executes it, and what it returns
    may hang on values), or ``None``."""
    for n in gm.graph.nodes:
        if n.op in ("call_function", "call_method", "call_module") \
                and opinfo.entry_of(n, gm) is None:
            mod = None
            if n.op == "call_module":
                with suppress(AttributeError):
                    mod = gm.get_submodule(n.target)
            return (f"no op-table entry for {opinfo.target_name(n, mod)} "
                    f"at {n.name}")
    return None


def _writes_state(gm: GraphModule) -> bool:
    """A mutating node, or a module call the op table cannot vouch for?"""
    return any(classify_effect(n, gm).mutating or (
        n.op == "call_module" and opinfo.entry_of(n, gm) is None)
        for n in gm.graph.nodes)


def _why_missed(cache: ArtifactCache, key: RunKey) -> tuple:
    """The fields in which *key* differs from the stored run nearest to it
    (fewest differing fields, most recently used first); ``("cold",)``
    when no run is stored.  ``inputs`` is per pass, so it only means
    something between runs of one pipeline."""
    nearest: tuple = ()
    for other in reversed(cache.keys()):
        if isinstance(other, RunKey):
            differing = tuple(
                name for name, mine, theirs in zip(RunKey._fields, key, other)
                if mine != theirs and not (
                    name == "inputs" and key.pipeline != other.pipeline))
            if not nearest or len(differing) < len(nearest):
                nearest = differing
                if len(nearest) == 1:
                    break
    return nearest or ("cold",)


class PassManager:
    """Runs an ordered list of passes over a GraphModule.

    Args:
        passes: pass callables, or ``(name, callable)`` pairs.  A pass
            receives the current GraphModule; if it returns a GraphModule
            that becomes the pipeline's new current module, any other
            return value means "transformed in place".
        lint_after_each: run ``graph.lint()`` after every pass and fail
            with a :class:`PassError` naming the pass that broke the IR.
        cache: ``True`` (default) to use the process-wide ``transform``
            stage (see :func:`repro.fx.cache_info`), ``False``/``None`` to
            disable caching, or an :class:`~repro.fx.cache.ArtifactCache`
            instance for an isolated cache.  One entry is kept per *run*
            of consecutive cacheable passes (the module docstring says
            what its key covers); fills are single-flighted, so concurrent
            managers reaching one run execute it once.  Passes without a
            stable ``module.qualname`` identity always execute, whatever
            display name a ``(name, fn)`` pair gives them.
        verifier: an invariant checker — typically a
            :class:`repro.fx.analysis.PassVerifier` — given the module
            through ``before_pipeline`` before the first pass that executes
            and re-checked via ``after_pass`` after every stage; its
            exception (naming the offending pass) aborts the pipeline.
            Whether there is one is part of the cache key and its baseline
            is stored with each entry, so a replayed run was verified and
            costs no analysis.

    :meth:`run` never mutates the module it is given: passes execute on a
    borrowed copy over read-only views of its arrays, made when the first
    of them has to.  Use the *returned* module.
    """

    def __init__(
        self,
        passes: Sequence[Union[Pass, tuple[str, Pass]]],
        lint_after_each: bool = False,
        cache: Union[ArtifactCache, bool, None] = True,
        verifier: Optional[Any] = None,
    ):
        self.passes: list[tuple[str, Pass]] = []
        for i, p in enumerate(passes):
            if isinstance(p, tuple):
                name, fn = p
            else:
                name, fn = _pass_name(p, i), p
            if not callable(fn):
                raise TypeError(f"pass {name!r} is not callable")
            self.passes.append((name, fn))
        self.lint_after_each = lint_after_each
        if cache is True:
            self.cache: Optional[ArtifactCache] = TRANSFORM_CACHE
        elif cache in (False, None):
            self.cache = None
        else:
            self.cache = cache
        self.verifier = verifier
        self.last_result: Optional[PassManagerResult] = None

    def __call__(self, gm: GraphModule) -> GraphModule:
        """Pipeline-of-pipelines composition: a PassManager is itself a
        valid pass (returns the transformed module)."""
        return self.run(gm).graph_module

    def run(self, gm: GraphModule, consume: bool = False) -> PassManagerResult:
        """Run every pass in order; returns the transformed module — always
        a module of its own, never *gm* — plus per-pass records.  Also
        stashed on ``self.last_result``.

        A fully-cached re-run costs one hash of *gm* (no weight byte), one
        lookup and one rebuild per run of cacheable passes (one in all for
        a pipeline of module-level passes): no pass executes and nothing
        is analysed.  The rebuild replays the folds and copies the
        caller's arrays no pass replaced.

        With *consume* the caller gives *gm* up — a trace it made for this
        run and holds no other reference to: the numpy pipeline's stages
        transform it in place instead of a copy.  Its parameters and
        buffers may still be shared with the model it was traced from:
        those stages replace tensors, they do not write them, any other
        pass gets a borrowed copy, and a rebuild copies, never freezes, an
        array the key fed.
        """
        if not isinstance(gm, GraphModule):
            raise TypeError(f"PassManager.run expects a GraphModule, got {type(gm).__name__}")
        with state_scope():
            result = self._run(gm, consume)
        self.last_result = result
        return result

    # -- internals ---------------------------------------------------------------

    def _run(self, gm: GraphModule, consume: bool) -> PassManagerResult:
        records: list[PassRecord] = []
        misses: list[tuple] = []
        pipeline_start = time.perf_counter()
        checks = (self.lint_after_each, self.verifier is not None)
        identities = [_pass_identity(fn) for _, fn in self.passes]
        #: the passes that read weight values only through ``derive``
        trusted = [bool(i) and i[0] in _STRUCTURAL for i in identities]
        if self.cache is None:
            identities = [None] * len(identities)

        # ``module`` is the caller's until a pass has to execute (then a
        # borrowed copy, shared read-only as ``pairs`` of ``(view,
        # array)``: ``lent``) or a run is stored (then the rebuilt end
        # state).  A given-up *gm* is transformed in place by the stages
        # trusted not to write it, and borrowed for any other pass.
        module, lent = gm, False
        pairs: list = []
        baselined = self.verifier is None

        def execute(first: int, last: int, start: float,
                    trusted: bool) -> list[PassRecord]:
            nonlocal module, baselined, lent, pairs
            if module is gm and not (consume and trusted):
                module, pairs = _borrow(module)
                lent = bool(pairs)
            if not baselined:
                self.verifier.before_pipeline(module)
                baselined = True
            module, executed = self._execute(first, last, module, start)
            return executed

        # Maximal runs of cacheable passes, and the stretches between them.
        for cacheable, indices in groupby(
                range(len(self.passes)), lambda i: identities[i] is not None):
            indices = list(indices)
            run = [identities[i] for i in indices]
            first, last = len(records), len(records) + len(run)
            start, nodes = time.perf_counter(), len(module.graph)
            trust = all(trusted[i] for i in indices)
            why = None
            if cacheable:
                user = next((t for t, _ in run if t not in _STRUCTURAL), None)
                why = f"user pass {user[2:]}" if user else _no_entry(module)
            fed: list = []   # the arrays the key fed, in order
            state = self._hash(module, fed) if cacheable and not why else ""
            if not state:   # no identity, no structure key, or no stable hash
                if why:
                    misses.append(("uncached", why))
                records += execute(first, last, start, trust)
                continue
            key = RunKey(tuple(token for token, _ in run),
                         tuple(signature for _, signature in run), state, checks)
            #: the run's records, and what its derivations made, once this
            #: call executed it itself
            ran: Optional[list[PassRecord]] = None
            made: Optional[list] = None

            def build() -> CacheEntry:
                nonlocal ran, made
                misses.append(_why_missed(self.cache, key))
                with recording() as log:
                    ran = execute(first, last, start, True)
                fallbacks = vars(module).get("shape_fallbacks")
                if fallbacks:   # what ShapeProp executed may hang on values
                    name, target, _ = fallbacks[0]
                    misses[-1] = ("uncached",
                                  f"ShapeProp executed {target} at {name}")
                    raise _NotStored

                def end() -> Optional[Recipe]:
                    nonlocal made
                    rec, made = recipe(module, fed, pairs, log)
                    return rec

                entry = self._entry(module, ran, end)
                note_stored(self.cache, key)
                return entry

            try:
                entry = self.cache.get_or_build(key, build)
            except _NotStored:
                entry = None   # executed uncached: keep what it left
            if entry is not None:
                # Built here or replayed, the result is the entry's.
                module, lent = rebuild(entry.snapshot, fed, made), False
            if ran is None:
                # Someone else's run (an earlier compile, or a concurrent
                # manager that won the single-flight): replay its records.
                if self.verifier is not None:
                    self.verifier.adopt(entry.baseline)
                    baselined = True
                ran = []
                for (after, linted, verified), (name, _) in zip(
                        entry.stages, self.passes[first:last]):
                    ran.append(PassRecord(name, 0.0, nodes, after, True,
                                          linted, verified))
                    nodes = after
                # hash, lookup and rebuild are the run's, not a stage's
                ran[0].wall_time = time.perf_counter() - start
            records += ran

        if module is gm and not consume:   # nothing executed or replayed
            module = copy_module(module)
        elif lent and _writes_state(module):   # it writes the caller's state
            for tensor in module.state_dict().values():
                with suppress(ValueError):   # unless that is read-only too
                    tensor.data.flags.writeable = True
        return PassManagerResult(
            module, records, time.perf_counter() - pipeline_start, misses)

    def _execute(self, first: int, last: int, gm: GraphModule, start: float
                 ) -> tuple[GraphModule, list[PassRecord]]:
        """Execute passes ``first..last-1`` on *gm* (private to this run),
        each with its lint, verification and record; *start* is when the
        first of them began (the run's input hash and copy count as its)."""
        records: list[PassRecord] = []
        for index in range(first, last):
            name, fn = self.passes[index]
            nodes_before = len(gm.graph)
            try:
                out = fn(gm)
            except Exception as exc:
                raise PassError(
                    f"pass {index} ({name!r}) failed on a graph with "
                    f"{nodes_before} nodes: {type(exc).__name__}: {exc}"
                ) from exc
            if isinstance(out, GraphModule):
                gm = out
            if self.lint_after_each:
                try:
                    gm.graph.lint()
                except Exception as exc:
                    raise PassError(
                        f"pass {index} ({name!r}) produced an invalid graph "
                        f"(lint failed): {type(exc).__name__}: {exc}"
                    ) from exc
            # Verified before anything is stored: an output that regresses
            # an invariant must never be replayed.  The verifier's
            # exception propagates as-is — it already names the pass.
            if self.verifier is not None:
                self.verifier.after_pass(name, gm)
            now = time.perf_counter()
            records.append(PassRecord(
                name, now - start, nodes_before, len(gm.graph),
                linted=self.lint_after_each,
                verified=self.verifier is not None))
            start = now
        return gm, records

    def _entry(self, gm: GraphModule, records: list,
               end: Callable[[], Optional[Recipe]]) -> CacheEntry:
        """The entry for a run that just executed and left *gm*: its end
        state, ``end()`` (on the last record's clock), a
        :class:`~repro.fx.state.Recipe` — ``None`` if there is none.  A
        graph that may write module state is not stored: frozen, its state
        could not be written."""
        start = time.perf_counter()
        snap = None
        if not _writes_state(gm):
            with suppress(*_UNPICKLABLE):   # unpicklable target or attribute
                snap = end()
        records[-1].wall_time += time.perf_counter() - start
        if snap is None:
            raise _NotStored
        return CacheEntry(
            snap, tuple((r.nodes_after, r.linted, r.verified) for r in records),
            self.verifier and self.verifier.baseline)

    @staticmethod
    def _hash(gm: GraphModule, fed: list) -> str:
        """The key of *gm*'s structure, with the arrays it read appended to
        *fed*.  A graph with no stable hash is not cached (``""``); any
        other error is a bug, and raises."""
        # require_stable: this hash keys a cache that outlives the graph's
        # objects without pinning them, so an id()-fallback token could
        # alias a different graph after GC — refuse to cache instead.
        # include_meta: passes read the shape facts nodes carry.
        try:
            return gm.graph.structural_hash(include_attrs=True,
                                            require_stable=True,
                                            include_meta=True, arrays=fed)
        except UnstableHashError:
            return ""  # unhashable graph: this run executes uncached
