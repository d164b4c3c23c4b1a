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
* **transform caching** — each pass's input is fingerprinted with
  :meth:`Graph.structural_hash` (attribute values included, so folded
  weights key correctly); a ``(pass identity, input-hash)`` pair seen
  before skips the pass and replays the cached result instead.

Cached results are stored as a :class:`~repro.fx.state.StateSnapshot` —
a structure-only pickle plus *references* to the output's live arrays and
their digests — so storing one reads and copies no weight bytes, and
replayed by :func:`~repro.fx.state.restore`, which copies each array once
and checks the copy against its digest: a hit can never alias the module
another pipeline run produced, and an entry whose arrays were written in
place since (they belong to a module some caller holds) is refused,
dropped and rebuilt.  The whole run happens under one
:func:`~repro.fx.state.state_scope`, so however many times the pipeline
hashes the module, each array's bytes are read once — which holds only
while passes *replace* tensors instead of writing them in place; the
scope checks that on exit and raises a :class:`PassError` when it was
broken.  Caching is strictly best-effort and falls back to just running
the pass whenever a cache entry could be wrong later: passes whose module
fails to pickle run uncached, as do passes whose *callable* has no stable
identity (lambdas, closures, bound methods — their only identity is
``id()``, which garbage collection can recycle) and graphs whose hash
would need an ``id()`` fallback token (see
:class:`~repro.fx.graph.UnstableHashError`).  The cache key is the pass's
resolvable ``module.qualname`` — never its display name — so two
different passes that happen to share a name can't collide.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence, Union

from ..cache import ArtifactCache
from ..graph import _hash_token_for_object
from ..graph_module import GraphModule
from ..state import (TRANSFORM_CACHE, StaleSnapshot, StateSnapshot,
                     note_stored, restore, snapshot, state_scope)

__all__ = [
    "CacheEntry",
    "PassError",
    "PassManager",
    "PassManagerResult",
    "PassRecord",
    "Unchanged",
]

Pass = Callable[[GraphModule], Any]


class PassError(RuntimeError):
    """A pass (or its post-pass lint) failed; names the offending pass."""


class Unchanged:
    """Wrapper a pass may return to certify it did not modify the module.

    ``PassManager`` then skips the post-pass structural hash, lint,
    verification, and cache store for that stage — on large modules the
    hash alone (it covers parameter bytes) can dwarf a no-op pass.  Only
    return this when *nothing* observable changed: graph topology, node
    metadata, and module state all carry over as-is, so every invariant
    established for the pass's input still holds for its output.
    """

    __slots__ = ("graph_module",)

    def __init__(self, graph_module: GraphModule):
        self.graph_module = graph_module


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
    input_hash: str = ""
    output_hash: str = ""

    @property
    def node_delta(self) -> int:
        return self.nodes_after - self.nodes_before


@dataclass
class PassManagerResult:
    """The transformed module plus the per-pass instrumentation report."""

    graph_module: GraphModule
    records: list[PassRecord] = field(default_factory=list)
    total_time: float = 0.0

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.records if r.cache_hit)

    def format(self) -> str:
        """Render the per-pass timing / node-delta report as a table."""
        header = ("pass", "time (ms)", "nodes", "delta", "cache", "lint", "verify")
        rows = [header]
        for r in self.records:
            delta = f"{r.node_delta:+d}" if r.node_delta else "0"
            rows.append((
                r.name,
                f"{r.wall_time * 1e3:.3f}",
                f"{r.nodes_before}->{r.nodes_after}",
                delta,
                "hit" if r.cache_hit else "-",
                "ok" if r.linted else "-",
                "ok" if r.verified else "-",
            ))
        rows.append((
            "total",
            f"{self.total_time * 1e3:.3f}",
            "", "", f"{self.cache_hits}/{len(self.records)}", "", "",
        ))
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = []
        for i, row in enumerate(rows):
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
            if i == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines)


@dataclass
class CacheEntry:
    """One memoized pass result: the output module as a
    :class:`~repro.fx.state.StateSnapshot` (structure payload + references
    to its arrays + their digests) plus enough metadata (hash, node count,
    whether it passed ``lint``, and the pass verifier's snapshot of its
    diagnostics) to chain further lookups without restoring it.

    ``verify_snapshot`` is only meaningful under the verifier
    configuration recorded in ``verifier_key`` — a manager running a
    differently-configured verifier re-verifies the restored module
    instead (the same pattern as ``linted``).  Both are promoted lazily
    and recomputed from the same snapshot, so racing writes to them are
    benign."""

    output_hash: str
    snapshot: StateSnapshot
    node_count: int
    linted: bool = False
    verify_snapshot: Any = None
    verifier_key: Any = None


class _NotCached(Exception):
    """Raised by the cache-fill builder after it ran a pass whose result
    must not be stored (``Unchanged``, unhashable or unpicklable output)."""


def _pass_name(p: Pass, index: int) -> str:
    name = getattr(p, "__name__", None)
    if name in (None, "<lambda>"):
        return f"pass_{index}"
    return name


def _pass_cache_token(fn: Pass) -> Optional[str]:
    """Stable cache identity for a pass callable, or ``None`` if it has
    none.

    Only callables that re-resolve from their module to the same object
    (``f:mod.qualname`` tokens) qualify: the token survives garbage
    collection and distinguishes same-named functions from different
    modules.  Lambdas, closures, bound methods and callable instances
    only have ``id()`` identity, which GC can hand to a different object
    later — caching on it could replay another pass's result — so they
    return ``None`` and always run uncached.
    """
    token = _hash_token_for_object(fn)
    if token.startswith("obj:"):
        return None
    return token


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
            instance for an isolated cache.  Fills are single-flighted:
            concurrent managers reaching one ``(pass, input)`` run the pass
            once.  Entries are keyed by the pass callable's
            stable ``module.qualname`` identity, so passes that lack one
            (lambdas, closures, bound methods) always run uncached —
            regardless of any display name given via a ``(name, fn)``
            pair.
        verifier: an invariant checker — typically a
            :class:`repro.fx.analysis.PassVerifier` — snapshotting the
            pipeline input via ``before_pipeline`` and re-checked via
            ``after_pass`` after every stage; its exception (naming the
            offending pass) aborts the pipeline.  Snapshots are persisted
            into cache entries, so a fully-cached re-run verifies by
            snapshot comparison without re-analyzing any graph.

    Use the *returned* module of :meth:`run`: when a cached result is
    replayed, the input module is left untouched even for passes that
    normally transform in place.
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

    def add_pass(self, p: Pass, name: Optional[str] = None) -> "PassManager":
        self.passes.append((name or _pass_name(p, len(self.passes)), p))
        return self

    def __call__(self, gm: GraphModule) -> GraphModule:
        """Pipeline-of-pipelines composition: a PassManager is itself a
        valid pass (returns the transformed module)."""
        return self.run(gm).graph_module

    def run(self, gm: GraphModule) -> PassManagerResult:
        """Run every pass in order; returns the transformed module plus
        per-pass records.  Also stashed on ``self.last_result``.

        Cache replay is *lazy*: while consecutive passes keep hitting, the
        pipeline only chains the stored output hashes and never restores
        the intermediate modules — a fully-cached re-run costs one input
        hash, one lookup per pass, and a single restore at the end.
        """
        if not isinstance(gm, GraphModule):
            raise TypeError(f"PassManager.run expects a GraphModule, got {type(gm).__name__}")
        with state_scope():
            result = self._run(gm)
        self.last_result = result
        return result

    # -- internals ---------------------------------------------------------------

    def _run(self, gm: GraphModule) -> PassManagerResult:
        records: list[PassRecord] = []
        pipeline_start = time.perf_counter()

        # The pipeline's current value is the live module ``gm`` or — while
        # cache hits chain — ``pending``, the latest hit's entry, not yet
        # restored.  ``mark`` is the stage the chain started at (with the
        # hash, node count and verifier baseline on entering it): where to
        # go back to when restoring ``pending`` is refused, since ``gm``
        # has not been touched since.
        pending: Optional[CacheEntry] = None
        pending_key: Any = None
        mark: tuple = ()
        current_hash: Optional[str] = None
        current_nodes = len(gm.graph)

        def live() -> GraphModule:
            nonlocal gm, pending
            if pending is not None:
                gm = restore(pending.snapshot)
                pending = None
            return gm

        if self.verifier is not None:
            current_hash = self._hash(gm)
            self.verifier.before_pipeline(gm, graph_hash=current_hash or None)

        index = 0
        while True:
            try:
                if index == len(self.passes):
                    out = live()
                    break
                name, fn = self.passes[index]
                start = time.perf_counter()
                if current_hash is None:
                    current_hash = self._hash(live())
                cache_token = _pass_cache_token(fn) if self.cache is not None else None

                #: ``_execute``'s result once this call ran the pass itself.
                ran: Optional[tuple] = None
                if self.cache is not None and current_hash and cache_token:
                    key = (cache_token, current_hash)

                    def build() -> CacheEntry:
                        nonlocal ran
                        ran = self._execute(index, name, fn, live(),
                                            current_hash, True, start)
                        if ran[2] is None:
                            raise _NotCached
                        note_stored(self.cache, key)
                        return ran[2]

                    try:
                        entry = self.cache.get_or_build(key, build)
                    except _NotCached:
                        pass
                    if ran is None:
                        # Someone else's result (earlier run or a concurrent
                        # manager that won the single-flight): replay it.
                        if pending is None:
                            mark = (index, current_hash, current_nodes,
                                    self.verifier.baseline
                                    if self.verifier is not None else None)
                        pending, pending_key = entry, key
                        records.append(self._replay(
                            index, name, entry, live, current_hash,
                            current_nodes, start))
                        current_hash = entry.output_hash
                        current_nodes = entry.node_count
                        index += 1
                        continue

                if ran is None:  # uncacheable stage: just run the pass
                    ran = self._execute(index, name, fn, live(),
                                        current_hash, False, start)
                gm, record, _ = ran
                records.append(record)
                current_hash, current_nodes = record.output_hash or None, len(gm.graph)
                index += 1
            except StaleSnapshot:
                # ``pending``'s arrays were written in place after it was
                # stored (they belong to a module some caller holds): drop
                # the entry and redo from where its chain of hits began —
                # this time its stage is a miss.
                self.cache.discard(pending_key)
                self.cache.count("replay_rejected")
                pending = None
                index, current_hash, current_nodes, baseline = mark
                if self.verifier is not None:
                    self.verifier.adopt(baseline)
                del records[index:]

        return PassManagerResult(
            out, records, total_time=time.perf_counter() - pipeline_start)

    def _replay(self, index: int, name: str, entry: CacheEntry,
                live: Callable[[], GraphModule], input_hash: str,
                nodes_before: int, start: float) -> PassRecord:
        """Account for a cache hit: re-validate *entry* under this
        manager's lint/verifier settings — restoring it (``live()``) only
        when one of them needs the module — and return the stage's record."""
        if self.lint_after_each and not entry.linted:
            # The entry was produced by a non-linting manager; validate it
            # now so a hit never weakens this manager's lint guarantee.
            restored = live()
            try:
                restored.graph.lint()
            except Exception as exc:
                raise PassError(
                    f"pass {index} ({name!r}) cached result is an "
                    f"invalid graph (lint failed): "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            entry.linted = True
        verified = False
        if self.verifier is not None:
            vkey = self.verifier.config_key()
            if entry.verify_snapshot is not None \
                    and entry.verifier_key == vkey:
                # Verify by snapshot comparison — no restore, no
                # re-analysis.
                self.verifier.advance(name, entry.verify_snapshot)
            else:
                # Entry from an unverified (or differently configured)
                # run: verify the restored module once and remember the
                # snapshot.
                entry.verify_snapshot = self.verifier.after_pass(
                    name, live(), graph_hash=entry.output_hash or None)
                entry.verifier_key = vkey
            verified = True
        return PassRecord(
            name=name,
            wall_time=time.perf_counter() - start,
            nodes_before=nodes_before,
            nodes_after=entry.node_count,
            cache_hit=True,
            linted=self.lint_after_each and entry.linted,
            verified=verified,
            input_hash=input_hash,
            output_hash=entry.output_hash,
        )

    def _execute(self, index: int, name: str, fn: Pass, gm: GraphModule,
                 input_hash: Optional[str], cacheable: bool, start: float
                 ) -> tuple[GraphModule, PassRecord, Optional[CacheEntry]]:
        """Run one pass; returns the module, its record, and — when
        *cacheable* and the output hashes and pickles — the cache entry."""
        nodes_before = len(gm.graph)
        try:
            out = fn(gm)
        except Exception as exc:
            raise PassError(
                f"pass {index} ({name!r}) failed on a graph with "
                f"{nodes_before} nodes: {type(exc).__name__}: {exc}"
            ) from exc
        if isinstance(out, Unchanged):
            # The pass certifies a no-op: the input's hash, lint status,
            # and verifier baseline all remain valid, so skip the
            # (potentially expensive) post-pass bookkeeping entirely.
            gm = out.graph_module
            return gm, PassRecord(
                name=name,
                wall_time=time.perf_counter() - start,
                nodes_before=nodes_before,
                nodes_after=len(gm.graph),
                input_hash=input_hash or "",
                output_hash=input_hash or "",
            ), None
        if isinstance(out, GraphModule):
            gm = out
        linted = False
        if self.lint_after_each:
            try:
                gm.graph.lint()
            except Exception as exc:
                raise PassError(
                    f"pass {index} ({name!r}) produced an invalid graph "
                    f"(lint failed): {type(exc).__name__}: {exc}"
                ) from exc
            linted = True
        output_hash = self._hash(gm)

        # Verify *before* caching: an output that regresses an invariant
        # must never be stored for replay.  The verifier's exception
        # propagates as-is — it already names the offending pass.
        verified = False
        verdict: Any = None
        if self.verifier is not None:
            verdict = self.verifier.after_pass(
                name, gm, graph_hash=output_hash or None)
            verified = True

        entry: Optional[CacheEntry] = None
        if cacheable and output_hash:
            try:
                # No weight bytes move: the hash above left every digest
                # in the scope's memo, and the arrays go in by reference.
                snap = snapshot(gm)
            except Exception:
                snap = None  # unpicklable target: run this pass uncached
            if snap is not None:
                entry = CacheEntry(output_hash, snap, len(gm.graph),
                                   linted=linted,
                                   verify_snapshot=verdict,
                                   verifier_key=(self.verifier.config_key()
                                                 if verified else None))

        record = PassRecord(
            name=name,
            wall_time=time.perf_counter() - start,
            nodes_before=nodes_before,
            nodes_after=len(gm.graph),
            cache_hit=False,
            linted=linted,
            verified=verified,
            input_hash=input_hash or "",
            output_hash=output_hash,
        )
        return gm, record, entry

    @staticmethod
    def _hash(gm: GraphModule) -> str:
        # require_stable: this hash keys a cache that outlives the graph's
        # objects without pinning them, so an id()-fallback token could
        # alias a different graph after GC — refuse to cache instead.
        try:
            return gm.graph.structural_hash(include_attrs=True,
                                            require_stable=True)
        except Exception:
            return ""  # unhashable graph: disable caching for this stage
