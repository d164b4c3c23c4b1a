"""Tests for ``repro.fx.analysis.breaks`` (PR 9, GraphMend).

Covers the tentpole guarantees:

* **detection** — every specialization event (``bool``/``len``/``iter``/
  ``int``/``float`` on a Proxy) surfaces as a structured ``BreakEvent``
  with user-source provenance instead of a bare ``TraceError``;
* **classification** — events map onto their AST construct and rank by
  fix difficulty (repairable ``if`` < polyvariant < concretization);
* **repair** — where-repairable ``if``\\s re-trace into a single clean
  graph; shape/value-dependent branches capture polyvariantly, with the
  dispatcher exact on *both* branch outcomes;
* **the gate** — the zoo and example models in ``ci/break_baseline.json``
  report no hard break that the baseline does not list.
"""

import json
import pickle

import numpy as np
import pytest

import repro
import repro.functional as F
from repro import nn
from repro.fx import symbolic_trace
from repro.fx.analysis import (
    PolyvariantModule,
    RepairError,
    detect_breaks,
    mend,
    polyvariant_trace,
)
from repro.fx.analysis.breaks import AUTO_FIXABLE, DIFFICULTY
from repro.fx.graph_module import GraphModule
from repro.fx.tracer import TraceError
from tests import ROOT, load_spec


class DataIf(nn.Module):
    """Data-dependent if, both branches a single same-name assign."""

    def __init__(self):
        super().__init__()
        self.w = nn.Parameter(repro.randn(4))

    def forward(self, x):
        gate = x.sum()
        if gate > 0:
            y = x * self.w + 1.0
        else:
            y = x * self.w - 1.0
        return F.tanh(y)


class ShapeIf(nn.Module):
    """Shape-dependent branch with multi-statement arms (polyvariant)."""

    def __init__(self):
        super().__init__()
        self.a = nn.Parameter(repro.randn(1))

    def forward(self, x):
        if x.shape[-1] >= 4:
            y = x * self.a
            y = F.relu(y)
        else:
            y = x + self.a
            y = F.sigmoid(y)
        return y * 2.0


class LoopOverProxy(nn.Module):
    """Trip count depends on a runtime shape — a concretization loop."""

    def forward(self, x):
        for _ in range(x.shape[0]):
            x = x + 1.0
        return x


class FloatIf(nn.Module):
    """float() concretization inside an if — not auto-fixable."""

    def forward(self, x):
        h = x * 2.0
        if float(h.sum()) > 100.0:
            h = h * 0.5
        return h


class Clean(nn.Module):
    def forward(self, x):
        return F.relu(x) * 2.0


class TestDetection:
    def test_trace_error_carries_break_event(self):
        with pytest.raises(TraceError) as ei:
            symbolic_trace(DataIf())
        event = getattr(ei.value, "break_event", None)
        assert event is not None
        assert event.kind == "bool"
        assert event.stack  # user-code provenance recorded
        assert any("test_fx_breaks" in fname for fname, _, _ in event.stack)

    def test_detect_breaks_clean_model(self):
        report = detect_breaks(Clean())
        assert report.events == []
        assert report.aborted is None

    def test_detect_and_classify_data_if(self):
        report = detect_breaks(DataIf())
        assert len(report.events) == 1
        (e,) = report.events
        assert e.kind == "bool"
        assert e.construct == "if"
        assert e.classification == "repairable-if"
        assert e.classification in AUTO_FIXABLE
        assert "test_fx_breaks.py" in e.location
        assert e.node is None  # cleared: events must stay picklable
        pickle.dumps(e)

    def test_detect_and_classify_shape_if(self):
        report = detect_breaks(ShapeIf())
        assert [e.classification for e in report.events] == ["polyvariant-shape"]

    def test_detect_loop_concretization(self):
        report = detect_breaks(LoopOverProxy())
        assert len(report.events) == 1
        assert report.events[0].classification == "concretization-loop"
        assert report.events[0].classification not in AUTO_FIXABLE

    def test_detect_float_concretization(self):
        report = detect_breaks(FloatIf())
        assert len(report.events) == 1
        assert report.events[0].kind == "float"
        assert report.events[0].classification not in AUTO_FIXABLE

    def test_ranking_orders_by_difficulty(self):
        report = detect_breaks(DataIf())
        ranked = report.ranked()
        diffs = [DIFFICULTY.get(e.classification, 9) for e in ranked]
        assert diffs == sorted(diffs)

    def test_report_format_mentions_source(self):
        text = detect_breaks(DataIf()).format()
        assert "repairable-if" in text
        assert "test_fx_breaks.py" in text
        assert "if gate > 0:" in text

    def test_code_run_under_another_files_name_is_not_read_from_it(
            self, tmp_path):
        """A repairable ``if`` exec'd under the name of a file on disk that
        holds other text: its break is never classified or reported
        against that file's lines; its source is unavailable."""
        other = tmp_path / "notes.py"
        lines = [f"line_{i} = {i}" for i in range(1, 20)]
        other.write_text("\n".join(lines) + "\n")
        namespace = {"nn": nn}
        exec(compile("class M(nn.Module):\n"
                     "    def forward(self, x):\n"
                     "        y = x\n"
                     "        if x.sum() > 0:\n"
                     "            y = x * 2.0\n"
                     "        return y\n", str(other), "exec"), namespace)
        report = detect_breaks(namespace["M"]())
        (event,) = report.events
        assert event.stack[0][:2] == (str(other), 4)
        assert event.source_line is None and event.construct is None
        assert event.classification == "unclassified"
        text = report.format()
        assert "source unavailable" in text
        assert not any(line in text for line in lines)
        with pytest.raises(RepairError, match="source unavailable"):
            mend(namespace["M"]())


class TestWhereRepair:
    def test_data_if_mends_to_single_graph(self):
        model = DataIf().eval()
        x = repro.randn(2, 4)
        gm = mend(model, example_inputs=[(x,), (x * -1.0,)])
        assert isinstance(gm, GraphModule)
        assert gm.mended == "where"
        # bit-exact on BOTH branch outcomes
        for inp in (x, x * -1.0):
            assert np.array_equal(gm(inp).numpy(), model(inp).numpy())

    def test_repaired_graph_retraces_cleanly(self):
        gm = mend(DataIf().eval(), example_inputs=(repro.randn(2, 4),))
        gm2 = symbolic_trace(gm)
        gm2.graph.lint()

    def test_clean_model_fast_path(self):
        gm = mend(Clean())
        assert isinstance(gm, GraphModule)
        assert gm.mended == "clean"


class TestPolyvariant:
    def test_shape_if_captures_both_outcomes(self):
        model = ShapeIf().eval()
        wide, narrow = repro.randn(2, 5), repro.randn(2, 3)
        poly = mend(model, example_inputs=[(wide,), (narrow,)])
        assert isinstance(poly, PolyvariantModule)
        assert poly.mended == "polyvariant"
        assert poly.num_variants == 2
        for inp in (wide, narrow):
            assert np.array_equal(poly(inp).numpy(), model(inp).numpy())
        # both variants dispatched (counts include mend's validation runs)
        assert all(c >= 1 for c in poly.dispatch_counts)

    def test_polyvariant_trace_directly(self):
        poly = polyvariant_trace(ShapeIf().eval())
        assert sorted(poly._decisions) == [(False,), (True,)]

    def test_polyvariant_pickles(self):
        model = ShapeIf().eval()
        poly = mend(model, example_inputs=(repro.randn(2, 5),))
        clone = pickle.loads(pickle.dumps(poly))
        x = repro.randn(2, 3)
        assert np.array_equal(clone(x).numpy(), model(x).numpy())

    def test_mend_refuses_concretization(self):
        with pytest.raises(RepairError):
            mend(LoopOverProxy())
        with pytest.raises(RepairError):
            mend(FloatIf())


class TestBreakBaseline:
    """The graph-break gate: no spec in ``ci/break_baseline.json`` may
    report a break that is not auto-fixable and whose ``key()`` its
    baseline entry lacks."""

    BASELINE = json.loads((ROOT / "ci" / "break_baseline.json").read_text())

    @staticmethod
    def _new_hard_breaks(model, known) -> list:
        return sorted({e.key() for e in detect_breaks(model).events
                       if e.classification not in AUTO_FIXABLE} - set(known))

    @pytest.mark.parametrize("spec", sorted(BASELINE))
    def test_no_unbaselined_hard_break(self, spec):
        model = load_spec(spec)
        model = model if isinstance(model, nn.Module) else model()
        assert self._new_hard_breaks(model, self.BASELINE[spec]) == []

    def test_an_unbaselined_hard_break_fails_the_gate(self):
        assert self._new_hard_breaks(FloatIf(), []) == \
            ["test_fx_breaks.py::forward::float::if"]
        assert self._new_hard_breaks(DataIf(), []) == []   # auto-fixable
