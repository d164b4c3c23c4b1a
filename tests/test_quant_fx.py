"""Tests for FX graph-mode quantization: prepare / calibrate / convert (§6.2.1)."""

import numpy as np
import pytest

import repro
import repro.functional as F
from repro import nn
from repro.fx import symbolic_trace
from repro.models import MLP, DeepRecommender
from repro.quant import (
    DeQuantize,
    FakeQuantize,
    MinMaxObserver,
    MovingAverageMinMaxObserver,
    Quantize,
    QuantizedLinear,
    QuantizedReLU,
    convert_fx,
    default_qconfig,
    histogram_qconfig,
    prepare_fx,
    quantize_static,
)


def calibrate(prepared, batches):
    for b in batches:
        prepared(b)
    return prepared


class TestPrepare:
    def test_observers_inserted(self):
        prepared = prepare_fx(MLP(8, (16,), 4))
        obs = [
            n for n in prepared.graph.nodes
            if n.op == "call_module" and "activation_post_process" in n.target
        ]
        # input+output observed per Linear; boundaries shared
        assert len(obs) >= 3

    def test_prepared_model_unchanged_numerically(self):
        model = MLP(8, (16,), 4)
        gm = symbolic_trace(model)
        prepared = prepare_fx(model)
        x = repro.randn(4, 8)
        assert np.allclose(gm(x).data, prepared(x).data)

    def test_observer_reuse_for_shared_values(self):
        class Shared(nn.Module):
            def __init__(self):
                super().__init__()
                self.a = nn.Linear(4, 4)
                self.b = nn.Linear(4, 4)

            def forward(self, x):
                return self.a(x) + self.b(x)  # x feeds two Linears

        prepared = prepare_fx(Shared())
        ph = prepared.graph.find_nodes(op="placeholder")[0]
        obs_users = [u for u in ph.users if "activation_post_process" in str(u.target)]
        assert len(obs_users) == 1  # one observer, shared

    def test_qat_uses_fake_quantize(self):
        prepared = prepare_fx(MLP(4, (8,), 2), qat=True)
        modules = dict(prepared.named_modules())
        fakes = [m for m in modules.values() if isinstance(m, FakeQuantize)]
        assert fakes

    def test_lints(self):
        prepare_fx(MLP(8, (16,), 4)).graph.lint()


class TestConvert:
    def _quantized_mlp(self, mode="fast"):
        repro.manual_seed(5)
        model = MLP(8, (16, 16), 4)
        batches = [repro.randn(16, 8) for _ in range(8)]
        qm = quantize_static(model, [(b,) for b in batches], mode=mode)
        return model, qm, batches

    def test_linears_swapped(self):
        _, qm, _ = self._quantized_mlp()
        modules = dict(qm.named_modules())
        qlinears = [m for m in modules.values() if isinstance(m, QuantizedLinear)]
        assert len(qlinears) == 3
        assert not any(type(m) is nn.Linear for m in modules.values())

    def test_relu_stays_in_quantized_domain(self):
        from repro.quant import QuantizedLinearReLU

        _, qm, _ = self._quantized_mlp()
        modules = dict(qm.named_modules())
        # interior linear->relu pairs fuse into QuantizedLinearReLU (the
        # FBGEMM fused epilogue); no standalone float relu survives
        assert any(isinstance(m, QuantizedLinearReLU) for m in modules.values())
        assert not any(type(m) is nn.ReLU for m in modules.values())
        # consecutive linear->relu->linear needs NO dequant between them
        code = qm.code
        assert code.count("self.dequantize") == 1  # only at the model output

    def test_boundaries_present(self):
        _, qm, _ = self._quantized_mlp()
        modules = dict(qm.named_modules())
        assert any(isinstance(m, Quantize) for m in modules.values())
        assert any(isinstance(m, DeQuantize) for m in modules.values())

    def test_observers_removed(self):
        _, qm, _ = self._quantized_mlp()
        assert "activation_post_process" not in qm.code

    def test_accuracy_close_to_float(self):
        model, qm, batches = self._quantized_mlp()
        x = batches[0]
        y_f, y_q = model(x), qm(x)
        denom = float(y_f.abs().max()) + 1e-12
        rel = float((y_f - y_q).abs().max()) / denom
        assert rel < 0.15

    def test_reference_mode_accuracy(self):
        model, qm, batches = self._quantized_mlp(mode="reference")
        x = batches[0]
        rel = float((model(x) - qm(x)).abs().max()) / (float(model(x).abs().max()) + 1e-12)
        assert rel < 0.15

    def test_weight_memory_4x_smaller(self):
        model, qm, _ = self._quantized_mlp()
        float_bytes = sum(p.nbytes() for p in model.parameters()
                          if p.ndim == 2)  # weights only
        q_bytes = sum(
            m.weight_nbytes() for m in qm.modules() if isinstance(m, QuantizedLinear)
        )
        assert q_bytes * 4 == float_bytes

    def test_unobserved_model_raises_on_convert(self):
        prepared = prepare_fx(MLP(4, (8,), 2))
        with pytest.raises(RuntimeError):
            convert_fx(prepared)

    def test_converted_graph_lints(self):
        _, qm, _ = self._quantized_mlp()
        qm.graph.lint()


class TestUnsupportedOpsStayFloat:
    def test_selu_gets_dequant_quant_sandwich(self):
        repro.manual_seed(0)
        model = DeepRecommender(n_items=64, layer_sizes=(32,), dropout=0.0).eval()
        batches = [(repro.randn(8, 64),) for _ in range(4)]
        qm = quantize_static(model, batches)
        code = qm.code
        # SELU is not quantizable: must be preceded by dequantize
        assert "selu" in code.lower() or "encoder_1" in code
        modules = dict(qm.named_modules())
        deqs = [m for m in modules.values() if isinstance(m, DeQuantize)]
        assert len(deqs) >= 2  # before each SELU region + output

    def test_end_to_end_accuracy_deeprecommender(self):
        repro.manual_seed(0)
        model = DeepRecommender(n_items=128, layer_sizes=(64, 64), dropout=0.0).eval()
        batches = [(repro.rand(16, 128),) for _ in range(8)]
        qm = quantize_static(model, batches)
        x = batches[0][0]
        y_f, y_q = model(x), qm(x)
        rel = float((y_f - y_q).abs().max()) / (float(y_f.abs().max()) + 1e-12)
        assert rel < 0.15


class TestHistogramQConfig:
    def test_histogram_observers_used(self):
        prepared = prepare_fx(MLP(4, (8,), 2), qconfig=histogram_qconfig)
        from repro.quant import HistogramObserver

        modules = dict(prepared.named_modules())
        assert any(isinstance(m, HistogramObserver) for m in modules.values())

    def test_end_to_end_with_histogram(self):
        model = MLP(8, (16,), 4)
        batches = [(repro.randn(8, 8),) for _ in range(4)]
        qm = quantize_static(model, batches, qconfig=histogram_qconfig)
        x = batches[0][0]
        rel = float((model(x) - qm(x)).abs().max()) / (float(model(x).abs().max()) + 1e-12)
        assert rel < 0.2


class TestQAT:
    def test_qat_flow(self):
        model = MLP(8, (16,), 4)
        prepared = prepare_fx(model, qat=True)
        # calibrate with fake quant in the loop
        for _ in range(4):
            prepared(repro.randn(8, 8))
        qm = convert_fx(prepared)
        x = repro.randn(4, 8)
        assert qm(x).shape == (4, 4)

    def test_fake_quant_changes_activations(self):
        model = MLP(8, (16,), 4)
        gm = symbolic_trace(model)
        prepared = prepare_fx(model, qat=True)
        x = repro.randn(4, 8)
        prepared(x)  # initialize observers
        out_fake = prepared(x)
        out_float = gm(x)
        # fake-quant snapping introduces (small) error
        assert not np.array_equal(out_fake.data, out_float.data)
        assert np.allclose(out_fake.data, out_float.data, atol=0.5)

    @pytest.mark.parametrize("observer", [MovingAverageMinMaxObserver, MinMaxObserver])
    def test_fake_quant_observes_finite_elements_only(self, observer):
        # the observer module's NaN filter applies inside FakeQuantize too
        with_nan, clean = FakeQuantize(observer()), FakeQuantize(observer())
        with np.errstate(invalid="ignore"):
            with_nan(repro.tensor([1.0, float("nan"), 5.0]))
        clean(repro.tensor([1.0, 5.0]))
        x = repro.tensor([-2.0, 3.0, 4.0])
        assert np.array_equal(with_nan(x).data, clean(x).data)
        assert with_nan.calculate_qparams() == clean.calculate_qparams()


class TestRetrace:
    """Quantization modules are tracer leaves: tracing a prepared or
    converted model again keeps its observers, fake-quants and int8 layers."""

    @staticmethod
    def _calibrated(qat):
        model = MLP(4, (8,), 2).eval()
        x = repro.randn(64, 4) * 3
        return model, calibrate(prepare_fx(model, qat=qat), [x] * 3), x

    def test_compiling_a_caller_of_a_qat_model_keeps_its_fake_quant(self):
        from repro import fx

        class Caller(nn.Module):
            def __init__(self, inner):
                super().__init__()
                self.inner = inner

            def forward(self, x):
                return self.inner(x)

        _, prepared, x = self._calibrated(qat=True)
        caller = Caller(prepared)
        # the same batch again leaves the moving averages where they are
        assert np.array_equal(fx.compile(caller, (x,))(x).data, caller(x).data)

    def test_calibrating_a_retraced_prepared_model_converts(self):
        model, prepared, x = self._calibrated(qat=False)
        retraced = symbolic_trace(prepare_fx(model))
        assert [n.target for n in retraced.graph.nodes if n.op == "call_module"
                and "activation_post_process" in n.target] == \
            [n.target for n in prepared.graph.nodes if n.op == "call_module"
             and "activation_post_process" in n.target]
        converted = convert_fx(calibrate(retraced, [x] * 3))
        assert np.array_equal(converted(x).data, convert_fx(prepared)(x).data)

    def test_tracing_a_converted_model(self):
        _, prepared, x = self._calibrated(qat=False)
        converted = convert_fx(prepared)
        assert np.array_equal(symbolic_trace(converted)(x).data, converted(x).data)
