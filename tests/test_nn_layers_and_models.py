"""Tests for layers, optimizers, the trainer and the backbone models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.data import DataLoader, SyntheticImageDataset, SyntheticLanguageDataset
from repro.nn.layers import AvgPool2d, BatchNorm2d, Conv2d, LayerNorm, Linear, MaxPool2d
from repro.experiments.figure6 import MODEL_BUILDERS
from repro.nn.models.common import RecordingFactory
from repro.nn.models.densenet import densenet121
from repro.nn.models.efficientnet import efficientnet_v2_s
from repro.nn.models.gpt2 import gpt2_tiny
from repro.nn.models.resnet import resnet18, resnet34
from repro.nn.models.resnext import resnext29
from repro.nn.module import Module, Parameter, Sequential
from repro.nn.optim import SGD, Adam, CosineSchedule
from repro.nn.tensor import Tensor
from repro.nn.trainer import Trainer, TrainingConfig


class TestLayers:
    def test_linear_shapes_and_grads(self, rng):
        layer = Linear(6, 4)
        out = layer(Tensor(rng.normal(size=(3, 6))))
        assert out.shape == (3, 4)
        F.sum(out).backward()
        assert layer.weight.grad is not None and layer.bias.grad is not None

    def test_conv2d_matches_naive_convolution(self, rng):
        layer = Conv2d(2, 3, kernel_size=3, rng=rng)
        x = rng.normal(size=(1, 2, 5, 5))
        out = layer(Tensor(x)).data
        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        reference = np.zeros((1, 3, 5, 5))
        for kh in range(3):
            for kw in range(3):
                reference += np.einsum(
                    "nchw,dc->ndhw",
                    padded[:, :, kh : kh + 5, kw : kw + 5],
                    layer.weight.data[:, :, kh, kw],
                )
        np.testing.assert_allclose(out, reference, rtol=1e-9)

    def test_conv2d_stride_and_groups(self, rng):
        layer = Conv2d(4, 4, kernel_size=3, stride=2, groups=2, rng=rng)
        out = layer(Tensor(rng.normal(size=(2, 4, 8, 8))))
        assert out.shape == (2, 4, 4, 4)

    def test_conv2d_rejects_bad_groups(self):
        with pytest.raises(ValueError):
            Conv2d(3, 4, kernel_size=3, groups=2)

    def test_batchnorm_normalizes_and_tracks_running_stats(self, rng):
        layer = BatchNorm2d(3)
        x = Tensor(rng.normal(loc=5.0, scale=2.0, size=(8, 3, 4, 4)))
        out = layer(x)
        assert abs(float(out.data.mean())) < 0.1
        assert layer.running_mean.mean() > 0  # moved toward the data mean
        layer.eval()
        eval_out = layer(x)
        assert eval_out.shape == x.shape

    def test_layernorm_last_axis(self, rng):
        layer = LayerNorm(8)
        out = layer(Tensor(rng.normal(size=(2, 5, 8)))).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-7)

    def test_pooling_layers(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 4, 4)))
        assert MaxPool2d(2)(x).shape == (1, 2, 2, 2)
        assert AvgPool2d(2)(x).shape == (1, 2, 2, 2)
        avg = AvgPool2d(2)(x).data
        np.testing.assert_allclose(avg[0, 0, 0, 0], x.data[0, 0, :2, :2].mean())


class TestModuleSystem:
    def test_named_parameters_traverses_containers(self):
        model = Sequential(Linear(3, 4), Linear(4, 2))
        names = [name for name, _ in model.named_parameters()]
        assert any("layers.0" in name for name in names)
        assert len(model.parameters()) == 4

    def test_state_dict_roundtrip(self, rng):
        model = Linear(3, 3)
        state = model.state_dict()
        model.weight.data = rng.normal(size=(3, 3))
        model.load_state_dict(state)
        np.testing.assert_allclose(model.weight.data, state["weight"])

    def test_train_eval_propagates(self):
        model = Sequential(Linear(3, 3), Sequential(Linear(3, 3)))
        model.eval()
        assert all(not module.training for module in model.modules())


class TestOptimizers:
    def _quadratic_step(self, optimizer_factory):
        param = Parameter(np.array([4.0]))
        optimizer = optimizer_factory([param])
        for _ in range(50):
            loss = F.sum(F.mul(param, param))
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        return abs(float(param.data[0]))

    def test_sgd_converges_on_quadratic(self):
        assert self._quadratic_step(lambda p: SGD(p, lr=0.1, momentum=0.0)) < 0.1

    def test_adam_converges_on_quadratic(self):
        assert self._quadratic_step(lambda p: Adam(p, lr=0.3)) < 0.5

    def test_cosine_schedule_decays(self):
        optimizer = SGD([Parameter(np.zeros(1))], lr=1.0)
        schedule = CosineSchedule(optimizer, total_steps=10)
        rates = [schedule.step() for _ in range(10)]
        assert rates[-1] < rates[0]


class TestDataAndTrainer:
    def test_synthetic_image_dataset_is_deterministic(self):
        a = SyntheticImageDataset(seed=3, num_samples=32)
        b = SyntheticImageDataset(seed=3, num_samples=32)
        np.testing.assert_allclose(a.images, b.images)
        assert a.images.shape == (32, 3, 8, 8)

    def test_dataloader_covers_dataset(self):
        dataset = SyntheticImageDataset(num_samples=37)
        loader = DataLoader(dataset, batch_size=8)
        assert sum(len(batch) for batch in loader) == 37

    def test_language_dataset_targets_are_shifted_tokens(self):
        dataset = SyntheticLanguageDataset(num_sequences=16, sequence_length=8)
        assert dataset.tokens.shape == (16, 8)
        assert dataset.targets.shape == (16, 8)

    def test_trainer_improves_small_classifier(self):
        dataset = SyntheticImageDataset(num_samples=96, image_size=8, noise=0.2)
        train_set, val_set = dataset.split()
        model = Sequential(Linear(3 * 8 * 8, 10))

        class Flattening(Module):
            def __init__(self, inner):
                super().__init__()
                self.inner = inner

            def forward(self, x):
                return self.inner(F.reshape(x, (x.shape[0], -1)))

        trainer = Trainer(Flattening(model), TrainingConfig(max_steps=30, eval_every=15))
        result = trainer.fit_classifier(train_set, val_set)
        assert result.best_accuracy > 0.3  # well above the 10% chance level

    def test_trainer_early_stops(self):
        dataset = SyntheticImageDataset(num_samples=64)
        train_set, val_set = dataset.split()

        class Zero(Module):
            def forward(self, x):
                return Tensor(np.zeros((x.shape[0], 10)))

        config = TrainingConfig(max_steps=40, eval_every=5, early_stop_threshold=0.99)
        result = Trainer(Zero(), config).fit_classifier(train_set, val_set)
        assert result.early_stopped
        assert result.steps < 40


class TestBackboneModels:
    @pytest.mark.parametrize("builder", [resnet18, resnet34, densenet121, resnext29, efficientnet_v2_s])
    def test_vision_models_forward_shape(self, builder, rng):
        model = builder()
        out = model(Tensor(rng.normal(size=(2, 3, 8, 8))))
        assert out.shape == (2, 10)

    def test_vision_models_are_trainable(self, rng):
        model = resnet18()
        out = model(Tensor(rng.normal(size=(2, 3, 8, 8))))
        F.sum(out).backward()
        grads = [p.grad for p in model.parameters()]
        assert sum(g is not None for g in grads) > len(grads) // 2

    def test_gpt2_forward_and_slots(self, rng):
        model = gpt2_tiny()
        tokens = rng.integers(0, 64, size=(2, 16))
        assert model(tokens).shape == (2, 16, 64)
        assert len(model.projection_slots()) == 6  # 2 layers x QKV

    def test_recording_factory_collects_slots(self):
        recorder = RecordingFactory()
        resnet18(conv_factory=recorder)
        assert len(recorder.slots) > 10
        assert any(slot.stride == 2 for slot in recorder.slots)

    def test_model_registry_complete(self):
        assert set(MODEL_BUILDERS) == {
            "resnet18", "resnet34", "densenet121", "resnext29_2x64d",
            "efficientnet_v2_s", "gpt2",
        }
