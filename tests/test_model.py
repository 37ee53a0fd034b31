import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairstack.autodiff import backward, level_loss
from fairstack.model import (
    Level,
    LevelSpec,
    ModelFormatError,
    SpecError,
    StackSpec,
    TrainedStack,
    build,
    spec_hash,
    stacked_spec,
    vanilla_spec,
)
from fairstack.nn import DimensionError
from oracles import all_params


def spec_from_dict(d: dict) -> StackSpec:
    """The inverse of :meth:`StackSpec.to_dict`; absent keys take the defaults."""
    rest = {k: v for k, v in d.items() if k != "levels"}
    return StackSpec(levels=tuple(LevelSpec(**l) for l in d["levels"]), **rest)


def _sigmoid(t):
    return 1.0 / (1.0 + np.exp(-t))


# ---------------------------------------------------------------------------
# specs


def test_stacked_spec_widths():
    spec = stacked_spec(in_dim=104, latents=(20, 8))
    assert len(spec.levels) == 2
    assert spec.levels[0].in_dim == 104 and spec.levels[0].latent == 20
    assert spec.levels[1].in_dim == 20 and spec.levels[1].latent == 8
    assert spec.levels[0].in_dim == 104 and spec.levels[-1].latent == 8


def test_vanilla_spec_single_level_with_hidden():
    spec = vanilla_spec(in_dim=58, hidden=(15,), latent=8)
    assert len(spec.levels) == 1
    assert spec.levels[0].hidden == (15,)


def test_spec_rejects_chain_mismatch():
    with pytest.raises(SpecError) as exc:
        StackSpec(levels=(LevelSpec(10, 8), LevelSpec(7, 4)))
    msg = str(exc.value)
    assert "level 1 input width 7" in msg
    assert "level 0 code width 8" in msg


def test_spec_rejects_nondecreasing_codes():
    with pytest.raises(SpecError) as exc:
        StackSpec(levels=(LevelSpec(10, 4), LevelSpec(4, 4)))
    assert "strictly decrease" in str(exc.value) or "strictly smaller" in str(exc.value)


def test_spec_rejects_expanding_level():
    with pytest.raises(SpecError):
        StackSpec(levels=(LevelSpec(4, 9),))


def test_spec_rejects_unknown_criterion():
    with pytest.raises(SpecError) as exc:
        stacked_spec(10, (4,), criterion="parity")
    msg = str(exc.value)
    assert "parity" in msg
    for c in ("dp", "eo", "eopp"):
        assert c in msg


def test_spec_rejects_negative_weights():
    with pytest.raises(SpecError) as exc:
        stacked_spec(10, (4,), beta=-1.0)
    assert "beta" in str(exc.value)


def test_spec_hash_tracks_content():
    a = stacked_spec(10, (4, 2))
    b = stacked_spec(10, (4, 2))
    c = stacked_spec(10, (4, 2), beta=2.0)
    assert spec_hash(a) == spec_hash(b)
    assert spec_hash(a) != spec_hash(c)


def test_spec_dict_round_trip():
    spec = stacked_spec(12, (6, 3), alpha=0.0, beta=5.0, criterion="eo", adv_hidden=0)
    again = spec_from_dict(spec.to_dict())
    assert again == spec


def test_spec_from_dict_fills_the_spec_defaults():
    spec = spec_from_dict({"levels": [{"in_dim": 12, "latent": 6}, {"in_dim": 6, "latent": 3}]})
    assert spec == StackSpec(levels=(LevelSpec(12, 6), LevelSpec(6, 3)))


# ---------------------------------------------------------------------------
# build / encode


def test_build_deterministic_per_seed():
    spec = stacked_spec(30, (10, 4))
    a, b = build(spec, seed=7), build(spec, seed=7)
    for la, lb in zip(a, b):
        for pa, pb in zip(all_params(la), all_params(lb)):
            assert np.array_equal(pa.value, pb.value)
    c = build(spec, seed=8)
    assert not np.array_equal(a[0].encoder.weights[0].value,
                              c[0].encoder.weights[0].value)


def test_adversary_width_depends_on_criterion():
    for criterion, extra in (("dp", 0), ("eo", 1), ("eopp", 0)):
        levels = build(stacked_spec(10, (4,), criterion=criterion), seed=0)
        assert levels[0].adversary.in_dim == 4 + extra


def test_encode_output_shape():
    levels = build(stacked_spec(104, (20, 8)), seed=0)
    X = np.random.default_rng(0).normal(size=(64, 104))
    assert TrainedStack.from_levels(levels).encode(X).shape == (64, 8)
    assert TrainedStack.from_levels(levels[:1]).encode(X).shape == (64, 20)


def test_encode_composes_level_by_level():
    levels = build(stacked_spec(9, (5, 2)), seed=3)
    X = np.random.default_rng(1).normal(size=(7, 9))
    z1 = TrainedStack.from_levels(levels[:1]).encode(X)
    z2_direct = TrainedStack.from_levels(levels).encode(X)
    z2_composed = TrainedStack.from_levels(levels[1:]).encode(z1)
    np.testing.assert_array_equal(z2_direct, z2_composed)


def test_encode_width_mismatch():
    stack = TrainedStack.from_levels(build(stacked_spec(6, (3,)), seed=0))
    with pytest.raises(DimensionError) as exc:
        stack.encode(np.zeros((4, 7)))
    assert "6" in str(exc.value) and "7" in str(exc.value)


# ---------------------------------------------------------------------------
# level loss


def _toy_batch(n=16, d=10, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)), rng.integers(0, 2, n), rng.integers(0, 2, n)


def test_alpha_zero_kills_decoder_gradient():
    levels = build(stacked_spec(10, (4,)), seed=0)
    X, y, s = _toy_batch()
    parts = level_loss(levels[0], X, y, s, alpha=0.0, beta=1.0, gamma=1.0)
    backward(parts.objective)
    for p in levels[0].decoder.params():
        np.testing.assert_array_equal(p.grad, np.zeros_like(p.grad))
    assert any(np.abs(p.grad).max() > 0 for p in levels[0].encoder.params())


def test_beta_zero_kills_adversary_gradient():
    levels = build(stacked_spec(10, (4,)), seed=0)
    X, y, s = _toy_batch()
    parts = level_loss(levels[0], X, y, s, alpha=1.0, beta=0.0, gamma=1.0)
    backward(parts.objective)
    for p in levels[0].adversary.params():
        np.testing.assert_array_equal(p.grad, np.zeros_like(p.grad))
    assert parts.objective.item() == pytest.approx(
        parts.rec.item() + parts.cls.item(), rel=1e-12
    )


def test_level_loss_hand_computed_two_samples():
    level = Level(LevelSpec(2, 1), criterion="dp", adv_hidden=0, cls_hidden=0,
                  rng=np.random.default_rng(0))
    level.encoder.weights[0].value[...] = [[0.5], [-0.25]]
    level.encoder.biases[0].value[...] = [[0.1]]
    level.decoder.weights[0].value[...] = [[1.0, 0.5]]
    level.decoder.biases[0].value[...] = [[0.0, 0.2]]
    level.classifier.weights[0].value[...] = [[2.0]]
    level.classifier.biases[0].value[...] = [[-0.1]]
    level.adversary.weights[0].value[...] = [[-1.0]]
    level.adversary.biases[0].value[...] = [[0.3]]

    X = np.array([[1.0, 2.0], [-1.0, 0.5]])
    y = np.array([1, 0])
    s = np.array([0, 1])
    alpha, beta, gamma = 0.5, 2.0, 1.5

    z = X @ np.array([[0.5], [-0.25]]) + 0.1
    recon = z @ np.array([[1.0, 0.5]]) + np.array([[0.0, 0.2]])
    rec = ((recon - X) ** 2).sum() / 2
    p_cls = _sigmoid(2.0 * z - 0.1)
    cls = -(np.log(p_cls[0, 0]) + np.log(1 - p_cls[1, 0])) / 2
    p_adv = _sigmoid(-z + 0.3)
    adv = -(np.log(1 - p_adv[0, 0]) + np.log(p_adv[1, 0])) / 2
    expected_objective = alpha * rec + gamma * cls - beta * adv

    parts = level_loss(level, X, y, s, alpha=alpha, beta=beta, gamma=gamma)
    assert parts.rec.item() == pytest.approx(rec, rel=1e-12)
    assert parts.cls.item() == pytest.approx(cls, rel=1e-12)
    assert parts.adv.item() == pytest.approx(adv, rel=1e-12)
    assert parts.objective.item() == pytest.approx(expected_objective, rel=1e-12)
    assert parts.n_adv == 2


def test_eopp_subset_restricts_adversary_rows():
    levels = build(stacked_spec(10, (4,), criterion="eopp"), seed=0)
    X, _, s = _toy_batch()
    y = np.array([0, 1] * 8)
    parts = level_loss(levels[0], X, y, s, alpha=1.0, beta=1.0, gamma=1.0,
                       eopp_label=0)
    assert parts.n_adv == 8
    parts1 = level_loss(levels[0], X, y, s, alpha=1.0, beta=1.0, gamma=1.0,
                        eopp_label=1)
    assert parts1.n_adv == 8


def test_eopp_empty_subset_drops_adversary_term():
    levels = build(stacked_spec(10, (4,), criterion="eopp"), seed=0)
    X, _, s = _toy_batch()
    y = np.ones(16, dtype=int)  # nothing has y == 0
    parts = level_loss(levels[0], X, y, s, alpha=1.0, beta=1.0, gamma=1.0,
                       eopp_label=0)
    assert parts.adv is None and parts.n_adv == 0
    assert parts.objective.item() == pytest.approx(
        parts.rec.item() + parts.cls.item(), rel=1e-12
    )
    backward(parts.objective)
    for p in levels[0].adversary.params():
        np.testing.assert_array_equal(p.grad, np.zeros_like(p.grad))


def test_eo_adversary_sees_label_column():
    levels = build(stacked_spec(10, (4,), criterion="eo"), seed=0)
    X, _, s = _toy_batch()
    y0 = np.zeros(16, dtype=int)
    y1 = np.ones(16, dtype=int)
    l0 = level_loss(levels[0], X, y0, s, alpha=0.0, beta=1.0, gamma=0.0)
    l1 = level_loss(levels[0], X, y1, s, alpha=0.0, beta=1.0, gamma=0.0)
    # same z, different label column -> different adversary loss
    assert l0.adv.item() != l1.adv.item()


def test_dp_adversary_ignores_labels():
    levels = build(stacked_spec(10, (4,), criterion="dp"), seed=0)
    X, _, s = _toy_batch()
    y0 = np.zeros(16, dtype=int)
    y1 = np.ones(16, dtype=int)
    l0 = level_loss(levels[0], X, y0, s, alpha=0.0, beta=1.0, gamma=0.0)
    l1 = level_loss(levels[0], X, y1, s, alpha=0.0, beta=1.0, gamma=0.0)
    assert l0.adv.item() == l1.adv.item()


def test_level_loss_row_mismatch():
    levels = build(stacked_spec(10, (4,)), seed=0)
    X, y, s = _toy_batch()
    with pytest.raises(DimensionError):
        level_loss(levels[0], X, y[:8], s, alpha=1, beta=1, gamma=1)


# ---------------------------------------------------------------------------
# TrainedStack serialization


def _round_trip(stack: TrainedStack) -> TrainedStack:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "model.fstk"
        stack.save(path)
        return TrainedStack.load(path)


def test_round_trip_bit_exact():
    levels = build(stacked_spec(30, (10, 4)), seed=5)
    stack = TrainedStack.from_levels(levels, provenance={"seed": 5})
    again = _round_trip(stack)
    X = np.random.default_rng(2).normal(size=(17, 30))
    np.testing.assert_array_equal(stack.encode(X), again.encode(X))
    assert again.provenance == {"seed": 5}
    assert again.in_dim == 30 and again.n_levels == 2 and again.out_dim == 4


def test_identity_stack_is_passthrough():
    stack = TrainedStack.identity(7)
    X = np.random.default_rng(0).normal(size=(3, 7))
    np.testing.assert_array_equal(stack.encode(X), X)
    assert stack.out_dim == 7 and stack.n_levels == 0
    again = _round_trip(stack)
    np.testing.assert_array_equal(again.encode(X), X)


def test_trained_stack_contains_encoders_only():
    levels = build(stacked_spec(10, (4, 2)), seed=0)
    stack = TrainedStack.from_levels(levels)
    n_arrays = sum(len(layers) * 2 for layers in stack.levels)
    n_encoder_params = sum(len(lv.encoder.params()) for lv in levels)
    assert n_arrays == n_encoder_params  # no decoder/classifier/adversary


def test_trained_stack_matches_live_encode():
    levels = build(stacked_spec(12, (6, 3)), seed=1)
    stack = TrainedStack.from_levels(levels)
    X = np.random.default_rng(3).normal(size=(9, 12))
    live = levels[1].encoder.forward_value(levels[0].encoder.forward_value(X))
    np.testing.assert_array_equal(stack.encode(X), live)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.fstk"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(ModelFormatError) as exc:
        TrainedStack.load(path)
    assert "bad magic" in str(exc.value)


def test_load_rejects_truncation(tmp_path):
    levels = build(stacked_spec(8, (3,)), seed=0)
    path = tmp_path / "model.fstk"
    TrainedStack.from_levels(levels).save(path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ModelFormatError) as exc:
        TrainedStack.load(path)
    assert "truncated" in str(exc.value)


def test_load_rejects_future_version(tmp_path):
    levels = build(stacked_spec(8, (3,)), seed=0)
    path = tmp_path / "model.fstk"
    TrainedStack.from_levels(levels).save(path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(ModelFormatError) as exc:
        TrainedStack.load(path)
    assert "99" in str(exc.value) and "1" in str(exc.value)


def test_load_rejects_trailing_bytes(tmp_path):
    levels = build(stacked_spec(8, (3,)), seed=0)
    path = tmp_path / "model.fstk"
    TrainedStack.from_levels(levels).save(path)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(ModelFormatError) as exc:
        TrainedStack.load(path)
    assert "trailing" in str(exc.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_load_rejects_non_finite_weights(tmp_path, bad):
    stack = TrainedStack.from_levels(build(stacked_spec(8, (5, 3)), seed=0))
    stack.levels[1][0][1][0, 2] = bad  # level 1, layer 0: a bias entry
    path = tmp_path / "model.fstk"
    stack.save(path)
    with pytest.raises(ModelFormatError, match="level 1, layer 0"):
        TrainedStack.load(path)


@settings(max_examples=30, deadline=None)
@given(
    dims=st.lists(st.integers(1, 9), min_size=2, max_size=4, unique=True),
    seed=st.integers(0, 2**31 - 1),
)
def test_property_serialization_round_trip(dims, seed):
    dims = sorted(dims, reverse=True)
    latents = tuple(dims[1:])
    levels = build(stacked_spec(dims[0], latents), seed=seed)
    stack = TrainedStack.from_levels(levels, provenance={"seed": seed})
    again = _round_trip(stack)
    for lv_a, lv_b in zip(stack.levels, again.levels):
        for (wa, ba, aa), (wb, bb, ab) in zip(lv_a, lv_b):
            assert np.array_equal(wa, wb)
            assert np.array_equal(ba, bb)
            assert aa == ab
    assert again.provenance == stack.provenance
