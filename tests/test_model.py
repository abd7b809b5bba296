"""Encoder model tests: parameter layout, forward invariances, the masked
reconstruction objective, and the checkpoint container."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from midibert import autodiff as ad
from midibert import masking
from midibert import model as M
from midibert import tokens
from midibert.train import AdamW

from .support import gradcheck, mean, unfused_attention, widen


def content_remi_ids(rng, batch, length, fill):
    """Random single-stream content ids with a pad tail per row."""
    ids = np.zeros((batch, length), dtype=np.int64)
    for row, n in enumerate(fill):
        ids[row, :n] = rng.choice(np.arange(2, 168), size=n)  # skip Pad/Bar=1 edge? Bar=1 is content
        ids[row, 0] = 1
    return ids


def content_cp_ids(rng, batch, length, fill):
    ids = np.zeros((batch, length, 4), dtype=np.int64)
    for row, n in enumerate(fill):
        ids[row, :n, 0] = rng.choice([1, 2], size=n)
        ids[row, :n, 1] = rng.integers(1, 17, size=n)
        ids[row, :n, 2] = rng.integers(1, 87, size=n)
        ids[row, :n, 3] = rng.integers(1, 65, size=n)
        ids[row, 0, 0] = 1
    return ids


class TestConfig:
    def test_presets(self):
        desk = M.desk_config()
        assert (desk.hidden, desk.layers, desk.heads, desk.ff) == (128, 2, 4, 512)
        big = M.paper_config("cp")
        assert (big.hidden, big.layers, big.heads, big.ff) == (768, 12, 12, 3072)
        assert big.representation == "cp"
        assert desk.max_len == 512 and desk.rel_clip == 64 and desk.dropout == 0.1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"representation": "midi"},
            {"head": "tag"},
            {"position_mode": "rotary"},
            {"hidden": 130},  # not divisible by 4 heads
            {"head": "note"},  # num_classes missing
            {"head": "seq", "num_classes": 1},
            {"dropout": 1.0},
            {"layers": 0},
            {"position_mode": "sinusoidal"},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            M.desk_config(**kwargs)

    def test_cp_embed_dims_at_hidden_128(self):
        # hand-computed: ln(4,18,88,66) scaled to sum 128, rounded to 8s
        assert M.cp_embed_dims(128, (4, 18, 88, 66)) == (16, 32, 48, 40)

    def test_cp_embed_dims_floor_and_rounding(self):
        dims = M.cp_embed_dims(16, (4, 18, 88, 66))
        assert all(d >= 8 and d % 8 == 0 for d in dims)
        dims768 = M.cp_embed_dims(768, (4, 18, 88, 66))
        assert all(d % 8 == 0 for d in dims768)
        assert abs(sum(dims768) - 768) <= 32


class TestParameters:
    def test_names_cover_embed_layers_head(self):
        m = M.EncoderModel(M.desk_config("remi"))
        names = set(m.params)
        assert "embed.tok" in names
        for i in (0, 1):
            for leaf in ("attn.wq", "attn.bo", "attn.rel", "ln1.g", "ff.w1", "ff.b2", "ln2.b"):
                assert f"layers.{i}.{leaf}" in names
        assert {"head.mlm.w", "head.mlm.b"} <= names
        assert not any(n.startswith("layers.2.") for n in names)

    def test_cp_embedding_parameters(self):
        m = M.EncoderModel(M.desk_config("cp"))
        assert m.params["embed.bar"].data.shape == (4, 16)
        assert m.params["embed.sub_beat"].data.shape == (18, 32)
        assert m.params["embed.pitch"].data.shape == (88, 48)
        assert m.params["embed.duration"].data.shape == (66, 40)
        assert m.params["embed.proj.w"].data.shape == (136, 128)
        for f, size in zip(tokens.CP_FIELDS, (4, 18, 88, 66)):
            assert m.params[f"head.mlm.{f}.w"].data.shape == (128, size)

    def test_init_statistics(self):
        m = M.EncoderModel(M.desk_config("remi"))
        weights = np.concatenate(
            [t.data.ravel() for n, t in m.params.items() if t.data.ndim == 2]
        )
        assert np.abs(weights).max() <= 0.04 + 1e-6  # truncated at two sigma
        assert 0.015 < weights.std() < 0.022
        assert (m.params["layers.0.ln1.g"].data == 1.0).all()
        assert (m.params["layers.0.attn.bq"].data == 0.0).all()

    def test_construction_is_deterministic(self):
        a = M.EncoderModel(M.desk_config("remi"))
        b = M.EncoderModel(M.desk_config("remi"))
        c = M.EncoderModel(M.desk_config("remi", init_seed=7))
        assert all(np.array_equal(a.params[n].data, b.params[n].data) for n in a.params)
        assert any(not np.array_equal(a.params[n].data, c.params[n].data) for n in a.params)

    def test_trainable_freeze_modes(self):
        m = M.EncoderModel(M.desk_config("remi", head="note", num_classes=3))
        full = m.trainable()
        assert set(full) == set(m.params)
        head_only = m.trainable("backbone")
        assert set(head_only) == {n for n in m.params if n.startswith("head.")}
        no_attn = m.trainable("attention")
        assert no_attn and all(".attn." not in n for n in no_attn)
        assert set(no_attn) | {n for n in m.params if ".attn." in n} == set(m.params)
        with pytest.raises(ValueError):
            m.trainable("heads")


class TestForward:
    def test_shapes(self):
        rng = np.random.default_rng(0)
        m = M.EncoderModel(M.desk_config("remi"))
        ids = content_remi_ids(rng, 2, 40, (30, 17))
        assert m.hidden_states(ids).data.shape == (2, 40, 128)
        assert m.logits(ids).data.shape == (2, 40, 169)

        mc = M.EncoderModel(M.desk_config("cp"))
        idsc = content_cp_ids(rng, 2, 40, (30, 17))
        out = mc.logits(idsc)
        assert [x.data.shape for x in out] == [(2, 40, 4), (2, 40, 18), (2, 40, 88), (2, 40, 66)]

        mn = M.EncoderModel(M.desk_config("remi", head="note", num_classes=3))
        assert mn.logits(ids).data.shape == (2, 40, 3)
        ms = M.EncoderModel(M.desk_config("remi", head="seq", num_classes=4))
        assert ms.logits(ids).data.shape == (2, 4)

    def test_dtype_follows_parameters(self):
        rng = np.random.default_rng(1)
        ids = content_remi_ids(rng, 1, 16, (12,))
        m = M.EncoderModel(M.desk_config("remi"))
        assert all(t.data.dtype == np.float32 for t in m.params.values())
        assert m.logits(ids).data.dtype == np.float32
        m64 = widen(M.EncoderModel(M.desk_config("remi")))
        assert m64.logits(ids).data.dtype == np.float64
        mc = widen(M.EncoderModel(M.desk_config("cp")))
        idsc = content_cp_ids(rng, 1, 16, (12,))
        assert all(x.data.dtype == np.float64 for x in mc.logits(idsc))

    def test_bad_inputs_rejected(self):
        m = M.EncoderModel(M.desk_config("remi"))
        with pytest.raises(ValueError, match="shape"):
            m.hidden_states(np.zeros((2, 8, 4), dtype=np.int64))
        with pytest.raises(ValueError, match="max_len"):
            m.hidden_states(np.zeros((1, 600), dtype=np.int64))
        with pytest.raises(ValueError, match="integers"):
            m.hidden_states(np.zeros((1, 8), dtype=np.float32))

    def test_eval_deterministic_training_seeded(self):
        rng = np.random.default_rng(2)
        m = M.EncoderModel(M.desk_config("remi"))
        ids = content_remi_ids(rng, 2, 32, (32, 20))
        a = m.logits(ids).data
        b = m.logits(ids).data
        assert np.array_equal(a, b)
        t1 = m.logits(ids, training=True, seed=5).data
        t2 = m.logits(ids, training=True, seed=5).data
        t3 = m.logits(ids, training=True, seed=6).data
        assert np.array_equal(t1, t2)
        assert not np.array_equal(t1, t3)
        assert not np.array_equal(a, t1)  # dropout actually fires

    def test_step_mask(self):
        m = M.EncoderModel(M.desk_config("remi"))
        ids = np.array([[1, 18, 0, 0]])
        assert m.step_mask(ids).tolist() == [[True, True, False, False]]
        mc = M.EncoderModel(M.desk_config("cp"))
        idsc = np.array([[[1, 3, 40, 10], [1, 0, 0, 0], [0, 0, 0, 0]]])
        # empty-bar marker rows are real steps; all-zero rows are padding
        assert mc.step_mask(idsc).tolist() == [[True, True, False]]

    def test_bidirectional_information_flow(self):
        rng = np.random.default_rng(3)
        m = M.EncoderModel(M.desk_config("remi"))
        ids = content_remi_ids(rng, 1, 64, (64,))
        changed = ids.copy()
        changed[0, 60] = 18 if ids[0, 60] != 18 else 19
        before = m.logits(ids).data[0, 2]
        after = m.logits(changed).data[0, 2]
        assert np.abs(before - after).max() > 1e-6


class TestPadInvariance:
    @pytest.mark.parametrize("representation", ["remi", "cp"])
    def test_content_outputs_ignore_pad_tail_length(self, representation):
        rng = np.random.default_rng(4)
        n = 33
        if representation == "remi":
            full = content_remi_ids(rng, 1, 512, (n,))
        else:
            full = content_cp_ids(rng, 1, 512, (n,))
        short = full[:, :n]
        m = M.EncoderModel(M.desk_config(representation, head="note", num_classes=3))
        long_logits = m.logits(full).data[0, :n]
        short_logits = m.logits(short).data[0]
        assert np.abs(long_logits - short_logits).max() <= 1e-5

    def test_seq_head_ignores_pad_tail_length(self):
        rng = np.random.default_rng(5)
        full = content_remi_ids(rng, 1, 512, (40,))
        short = full[:, :40]
        m = M.EncoderModel(M.desk_config("remi", head="seq", num_classes=4))
        a = m.logits(full).data
        b = m.logits(short).data
        assert np.abs(a - b).max() <= 1e-5
        assert np.argmax(a, axis=-1).tolist() == np.argmax(b, axis=-1).tolist()


class TestTranslationEquivariance:
    def test_relative_positions_shift_invariant_at_init(self):
        rng = np.random.default_rng(6)
        block = rng.choice(np.arange(2, 168), size=10)
        a = np.zeros((1, 32), dtype=np.int64)
        b = np.zeros((1, 32), dtype=np.int64)
        a[0, :10] = block
        b[0, 5:15] = block
        m = M.EncoderModel(M.desk_config("remi"))
        ha = m.hidden_states(a).data[0, :10]
        hb = m.hidden_states(b).data[0, 5:15]
        assert np.abs(ha - hb).max() <= 2e-5


class TestMlmObjective:
    def zeroed_head(self, representation):
        m = M.EncoderModel(M.desk_config(representation))
        for name, t in m.params.items():
            if name.startswith("head."):
                t.data = np.zeros_like(t.data)
        return m

    def test_uniform_logits_single_stream_loss(self):
        rng = np.random.default_rng(7)
        ids = content_remi_ids(rng, 3, 64, (64, 50, 20))
        batch = masking.corrupt(ids, tokens.vocab("remi"), seed=1)
        loss, _ = M.mlm_loss(self.zeroed_head("remi"), batch, training=False)
        # analytic: uniform over 169 classes
        assert abs(float(loss.data) - np.log(169)) < 1e-5

    def test_uniform_logits_compound_loss(self):
        rng = np.random.default_rng(8)
        ids = content_cp_ids(rng, 3, 64, (64, 50, 20))
        batch = masking.corrupt(ids, tokens.vocab("cp"), seed=1)
        loss, _ = M.mlm_loss(self.zeroed_head("cp"), batch, training=False)
        sizes = np.array([4, 18, 88, 66], dtype=np.float64)
        expected = float((sizes / sizes.sum() * np.log(sizes)).sum())
        assert abs(expected - 4.136902) < 1e-6  # frozen analytic value
        assert abs(float(loss.data) - expected) < 1e-5

    def test_loss_backward_reaches_every_parameter(self):
        rng = np.random.default_rng(9)
        m = M.EncoderModel(M.desk_config("remi"))
        ids = content_remi_ids(rng, 2, 48, (48, 30))
        batch = masking.corrupt(ids, tokens.vocab("remi"), seed=2)
        loss, _ = M.mlm_loss(m, batch, training=True, seed=3)
        ad.backward(loss)
        assert all(t.grad is not None for t in m.params.values())
        assert all(np.isfinite(t.grad).all() for t in m.params.values())

    def test_full_model_gradcheck_double_precision(self):
        rng = np.random.default_rng(10)
        m = widen(M.EncoderModel(M.desk_config("remi")))
        ids = content_remi_ids(rng, 2, 24, (24, 16))
        batch = masking.corrupt(ids, tokens.vocab("remi"), seed=4)
        names = sorted(m.params)
        tensors = [m.params[n] for n in names]
        f = lambda: M.mlm_loss(m, batch, training=False)[0]
        # sampling restricted to finite-difference-resolvable coordinates;
        # see gradcheck's docstring for the noise-floor argument
        err = gradcheck(f, tensors, eps=1e-4, sample=120, min_grad=1e-5)
        assert err <= 1e-5

    def test_loss_requires_mlm_head(self):
        rng = np.random.default_rng(11)
        ids = content_remi_ids(rng, 1, 16, (16,))
        batch = masking.corrupt(ids, tokens.vocab("remi"), seed=0)
        m = M.EncoderModel(M.desk_config("remi", head="note", num_classes=3))
        with pytest.raises(ValueError, match="mlm"):
            M.mlm_loss(m, batch)

    def test_cloze_accuracy_single_stream(self):
        ids = np.array([[18, 19, 20, 0]])
        batch = masking.MaskedBatch(
            input_ids=ids,
            target_ids=ids,
            loss_mask=np.array([[True, True, False, False]]),
            modes=np.zeros((1, 4), dtype=np.int8),
        )
        logits = ad.tensor(np.zeros((1, 4, 169)))
        logits.data[0, 0, 18] = 5.0  # right
        logits.data[0, 1, 99] = 5.0  # wrong
        logits.data[0, 2, 77] = 5.0  # wrong but unselected
        assert M.cloze_accuracy(logits, batch) == 0.5

    def test_cloze_accuracy_needs_all_compound_fields(self):
        ids = np.array([[[1, 3, 40, 10]]])
        batch = masking.MaskedBatch(
            input_ids=ids,
            target_ids=ids,
            loss_mask=np.array([[True]]),
            modes=np.zeros((1, 1), dtype=np.int8),
        )
        logits = [ad.tensor(np.zeros((1, 1, s))) for s in (4, 18, 88, 66)]
        for k, target in enumerate((1, 3, 40, 10)):
            logits[k].data[0, 0, target] = 5.0
        assert M.cloze_accuracy(logits, batch) == 1.0
        logits[3].data[0, 0, 10] = 0.0
        logits[3].data[0, 0, 11] = 5.0  # one field off
        assert M.cloze_accuracy(logits, batch) == 0.0


class TestGraphFreeForward:
    @pytest.mark.parametrize("representation", ["remi", "cp"])
    def test_detached_forward_is_bit_identical_and_builds_no_graph(self, representation):
        rng = np.random.default_rng(31)
        m = M.EncoderModel(M.desk_config(representation, head="note", num_classes=3))
        make = content_remi_ids if representation == "remi" else content_cp_ids
        ids = make(rng, 3, 40, (40, 25, 9))
        live = m.logits(ids)
        view = m.detached()
        out = view.logits(ids)
        assert np.array_equal(out.data, live.data)
        assert out._backward is None and not out.requires_grad
        assert live._backward is not None  # the model itself still records
        for name, t in m.params.items():
            assert view.params[name].data is t.data  # a view, not a copy
            assert t.requires_grad and t.grad is None

    def test_training_forward_matches_the_unfused_chain(self, monkeypatch):
        # the model's fused attention against attention_scores -> softmax ->
        # dropout -> matmul, with dropout on, in float32
        rng = np.random.default_rng(32)
        m = M.EncoderModel(M.desk_config("remi"))
        ids = content_remi_ids(rng, 2, 70, (70, 40))
        batch = masking.corrupt(ids, tokens.vocab("remi"), seed=5)

        def grads():
            for t in m.params.values():
                t.grad = None
            loss, logits = M.mlm_loss(m, batch, training=True, seed=9)
            ad.backward(loss)
            return logits.data, {n: t.grad for n, t in m.params.items()}

        fused_logits, fused = grads()
        monkeypatch.setattr(ad, "attention", unfused_attention)
        chain_logits, unfused = grads()
        assert np.array_equal(fused_logits, chain_logits)
        for name in fused:
            assert np.array_equal(fused[name], unfused[name]), name

    def test_backward_leaves_no_shared_gradient_arrays(self):
        rng = np.random.default_rng(33)
        m = M.EncoderModel(M.desk_config("cp"))
        ids = content_cp_ids(rng, 2, 30, (30, 20))
        batch = masking.corrupt(ids, tokens.vocab("cp"), seed=2)
        loss, logits = M.mlm_loss(m, batch, training=True, seed=3)
        ad.backward(loss)
        grads = [t.grad for t in m.params.values()]
        others = [t.data for t in m.params.values()] + [x.data for x in logits]
        for i, g in enumerate(grads):
            assert not any(np.shares_memory(g, o) for j, o in enumerate(grads) if j != i)
            assert not any(np.shares_memory(g, o) for o in others)


class TestCheckpoints:
    def test_round_trip_bitwise(self, tmp_path):
        m = M.EncoderModel(M.desk_config("cp", init_seed=3))
        path = tmp_path / "model.mbpt"
        M.save_checkpoint(path, m)
        again = M.load_checkpoint(path)
        assert again.config == m.config
        assert set(again.params) == set(m.params)
        for name in m.params:
            a, b = m.params[name].data, again.params[name].data
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_failed_write_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, M.EncoderModel(M.desk_config("remi", init_seed=1)))
        before = path.read_bytes()
        calls = []

        def failing(arr):
            calls.append(1)
            if len(calls) == 5:
                raise OSError("disk full")
            return np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))

        monkeypatch.setattr(M, "_little_endian", failing)
        with pytest.raises(OSError, match="disk full"):
            M.save_checkpoint(path, M.EncoderModel(M.desk_config("remi", init_seed=2)))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    def test_file_magic(self, tmp_path):
        path = tmp_path / "model.mbpt"
        M.save_checkpoint(path, M.EncoderModel(M.desk_config("remi")))
        assert path.read_bytes()[:4] == b"MBPT"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.mbpt"
        path.write_bytes(b"RIFF" + b"\x00" * 64)
        with pytest.raises(M.CheckpointError, match="magic"):
            M.load_checkpoint(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "model.mbpt"
        M.save_checkpoint(path, M.EncoderModel(M.desk_config("remi")))
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(M.CheckpointError, match="version"):
            M.load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "model.mbpt"
        M.save_checkpoint(path, M.EncoderModel(M.desk_config("remi")))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 100])
        with pytest.raises(M.CheckpointError, match="truncated"):
            M.load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.mbpt"
        M.save_checkpoint(path, M.EncoderModel(M.desk_config("remi")))
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(M.CheckpointError, match="trailing"):
            M.load_checkpoint(path)

    def test_tensor_list_must_match_config(self, tmp_path):
        m = M.EncoderModel(M.desk_config("remi", layers=1))
        m.config = replace(m.config, layers=2)  # the header promises a second layer
        path = tmp_path / "model.mbpt"
        M.save_checkpoint(path, m)
        with pytest.raises(M.CheckpointError, match="layout"):
            M.load_checkpoint(path)

    def test_tensor_shape_must_match_config(self, tmp_path):
        m = M.EncoderModel(M.desk_config("remi", layers=1))
        m.config = replace(m.config, ff=256)
        path = tmp_path / "model.mbpt"
        M.save_checkpoint(path, m)
        with pytest.raises(M.CheckpointError, match="shape mismatch for 'layers.0.ff"):
            M.load_checkpoint(path)

    def test_load_draws_no_initialisation(self, tmp_path, monkeypatch):
        m = M.EncoderModel(M.desk_config("cp", head="seq", num_classes=4, init_seed=5))
        path = tmp_path / "model.mbpt"
        M.save_checkpoint(path, m)

        def draw(*args, **kwargs):
            raise AssertionError("load_checkpoint drew a random initialisation")

        monkeypatch.setattr(M, "_trunc_normal", draw)
        again = M.load_checkpoint(path)
        assert list(again.params) == list(m.params)
        for name, t in m.params.items():
            assert t.data.dtype == again.params[name].data.dtype
            assert np.array_equal(t.data, again.params[name].data), name
            assert again.params[name].requires_grad

    def test_backbone_load_skips_head(self, tmp_path):
        source = M.EncoderModel(M.desk_config("remi", init_seed=1))
        path = tmp_path / "pretrained.mbpt"
        M.save_checkpoint(path, source)

        target = M.EncoderModel(M.desk_config("remi", head="note", num_classes=3, init_seed=2))
        fresh_head = {
            n: t.data.copy() for n, t in target.params.items() if n.startswith("head.")
        }
        loaded = M.load_backbone(target, path)
        assert loaded == sorted(n for n in source.params if not n.startswith("head."))
        for name in loaded:
            assert np.array_equal(target.params[name].data, source.params[name].data)
        for name, data in fresh_head.items():
            assert np.array_equal(target.params[name].data, data)

    def test_loaded_tensors_have_native_byte_order(self, tmp_path):
        path = tmp_path / "pretrained.mbpt"
        M.save_checkpoint(path, M.EncoderModel(M.desk_config("remi", init_seed=1)))
        assert all(t.data.dtype.byteorder == "=" for t in M.load_checkpoint(path).params.values())

        target = M.EncoderModel(M.desk_config("remi", head="note", num_classes=3, init_seed=2))
        M.load_backbone(target, path)
        optimizer = AdamW(target.params, lr=1e-3, weight_decay=0.01)
        ids = content_remi_ids(np.random.default_rng(4), 1, 8, [6])
        ad.backward(mean(target.logits(ids)))
        optimizer.step()
        for name, t in target.params.items():
            assert t.data.dtype.byteorder == "=", name

    def test_backbone_load_rejects_layout_mismatch(self, tmp_path):
        path = tmp_path / "pretrained.mbpt"
        M.save_checkpoint(path, M.EncoderModel(M.desk_config("remi")))
        other = M.EncoderModel(
            M.ModelConfig(hidden=128, layers=3, heads=4, ff=512, head="note", num_classes=3)
        )
        with pytest.raises(M.CheckpointError):
            M.load_backbone(other, path)

    def test_backbone_load_checks_the_header_config(self, tmp_path):
        source = M.EncoderModel(M.desk_config("remi"))
        source.config = replace(source.config, layers=3)  # header says 3, tensors hold 2
        path = tmp_path / "pretrained.mbpt"
        M.save_checkpoint(path, source)
        target = M.EncoderModel(M.desk_config("remi", head="note", num_classes=3))
        with pytest.raises(M.CheckpointError, match="layout"):
            M.load_backbone(target, path)
