"""Stage 1 and stage 2 on stacks of pages against the one-at-a-time loops.

``reference_stage1`` is stage 1 as it ran before stacking: each sample's
gold page is encoded as a one-page stack, its loss backpropagated alone,
and validation decodes each gold page alone with ``generate_answer``.
Stacked training must give the same records and parameters bit for bit
when a stack's answers have one length, and gradients within 1e-12 when
they do not.

``reference_stage2`` is stage 2 as it ran before stacking: each pair is
scored and backpropagated alone. Stacked stage 2 must give the same
records (apart from wall time and cache size) and checkpoint bytes.
"""

import gc
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from pixqa import autograd as ag
from pixqa.autograd import Tensor
from pixqa.checkpoint import save_checkpoint
from pixqa.data import Dataset, SynthConfig, gen_synthetic
from pixqa.errors import NumericError
from pixqa.evaluate import BLOCK_ROWS, anls_single, encode_page, fuse_page, grid_stacks
from pixqa.layers import ATTENTION_TILE
from pixqa.model import BOS, EOS, PAD, ModelConfig, VqaModel, Vocab
from pixqa.render import PatchGrid, stack_grids
from pixqa.training import (STACK_ROWS, Adam, FrozenFeatureCache, Sgd, TrainConfig, make_optimizer,
                             mse_smoothed_loss, sample_negative, train_stage1, train_stage2,
                             validation_page_accuracy)
from pixqa.scorer import ScorerConfig, SelfAttentionScorer

# max_patches admits the 65-patch pages below, which are longer than one attention tile.
SMALL_MODEL = ModelConfig(d_model=16, n_heads=2, n_enc_layers=1, n_dec_layers=1, d_ff=32, patch_size=16,
                          max_patches=128, max_answer_len=8, vocab_chars="0123456789ABCDEFGH", seed=0)
DESK_MODEL = ModelConfig(d_model=96, n_heads=8, n_enc_layers=2, n_dec_layers=2, d_ff=384,
                         max_patches=2048, max_answer_len=8, vocab_chars="ABCDEF0123456789? ", seed=0)


def reference_stage1(train_set, valid_set, model, cfg):
    """Stage 1 one sample at a time; returns the records without wall time, and restores the best epoch."""
    rng = np.random.default_rng(cfg.seed)
    opt = make_optimizer(cfg, model.params)
    records, best_metric, best_epoch = [], -math.inf, 0
    best = {k: p.data.copy() for k, p in model.params.items()}
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(len(train_set.questions))
        losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            for idx in batch:
                sample = train_set.questions[int(idx)]
                doc = train_set.document_for(sample)
                loss = model.vqa_loss(encode_page(sample.question, doc, sample.answer_page_index, model),
                                      [sample.answers[0]])
                loss.backward()
                losses.append(loss.data.item())
            opt.step(len(batch))
        scores = []
        for sample in valid_set.questions:
            with ag.no_grad():
                feature = encode_page(sample.question, valid_set.document_for(sample), sample.answer_page_index, model)
            scores.append(anls_single(model.generate_answer(feature), sample.answers))
        metric = float(np.mean(scores))
        records.append({"epoch": epoch, "train_loss": float(np.mean(losses)), "valid_anls": metric})
        if metric > best_metric:
            best_metric, best_epoch = metric, epoch
            best = {k: p.data.copy() for k, p in model.params.items()}
        elif epoch - best_epoch >= cfg.early_stop_patience:
            break
    for k, p in model.params.items():
        p.data = best[k].copy()
    return records


def reference_stage2(train_set, valid_set, model, scorer, cfg):
    """Stage 2 one pair at a time; returns the records without wall time or cache size, and restores the best epoch."""
    rng = np.random.default_rng(cfg.seed)
    opt = make_optimizer(cfg, scorer.params)
    cache = FrozenFeatureCache(model)
    n_train = len(train_set.questions)
    records, best_metric, best_epoch = [], -math.inf, 0
    best = {k: p.data.copy() for k, p in scorer.params.items()}
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(n_train)
        losses = []
        for start in range(0, n_train, cfg.batch_size):
            done = len(losses)
            for idx in order[start : start + cfg.batch_size]:
                sample = train_set.questions[int(idx)]
                doc = train_set.document_for(sample)
                pairs = [(sample.answer_page_index, True)]
                negative = sample_negative(doc, sample.answer_page_index, rng)
                if negative is not None:
                    pairs.append((negative, False))
                for page_idx, is_positive in pairs:
                    feature = cache.get(sample, doc, page_idx)
                    pred = scorer.score(feature, training=True, keep=scorer.dropout_keep(rng))
                    loss = mse_smoothed_loss(pred, is_positive, cfg.label_smooth_eps)
                    loss.backward()
                    losses.append(loss.data.item())
            opt.step(len(losses) - done)
        metric = validation_page_accuracy(valid_set, scorer, cache)
        records.append({"epoch": epoch, "train_loss": float(np.mean(losses)), "valid_page_acc": metric,
                        "n_pos_pairs": n_train, "n_neg_pairs": len(losses) - n_train})
        if metric > best_metric:
            best_metric, best_epoch = metric, epoch
            best = {k: p.data.copy() for k, p in scorer.params.items()}
        elif epoch - best_epoch >= cfg.early_stop_patience:
            break
    for k, p in scorer.params.items():
        p.data = best[k].copy()
    return records


def without_time(records):
    return [{k: v for k, v in rec.items() if k not in ("epoch_s", "cache_mib")} for rec in records]


def grads(model):
    return {k: (np.zeros_like(p.data) if p.grad is None else p.grad.copy()) for k, p in model.params.items()}


def random_grids(n, rows=3, cols=13, seed=0):
    """``n`` one-page grids."""
    rng = np.random.default_rng(seed)
    return [PatchGrid(rows, cols, 16, rng.random((1, rows * cols, 256))) for _ in range(n)]


def one_by_one(model, grids, answers, primed=None):
    """Per-page losses and the parameter gradients of encoding and backpropagating each one-page grid, in order."""
    if primed is not None:
        for k, p in model.params.items():
            p.grad = primed[k].copy()
    losses = []
    for grid, answer in zip(grids, answers):
        loss = model.vqa_loss(model.encode_grid(grid), [answer])
        loss.backward()
        losses.append(loss.data.item())
    return losses, grads(model)


def stacked(model, grids, answers, primed=None):
    if primed is not None:
        for k, p in model.params.items():
            p.grad = primed[k].copy()
    loss = model.vqa_loss(model.encode_grid(stack_grids(grids)), answers)
    loss.backward()
    return loss.data.tolist(), grads(model)


@pytest.fixture(scope="module")
def small_model_params():
    return {k: p.data.copy() for k, p in VqaModel(SMALL_MODEL).params.items()}


def fresh(params, cfg=SMALL_MODEL):
    return VqaModel(cfg, params={k: Tensor(v.copy(), requires_grad=True) for k, v in params.items()})


class TestStackedLoss:
    @pytest.mark.parametrize("answers", [["1234", "5678", "ABCD", "0000"], ["", "", ""], ["7", "8"]])
    @pytest.mark.parametrize("primed", [False, True])
    def test_equal_lengths_are_bit_identical(self, small_model_params, answers, primed):
        """Losses and gradients equal the one-page loop bit for bit, also added onto earlier gradients."""
        grids = random_grids(len(answers))
        start = None
        if primed:
            start = {k: np.random.default_rng(1).normal(0.0, 1.0, v.shape) for k, v in small_model_params.items()}
        want_losses, want = one_by_one(fresh(small_model_params), grids, answers, start)
        got_losses, got = stacked(fresh(small_model_params), grids, answers, start)
        assert got_losses == want_losses
        for name in want:
            assert np.array_equal(got[name], want[name]), name

    def test_mixed_lengths_within_1e_12(self, small_model_params):
        answers = ["1", "12345678", "", "AB"]
        grids = random_grids(len(answers))
        want_losses, want = one_by_one(fresh(small_model_params), grids, answers)
        got_losses, got = stacked(fresh(small_model_params), grids, answers)
        assert np.allclose(got_losses, want_losses, rtol=0.0, atol=1e-12)
        for name in want:
            assert np.allclose(got[name], want[name], rtol=0.0, atol=1e-12), name

    def test_a_string_or_a_wrong_answer_count_is_rejected(self, small_model_params):
        model = fresh(small_model_params)
        one = model.encode_grid(random_grids(1)[0])
        two = model.encode_grid(stack_grids(random_grids(2)))
        assert model.vqa_loss(one, ["12"]).shape == (1,)
        assert model.vqa_loss(two, ["12", "3"]).shape == (2,)
        for feature, answers in ((one, "1"), (one, "12"), (two, "12"), (two, ["12"]), (one, ["1", "2"])):
            with pytest.raises(ValueError, match="one answer per page"):
                model.vqa_loss(feature, answers)


class TestGridStacks:
    def grids(self, shapes):
        return [(i, random_grids(1, rows, cols, seed=i)[0]) for i, (rows, cols) in enumerate(shapes)]

    def keys(self, stacks):
        return [[key for key, _ in stack] for stack in stacks]

    def test_rows_cap_and_shape_change(self):
        items = self.grids([(3, 13)] * 6 + [(2, 13)] * 2 + [(3, 13)])
        assert self.keys(grid_stacks(items, STACK_ROWS)) == [[0, 1, 2, 3], [4, 5], [6, 7], [8]]

    def test_the_row_cap_alone_splits_pages_longer_than_a_tile(self):
        """65-patch pages stack two to a STACK_ROWS stack; a 91-patch page, over half the cap, is alone."""
        items = self.grids([(3, 13)] + [(5, 13)] * 3 + [(7, 13)] * 2 + [(3, 13)])
        assert items[1][1].n_patches > ATTENTION_TILE and 2 * items[4][1].n_patches > STACK_ROWS
        assert self.keys(grid_stacks(items, STACK_ROWS)) == [[0], [1, 2], [3], [4], [5], [6]]

    def test_draws_each_pair_once_and_no_further_than_needed(self):
        drawn = []

        def items():
            for key, grid in self.grids([(3, 13)] * 5):
                drawn.append(key)
                yield key, grid

        stacks = grid_stacks(items(), STACK_ROWS)
        assert self.keys([next(stacks)]) == [[0, 1, 2, 3]]
        assert drawn == [0, 1, 2, 3]  # a full stack is handed out before the next pair is drawn
        assert self.keys(stacks) == [[4]]

    def test_a_handed_over_stack_is_not_held(self):
        """Once the consumer drops a stack, its grids are freed, before the next pair is drawn."""
        stacks = grid_stacks(((i, random_grids(1, seed=i)[0]) for i in range(6)), STACK_ROWS)
        first = next(stacks)
        refs = [weakref.ref(grid) for _, grid in first]
        del first
        gc.collect()
        assert all(ref() is None for ref in refs)


def corpus(root, seed, page_height, n_documents=3, value_len=4, pages=(2, 3)):
    cfg = SynthConfig(n_documents=n_documents, pages_per_doc=pages, facts_per_page=1, questions_per_doc=2,
                      key_alphabet="ABCDEFGH", key_len=3, value_alphabet="0123456789", value_len=value_len,
                      page_width=208, page_height=page_height, seed=seed)
    return gen_synthetic(cfg, root)


def merged(*datasets, split="train"):
    """One dataset from corpora with clashing ids: questions and documents renamed by corpus."""
    questions, documents = [], {}
    for j, ds in enumerate(datasets):
        for doc_id, doc in ds.documents.items():
            documents[f"{j}.{doc_id}"] = replace(doc, doc_id=f"{j}.{doc_id}")
        questions += [replace(q, question_id=f"{j}.{q.question_id}", doc_id=f"{j}.{q.doc_id}") for q in ds.questions]
    return Dataset(split, questions, documents)


@pytest.fixture(scope="module")
def mixed_corpus(tmp_path_factory):
    """Training questions whose gold pages come in three grid shapes, one of them longer than a tile.

    Pages 32 pixels high fuse to 3x13 = 39 patches, 16 high to 2x13 and 64
    high to 5x13 = 65 patches; the questions are interleaved so that shapes
    change inside every batch.
    """
    root = tmp_path_factory.mktemp("mixed")
    desk, short, tall = (corpus(root / name, seed, height) for name, seed, height in
                         (("desk", 1, 32), ("short", 2, 16), ("tall", 3, 64)))
    train = merged(desk, short, tall)
    order = np.random.default_rng(0).permutation(len(train.questions))
    train = replace(train, questions=[train.questions[i] for i in order])
    valid = merged(corpus(root / "valid", 4, 32), split="valid")
    return train, valid


class TestTrainStage1:
    @pytest.mark.parametrize("batch_size, optimizer", [(1, "adam"), (3, "adam"), (16, "adam"), (3, "sgd")])
    def test_records_and_parameters_equal_the_one_sample_loop(self, mixed_corpus, small_model_params,
                                                              batch_size, optimizer):
        train, valid = mixed_corpus
        shapes = {fuse_page(q.question, train.document_for(q), q.answer_page_index, VqaModel(SMALL_MODEL)).n_patches
                  for q in train.questions}
        assert shapes == {26, 39, 65}
        cfg = TrainConfig(stage=1, optimizer=optimizer, learning_rate=3e-3 if optimizer == "adam" else 0.05,
                          weight_decay=0.01, batch_size=batch_size, max_epochs=3, early_stop_patience=3, seed=5)
        model, want_model = fresh(small_model_params), fresh(small_model_params)
        history = train_stage1(train, valid, model, cfg)
        want = reference_stage1(train, valid, want_model, cfg)
        assert without_time(history.records) == want
        assert any(not np.array_equal(p.data, small_model_params[k]) for k, p in model.params.items())
        for name, p in model.params.items():
            assert np.array_equal(p.data, want_model.params[name].data), name

    def test_a_stack_is_encoded_and_backpropagated_once(self, mixed_corpus, small_model_params, monkeypatch):
        """One encoder call and one backward per stack, each backward done before the next stack is encoded."""
        train, valid = mixed_corpus
        events = []
        encode, backward = VqaModel.encode_grid, Tensor.backward

        def traced_encode(self, grid):
            if ag.grad_enabled():
                events.append(("encode", grid.patches.shape[0]))
            return encode(self, grid)

        def traced_backward(self):
            events.append(("backward", self.data.size))
            return backward(self)

        monkeypatch.setattr(VqaModel, "encode_grid", traced_encode)
        monkeypatch.setattr(Tensor, "backward", traced_backward)
        cfg = TrainConfig(stage=1, optimizer="adam", learning_rate=1e-3, batch_size=16, max_epochs=1, seed=5)
        train_stage1(train, valid, fresh(small_model_params), cfg)
        assert [kind for kind, _ in events] == ["encode", "backward"] * (len(events) // 2)
        sizes = [n for kind, n in events if kind == "encode"]
        assert sizes == [n for kind, n in events if kind == "backward"]
        assert sum(sizes) == len(train.questions)
        assert len(sizes) < len(train.questions) and max(sizes) <= STACK_ROWS // 39

    def test_answers_longer_than_a_tile_stack_with_shorter_ones(self, tmp_path, monkeypatch):
        """A 70-character answer needs 71 decoder rows, more than one tile: its sample stacks with the
        batch's shorter answers, one backward for the stack, and training matches the one-sample loop."""
        cfg_model = replace(SMALL_MODEL, max_answer_len=72)
        train = corpus(tmp_path / "train", 5, 32, n_documents=2)
        valid = corpus(tmp_path / "valid", 6, 32, n_documents=1)
        long = replace(train.questions[1], answers=("1234567890" * 7,))
        train = replace(train, questions=[train.questions[0], long, *train.questions[2:]])
        params = {k: p.data.copy() for k, p in VqaModel(cfg_model).params.items()}
        cfg = TrainConfig(stage=1, optimizer="adam", learning_rate=1e-3, batch_size=8, max_epochs=1, seed=1)
        model, want_model = fresh(params, cfg_model), fresh(params, cfg_model)
        backward, backwards = Tensor.backward, []
        monkeypatch.setattr(Tensor, "backward", lambda self: backwards.append(self.data.size) or backward(self))
        history = train_stage1(train, valid, model, cfg)
        monkeypatch.undo()
        assert len(train.questions) == 4 and backwards == [4]  # four 39-patch pages: one stack
        assert without_time(history.records) == reference_stage1(train, valid, want_model, cfg)
        for name, p in model.params.items():
            assert np.allclose(p.data, want_model.params[name].data, rtol=0.0, atol=1e-12), name

    def test_epoch_s_in_every_record_and_log_line(self, mixed_corpus, small_model_params):
        train, valid = mixed_corpus
        lines = []
        model = fresh(small_model_params)
        h1 = train_stage1(train, valid, model, TrainConfig(stage=1, max_epochs=2, early_stop_patience=5),
                          log=lines.append)
        scorer = SelfAttentionScorer(ScorerConfig(n_heads=2), d_model=SMALL_MODEL.d_model, seed=1)
        h2 = train_stage2(train, valid, model, scorer, TrainConfig(stage=2, max_epochs=2, early_stop_patience=5),
                          log=lines.append)
        for rec in h1.records + h2.records:
            assert rec["epoch_s"] > 0.0
        assert len(lines) == 4 and all("epoch_s=" in line for line in lines)


@pytest.fixture(scope="module")
def stage2_corpus(tmp_path_factory, mixed_corpus):
    """The mixed corpus (features of 26, 39 and 65 rows) plus single-page documents, which give a positive pair only."""
    train, valid = mixed_corpus
    single = corpus(tmp_path_factory.mktemp("single"), 7, 32, pages=(1, 1))
    return merged(train, single), valid


@pytest.fixture(scope="module")
def desk_corpus(tmp_path_factory):
    """Sixteen questions on 39-patch pages: a batch of 16 is 32 same-shape pairs, more than one stack holds."""
    root = tmp_path_factory.mktemp("desk")
    return corpus(root / "train", 8, 32, n_documents=8), corpus(root / "valid", 9, 32, n_documents=2)


def scorer_pair(agg, layers, dropout):
    """Two scorers with the same initial parameters."""
    cfg = ScorerConfig(n_sa_layers=layers, n_heads=2, aggregation=agg, dropout_p=dropout)
    start = SelfAttentionScorer(cfg, SMALL_MODEL.d_model, seed=3).params
    return [SelfAttentionScorer(cfg, SMALL_MODEL.d_model,
                                params={k: Tensor(p.data.copy(), requires_grad=True) for k, p in start.items()})
            for _ in range(2)]


class TestTrainStage2:
    @staticmethod
    def assert_same_checkpoint(tmp_path, model, scorer, want_scorer):
        save_checkpoint(tmp_path / "got.ckpt", model, scorer)
        save_checkpoint(tmp_path / "want.ckpt", model, want_scorer)
        assert (tmp_path / "got.ckpt").read_bytes() == (tmp_path / "want.ckpt").read_bytes()

    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("agg", ["first", "cls", "avgpool"])
    def test_records_and_checkpoint_equal_the_one_pair_loop(self, stage2_corpus, small_model_params, tmp_path,
                                                            agg, layers, dropout):
        train, valid = stage2_corpus
        model = fresh(small_model_params)
        scorer, want_scorer = scorer_pair(agg, layers, dropout)
        start = {k: p.data.copy() for k, p in scorer.params.items()}
        cfg = TrainConfig(stage=2, optimizer="adam", learning_rate=3e-3, weight_decay=0.01, batch_size=16,
                          max_epochs=3, early_stop_patience=3, seed=5)
        history = train_stage2(train, valid, model, scorer, cfg)
        want = reference_stage2(train, valid, model, want_scorer, cfg)
        assert without_time(history.records) == want
        assert any(not np.array_equal(p.data, start[k]) for k, p in scorer.params.items())
        self.assert_same_checkpoint(tmp_path, model, scorer, want_scorer)

    @staticmethod
    def scored_shapes(monkeypatch):
        """The feature shape of every training-mode `score` call, recorded as it runs."""
        shapes = []
        score = SelfAttentionScorer.score

        def traced(self, feature, training=False, keep=None):
            if training:
                shapes.append(feature.shape)
            return score(self, feature, training, keep)

        monkeypatch.setattr(SelfAttentionScorer, "score", traced)
        return shapes

    @pytest.mark.parametrize("agg, per_stack", [("first", 13), ("cls", 12)])
    def test_a_batch_spans_several_stacks(self, desk_corpus, small_model_params, tmp_path, monkeypatch,
                                          agg, per_stack):
        """32 pairs of 39-patch features: stacks of at most BLOCK_ROWS attention rows (the cls token is a row)."""
        train, valid = desk_corpus
        assert per_stack == BLOCK_ROWS // (39 + (agg == "cls"))
        model = fresh(small_model_params)
        scorer, want_scorer = scorer_pair(agg, 1, 0.1)
        cfg = TrainConfig(stage=2, optimizer="adam", learning_rate=3e-3, batch_size=16, max_epochs=2,
                          early_stop_patience=2, seed=1)
        shapes = self.scored_shapes(monkeypatch)
        history = train_stage2(train, valid, model, scorer, cfg)
        assert len(train.questions) == 16 and history.records[0]["n_neg_pairs"] == 16
        assert [shape[0] for shape in shapes] == [per_stack, per_stack, 32 - 2 * per_stack] * 2
        monkeypatch.undo()
        assert without_time(history.records) == reference_stage2(train, valid, model, want_scorer, cfg)
        self.assert_same_checkpoint(tmp_path, model, scorer, want_scorer)

    def test_shapes_split_stacks_and_long_features_stack(self, stage2_corpus, small_model_params, tmp_path,
                                                         monkeypatch):
        train, valid = stage2_corpus
        shapes = self.scored_shapes(monkeypatch)
        cfg = TrainConfig(stage=2, batch_size=16, max_epochs=1, seed=5)
        model = fresh(small_model_params)
        scorer, want_scorer = scorer_pair("cls", 2, 0.1)
        history = train_stage2(train, valid, model, scorer, cfg)
        monkeypatch.undo()
        record = history.records[0]
        assert sum(shape[0] if len(shape) == 3 else 1 for shape in shapes) == record["n_pos_pairs"] + record[
            "n_neg_pairs"]
        assert record["n_neg_pairs"] < record["n_pos_pairs"]  # the single-page documents add no negative
        stacked = [shape for shape in shapes if len(shape) == 3]
        assert {shape[1] for shape in stacked} == {26, 39, 65}  # 65 rows, longer than a tile, stack too
        assert without_time(history.records) == reference_stage2(train, valid, model, want_scorer, cfg)
        self.assert_same_checkpoint(tmp_path, model, scorer, want_scorer)

    def test_cache_size_in_every_record_and_log_line(self, stage2_corpus, small_model_params):
        train, valid = stage2_corpus
        lines = []
        model = fresh(small_model_params)
        cache = FrozenFeatureCache(model)
        history = train_stage2(train, valid, model, scorer_pair("first", 1, 0.0)[0],
                               TrainConfig(stage=2, max_epochs=2, early_stop_patience=5), log=lines.append,
                               cache=cache)
        held = sum(feature.data.nbytes for feature in cache._store.values())
        assert cache.nbytes == held > 0
        assert [rec["cache_mib"] for rec in history.records][-1] == held / 2**20
        assert 0.0 < history.records[0]["cache_mib"] <= history.records[-1]["cache_mib"]
        assert len(lines) == 2 and all(f"cache_mib={rec['cache_mib']:.4f}" in line
                                       for rec, line in zip(history.records, lines))


class TestBatchedGreedy:
    CFG = ModelConfig(d_model=16, n_heads=4, n_enc_layers=1, n_dec_layers=2, d_ff=32, patch_size=4,
                      max_patches=8, vocab_chars="abcdefgh", max_answer_len=6, seed=7)

    @pytest.fixture(scope="class")
    def model(self):
        model = VqaModel(self.CFG)
        # PAD and BOS never win; under this EOS bias these pages stop after 0, 2, 3 and 6 (the cap) ids.
        model.params["dec.out_b"].data[[PAD, BOS]] = -30.0
        model.params["dec.out_b"].data[EOS] = 1.0
        return model

    @pytest.fixture(scope="class")
    def features(self):
        return np.random.default_rng(5).normal(0.0, 1.0, (8, 9, self.CFG.d_model))

    @staticmethod
    def decoded_ids(monkeypatch, decode_all):
        """The ids each Vocab.decode call gets while ``decode_all`` runs, and what it returns."""
        seen = []
        decode = Vocab.decode
        monkeypatch.setattr(Vocab, "decode", lambda self, ids: seen.append(list(ids)) or decode(self, ids))
        answers = decode_all()
        monkeypatch.setattr(Vocab, "decode", decode)
        return seen, answers

    @pytest.mark.parametrize("cap", [None, 1, 2])
    def test_equals_one_page_at_a_time_and_decodes_each_answer_alone(self, model, features, monkeypatch, cap):
        want_ids, want = self.decoded_ids(
            monkeypatch, lambda: [model.generate_answer(Tensor(features[i : i + 1]), cap) for i in range(8)])
        if cap is None:
            assert {len(ids) for ids in want_ids} == {0, 2, 3, self.CFG.max_answer_len}
        got_ids, got = self.decoded_ids(monkeypatch, lambda: model.generate_answers(Tensor(features), cap))
        assert got == want
        assert got_ids == want_ids  # one decode per answer, with only that answer's ids

    def test_one_page_is_a_list_of_one(self, model, features):
        assert model.generate_answers(Tensor(features[:1])) == [model.generate_answer(Tensor(features[:1]))]

    def test_a_nan_page_raises(self, model, features):
        bad = features.copy()
        bad[3, 2, 5] = np.nan
        with pytest.raises(NumericError, match="non-finite logits"):
            model.generate_answers(Tensor(bad))


class TestAccumulationOrder:
    def test_a_stack_adds_item_by_item_onto_the_gradient(self):
        """1e16 + 1 + 1 keeps 1e16 (each 1 is half an ulp); 1e16 + (1 + 1) would not."""
        b = Tensor(np.zeros(3), requires_grad=True)
        b.grad = np.full(3, 1e16)
        ag.add(np.zeros((2, 1, 3)), b).backward()
        assert np.array_equal(b.grad, np.full(3, 1e16))
        assert 1e16 + (1.0 + 1.0) != 1e16

    def test_items_reduce_their_broadcast_axes_alone(self):
        g = np.random.default_rng(0).normal(0.0, 1.0, (3, 5, 4)) * np.array([1.0, 1e-8, 1e8, 1.0])
        b = Tensor(np.zeros(4), requires_grad=True)
        b.grad = np.full(4, 0.3)
        want = np.full(4, 0.3)
        for item in g:
            want += item.sum(axis=0)
        out = ag.mul(ag.add(np.zeros((3, 5, 4)), b), g)
        ag.sum_axis(out).backward()
        assert np.array_equal(b.grad, want)

    def test_stacked_weight_gradient_is_summed_per_item(self):
        rng = np.random.default_rng(1)
        x, w, bias = rng.normal(0.0, 1.0, (4, 6, 5)), Tensor(rng.normal(0.0, 1.0, (5, 3)), requires_grad=True), \
            Tensor(np.zeros(3), requires_grad=True)
        g = rng.normal(0.0, 1.0, (4, 6, 3))
        ag.sum_axis(ag.mul(ag.linear(x, w, bias), g)).backward()
        want_w, want_b = np.zeros((5, 3)), np.zeros(3)
        for x_i, g_i in zip(x, g):
            want_w += x_i.T @ g_i
            want_b += g_i.sum(axis=0)
        assert np.array_equal(w.grad, want_w) and np.array_equal(bias.grad, want_b)


class TestLeanGraph:
    @pytest.mark.parametrize("shape", [(6, 5), (3, 6, 5)])
    def test_linear_equals_matmul_then_add(self, shape):
        rng = np.random.default_rng(2)

        def run(fused):
            x = Tensor(rng.normal(0.0, 1.0, shape), requires_grad=True)
            w = Tensor(np.linspace(-1.0, 1.0, 15).reshape(5, 3), requires_grad=True)
            b = Tensor(np.array([0.1, -0.2, 0.3]), requires_grad=True)
            out = ag.linear(x, w, b) if fused else ag.add(ag.matmul(x, w), b)
            ag.sum_axis(ag.mul(out, out)).backward()
            return out.data, x.grad, w.grad, b.grad

        state = rng.bit_generator.state
        fused = run(True)
        rng.bit_generator.state = state
        for got, want in zip(fused, run(False)):
            assert np.array_equal(got, want)

    def test_backward_drops_interior_gradients_and_keeps_leaves(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        hidden = ag.mul(a, a)
        out = ag.sum_axis(hidden)
        out.backward()
        assert hidden.grad is None and out.grad is None
        assert np.array_equal(a.grad, [2.0, 4.0])

    def test_no_gradient_product_for_a_constant(self):
        """The constant side's product g * b would be 0 * inf, an invalid operation; it must not run."""
        b = Tensor(np.array([np.inf, 1.0]), requires_grad=True)
        with np.errstate(invalid="ignore"):
            out = ag.sum_axis(ag.mul(ag.mul(np.ones(2), b), 0.0))
        with np.errstate(invalid="raise"):
            out.backward()
        assert np.array_equal(b.grad, [0.0, 0.0])

    def test_concat_along_an_inner_axis(self):
        a = Tensor(np.arange(6.0).reshape(2, 1, 3), requires_grad=True)
        b = Tensor(np.arange(12.0).reshape(2, 2, 3), requires_grad=True)
        out = ag.concat_rows([a, b], axis=-2)
        assert out.shape == (2, 3, 3)
        ag.sum_axis(ag.mul(out, np.arange(18.0).reshape(2, 3, 3))).backward()
        assert np.array_equal(a.grad, np.arange(18.0).reshape(2, 3, 3)[:, :1])
        assert np.array_equal(b.grad, np.arange(18.0).reshape(2, 3, 3)[:, 1:])

    def test_one_desk_stack_forward_and_backward_stays_under_24_mib(self):
        """Four 39-patch pages at the desk config: the graph, its backward and the parameter gradients (7 MiB)."""
        model = VqaModel(DESK_MODEL)
        grids = random_grids(STACK_ROWS // 39)
        tracemalloc.start()
        try:
            loss = model.vqa_loss(model.encode_grid(stack_grids(grids)), ["1234"] * len(grids))
            loss.backward()
            del loss
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestInPlaceOptimizers:
    @staticmethod
    def textbook_adam(params, grads_by_step, lr, weight_decay, beta1=0.9, beta2=0.999, eps=1e-8):
        m = {k: np.zeros_like(v) for k, v in params.items()}
        v2 = {k: np.zeros_like(v) for k, v in params.items()}
        for t, grads in enumerate(grads_by_step, start=1):
            for k in params:
                g = grads[k] / 3
                m[k] = beta1 * m[k] + (1 - beta1) * g
                v2[k] = beta2 * v2[k] + (1 - beta2) * g * g
                m_hat = m[k] / (1 - beta1**t)
                v_hat = v2[k] / (1 - beta2**t)
                params[k] *= 1.0 - lr * weight_decay
                params[k] -= lr * m_hat / (np.sqrt(v_hat) + eps)
        return params

    def test_adam_and_sgd_equal_the_textbook_formulas_after_20_steps(self):
        rng = np.random.default_rng(3)
        start = {"w": rng.normal(0.0, 1.0, (7, 5)), "b": rng.normal(0.0, 1.0, 5)}
        grads_by_step = [{k: rng.normal(0.0, 1.0, v.shape) for k, v in start.items()} for _ in range(20)]
        want = self.textbook_adam({k: v.copy() for k, v in start.items()}, grads_by_step, 1e-2, 0.01)
        want_sgd = {k: v.copy() for k, v in start.items()}
        for grads in grads_by_step:
            for k in want_sgd:
                want_sgd[k] *= 1.0 - 0.1 * 0.01
                want_sgd[k] -= 0.1 * grads[k] / 3
        for make, expected in ((lambda p: Adam(p, 1e-2, 0.01), want), (lambda p: Sgd(p, 0.1, 0.01), want_sgd)):
            params = {k: Tensor(v.copy(), requires_grad=True) for k, v in start.items()}
            opt = make(params)
            for grads in grads_by_step:
                for k, p in params.items():
                    p.grad = grads[k].copy()
                opt.step(3)
            for k in params:
                assert np.array_equal(params[k].data, expected[k]), k
