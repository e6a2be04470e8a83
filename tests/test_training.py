from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pixqa import training
from pixqa.autograd import Tensor
from pixqa.data import Dataset, Document, PageRef, SynthConfig, gen_synthetic, split
from pixqa.errors import ConfigError, DataError, NumericError
from pixqa.evaluate import encode_page, fuse_page, retrieve
from pixqa.model import ModelConfig, VqaModel
from pixqa.scorer import ScorerConfig, SelfAttentionScorer
from pixqa.training import (
    Adam,
    FrozenFeatureCache,
    Sgd,
    TrainConfig,
    mse_smoothed_loss,
    sample_negative,
    train_stage1,
    train_stage2,
    validation_page_accuracy,
)

TINY_MODEL = ModelConfig(
    d_model=16,
    n_heads=2,
    n_enc_layers=1,
    n_dec_layers=1,
    d_ff=32,
    patch_size=16,
    max_patches=64,
    max_answer_len=8,
    seed=0,
)

TINY_CORPUS = SynthConfig(
    n_documents=6,
    pages_per_doc=(2, 3),
    facts_per_page=2,
    questions_per_doc=2,
    key_alphabet="ABCDEFGH",
    key_len=3,
    value_alphabet="0123",
    value_len=2,
    page_width=208,
    page_height=32,
    seed=11,
)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    ds = gen_synthetic(TINY_CORPUS, out)
    train, valid, _ = split(ds, (0.5, 0.5, 0.0), seed=1)
    return train, valid


def without_time(records: list[dict]) -> list[dict]:
    """Training records without their wall time, which no two runs share."""
    return [{k: v for k, v in rec.items() if k != "epoch_s"} for rec in records]


def fake_doc(n_pages: int) -> Document:
    refs = tuple(PageRef(f"p{k}", Path(f"/x/p{k}.pgm")) for k in range(n_pages))
    return Document(doc_id="d", pages=refs)


class TestConfig:
    def test_patience_validated(self):
        with pytest.raises(ConfigError):
            TrainConfig(early_stop_patience=0)

    def test_eps_must_keep_targets_ordered(self):
        with pytest.raises(ConfigError):
            TrainConfig(label_smooth_eps=0.5)

    def test_stage_validated(self):
        with pytest.raises(ConfigError):
            TrainConfig(stage=3)

    @pytest.mark.parametrize("name", ["learning_rate", "weight_decay"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rates_must_be_finite(self, name, value):
        with pytest.raises(ConfigError, match=name):
            TrainConfig(**{name: value})


class TestMseSmoothedLoss:
    def test_positive_at_smoothed_target(self):
        assert mse_smoothed_loss(Tensor(np.array(0.9)), True, 0.1).data == pytest.approx(0.0, abs=1e-15)

    def test_positive_off_target(self):
        assert mse_smoothed_loss(Tensor(np.array(0.5)), True, 0.1).data == pytest.approx(0.16, abs=1e-12)

    def test_negative_at_smoothed_target(self):
        assert mse_smoothed_loss(Tensor(np.array(0.1)), False, 0.1).data == pytest.approx(0.0, abs=1e-15)

    def test_tensor_input_returns_tensor(self):
        out = mse_smoothed_loss(Tensor(np.array(0.5)), True, 0.1)
        assert isinstance(out, Tensor)
        assert float(out.data) == pytest.approx(0.16, abs=1e-12)

    def test_stack_loss_and_gradient_are_exact(self):
        # d * d and 2 * d, bit for bit: stage-2 curves rest on this, and the stacked-training reference shares the loss.
        rng = np.random.default_rng(4)
        pred = Tensor(rng.random(7), requires_grad=True)
        is_positive = rng.random(7) < 0.5
        d = pred.data + (-np.where(is_positive, 1.0 - 0.1, 0.1))
        loss = mse_smoothed_loss(pred, is_positive, 0.1)
        assert np.array_equal(loss.data, d * d)
        loss.backward()
        assert np.array_equal(pred.grad, 2 * d)


class TestSampleNegative:
    def test_two_page_forced_choice(self):
        rng = np.random.default_rng(0)
        assert sample_negative(fake_doc(2), 0, rng) == 1
        assert sample_negative(fake_doc(2), 1, rng) == 0

    def test_single_page_gives_none(self):
        assert sample_negative(fake_doc(1), 0, np.random.default_rng(0)) is None

    def test_uniform_over_non_positive(self):
        rng = np.random.default_rng(42)
        counts = {0: 0, 1: 0, 3: 0, 4: 0}
        n = 10_000
        for _ in range(n):
            idx = sample_negative(fake_doc(5), 2, rng)
            assert idx != 2
            counts[idx] += 1
        for k, c in counts.items():
            assert abs(c / n - 0.25) < 0.02, (k, c)

    def test_deterministic_given_seed(self):
        a = [sample_negative(fake_doc(7), 3, np.random.default_rng(5)) for _ in range(1)]
        b = [sample_negative(fake_doc(7), 3, np.random.default_rng(5)) for _ in range(1)]
        assert a == b


class TestOptimizers:
    def test_sgd_step_is_mean_gradient(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        p.grad = np.array([4.0, -2.0])
        Sgd({"p": p}, lr=0.5, weight_decay=0.0).step(accumulated=2)
        assert np.allclose(p.data, [1.0 - 0.5 * 2.0, 2.0 + 0.5 * 1.0])
        assert p.grad is None

    def test_weight_decay_shrinks_parameters(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([0.0])
        Sgd({"p": p}, lr=0.1, weight_decay=0.5).step(1)
        assert p.data[0] == pytest.approx(1.0 * (1 - 0.05))

    def test_adam_decoupled_decay_and_step(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([1.0])
        Adam({"p": p}, lr=0.1, weight_decay=0.0).step(1)
        # bias-corrected first step moves by ~lr regardless of gradient scale
        assert p.data[0] == pytest.approx(1.0 - 0.1, abs=1e-6)


class TestStage1:
    def test_empty_training_set_rejected(self, corpus):
        train, valid = corpus
        empty = type(train)(split="train", questions=[], documents={})
        with pytest.raises(DataError, match="training split"):
            train_stage1(empty, valid, VqaModel(TINY_MODEL), TrainConfig(stage=1, max_epochs=1))

    def test_empty_validation_set_rejected_before_training(self, corpus):
        # It used to train, log valid_anls NaN every epoch, and restore the untrained weights.
        train, _ = corpus
        model = VqaModel(TINY_MODEL)
        before = {k: p.data.copy() for k, p in model.params.items()}
        empty = replace(train, split="valid", questions=[])
        with pytest.raises(DataError, match="validation split"):
            train_stage1(train, empty, model, TrainConfig(stage=1, max_epochs=1))
        assert all((p.data == before[k]).all() for k, p in model.params.items())

    def test_wrong_stage_rejected(self, corpus):
        train, valid = corpus
        with pytest.raises(ConfigError):
            train_stage1(train, valid, VqaModel(TINY_MODEL), TrainConfig(stage=2))

    @pytest.mark.parametrize(
        "answer, problem",
        [("12x4", "outside the vocabulary"), ("1" * (TINY_MODEL.max_answer_len + 1), "max_answer_len")],
    )
    def test_bad_answer_rejected_before_training(self, corpus, answer, problem):
        train, valid = corpus
        bad = replace(train.questions[-1], answers=(answer,))
        train = replace(train, questions=[*train.questions[:-1], bad])
        model = VqaModel(replace(TINY_MODEL, vocab_chars="0123456789"))
        before = {k: p.data.copy() for k, p in model.params.items()}
        with pytest.raises(DataError, match=problem) as info:
            train_stage1(train, valid, model, TrainConfig(stage=1, max_epochs=1))
        assert str(bad.question_id) in str(info.value)
        assert all((p.data == before[k]).all() for k, p in model.params.items())

    def test_single_sample_memorization(self, tmp_path):
        cfg = SynthConfig(
            n_documents=1, pages_per_doc=(1, 1), facts_per_page=1, questions_per_doc=1,
            key_alphabet="ABCDEFGH", key_len=3, value_alphabet="01", value_len=2,
            page_width=208, page_height=16, seed=3,
        )
        ds = gen_synthetic(cfg, tmp_path)
        model = VqaModel(TINY_MODEL)
        hist = train_stage1(
            ds, ds, model,
            TrainConfig(stage=1, learning_rate=3e-3, batch_size=1, max_epochs=10,
                        early_stop_patience=10, optimizer="adam", seed=0),
        )
        assert hist.records[-1]["train_loss"] < hist.records[0]["train_loss"]

    def test_early_stop_at_patience(self, corpus):
        train, valid = corpus
        model = VqaModel(TINY_MODEL)
        # lr tiny enough that validation never improves after epoch 1
        hist = train_stage1(
            train, valid, model,
            TrainConfig(stage=1, learning_rate=1e-12, batch_size=4, max_epochs=10, early_stop_patience=1),
        )
        assert len(hist.records) == 2  # epoch 1 sets the baseline, epoch 2 stops
        assert hist.best_epoch == 1

    def test_never_runs_past_best_plus_patience(self, corpus):
        train, valid = corpus
        model = VqaModel(TINY_MODEL)
        patience = 2
        hist = train_stage1(
            train, valid, model,
            TrainConfig(stage=1, learning_rate=1e-10, batch_size=4, max_epochs=30, early_stop_patience=patience),
        )
        assert len(hist.records) <= hist.best_epoch + patience

    def test_reproducible_histories(self, corpus):
        train, valid = corpus
        cfg = TrainConfig(stage=1, learning_rate=0.01, batch_size=4, max_epochs=2, early_stop_patience=5, seed=9)
        m1, m2 = VqaModel(TINY_MODEL), VqaModel(TINY_MODEL)
        h1 = train_stage1(train, valid, m1, cfg)
        h2 = train_stage1(train, valid, m2, cfg)
        assert without_time(h1.records) == without_time(h2.records)
        for name in m1.params:
            assert (m1.params[name].data == m2.params[name].data).all()


class TestStage2:
    @pytest.fixture(scope="class")
    def trained(self, corpus):
        train, valid = corpus
        model = VqaModel(TINY_MODEL)
        scorer = SelfAttentionScorer(ScorerConfig(n_heads=2, dropout_p=0.1), d_model=16, seed=4)
        before = {k: p.data.copy() for k, p in model.params.items()}
        hist = train_stage2(
            train, valid, model, scorer,
            TrainConfig(stage=2, learning_rate=0.01, batch_size=4, max_epochs=3, early_stop_patience=5, seed=2),
        )
        return model, scorer, hist, before

    def test_freeze_invariant_bitwise(self, trained):
        model, _, _, before = trained
        for name, p in model.params.items():
            assert p.data.tobytes() == before[name].tobytes(), name

    def test_pair_balance_counts(self, corpus, trained):
        train, _, = corpus[0], corpus[1]
        _, _, hist, _ = trained
        multi = sum(1 for q in corpus[0].questions if corpus[0].document_for(q).n_pages >= 2)
        for rec in hist.records:
            assert rec["n_pos_pairs"] == len(corpus[0].questions)
            assert rec["n_neg_pairs"] == multi

    def test_history_schema(self, trained):
        _, _, hist, _ = trained
        for rec in hist.records:
            assert {"epoch", "train_loss", "valid_page_acc", "n_pos_pairs", "n_neg_pairs"} <= set(rec)

    def test_wrong_stage_rejected(self, corpus):
        train, valid = corpus
        model = VqaModel(TINY_MODEL)
        scorer = SelfAttentionScorer(ScorerConfig(n_heads=2), d_model=16)
        with pytest.raises(ConfigError):
            train_stage2(train, valid, model, scorer, TrainConfig(stage=1))

    @pytest.mark.parametrize("empty_split", ["training", "validation"])
    def test_empty_split_rejected_before_training(self, corpus, empty_split):
        # An empty validation split used to end in ZeroDivisionError after the first epoch.
        train, valid = corpus
        if empty_split == "training":
            train = replace(train, questions=[])
        else:
            valid = replace(valid, questions=[])
        scorer = SelfAttentionScorer(ScorerConfig(n_heads=2), d_model=16)
        before = {k: p.data.copy() for k, p in scorer.params.items()}
        with pytest.raises(DataError, match=f"{empty_split} split"):
            train_stage2(train, valid, VqaModel(TINY_MODEL), scorer, TrainConfig(stage=2, max_epochs=1))
        assert all((p.data == before[k]).all() for k, p in scorer.params.items())

    def test_separable_single_question(self, tmp_path):
        cfg = SynthConfig(
            n_documents=1, pages_per_doc=(2, 2), facts_per_page=1, questions_per_doc=1,
            key_alphabet="ABCDEFGH", key_len=3, value_alphabet="01", value_len=2,
            page_width=208, page_height=16, seed=5,
        )
        ds = gen_synthetic(cfg, tmp_path)
        model = VqaModel(TINY_MODEL)
        scorer = SelfAttentionScorer(ScorerConfig(n_heads=2, dropout_p=0.0), d_model=16, seed=8)
        train_stage2(
            ds, ds, model, scorer,
            TrainConfig(stage=2, learning_rate=0.05, batch_size=1, max_epochs=30,
                        early_stop_patience=30, optimizer="adam", seed=0),
        )
        q = ds.questions[0]
        doc = ds.document_for(q)
        _, _, scores = retrieve((encode_page(q.question, doc, i, model) for i in range(doc.n_pages)), scorer)
        pos = scores[q.answer_page_index]
        neg = scores[1 - q.answer_page_index]
        assert pos > neg

    @pytest.fixture(scope="class")
    def mixed_valid(self, corpus, tmp_path_factory):
        """The validation split plus a one-page document and a document whose pages come in two grid shapes."""
        _, valid = corpus
        short = gen_synthetic(replace(TINY_CORPUS, n_documents=1, facts_per_page=1, page_height=16, seed=12),
                              tmp_path_factory.mktemp("short"))
        sample = valid.questions[0]
        doc = valid.document_for(sample)
        documents = {"single": Document("single", (doc.pages[sample.answer_page_index],)),
                     "mixed": Document("mixed", doc.pages + next(iter(short.documents.values())).pages)}
        questions = [*valid.questions, replace(sample, question_id="single", doc_id="single", answer_page_index=0),
                     replace(sample, question_id="mixed", doc_id="mixed")]
        return Dataset("valid", questions, {**valid.documents, **documents})

    @pytest.mark.parametrize("agg", ["first", "cls", "avgpool"])
    def test_cached_validation_matches_direct_encoding(self, mixed_valid, monkeypatch, agg):
        """Each score of stacked validation is the one `retrieve` gives the page encoded alone, and so is each pick."""
        model = VqaModel(TINY_MODEL)
        mixed = mixed_valid.documents["mixed"]
        assert len({fuse_page("q", mixed, i, model).rows for i in range(mixed.n_pages)}) == 2
        scorer = SelfAttentionScorer(ScorerConfig(n_sa_layers=2, n_heads=2, aggregation=agg), d_model=16, seed=4)
        got, stacks = [], []
        score = SelfAttentionScorer.score

        def recorded(self, feature, training=False, keep=None):
            out = score(self, feature, training, keep)
            got.extend(out.data.tolist())
            stacks.append(feature.shape[0])
            return out

        monkeypatch.setattr(SelfAttentionScorer, "score", recorded)
        cached = validation_page_accuracy(mixed_valid, scorer, FrozenFeatureCache(model))
        monkeypatch.undo()
        hits, want = 0, []
        for q in mixed_valid.questions:
            doc = mixed_valid.document_for(q)
            best, _, scores = retrieve((encode_page(q.question, doc, i, model) for i in range(doc.n_pages)), scorer)
            hits += best == q.answer_page_index
            want += scores
        assert got == want  # bit for bit, the one-page document's page included
        assert max(stacks) > 1 and len(stacks) < len(want)
        assert cached == 100.0 * hits / len(mixed_valid.questions)

    def test_cache_keeps_apart_corpora_whose_ids_clash(self, tmp_path):
        """Corpora generated apart number their questions and documents alike; each still gets its own features."""
        model = VqaModel(TINY_MODEL)
        cache = FrozenFeatureCache(model)
        corpora = [gen_synthetic(replace(TINY_CORPUS, n_documents=1, seed=seed), tmp_path / str(seed)) for seed in (1, 2)]
        assert len({(ds.questions[0].question_id, ds.questions[0].doc_id) for ds in corpora}) == 1
        for ds in corpora:
            q = ds.questions[0]
            doc = ds.document_for(q)
            want = encode_page(q.question, doc, 0, model).data
            assert np.array_equal(cache.get(q, doc, 0).data, want)
            assert np.array_equal(cache.question_pages(q, doc)[0].data, want)

    def test_non_finite_validation_score_names_the_page(self, corpus):
        _, valid = corpus
        scorer = SelfAttentionScorer(ScorerConfig(n_heads=2), d_model=16, seed=4)
        scorer.params["head.b3"].data[:] = np.nan
        with pytest.raises(NumericError, match=f"question {valid.questions[0].question_id}: page 0 scored nan"):
            validation_page_accuracy(valid, scorer, FrozenFeatureCache(VqaModel(TINY_MODEL)))

    def test_reproducible(self, corpus):
        train, valid = corpus
        cfg = TrainConfig(stage=2, learning_rate=0.01, batch_size=4, max_epochs=2, early_stop_patience=5, seed=13)
        results = []
        for _ in range(2):
            model = VqaModel(TINY_MODEL)
            scorer = SelfAttentionScorer(ScorerConfig(n_heads=2, dropout_p=0.1), d_model=16, seed=6)
            hist = train_stage2(train, valid, model, scorer, cfg)
            results.append((hist.records, {k: p.data.copy() for k, p in scorer.params.items()}))
        assert without_time(results[0][0]) == without_time(results[1][0])
        for name in results[0][1]:
            assert (results[0][1][name] == results[1][1][name]).all()


# Validation metric per epoch: new bests at epochs 1, 2 and 4; epoch 5 only ties the best.
METRICS = [0.2, 0.5, 0.4, 0.7, 0.7, 0.6, 0.1, 0.9]
PATIENCE = 3


@pytest.mark.parametrize("stage", [1, 2])
def test_best_epoch_policy(corpus, monkeypatch, stage):
    """`on_best` fires at each new best, training stops `patience` epochs after it, and the best epoch's parameters stay."""
    train, valid = corpus
    model = VqaModel(TINY_MODEL)
    scorer = SelfAttentionScorer(ScorerConfig(n_heads=2), d_model=16, seed=3)
    params = model.params if stage == 1 else scorer.params
    metrics = iter(METRICS)
    validated = []  # the parameters each validation saw

    def validate(*args, **kwargs):
        validated.append({k: p.data.copy() for k, p in params.items()})
        return next(metrics)

    monkeypatch.setattr(training, "validation_anls" if stage == 1 else "validation_page_accuracy", validate)
    best_epochs, best_params = [], {}

    def on_best(epoch):
        best_epochs.append(epoch)
        best_params.update({k: p.data.copy() for k, p in params.items()})

    cfg = TrainConfig(stage=stage, learning_rate=1e-3, optimizer="adam", batch_size=4, max_epochs=len(METRICS),
                      early_stop_patience=PATIENCE)
    if stage == 1:
        hist = train_stage1(train, valid, model, cfg, on_best=on_best)
    else:
        hist = train_stage2(train, valid, model, scorer, cfg, on_best=on_best)
    assert best_epochs == [1, 2, 4]
    assert (hist.best_epoch, hist.best_metric) == (4, 0.7)
    assert len(hist.records) == len(validated) == 4 + PATIENCE
    assert [rec["epoch"] for rec in hist.records] == list(range(1, 4 + PATIENCE + 1))
    for name, p in params.items():
        assert np.array_equal(p.data, best_params[name]), name
        assert np.array_equal(p.data, validated[3][name]), name
    assert not all(np.array_equal(params[name].data, validated[-1][name]) for name in params)  # restore undid epochs 5-7
