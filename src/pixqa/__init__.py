"""OCR-free multi-page document VQA with self-attention page scoring."""

from .data import Dataset, Document, QASample, SynthConfig, gen_synthetic, load_mpdocvqa, split
from .evaluate import (
    anls_single,
    answer_question,
    encode_page,
    levenshtein,
    page_features,
    retrieve,
)
from .model import ModelConfig, VqaModel
from .render import PatchGrid, RasterImage, concat_question_page, patchify, render_text, resize_to_patch_budget
from .scorer import ScorerConfig, SelfAttentionScorer
from .training import TrainConfig, mse_smoothed_loss, sample_negative, train_stage1, train_stage2

__version__ = "0.1.0"
