"""Question rasterization and the image-to-patches front end.

The pipeline is: render the question to pixels, stack it on top of the page
image, shrink the fused image until it fits the patch budget, then cut it
into fixed-size normalized patches. All functions are pure; images are
8-bit grayscale with 0 = black ink and 255 = white background.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .font import GLYPH_HEIGHT, GLYPH_WIDTH, glyph

WHITE = 255


@dataclass(frozen=True)
class RasterImage:
    """Row-major 8-bit grayscale image."""

    pixels: np.ndarray

    def __post_init__(self):
        px = self.pixels
        if px.ndim != 2 or px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError(f"image must be 2-D and non-empty, got shape {px.shape}")
        if px.dtype != np.uint8:
            raise ValueError(f"image dtype must be uint8, got {px.dtype}")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True)
class PatchGrid:
    """A stack of page images, each cut into patch_size x patch_size tiles, row-major.

    Patch values are intensities divided by 255, so they lie in [0, 1].
    ``patchify`` makes a stack of one page; ``stack_grids`` joins stacks of
    one grid shape. ``n_patches`` counts one page's patches.
    """

    rows: int
    cols: int
    patch_size: int
    patches: np.ndarray  # (pages, rows * cols, patch_size**2) float64

    def __post_init__(self):
        expected = (self.rows * self.cols, self.patch_size**2)
        if self.patches.ndim != 3 or self.patches.shape[1:] != expected:
            raise ValueError(f"patches shape {self.patches.shape} != (pages, {expected[0]}, {expected[1]})")

    @property
    def n_patches(self) -> int:
        return self.rows * self.cols

    def row_col_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-patch (row, col) indices in patch order."""
        idx = np.arange(self.n_patches)
        return idx // self.cols, idx % self.cols


def stack_grids(grids: Sequence[PatchGrid]) -> PatchGrid:
    """Stacks that share one grid shape as one stack, in page order; a lone grid is returned as it is, not copied."""
    first = grids[0]
    if any((g.rows, g.cols, g.patch_size) != (first.rows, first.cols, first.patch_size) for g in grids):
        raise ValueError("stacked grids must have the same rows, cols and patch size")
    if len(grids) == 1:
        return first
    return PatchGrid(first.rows, first.cols, first.patch_size, np.concatenate([g.patches for g in grids]))


def blank_image(width: int, height: int) -> RasterImage:
    return RasterImage(np.full((height, width), WHITE, dtype=np.uint8))


def render_text(text: str, line_width: int) -> RasterImage:
    """Rasterize text left-to-right in the builtin font, wrapping when a glyph would overflow.

    The output is always line_width wide; height is line_count * glyph
    height. Empty text yields a single blank line.
    """
    if line_width < GLYPH_WIDTH:
        raise ConfigError(f"line_width {line_width} < glyph width {GLYPH_WIDTH}")

    per_line = line_width // GLYPH_WIDTH
    lines = [text[i : i + per_line] for i in range(0, len(text), per_line)] or [""]

    canvas = np.full((len(lines) * GLYPH_HEIGHT, line_width), WHITE, dtype=np.uint8)
    for row, line in enumerate(lines):
        y = row * GLYPH_HEIGHT
        for col, ch in enumerate(line):
            x = col * GLYPH_WIDTH
            canvas[y : y + GLYPH_HEIGHT, x : x + GLYPH_WIDTH][glyph(ch)] = 0
    return RasterImage(canvas)


def concat_question_page(question_img: RasterImage, page_img: RasterImage) -> RasterImage:
    """Stack the question strip on top of the page, padding widths with white."""
    width = max(question_img.width, page_img.width)
    out = np.full((question_img.height + page_img.height, width), WHITE, dtype=np.uint8)
    out[: question_img.height, : question_img.width] = question_img.pixels
    out[question_img.height :, : page_img.width] = page_img.pixels
    return RasterImage(out)


def _grid_size(width: int, height: int, patch_size: int) -> int:
    return math.ceil(width / patch_size) * math.ceil(height / patch_size)


def _bilinear_resize(pixels: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    in_h, in_w = pixels.shape
    # Pixel-center sampling: dst center maps to src center.
    src = pixels.astype(np.float64)
    xs = (np.arange(out_w) + 0.5) * (in_w / out_w) - 0.5
    ys = (np.arange(out_h) + 0.5) * (in_h / out_h) - 0.5
    x0 = np.clip(np.floor(xs).astype(int), 0, in_w - 1)
    y0 = np.clip(np.floor(ys).astype(int), 0, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    y1 = np.minimum(y0 + 1, in_h - 1)
    wx = np.clip(xs - x0, 0.0, 1.0)
    wy = np.clip(ys - y0, 0.0, 1.0)

    top = src[y0][:, x0] * (1 - wx) + src[y0][:, x1] * wx
    bot = src[y1][:, x0] * (1 - wx) + src[y1][:, x1] * wx
    out = top * (1 - wy[:, None]) + bot * wy[:, None]
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def resize_to_patch_budget(img: RasterImage, patch_size: int, max_patches: int) -> RasterImage:
    """Uniformly shrink an image until its patch grid fits the budget.

    Images already within budget are returned unchanged. Otherwise the
    largest output width W' with H' = round(W' * H / W) whose grid fits is
    chosen; a naive continuous scale can overshoot because grid cells are
    counted with ceilings. A dimension that would collapse is clamped to 1.
    """
    if max_patches < 1:
        raise ConfigError(f"max_patches must be >= 1, got {max_patches}")
    w, h = img.width, img.height
    if _grid_size(w, h, patch_size) <= max_patches:
        return img

    def dims(out_w: int) -> tuple[int, int]:
        # Conventional half-up rounding; banker's rounding would let W'
        # creep past the aspect-true height on exact .5 boundaries.
        out_h = max(1, math.floor(out_w * h / w + 0.5))
        return max(1, out_w), out_h

    # Feasibility is monotone in W', so binary-search the largest fit.
    scale = math.sqrt(max_patches * patch_size**2 / (w * h))
    hi = min(w, int(w * scale) + patch_size)
    lo = 1
    if _grid_size(*dims(lo), patch_size) > max_patches:
        # Even a 1-pixel-wide strip overflows: the image is so tall that the
        # aspect ratio cannot survive. Clamp the height to the budget.
        return RasterImage(_bilinear_resize(img.pixels, 1, max_patches * patch_size))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _grid_size(*dims(mid), patch_size) <= max_patches:
            lo = mid
        else:
            hi = mid - 1
    out_w, out_h = dims(lo)
    return RasterImage(_bilinear_resize(img.pixels, out_w, out_h))


def patchify(img: RasterImage, patch_size: int) -> PatchGrid:
    """Pad with white to patch multiples, cut row-major, normalize to [0, 1]: a stack of one page."""
    pad_h = (-img.height) % patch_size
    pad_w = (-img.width) % patch_size
    px = np.pad(img.pixels, ((0, pad_h), (0, pad_w)), constant_values=WHITE)
    rows = px.shape[0] // patch_size
    cols = px.shape[1] // patch_size
    tiles = px.reshape(rows, patch_size, cols, patch_size).transpose(0, 2, 1, 3)
    patches = tiles.reshape(1, rows * cols, patch_size**2).astype(np.float64) / 255.0
    return PatchGrid(rows=rows, cols=cols, patch_size=patch_size, patches=patches)


@lru_cache(maxsize=8)
def question_strip(question: str, line_width: int) -> RasterImage:
    """``render_text(question, line_width)``, read-only and cached.

    The pages of one document share a question and usually a width, so the
    strip is rendered once per question and page width, not once per page.
    """
    strip = render_text(question, line_width)
    strip.pixels.setflags(write=False)
    return strip


def fuse_question_page(question: str, page_img: RasterImage, patch_size: int, max_patches: int) -> PatchGrid:
    """Full front end: render question at page width, stack, fit budget, patchify."""
    q_img = question_strip(question, max(page_img.width, GLYPH_WIDTH))
    fused = concat_question_page(q_img, page_img)
    fused = resize_to_patch_budget(fused, patch_size, max_patches)
    return patchify(fused, patch_size)
