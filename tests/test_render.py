import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pixqa import font
from pixqa.errors import ConfigError
from pixqa.render import (
    PatchGrid,
    RasterImage,
    blank_image,
    concat_question_page,
    fuse_question_page,
    patchify,
    question_strip,
    render_text,
    resize_to_patch_budget,
    stack_grids,
)


def grid_cells(w: int, h: int, p: int) -> int:
    return math.ceil(w / p) * math.ceil(h / p)


class TestFont:
    PRINTABLE = [chr(code) for code in range(32, 127)]

    def test_all_printable_covered(self):
        fallback = font.glyph(chr(0xE9))
        for ch in self.PRINTABLE:
            assert font.glyph(ch) is not fallback
            assert font.glyph(ch).shape == (font.GLYPH_HEIGHT, font.GLYPH_WIDTH)

    def test_glyphs_distinct(self):
        rendered = {font.glyph(ch).tobytes() for ch in self.PRINTABLE}
        assert len(rendered) == len(self.PRINTABLE)

    def test_fallback_for_unmapped(self):
        fallback = font.glyph(chr(0xE9))
        assert font.glyph("\n") is fallback
        assert fallback.any()
        assert fallback.tobytes() not in {font.glyph(ch).tobytes() for ch in self.PRINTABLE}

    def test_glyphs_are_read_only(self):
        for ch in [*self.PRINTABLE, chr(0xE9)]:
            with pytest.raises(ValueError):
                font.glyph(ch)[0, 0] = True


class TestRenderText:
    def test_empty_text_is_one_blank_line(self):
        img = render_text("", line_width=256)
        assert (img.width, img.height) == (256, 16)
        assert (img.pixels == 255).all()

    def test_single_glyph_at_origin(self):
        img = render_text("A", line_width=256)
        mask = font.glyph("A")
        assert (img.pixels[:16, :8] == np.where(mask, 0, 255)).all()
        assert (img.pixels[:, 8:] == 255).all()

    def test_line_wrap_count(self):
        # 64 glyphs * 8 px = 512 px of ink > 256 px line -> ceil(512/256) = 2 lines
        img = render_text("x" * 64, line_width=256)
        assert img.height == 2 * 16

    @pytest.mark.parametrize("n_chars,width,lines", [(1, 64, 1), (8, 64, 1), (9, 64, 2), (33, 64, 5)])
    def test_wrap_arithmetic(self, n_chars, width, lines):
        # oracle: glyphs per line = width // glyph_width, lines = ceil(n / per_line)
        per_line = width // 8
        assert lines == math.ceil(n_chars / per_line)
        assert render_text("k" * n_chars, line_width=width).height == lines * 16

    def test_deterministic(self):
        a = render_text("What is the value of XQJZ?", line_width=224)
        b = render_text("What is the value of XQJZ?", line_width=224)
        assert (a.pixels == b.pixels).all()

    def test_narrow_line_width_rejected(self):
        with pytest.raises(ConfigError):
            render_text("a", line_width=4)


class TestConcat:
    def test_equal_widths_stack(self):
        q = RasterImage(np.zeros((32, 100), dtype=np.uint8))
        p = blank_image(100, 200)
        out = concat_question_page(q, p)
        assert (out.width, out.height) == (100, 232)
        assert (out.pixels[:32] == 0).all()
        assert (out.pixels[32:] == 255).all()

    def test_narrow_question_padded_white(self):
        q = RasterImage(np.zeros((32, 80), dtype=np.uint8))
        p = blank_image(100, 200)
        out = concat_question_page(q, p)
        assert (out.width, out.height) == (100, 232)
        assert (out.pixels[:32, 80:] == 255).all()
        assert (out.pixels[:32, :80] == 0).all()

    def test_white_page_stays_white_below_strip(self):
        q = render_text("what?", line_width=64)
        out = concat_question_page(q, blank_image(64, 48))
        assert (out.pixels[16:] == 255).all()

    def test_height_is_exact_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            qh, ph = int(rng.integers(1, 60)), int(rng.integers(1, 60))
            q = blank_image(int(rng.integers(1, 60)), qh)
            p = blank_image(int(rng.integers(1, 60)), ph)
            assert concat_question_page(q, p).height == qh + ph


def exhaustive_best_width(w: int, h: int, p: int, budget: int) -> tuple[int, int]:
    """Independent oracle: try every output width, keep the largest that fits."""
    best = None
    for out_w in range(1, w + p + 1):
        out_h = max(1, math.floor(out_w * h / w + 0.5))
        if grid_cells(out_w, out_h, p) <= budget:
            best = (out_w, out_h)
    assert best is not None
    return best


class TestResize:
    def test_within_budget_unchanged(self):
        img = blank_image(160, 160)
        assert resize_to_patch_budget(img, 16, 2048) is img

    def test_ceil_overshoot_case(self):
        # naive continuous scale sqrt(4/8) would give 45x22 -> 6 cells > 4
        out = resize_to_patch_budget(blank_image(64, 32), 16, 4)
        assert (out.width, out.height) == (32, 16)
        assert (out.width, out.height) == exhaustive_best_width(64, 32, 16, 4)

    def test_large_square(self):
        out = resize_to_patch_budget(blank_image(1024, 1024), 16, 2048)
        assert grid_cells(out.width, out.height, 16) <= 2048
        assert abs(out.width / out.height - 1.0) <= 2 / min(out.width, out.height)
        assert (out.width, out.height) == exhaustive_best_width(1024, 1024, 16, 2048)

    @pytest.mark.parametrize("w,h,budget", [(300, 40, 9), (37, 123, 5), (640, 480, 100), (2000, 10, 3)])
    def test_matches_exhaustive_search(self, w, h, budget):
        out = resize_to_patch_budget(blank_image(w, h), 16, budget)
        if grid_cells(w, h, 16) <= budget:
            assert (out.width, out.height) == (w, h)
        else:
            assert (out.width, out.height) == exhaustive_best_width(w, h, 16, budget)

    def test_degenerate_dimension_clamped(self):
        out = resize_to_patch_budget(blank_image(10000, 2), 16, 1)
        assert out.width >= 1 and out.height >= 1
        assert grid_cells(out.width, out.height, 16) <= 1

    def test_budget_validation(self):
        with pytest.raises(ConfigError):
            resize_to_patch_budget(blank_image(8, 8), 16, 0)

    @given(
        w=st.integers(min_value=1, max_value=2500),
        h=st.integers(min_value=1, max_value=2500),
        budget=st.integers(min_value=1, max_value=256),
    )
    @settings(max_examples=200, deadline=None)
    def test_budget_never_exceeded(self, w, h, budget):
        out = resize_to_patch_budget(blank_image(w, h), 16, budget)
        assert patchify(out, 16).n_patches <= budget


class TestPatchify:
    def test_exact_tiling(self):
        g = patchify(blank_image(32, 32), 16)
        assert (g.rows, g.cols, g.n_patches) == (2, 2, 4)
        assert g.patches.shape == (1, 4, 256)

    def test_padding_is_white(self):
        img = RasterImage(np.zeros((17, 33), dtype=np.uint8))
        g = patchify(img, 16)
        assert (g.rows, g.cols) == (2, 3)
        # bottom-right patch is padding except one dark pixel
        corner = g.patches[0, -1].reshape(16, 16)
        assert corner[0, 0] == 0.0
        assert (corner[1:, :] == 1.0).all() and (corner[0, 1:] == 1.0).all()

    def test_constant_image_gives_identical_patches(self):
        img = RasterImage(np.full((48, 64), 77, dtype=np.uint8))
        g = patchify(img, 16)
        assert np.ptp(g.patches[0], axis=0).max() == 0.0

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(3)
        img = RasterImage(rng.integers(0, 256, size=(50, 70), dtype=np.uint8))
        g = patchify(img, 16)
        assert g.patches.min() >= 0.0 and g.patches.max() <= 1.0

    def test_row_major_order(self):
        px = np.arange(32 * 48, dtype=np.uint64).reshape(32, 48) % 251
        g = patchify(RasterImage(px.astype(np.uint8)), 16)
        manual_patch_1_0 = px[16:32, 0:16].astype(np.float64) / 255.0
        assert np.allclose(g.patches[0, 1 * 3 + 0].reshape(16, 16), manual_patch_1_0)


class TestFuse:
    def test_grid_within_budget_and_aligned(self):
        page = blank_image(224, 48)
        g = fuse_question_page("what is the value of ABCD?", page, 16, 2048)
        assert (g.rows, g.cols) == (4, 14)

    def test_question_strip_on_top(self):
        page = blank_image(64, 16)
        g = fuse_question_page("??", page, 16, 2048)
        strip = g.patches[0, : g.cols]
        assert strip.min() < 1.0  # ink in the question row
        assert (g.patches[0, g.cols :] == 1.0).all()  # blank page below

    @pytest.mark.parametrize("question, width", [("what is ABC?", 208), ("what is ABC?", 96), ("what is ABD?", 96)])
    def test_grids_equal_the_uncached_composition(self, question, width):
        rng = np.random.default_rng(width)
        page = RasterImage(rng.integers(0, 256, (32, width), dtype=np.uint8))
        expected = patchify(resize_to_patch_budget(concat_question_page(render_text(question, line_width=width), page),
                                                   16, 2048), 16)
        for _ in range(2):
            g = fuse_question_page(question, page, 16, 2048)
            assert (g.rows, g.cols) == (expected.rows, expected.cols)
            assert np.array_equal(g.patches, expected.patches)

    def test_strip_is_rendered_once_per_question_and_width(self):
        strip = question_strip("what is ABC?", 208)
        assert question_strip("what is ABC?", 208) is strip
        assert not strip.pixels.flags.writeable
        with pytest.raises(ValueError):
            strip.pixels[0, 0] = 0
        assert np.array_equal(strip.pixels, render_text("what is ABC?", 208).pixels)
        assert question_strip("what is ABC?", 96) is not strip
        assert question_strip("what is ABD?", 208) is not strip


class TestStackGrids:
    def test_stack_keeps_pages_in_order(self):
        grids = [patchify(RasterImage(np.full((32, 48), 40 * i, dtype=np.uint8)), 16) for i in range(3)]
        stacked = stack_grids(grids)
        assert (stacked.rows, stacked.cols, stacked.n_patches) == (2, 3, 6)
        assert stacked.patches.shape == (3, 6, 256)
        assert all(np.array_equal(stacked.patches[i : i + 1], g.patches) for i, g in enumerate(grids))

    def test_stacking_stacks_keeps_page_order(self):
        grids = [patchify(RasterImage(np.full((32, 48), 40 * i, dtype=np.uint8)), 16) for i in range(5)]
        stacked = stack_grids([stack_grids(grids[:2]), grids[2], stack_grids(grids[3:])])
        assert stacked.patches.shape == (5, 6, 256)
        assert all(np.array_equal(stacked.patches[i : i + 1], g.patches) for i, g in enumerate(grids))

    def test_a_lone_grid_is_returned_as_it_is(self):
        grid = patchify(blank_image(48, 32), 16)
        assert stack_grids([grid]) is grid

    def test_pages_of_different_shapes_are_rejected(self):
        a = patchify(blank_image(48, 32), 16)
        with pytest.raises(ValueError, match="same rows, cols"):
            stack_grids([a, patchify(blank_image(64, 32), 16)])

    def test_a_grid_is_a_stack(self):
        page = patchify(blank_image(48, 32), 16).patches[0]
        with pytest.raises(ValueError, match="pages"):
            PatchGrid(2, 3, 16, page)
