import functools
import json
import mmap
import re
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lamp import (
    FormatError,
    MaskSpec,
    NormStats,
    SnapshotSet,
    ValidationError,
    normalize,
    read_dataset,
    read_model,
    train_attention_model,
    write_dataset,
    write_model,
)
from lamp import formats
from lamp.formats import (
    DATASET_MAGIC,
    MODEL_MAGIC,
    heatmap_rgb,
    masked_outline,
    model_nbytes,
    read_patch_map,
    write_csv,
    write_heatmap,
    write_manifest,
    write_patch_map,
    write_ppm,
)
from lamp.patches import PatchGrid
from oracles import outline_oracle


def _ppm_pixels(path) -> np.ndarray:
    """The (H, W, 3) pixels of a binary PPM written by ``write_ppm``."""
    magic, size, depth, pixels = Path(path).read_bytes().split(b"\n", 3)
    assert (magic, depth) == (b"P6", b"255")
    w, h = map(int, size.split())
    return np.frombuffer(pixels, np.uint8).reshape(h, w, 3)


def _written(write, obj) -> bytes:
    """The bytes ``write(obj, path)`` puts in a file, read back."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file"
        write(obj, path)
        return path.read_bytes()


@pytest.fixture()
def small_model():
    rng = np.random.default_rng(0)
    fields = SnapshotSet(rng.standard_normal((24, 8, 8, 2)))
    norm = normalize(fields, range(0, 24))
    return train_attention_model(norm, 4, 3)


class TestDatasetFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        fields = SnapshotSet(rng.standard_normal((5, 4, 6, 2)))
        path = tmp_path / "d.lampds"
        write_dataset(fields, path)
        back = read_dataset(path)
        np.testing.assert_array_equal(back.data, fields.data)
        assert back.norm_stats is None
        write_dataset(back, tmp_path / "d2.lampds")
        assert (tmp_path / "d.lampds").read_bytes() == (tmp_path / "d2.lampds").read_bytes()

    def test_round_trip_with_stats(self, tmp_path):
        rng = np.random.default_rng(2)
        fields = normalize(SnapshotSet(2 + rng.standard_normal((6, 4, 4, 2))), range(0, 6))
        path = tmp_path / "n.lampds"
        write_dataset(fields, path)
        back = read_dataset(path)
        np.testing.assert_array_equal(back.data, fields.data)
        np.testing.assert_array_equal(back.norm_stats.mean, fields.norm_stats.mean)
        np.testing.assert_array_equal(back.norm_stats.std, fields.norm_stats.std)

    def test_unknown_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.lampds"
        path.write_bytes(b"NOTLAMP0" + b"\0" * 64)
        with pytest.raises(FormatError, match="unknown magic"):
            read_dataset(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        fields = SnapshotSet(np.zeros((1, 2, 2, 1)))
        path = tmp_path / "t.lampds"
        path.write_bytes(_written(write_dataset, fields) + b"\0")
        with pytest.raises(FormatError, match="trailing"):
            read_dataset(path)

    def test_fewer_declared_snapshots_rejected(self, tmp_path):
        raw = bytearray(_written(write_dataset, SnapshotSet(np.zeros((3, 2, 2, 1)))))
        struct.pack_into("<I", raw, len(raw) - 5, 2)  # T, the trailer's fourth u32
        path = tmp_path / "t.lampds"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=": 32 trailing bytes$"):
            read_dataset(path)

    def test_truncated_rejected(self, tmp_path):
        fields = SnapshotSet(np.zeros((1, 2, 2, 1)))
        path = tmp_path / "t.lampds"
        path.write_bytes(_written(write_dataset, fields)[:-4])
        with pytest.raises(FormatError, match="truncated"):
            read_dataset(path)

    def test_bad_flag_rejected(self, tmp_path):
        fields = SnapshotSet(np.zeros((1, 2, 2, 1)))
        raw = bytearray(_written(write_dataset, fields))
        raw[-1] = 7  # normalized flag byte, the trailer's last
        path = tmp_path / "f.lampds"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="flag"):
            read_dataset(path)

    def test_zero_dims_rejected(self, tmp_path):
        raw = bytearray(_written(write_dataset, SnapshotSet(np.zeros((1, 2, 2, 1)))))
        raw[-17:-13] = (0).to_bytes(4, "little")  # H = 0, the trailer's first field
        path = tmp_path / "z.lampds"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="dimensions"):
            read_dataset(path)

    def test_non_finite_payload_rejected(self, tmp_path):
        import struct

        trailer = struct.pack("<4I", 1, 1, 1, 1) + struct.pack("<B", 0)
        path = tmp_path / "nan.lampds"
        path.write_bytes(DATASET_MAGIC + struct.pack("<d", float("nan")) + trailer)
        with pytest.raises(FormatError, match="NaN"):
            read_dataset(path)


class TestModelFormat:
    def test_round_trip_bit_exact(self, small_model, tmp_path):
        path = tmp_path / "m.lampmd"
        write_model(small_model, path)
        back = read_model(path)
        np.testing.assert_array_equal(back.pod.bases, small_model.pod.bases)
        np.testing.assert_array_equal(back.pod.singular_values, small_model.pod.singular_values)
        np.testing.assert_array_equal(back.value_maps, small_model.value_maps)
        np.testing.assert_array_equal(back.attn_vectors, small_model.attn_vectors)
        np.testing.assert_array_equal(back.attn_intercepts, small_model.attn_intercepts)
        np.testing.assert_array_equal(back.pair_losses, small_model.pair_losses)
        assert back.ridge_lambda is None  # auto policy survives the round trip
        assert back.error_floor == small_model.error_floor
        assert back.use_intercept == small_model.use_intercept
        write_model(back, tmp_path / "m2.lampmd")
        assert (tmp_path / "m.lampmd").read_bytes() == (tmp_path / "m2.lampmd").read_bytes()

    def test_explicit_ridge_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        fields = SnapshotSet(rng.standard_normal((20, 4, 4, 1)))
        norm = normalize(fields, range(0, 20))
        model = train_attention_model(norm, 2, 2, ridge_lambda=3.5e-7)
        path = tmp_path / "m.lampmd"
        write_model(model, path)
        assert read_model(path).ridge_lambda == 3.5e-7

    def test_unknown_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.lampmd"
        path.write_bytes(b"XXXXXXXX" + b"\0" * 64)
        with pytest.raises(FormatError, match="unknown magic"):
            read_model(path)

    def test_trailing_bytes_rejected(self, small_model, tmp_path):
        path = tmp_path / "t.lampmd"
        path.write_bytes(_written(write_model, small_model) + b"\0\0")
        with pytest.raises(FormatError, match="trailing"):
            read_model(path)

    @pytest.mark.parametrize(
        "magic, trailer, reader",
        [
            # 2**15 in each of H, W, C, T declares 2**60 values
            (DATASET_MAGIC, struct.pack("<4IB", *[2**15] * 4, 0), read_dataset),
            # H = W = 2**20 at P = 1 declares 2**40 patches
            (MODEL_MAGIC, struct.pack("<5IB2d", 2**20, 2**20, 1, 1, 1, 1, -1e-8, 1e-12),
             read_model),
        ],
        ids=["dataset", "model"],
    )
    def test_header_geometry_larger_than_file_rejected_before_allocation(self, tmp_path, magic,
                                                                         trailer, reader):
        path = tmp_path / "huge.bin"
        path.write_bytes(magic + bytes(48) + trailer)  # six f64 values between them
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="truncated"):
                reader(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize(
        "shape, patch_size, latent_dim",
        [
            ((12, 4, 4, 1), 2, 1),  # C = 1, N_e = 1, D = 4 <= T
            ((12, 4, 4, 1), 2, 4),  # N_e = D
            ((12, 4, 4, 2), 2, 8),  # C = 2, N_e = D = 8 <= T
            ((12, 8, 8, 2), 4, 1),  # D = 32 > T, N_e = 1
            ((12, 8, 8, 2), 4, 12),  # D > T, N_e = T
            ((12, 8, 12, 1), 4, 3),  # 2 x 3 patches
        ],
        ids=["C1-Ne1", "C1-Ne=D", "C2-Ne=D", "D>T-Ne1", "D>T-Ne=T", "non-square"],
    )
    def test_size_estimate_matches_serialization(self, shape, patch_size, latent_dim):
        model = train_attention_model(_standardized(shape, 9), patch_size, latent_dim)
        t, h, w, c = shape
        assert model_nbytes(h, w, c, patch_size, latent_dim) == len(_written(write_model, model))


class TestStreamedWrites:
    def test_model_write_holds_no_file_copy(self, tmp_path):
        # N = 64 patches at N_e = 8: a 2.6 MB file, mostly the N^2 value maps.
        model = train_attention_model(_standardized((40, 32, 32, 2), 7), 4, 8)
        path = tmp_path / "m.lampmd"
        tracemalloc.start()
        try:
            write_model(model, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * path.stat().st_size

    @pytest.mark.parametrize("fmt", ["dataset", "model"])
    def test_failing_chunk_leaves_no_file(self, fmt, small_model, tmp_path, monkeypatch):
        write, obj = {
            "dataset": (write_dataset, _standardized((2, 4, 4, 2), 8)),  # stats, then data
            "model": (write_model, small_model),
        }[fmt]
        calls = []

        def failing(arr):
            calls.append(arr)
            if len(calls) == 2:  # after the header and one array went out
                raise OSError("disk full")
            return np.ascontiguousarray(arr, dtype="<f8")

        monkeypatch.setattr(formats, "_f64", failing)
        with pytest.raises(OSError, match="disk full"):
            write(obj, tmp_path / "out.bin")
        assert list(tmp_path.iterdir()) == []


def _standardized(shape, seed):
    fields = SnapshotSet(1.0 + np.random.default_rng(seed).standard_normal(shape))
    return normalize(fields, range(0, shape[0]))


# One small valid file of each format: a standardized 3x2x2x2 dataset (std of
# component 0 at bytes 16-23, its sign and top exponent bits in byte 23) and
# a 4x4 model at P=2, N_e=2.
VALID_FILES = {
    "lampds": (_written(write_dataset, _standardized((3, 2, 2, 2), 4)), read_dataset),
    "lampmd": (_written(write_model, train_attention_model(_standardized((12, 4, 4, 1), 5), 2, 2)),
               read_model),
}


class TestReaders:
    def test_model_arrays_are_read_only_and_aligned(self, small_model, tmp_path):
        path = tmp_path / "m.lampmd"
        write_model(small_model, path)
        back = read_model(path)
        arrays = [back.pod.bases, back.pod.singular_values, back.value_maps, back.attn_vectors,
                  back.attn_intercepts, back.pair_losses, back.norm_stats.mean,
                  back.norm_stats.std]
        for arr in arrays:
            assert not arr.flags.writeable
            assert arr.flags.aligned

    @pytest.mark.parametrize("standardized", [False, True])
    def test_dataset_arrays_are_read_only_and_aligned(self, tmp_path, standardized):
        fields = _standardized((4, 4, 6, 2), 6)
        if not standardized:
            fields = SnapshotSet(fields.data)
        path = tmp_path / "d.lampds"
        write_dataset(fields, path)
        back = read_dataset(path)
        arrays = [back.data]
        if standardized:
            arrays += [back.norm_stats.mean, back.norm_stats.std]
        for arr in arrays:
            assert not arr.flags.writeable
            assert arr.flags.aligned

    @pytest.mark.parametrize("reader", [read_dataset, read_model])
    def test_bad_magic_shown_as_bytes(self, tmp_path, reader):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTLAMP0" + b"\0" * 64)
        with pytest.raises(FormatError, match=re.escape("unknown magic b'NOTLAMP0'")):
            reader(path)

    @pytest.mark.parametrize("std", [-1.0, 0.0, float("nan")])
    def test_corrupt_norm_stats_name_the_file(self, tmp_path, std):
        raw = bytearray(VALID_FILES["lampds"][0])
        raw[16:24] = struct.pack("<d", std)
        path = tmp_path / "stats.lampds"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=re.escape(str(path)) + ".*norm stats"):
            read_dataset(path)

    @pytest.mark.parametrize("at", [-16, 24, 24 + 8 * 32], ids=["ridge", "basis", "singular-value"])
    def test_non_finite_model_field_rejected(self, tmp_path, at):
        # Offsets in the 4x4 C=1 model: the ridge is the trailer's first f64,
        # 16 bytes from the end; the bases follow the magic and the one
        # norm-stats pair, the singular values N*D*N_e = 32 basis entries.
        raw = bytearray(VALID_FILES["lampmd"][0])
        raw[at : at + 8] = struct.pack("<d", float("nan"))
        path = tmp_path / "nan.lampmd"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="NaN|finite"):
            read_model(path)

    @settings(max_examples=300, deadline=None)
    @given(fmt=st.sampled_from(sorted(VALID_FILES)), at=st.integers(0, 2**16),
           flip=st.integers(0, 255))
    @example(fmt="lampds", at=23, flip=0x80)  # std of component 0 made negative
    @example(fmt="lampds", at=23, flip=0x40)  # ... and infinite
    def test_truncated_or_flipped_file_raises_only_format_error(self, tmp_path_factory, fmt,
                                                                at, flip):
        # flip == 0 truncates the file at byte ``at``; otherwise byte ``at``
        # is XORed with ``flip``.  Reading either succeeds or raises FormatError.
        payload, reader = VALID_FILES[fmt]
        at %= len(payload)
        raw = bytearray(payload[:at] if flip == 0 else payload)
        if flip:
            raw[at] ^= flip
        path = tmp_path_factory.mktemp("corrupt") / f"f.{fmt}"
        path.write_bytes(bytes(raw))
        try:
            reader(path)
        except FormatError:
            pass



def _mapping(arr: np.ndarray):
    """The object at the end of ``arr``'s ``.base`` chain, through a memoryview."""
    while isinstance(arr, np.ndarray) and arr.base is not None:
        arr = arr.base
    return arr.obj if isinstance(arr, memoryview) else arr


def _as_v1(payload: bytes, fmt: str) -> bytes:
    """A v2 file laid out as v1: the v1 magic, the trailer's fields as a header, the arrays."""
    magic, trailer = {"lampds": (b"LAMPDS01", 17), "lampmd": (b"LAMPMD01", 37)}[fmt]
    return magic + payload[-trailer:] + payload[8:-trailer]


class TestMappedReaders:
    def test_arrays_are_views_of_a_read_only_mapping(self, small_model, tmp_path):
        write_dataset(_standardized((4, 4, 6, 2), 6), tmp_path / "d.lampds")
        write_model(small_model, tmp_path / "m.lampmd")
        data, model = read_dataset(tmp_path / "d.lampds"), read_model(tmp_path / "m.lampmd")
        # The bases and the norm stats are copied out of their column layouts.
        for arr in [data.data, model.pod.singular_values, model.value_maps, model.attn_vectors,
                    model.attn_intercepts, model.pair_losses]:
            assert not arr.flags.writeable
            assert arr.flags.aligned
            assert isinstance(_mapping(arr), mmap.mmap)

    @pytest.mark.parametrize("fmt", ["dataset", "model"])
    def test_rename_over_a_mapped_file_leaves_loaded_arrays(self, fmt, small_model, tmp_path):
        write, read, first, second, arrays = {
            "dataset": (write_dataset, read_dataset, _standardized((4, 4, 6, 2), 6),
                        _standardized((4, 4, 6, 2), 7), lambda d: [d.data]),
            "model": (write_model, read_model, small_model,
                      train_attention_model(_standardized((24, 8, 8, 2), 11), 4, 3),
                      lambda m: [m.value_maps, m.attn_vectors, m.pair_losses]),
        }[fmt]
        path = tmp_path / "f"
        write(first, path)
        loaded = read(path)
        kept = [np.array(arr) for arr in arrays(loaded)]
        write(second, path)  # a temp file renamed over the mapped one
        for arr, want in zip(arrays(loaded), kept):
            np.testing.assert_array_equal(arr, want)
        assert not np.array_equal(arrays(read(path))[0], kept[0])

    @pytest.mark.parametrize("content", ["empty", "v1"])
    @pytest.mark.parametrize("fmt", sorted(VALID_FILES))
    def test_empty_or_v1_file_names_the_expected_magic(self, tmp_path, fmt, content):
        payload, reader = VALID_FILES[fmt]
        magic = {"lampds": DATASET_MAGIC, "lampmd": MODEL_MAGIC}[fmt]
        path = tmp_path / f"f.{fmt}"
        path.write_bytes(b"" if content == "empty" else _as_v1(payload, fmt))
        with pytest.raises(FormatError, match=re.escape(f"expected {magic!r}")):
            reader(path)

    def test_model_size_is_pinned(self, tmp_path):
        # 64x64, C=2, P=4, N_e=8: N = 256 patches of D = 32 values.
        c, n, d, e = 2, 256, 32, 8
        values = 2 * c + n * e * d + n * e + n * n * e * e + n * n * e + 2 * n * n
        model = train_attention_model(_standardized((12, 64, 64, 2), 12), 4, 8)
        write_model(model, tmp_path / "m.lampmd")
        size = (tmp_path / "m.lampmd").stat().st_size
        assert size == model_nbytes(64, 64, 2, 4, 8) == 45 + 8 * values == 39_338_061

class TestHeatmap:
    def test_documented_colormap_stops(self):
        vals = np.array([[0.0, 1 / 3], [2 / 3, 1.0]])
        rgb = heatmap_rgb(vals, 0.0, 1.0)
        np.testing.assert_array_equal(rgb[0, 0], [0, 0, 255])      # blue anchor
        np.testing.assert_array_equal(rgb[0, 1], [170, 170, 255])  # 2/3 toward white
        np.testing.assert_array_equal(rgb[1, 0], [255, 170, 170])  # 1/3 toward red
        np.testing.assert_array_equal(rgb[1, 1], [255, 0, 0])      # red anchor

    def test_constant_field_renders_uniform_white(self):
        rgb = heatmap_rgb(np.full((3, 5), 2.5), 2.5, 2.5)
        assert rgb.shape == (3, 5, 3)
        np.testing.assert_array_equal(rgb, 255)

    def test_ppm_layout(self):
        rgb = np.zeros((2, 3, 3), dtype=np.uint8)
        payload = _written(write_ppm, rgb)
        assert payload.startswith(b"P6\n3 2\n255\n")
        assert len(payload) == len(b"P6\n3 2\n255\n") + 2 * 3 * 3

    def test_write_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(4)
        plane = rng.standard_normal((4, 4))
        grid = PatchGrid(4, 4, 1, 2)
        outline = masked_outline(grid, MaskSpec((0, 3), grid.n_patches))
        write_heatmap(plane, tmp_path / "a.ppm", outline=outline)
        write_heatmap(plane, tmp_path / "b.ppm", outline=outline)
        assert (tmp_path / "a.ppm").read_bytes() == (tmp_path / "b.ppm").read_bytes()

    def test_masked_outline(self, tmp_path):
        grid = PatchGrid(4, 4, 1, 2)
        plane = np.full((4, 4), 2.5)  # a constant field renders white
        outline = masked_outline(grid, MaskSpec((0, 1, 2), grid.n_patches))
        write_heatmap(plane, tmp_path / "a.ppm", outline=outline)
        out = _ppm_pixels(tmp_path / "a.ppm")
        # patch 3 (lower right 2x2): its entire 2x2 block is border pixels
        np.testing.assert_array_equal(out[2:, 2:], 0)
        np.testing.assert_array_equal(out[:2, :2], 255)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_outline_matches_per_patch_borders(self, p, tmp_path):
        grid = PatchGrid(3 * p, 5 * p, 2, p)
        rng = np.random.default_rng(p)
        fields = SnapshotSet(rng.standard_normal((2, grid.height, grid.width, 2)))
        for unmasked in [(), (0, 7, 14), tuple(range(15))]:
            mask = MaskSpec(unmasked, grid.n_patches)
            plane = fields.data[1, :, :, 1]
            path = tmp_path / "a.ppm"
            vmin, vmax = write_heatmap(plane, path, outline=masked_outline(grid, mask))
            rgb = heatmap_rgb(plane, vmin, vmax)
            assert np.array_equal(_ppm_pixels(path), outline_oracle(rgb, grid, mask.masked))

    def test_write_heatmap_range(self, tmp_path):
        plane = np.array([[0.0, 1.0], [2.0, 3.0]])
        vmin, vmax = write_heatmap(plane, tmp_path / "a.ppm")
        assert (vmin, vmax) == (0.0, 3.0)

    def test_nan_cells_take_the_minimum_colour_and_scale_blows_cells_up(self, tmp_path):
        cells = np.array([[np.nan, 1.0, 3.0]])
        assert write_heatmap(cells, tmp_path / "a.ppm", scale=2) == (1.0, 3.0)
        out = _ppm_pixels(tmp_path / "a.ppm")
        assert out.shape == (2, 6, 3)
        assert (out[:, :2] == [0, 0, 255]).all()  # the minimum's blue
        np.testing.assert_array_equal(out[:, 2:4], out[:, :2])
        assert (out[:, 4:] == [255, 0, 0]).all()

    def test_all_nan_cells_range_zero(self, tmp_path):
        assert write_heatmap(np.full((2, 2), np.nan), tmp_path / "a.ppm") == (0.0, 0.0)
        np.testing.assert_array_equal(_ppm_pixels(tmp_path / "a.ppm"), 255)

    def test_outline_is_painted_after_scaling(self, tmp_path):
        outline = np.zeros((4, 4), dtype=bool)
        outline[0, 0] = True
        write_heatmap(np.full((2, 2), 1.0), tmp_path / "a.ppm", scale=2, outline=outline)
        out = _ppm_pixels(tmp_path / "a.ppm")
        np.testing.assert_array_equal(out[0, 0], 0)
        np.testing.assert_array_equal(out[0, 1], 255)

    @pytest.mark.parametrize("rgb", [np.zeros((2, 2, 3)), np.zeros((2, 2, 4), np.uint8),
                                     np.zeros((2, 6), np.uint8)],
                             ids=["float", "four-channel", "flat"])
    def test_bad_ppm_payload_rejected(self, tmp_path, rgb):
        with pytest.raises(ValidationError, match="PPM payload must be"):
            write_ppm(rgb, tmp_path / "a.ppm")
        assert not (tmp_path / "a.ppm").exists()

    @pytest.mark.parametrize("shape", [(2, 2), (4, 5)])
    def test_outline_shape_mismatch_rejected(self, tmp_path, shape):
        with pytest.raises(ValidationError, match="outline shape"):
            write_heatmap(np.zeros((2, 2)), tmp_path / "a.ppm", scale=2,
                          outline=np.zeros(shape, dtype=bool))
        assert not (tmp_path / "a.ppm").exists()


class TestPatchMap:
    def test_layout_and_round_trip(self, tmp_path):
        grid = PatchGrid(4, 6, 1, 2)  # 2 rows by 3 cols
        values = np.array([0.5, 0.1, 1e-300, 2.0, 7.0, 0.25])
        write_patch_map(values, grid, tmp_path / "power.csv")
        lines = (tmp_path / "power.csv").read_text().splitlines()
        assert lines[0] == "patch_index,row,col,value"
        assert lines[1:3] == ["0,0,0,0.5", "1,0,1,0.1"]
        assert lines[4] == "3,1,0,2.0"
        assert np.array_equal(read_patch_map(tmp_path / "power.csv", grid), values)

    def test_rows_are_placed_by_patch_index(self, tmp_path):
        path = tmp_path / "power.csv"
        path.write_text("value,patch_index\n3.0,1\n4.0,0\n")
        np.testing.assert_array_equal(read_patch_map(path, PatchGrid(2, 4, 1, 2)), [4.0, 3.0])

    @pytest.mark.parametrize(
        "text",
        ["", "0,0,0,0.5\n1,0,1,0.1\n", "index,value\n0,1.0\n1,2.0\n"],
        ids=["empty", "headerless", "wrong-header"],
    )
    def test_header_must_name_patch_index_and_value(self, tmp_path, text):
        path = tmp_path / "power.csv"
        path.write_text(text)
        with pytest.raises(FormatError, match="not a power-map CSV: header"):
            read_patch_map(path, PatchGrid(2, 4, 1, 2))

    @pytest.mark.parametrize(
        "body, error, match",
        [
            ("0,0,0,1.0\n1,1,0,2.0\n", ValidationError, "is over another grid than 1x2"),
            ("0,0,0,1.0\n1,0,x,2.0\n", FormatError, "not a power-map CSV: invalid literal"),
            # Index 2 is out of range and (0, 1) is not its place: the index error wins.
            ("0,0,0,1.0\n2,0,1,2.0\n", FormatError, "patch_index must list each"),
        ],
        ids=["other-grid", "col-not-int", "index-checked-first"],
    )
    def test_row_and_col_must_be_the_grids(self, tmp_path, body, error, match):
        path = tmp_path / "power.csv"
        path.write_text("patch_index,row,col,value\n" + body)
        with pytest.raises(error, match=match):
            read_patch_map(path, PatchGrid(2, 4, 1, 2))  # 1 row by 2 cols

    def test_row_and_col_follow_patch_index(self, tmp_path):
        path = tmp_path / "power.csv"
        path.write_text("patch_index,col,value,row\n1,1,3.0,0\n0,0,4.0,0\n")
        np.testing.assert_array_equal(read_patch_map(path, PatchGrid(2, 4, 1, 2)), [4.0, 3.0])


class TestManifestAndCsv:
    def test_manifest_sorted_and_stable(self):
        payload = {"b": 1, "a": {"d": 2, "c": 3}}
        raw = _written(write_manifest, payload)
        assert raw == _written(write_manifest, {"a": {"c": 3, "d": 2}, "b": 1})
        parsed = json.loads(raw)
        assert parsed == payload
        assert raw.index(b'"a"') < raw.index(b'"b"')

    def test_csv_float_repr(self):
        raw = _written(functools.partial(write_csv, ["x", "y"]), [[0.1, None], [float("inf"), 7]])
        lines = raw.decode().splitlines()
        assert lines[0] == "x,y"
        assert lines[1] == "0.1,"
        assert lines[2] == "inf,7"

    def test_csv_numpy_floats(self):
        raw = _written(functools.partial(write_csv, ["v"]), [[np.float64(0.25)]])
        assert raw.decode().splitlines()[1] == "0.25"


class TestNormStats:
    def test_validation(self):
        with pytest.raises(Exception):
            NormStats(np.zeros(2), np.array([1.0, 0.0]))
