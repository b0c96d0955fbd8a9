import json
import struct

import numpy as np
import pytest

from lamp import (
    FormatError,
    MaskSpec,
    NormStats,
    SnapshotSet,
    normalize,
    read_dataset,
    read_model,
    train_attention_model,
    write_dataset,
    write_model,
)
from lamp.formats import (
    DATASET_MAGIC,
    MODEL_MAGIC,
    csv_bytes,
    dataset_bytes,
    heatmap_rgb,
    manifest_bytes,
    model_bytes,
    model_nbytes,
    outline_masked,
    ppm_bytes,
    render_field,
    write_ppm,
)
from lamp.patches import PatchGrid


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
        path.write_bytes(dataset_bytes(fields) + b"\0")
        with pytest.raises(FormatError, match="trailing"):
            read_dataset(path)

    def test_truncated_rejected(self, tmp_path):
        fields = SnapshotSet(np.zeros((1, 2, 2, 1)))
        path = tmp_path / "t.lampds"
        path.write_bytes(dataset_bytes(fields)[:-4])
        with pytest.raises(FormatError, match="truncated"):
            read_dataset(path)

    def test_bad_flag_rejected(self, tmp_path):
        fields = SnapshotSet(np.zeros((1, 2, 2, 1)))
        raw = bytearray(dataset_bytes(fields))
        raw[8 + 16] = 7  # normalized flag byte
        path = tmp_path / "f.lampds"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="flag"):
            read_dataset(path)

    def test_zero_dims_rejected(self, tmp_path):
        raw = bytearray(dataset_bytes(SnapshotSet(np.zeros((1, 2, 2, 1)))))
        raw[8:12] = (0).to_bytes(4, "little")  # H = 0
        path = tmp_path / "z.lampds"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="dimensions"):
            read_dataset(path)

    def test_non_finite_payload_rejected(self, tmp_path):
        import struct

        head = DATASET_MAGIC + struct.pack("<4I", 1, 1, 1, 1) + struct.pack("<B", 0)
        path = tmp_path / "nan.lampds"
        path.write_bytes(head + struct.pack("<d", float("nan")))
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
        path.write_bytes(model_bytes(small_model) + b"\0\0")
        with pytest.raises(FormatError, match="trailing"):
            read_model(path)

    def test_header_geometry_larger_than_file_rejected_before_allocation(self, tmp_path):
        # H = W = 2**20 at P = 1 declares 2**40 patches in a 66-byte file
        path = tmp_path / "huge.lampmd"
        header = MODEL_MAGIC + struct.pack("<5IB4d", 2**20, 2**20, 1, 1, 1, 1, -1e-8, 1e-12, 0.0, 1.0)
        path.write_bytes(header + bytes(66 - len(header)))
        with pytest.raises(FormatError, match="truncated"):
            read_model(path)

    def test_size_estimate_matches_serialization(self, small_model):
        grid = small_model.grid
        assert model_nbytes(
            grid.height, grid.width, grid.components, grid.patch_size, small_model.latent_dim
        ) == len(model_bytes(small_model))


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
        payload = ppm_bytes(rgb)
        assert payload.startswith(b"P6\n3 2\n255\n")
        assert len(payload) == len(b"P6\n3 2\n255\n") + 2 * 3 * 3

    def test_write_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(4)
        fields = SnapshotSet(rng.standard_normal((2, 4, 4, 1)))
        rgb, _, _ = render_field(fields, 0, 0)
        write_ppm(rgb, tmp_path / "a.ppm")
        write_ppm(rgb, tmp_path / "b.ppm")
        assert (tmp_path / "a.ppm").read_bytes() == (tmp_path / "b.ppm").read_bytes()

    def test_masked_outline(self):
        grid = PatchGrid(4, 4, 1, 2)
        rgb = np.full((4, 4, 3), 255, dtype=np.uint8)
        out = outline_masked(rgb, grid, MaskSpec((0, 1, 2), grid.n_patches))
        # patch 3 (lower right 2x2): its entire 2x2 block is border pixels
        np.testing.assert_array_equal(out[2:, 2:], 0)
        np.testing.assert_array_equal(out[:2, :2], 255)

    def test_render_field_range(self):
        data = np.zeros((1, 2, 2, 1))
        data[0, :, :, 0] = [[0.0, 1.0], [2.0, 3.0]]
        _, vmin, vmax = render_field(SnapshotSet(data), 0, 0)
        assert (vmin, vmax) == (0.0, 3.0)


class TestManifestAndCsv:
    def test_manifest_sorted_and_stable(self):
        payload = {"b": 1, "a": {"d": 2, "c": 3}}
        raw = manifest_bytes(payload)
        assert raw == manifest_bytes({"a": {"c": 3, "d": 2}, "b": 1})
        parsed = json.loads(raw)
        assert parsed == payload
        assert raw.index(b'"a"') < raw.index(b'"b"')

    def test_csv_float_repr(self):
        raw = csv_bytes(["x", "y"], [[0.1, None], [float("inf"), 7]])
        lines = raw.decode().splitlines()
        assert lines[0] == "x,y"
        assert lines[1] == "0.1,"
        assert lines[2] == "inf,7"

    def test_csv_numpy_floats(self):
        raw = csv_bytes(["v"], [[np.float64(0.25)]])
        assert raw.decode().splitlines()[1] == "0.25"


class TestNormStats:
    def test_validation(self):
        with pytest.raises(Exception):
            NormStats(np.zeros(2), np.array([1.0, 0.0]))
