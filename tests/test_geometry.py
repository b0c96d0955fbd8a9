"""One geometry rule: every function that pairs fields or a mask with a patch
grid rejects a mismatch through ``PatchGrid.check_fields`` / ``check_mask``,
with the same typed error and message."""

import numpy as np
import pytest

from lamp import MaskSpec, PatchGrid, SnapshotSet, ValidationError, normalize
from lamp.attention import predict_masked, reconstruct, train_attention_model
from lamp.formats import masked_outline
from lamp.gappy import fit_gappy, reconstruct_gappy
from lamp.patches import pixel_mask
from lamp.synthetic import add_noise_fixed, observe

GRID = PatchGrid(8, 8, 2, 4)  # N = 4 patches
T = 6


@pytest.fixture(scope="module")
def models():
    rng = np.random.default_rng(41)
    norm = normalize(SnapshotSet(rng.standard_normal((40, 8, 8, 2))), range(40))
    return train_attention_model(norm, GRID.patch_size, 2), fit_gappy(norm, 2)


# Each function as call(models, fields, mask); the mask-only ones ignore fields.
FIELD_CALLS = {
    "reconstruct": lambda m, f, mask: reconstruct(m[0], f, mask),
    "reconstruct_gappy": lambda m, f, mask: reconstruct_gappy(m[1], f, mask, GRID),
    "add_noise_fixed": lambda m, f, mask: add_noise_fixed(f, mask, 0.5, 3, GRID),
    "add_noise_fixed-noise-free": lambda m, f, mask: add_noise_fixed(f, mask, 0.0, 3, GRID),
    "observe": lambda m, f, mask: observe(f, mask, 0.5, 3, GRID),
    "observe-noise-free": lambda m, f, mask: observe(f, mask, 0.0, 3, GRID),
}
MASK_CALLS = {
    "predict_masked": lambda m, f, mask: predict_masked(m[0], np.zeros((1, T, 2)), mask),
    "pixel_mask": lambda m, f, mask: pixel_mask(GRID, mask),
    "masked_outline": lambda m, f, mask: masked_outline(GRID, mask),
}
MISMATCHES = {
    # (fields shape, mask patch count, message)
    "height-width": ((T, 8, 12, 2), 4, r"field geometry \(8, 12, 2\) does not match model grid"),
    "components": ((T, 8, 8, 1), 4, r"field geometry \(8, 8, 1\) does not match model grid"),
    "mask": ((T, 8, 8, 2), 9, "mask over 9 patches does not match model grid with 4"),
}
CASES = [
    pytest.param(call, *MISMATCHES[kind], id=f"{name}-{kind}")
    for calls, kinds in ((FIELD_CALLS, MISMATCHES), (MASK_CALLS, ["mask"]))
    for name, call in calls.items()
    for kind in kinds
]


@pytest.mark.parametrize("call, shape, n_mask, message", CASES)
def test_mismatched_grid_rejected_with_one_message(models, call, shape, n_mask, message):
    fields = SnapshotSet(np.random.default_rng(42).standard_normal(shape))
    with pytest.raises(ValidationError, match=message):
        call(models, fields, MaskSpec((0,), n_mask))
