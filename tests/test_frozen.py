"""Every array field of the package's immutable types is stored the same way:
read-only, C-contiguous float64, with its shape checked and, where the type
checks it, NaN and Inf rejected."""

import numpy as np
import pytest

from lamp import ValidationError
from lamp.attention import AttentionModel
from lamp.gappy import GappyPodModel
from lamp.metrics import PowerMap
from lamp.patches import NormStats, PatchedSeries, PatchGrid, SnapshotSet
from lamp.pod import LatentSeries, PatchPodModel

GRID = PatchGrid(4, 4, 1, 2)  # N = 4 patches of D = 4 values
N, E = 4, 2


def _pod():
    return PatchPodModel(GRID, E, np.tile(np.eye(4)[:, :E], (N, 1, 1)), np.ones((N, E)))


def _attention(**arrays):
    return AttentionModel(_pod(), NormStats(np.zeros(1), np.ones(1)), ridge_lambda=None,
                          error_floor=1e-12, use_intercept=True, **arrays)


# type -> (constructor from keyword arrays, valid arrays, fields not checked for NaN)
TYPES = {
    "NormStats": (NormStats, lambda: {"mean": np.zeros(2), "std": np.ones(2)}, ()),
    "SnapshotSet": (SnapshotSet, lambda: {"data": np.ones((2, 4, 4, 1))}, ()),
    "PatchedSeries": (
        lambda **a: PatchedSeries(GRID, **a), lambda: {"values": np.ones((2, N, 4))}, ("values",)
    ),
    "PatchPodModel": (
        lambda **a: PatchPodModel(GRID, E, **a),
        lambda: {"bases": np.tile(np.eye(4)[:, :E], (N, 1, 1)), "singular_values": np.ones((N, E))},
        (),
    ),
    "LatentSeries": (LatentSeries, lambda: {"values": np.ones((2, N, E))}, ()),
    "AttentionModel": (
        _attention,
        lambda: {
            "value_maps": np.tile(np.eye(E), (N, N, 1, 1)),
            "attn_vectors": np.zeros((N, N, E)),
            "attn_intercepts": np.zeros((N, N)),
            "pair_losses": 1.0 - np.eye(N),
        },
        (),
    ),
    "GappyPodModel": (
        GappyPodModel,
        lambda: {"modes": np.eye(8, E)},
        ("modes",),
    ),
    "PowerMap": (lambda **a: PowerMap(GRID, **a), lambda: {"values": np.arange(N, dtype=float)}, ()),
}
FIELDS = [(kind, field) for kind, (_, valid, _) in TYPES.items() for field in valid()]


VARIANTS = {
    "writable": lambda a: a,
    "non-contiguous": lambda a: np.repeat(a[..., None], 2, axis=-1)[..., 0],
    "integer": lambda a: a.astype(np.int64),
}


def _assert_frozen(obj, fields):
    for name in fields:
        arr = getattr(obj, name)
        assert arr.dtype == np.float64, name
        assert arr.flags.c_contiguous, name
        assert not arr.flags.writeable, name


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("kind,field", FIELDS)
def test_fields_are_frozen_contiguous_float64(kind, field, variant):
    build, valid, _ = TYPES[kind]
    arrays = valid()
    given = VARIANTS[variant](arrays[field])
    assert variant == "writable" or not (given.flags.c_contiguous and given.dtype == np.float64)
    arrays[field] = given
    obj = build(**arrays)
    _assert_frozen(obj, arrays)
    np.testing.assert_array_equal(getattr(obj, field), given)
    if variant == "writable":
        # Adopted and frozen in place, not copied.
        assert getattr(obj, field) is given
        assert not given.flags.writeable


@pytest.mark.parametrize("kind,field", FIELDS)
def test_wrong_shape_rejected(kind, field):
    build, valid, _ = TYPES[kind]
    arrays = valid()
    arrays[field] = arrays[field][0]
    with pytest.raises(ValidationError):
        build(**arrays)


@pytest.mark.parametrize("kind,field", FIELDS)
def test_nan_rejected_where_checked(kind, field):
    build, valid, unchecked = TYPES[kind]
    arrays = valid()
    arrays[field].flat[-1] = np.nan
    if field in unchecked:
        assert np.isnan(getattr(build(**arrays), field).flat[-1])
    else:
        with pytest.raises(ValidationError, match="NaN|finite"):
            build(**arrays)
