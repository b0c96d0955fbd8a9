"""Metamorphic tests: a reconstruction commutes with the symmetries of the grid.

Transposing the raw field, flipping it up-down or swapping its two components,
then retraining and reconstructing under the correspondingly relabelled mask,
must give the original reconstruction once the output is mapped back.  The
pipeline is not bit-identical under these maps (the per-patch Grams and the
softmax sums are permuted, so they round differently), hence the tolerance of
1e-12 times the largest standardized test value.  An indexing fault that is
the same in training and inference, such as a transposed (target, source)
layout or patch-vector order, survives the oracle tests but not these.
"""

import numpy as np
import pytest

from lamp import (
    FlowSpec,
    MaskSpec,
    SnapshotSet,
    SplitSpec,
    generate,
    reconstruct,
    train_attention_model,
)
from lamp.patches import split_standardized

SIDE, SNAPSHOTS, SEED, COVERAGE, MASK_SEEDS = 64, 160, 3, 0.1, range(6)
RTOL = 1e-12

#: (kind, patch size, latent dimension) of each case.
SHAPES = [("laminar-surrogate", 8, 4), ("laminar-surrogate", 16, 8), ("chaotic-surrogate", 4, 8)]

#: Transforms of a (T, H, W, C) array; each is its own inverse.  Applied to
#: the (1, rows, cols, 1) grid of patch labels, one moves the labels as it
#: moves the patches.
TRANSFORMS = {
    "transpose": lambda a: a.transpose(0, 2, 1, 3),
    "flip-ud": lambda a: a[:, ::-1],
    "swap-components": lambda a: a[..., ::-1],
}


def relabel(mask: MaskSpec, move, rows: int) -> MaskSpec:
    """The mask observing, after ``move``, the patches ``mask`` observes before it."""
    labels = move(np.arange(mask.n_patches).reshape(1, rows, -1, 1))
    new_label = np.argsort(labels.ravel())  # labels.ravel()[new_label[i]] == i
    return MaskSpec(tuple(int(new_label[i]) for i in mask.unmasked), mask.n_patches)


def mapped_back(kind: str, p: int, e: int, transform: str | None, relabel_mask=relabel):
    """The standardized test split of the (transformed) dataset, and its
    reconstruction under each mask seed, relabelled by ``relabel_mask(mask,
    move, rows)`` and mapped back, by a model trained on the train split."""
    move = TRANSFORMS[transform] if transform else (lambda a: a)
    raw = generate(FlowSpec(kind, SIDE, SIDE, SNAPSHOTS, seed=SEED))
    train, test, _ = split_standardized(SnapshotSet(np.ascontiguousarray(move(raw.data))),
                                        SplitSpec())
    model = train_attention_model(train, p, e)
    masks = [MaskSpec.random(model.n_patches, COVERAGE, seed) for seed in MASK_SEEDS]
    return test.data, [
        move(reconstruct(model, test, relabel_mask(mask, move, model.grid.rows)).data)
        for mask in masks
    ]


def worst_relative_gap(want, got, test) -> float:
    """The largest gap between paired reconstructions, relative to max|test|."""
    gap = max(float(np.max(np.abs(w - g))) for w, g in zip(want, got))
    return gap / float(np.max(np.abs(test)))


@pytest.fixture(scope="module", params=SHAPES, ids=[f"{k[:7]}-P{p}-Ne{e}" for k, p, e in SHAPES])
def original(request):
    """A shape and its untransformed reconstructions, one shape at a time."""
    return request.param, mapped_back(*request.param, None)


@pytest.mark.parametrize("transform", sorted(TRANSFORMS))
def test_reconstruction_commutes_with_the_transform(original, transform):
    shape, (test, want) = original
    _, got = mapped_back(*shape, transform)
    assert worst_relative_gap(want, got, test) <= RTOL


def test_a_mask_left_untransposed_is_caught():
    # The planted fault: the field is transposed but the mask keeps its labels.
    test, want = mapped_back(*SHAPES[0], None)
    _, got = mapped_back(*SHAPES[0], "transpose", lambda mask, move, rows: mask)
    assert worst_relative_gap(want, got, test) > 1e3 * RTOL
