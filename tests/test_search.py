"""Supremum search: evaluation accounting and the array contract."""

import numpy as np
import pytest

from glspace.search import grid_refine_supremum


def test_n_evaluations_counts_every_refinement_call():
    seen = [0]

    def flat(p):
        seen[0] += np.size(p)
        return np.ones_like(p)

    res = grid_refine_supremum(flat, 1.0, 200.0)
    # a flat function is a plateau of local maxima, each one refined
    assert res.n_evaluations == seen[0]
    assert res.n_evaluations > 512
    assert res.value == 1.0 and res.arg == 1.0


def test_scalar_only_function_is_rejected():
    with pytest.raises(ValueError, match="must accept arrays"):
        grid_refine_supremum(lambda p: 1.0, 1.0, 2.0)
