"""Malformed input to a public entry point raises a GlsError, with a
message that names what is wrong; every GlsError for bad input is also a
ValueError, so callers that catch ValueError keep working."""

import re

import numpy as np
import pytest

from glspace import GlsError, run_suite
from glspace.models import uniform_stream
from glspace.search import golden_section_max, grid_refine_supremum, sampled_min


@pytest.mark.parametrize("call, message", [
    (lambda: run_suite("nope", 1), "unknown suite 'nope'; choose from sandwich, tails, young, algebra"),
    (lambda: uniform_stream(0, -1), "n must be nonnegative"),
    (lambda: golden_section_max(np.sqrt, 2.0, 1.0), "empty bracket [2.0, 1.0]"),
    (lambda: grid_refine_supremum(np.sqrt, 2.0, 1.0), "empty interval [2.0, 1.0]"),
    (lambda: sampled_min(np.sqrt, [1.0, 3.0], [2.0, 2.5]), "sampled_min needs lo <= hi for every interval"),
], ids=["run_suite", "uniform_stream", "golden_section_max", "grid_refine_supremum", "sampled_min"])
def test_malformed_input_raises_a_gls_error_that_is_a_value_error(call, message):
    with pytest.raises(GlsError, match=f"^{re.escape(message)}$") as info:
        call()
    assert isinstance(info.value, ValueError)
