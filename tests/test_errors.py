"""Malformed input to a public entry point raises a GlsError, with a
message that names what is wrong; every GlsError for bad input is also a
ValueError, so callers that catch ValueError keep working."""

import math
import re

import numpy as np
import pytest

from glspace import GlsError, gaussian_model, integer_grid, run_suite
from glspace.models import uniform_stream
from glspace.norms import gls_norms, sandwich_check_discrete, sandwich_check_restricted
from glspace.search import golden_section_max, grid_refine_supremum, sampled_min
from glspace.suites import psi_pool, set_fixtures


@pytest.mark.parametrize("call, message", [
    (lambda: run_suite("nope", 1), "unknown suite 'nope'; choose from sandwich, tails, young, algebra"),
    (lambda: uniform_stream(0, -1), "n must be nonnegative"),
    (lambda: golden_section_max(np.sqrt, 2.0, 1.0), "empty bracket [2.0, 1.0]"),
    (lambda: grid_refine_supremum(np.sqrt, 2.0, 1.0), "empty interval [2.0, 1.0]"),
    (lambda: sampled_min(np.sqrt, [1.0, 3.0], [2.0, 2.5]), "sampled_min needs lo <= hi for every interval"),
    (lambda: grid_refine_supremum(lambda x: 1.0, 1.0, 2.0),
     "parts returned shape () for (512,) points; it must accept arrays"),
    (lambda: gls_norms([], psi_pool()[0]), "gls_norms needs at least one model"),
    # a sandwich check reads p_max first, as domain_search does
    *((lambda p=p: sandwich_check_restricted(gaussian_model(), psi_pool()[0], set_fixtures()[1], p),
       f"p_max must be finite and at least 1, got {p:g}") for p in (math.nan, 0.5, math.inf)),
    *((lambda p=p, w=w: sandwich_check_discrete(gaussian_model(), psi_pool()[0], integer_grid(50), p, use_w_hat=w),
       f"p_max must be finite and at least 1, got {p:g}") for p in (math.nan, 0.5, math.inf) for w in (False, True)),
], ids=["run_suite", "uniform_stream", "golden_section_max", "grid_refine_supremum", "sampled_min",
        "a_scalar_function", "gls_norms",
        *(f"restricted_p_max_{p}" for p in ("nan", "0.5", "inf")),
        *(f"discrete_{w}_p_max_{p}" for p in ("nan", "0.5", "inf") for w in ("W", "W_hat"))])
def test_malformed_input_raises_a_gls_error_that_is_a_value_error(call, message):
    with pytest.raises(GlsError, match=f"^{re.escape(message)}$") as info:
        call()
    assert isinstance(info.value, ValueError)
