"""Shared test configuration.

Property tests run derandomized so the suite is reproducible run to run;
deadlines are off because several properties run whole norm searches,
whose time varies with the examples drawn.  The quadrature and scaled
models that only tests use live in quadrature_models.py, beside this file.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "glspace",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("glspace")
