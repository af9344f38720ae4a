"""Every tier-1 run draws the same Hypothesis examples: one profile with
``derandomize=True`` is loaded before any test module is imported, so
each ``@given`` test's examples follow from the test alone."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")
