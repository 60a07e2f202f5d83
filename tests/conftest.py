"""Every Hypothesis test draws the same examples on every run, so that a
failure seen once is seen again; a test's own @settings keep this."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
