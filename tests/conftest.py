"""Shared test settings: hypothesis draws the same examples on every run."""

from hypothesis import settings

# derandomize: examples come from a fixed seed, not the clock; database=None:
# no examples replayed from an earlier run; deadline=None: no per-example time
# limit, since a host's speed can drift twofold.  Each test keeps its own max_examples.
settings.register_profile("certlab", derandomize=True, database=None, deadline=None)
settings.load_profile("certlab")
