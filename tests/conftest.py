"""Shared test settings and fixtures: hypothesis draws the same examples on every
run, ``small_constants`` shrinks an experiment's constants for a small run, and
``mutate_streams`` swaps one Generator method of a module's streams."""

import pytest
from hypothesis import settings

from certlab import experiments

# derandomize: examples come from a fixed seed, not the clock; database=None:
# no examples replayed from an earlier run; deadline=None: no per-example time
# limit, since a host's speed can drift twofold.  Each test keeps its own max_examples.
settings.register_profile("certlab", derandomize=True, database=None, deadline=None)
settings.load_profile("certlab")


class MutantStream:
    """``rng`` with its method ``method`` replaced by ``draw(rng, *args)``, every other method its own."""

    def __init__(self, rng, method, draw):
        self.rng, self.method, self.draw = rng, method, draw

    def __getattr__(self, name):
        if name == self.method:
            return self._mutant
        return getattr(self.rng, name)

    def _mutant(self, *args, out=None):
        """The mutant draw; given ``out``, one draw of ``out``'s shape fills it."""
        if out is None:
            return self.draw(self.rng, *args)
        out[...] = self.draw(self.rng, out.shape)
        return out


@pytest.fixture
def mutate_streams(monkeypatch):
    """``mutate_streams(module, method, draw)`` makes every stream that ``module``
    opens through its ``rng_for`` a MutantStream: a sampling-law mutant."""

    def mutate(module, method, draw):
        streams = module.rng_for
        monkeypatch.setattr(module, "rng_for", lambda *labels: MutantStream(streams(*labels), method, draw))

    return mutate


@pytest.fixture
def small_constants(monkeypatch):
    """``small_constants(NAME=value, ...)`` sets each named constant of ``certlab.experiments``
    for one test; the runners read them at call time.  An unknown name raises."""

    def shrink(**constants):
        for name, value in constants.items():
            monkeypatch.setattr(experiments, name, value)

    return shrink
