import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
# CLI tests run `python -m cqpolar.cli` in a subprocess, which finds the
# package through PYTHONPATH, not through this process's sys.path.
_SRC = str(Path(__file__).parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

from cqpolar.channel import CqChannel, HybridState, preset_channel, random_cq_channel
from cqpolar.groups import FiniteAbelianGroup
from cqpolar.states import pure_state


def pytest_configure(config):
    # a cast that drops an imaginary part fails the suite, as a RuntimeWarning
    # does (pyproject.toml); numpy 1.25 moved the class to numpy.exceptions
    warning = getattr(np, "exceptions", np).ComplexWarning
    config.addinivalue_line("filterwarnings", f"error::{warning.__module__}.{warning.__name__}")


@pytest.fixture
def z4_homomorphism_channel():
    """The multilevel fixture: Z4 inputs, outputs determined by x mod {0,2}."""
    g = FiniteAbelianGroup([4])
    v0 = pure_state([1.0, 0.0])
    v1 = pure_state([0.0, 1.0])
    outs = [HybridState([(1.0, (), v)]) for v in (v0, v1, v0, v1)]
    return CqChannel(g, outs)


def pure_overlap_channel(c: float) -> CqChannel:
    """Binary pure-state channel with overlap c."""
    return preset_channel("pure-states", angles=[0.0, float(np.arccos(c))])


def random_mixed_channel(rng, q: int, k: int, group=None) -> CqChannel:
    return random_cq_channel(FiniteAbelianGroup(group or [q]), k, True, rng)


def random_pure_channel(rng, q: int, k: int, group=None) -> CqChannel:
    return random_cq_channel(FiniteAbelianGroup(group or [q]), k, False, rng)
