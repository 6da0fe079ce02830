"""Test environment: pin BLAS to one thread before numpy first loads.

EUM_THREADS is the one knob; eum._threads turns it into the BLAS variables.

Single-threaded math keeps every reduction order fixed, which the
byte-determinism tests rely on.
"""

import os

os.environ.setdefault("EUM_THREADS", "1")

import eum._threads  # noqa: E402,F401  (exports EUM_THREADS to every BLAS variable)
import pytest

from eum.synth import SynthSpec, gen_dataset


@pytest.fixture(scope="session")
def tiny_spec() -> SynthSpec:
    """Small but non-degenerate dataset spec shared across test modules."""
    return SynthSpec(
        num_identities=24,
        samples_per_identity_unmasked=6,
        samples_per_identity_masked=6,
        d=16,
        seed=3,
    )


@pytest.fixture(scope="session")
def tiny_dataset(tiny_spec):
    return gen_dataset(tiny_spec)
