"""Unmasking toolkit for masked face embeddings.

A small fully connected network (the unmasking model) maps embeddings of
masked faces back toward the unmasked embedding space of the same identity.
Training uses triplet sampling with either the classic triplet loss or the
self-restrained variant that freezes the imposter term once separation is
sufficient. The rest of the package provides a deterministic synthetic
dataset generator, biometric verification metrics, binary/CSV file formats,
and a command line for end-to-end experiments.
"""

from . import _threads  # noqa: F401  (caps BLAS threads; must precede numpy)

__version__ = "0.1.0"
