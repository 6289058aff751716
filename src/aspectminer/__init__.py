"""Aspect-based pros/cons mining of customer reviews.

The pipeline runs in four stages: part-of-speech tagging (or ingestion
of pretagged text), aspect/opinion pair extraction through tag
patterns, grouping of co-referring aspects, and sentence scoring that
feeds the final pros/cons summary.  An evaluation harness scores
extraction output against gold annotations and compares systems with
paired t-tests.

The package root exports only :func:`load_resources`; every other name
is imported from its own module (``aspectminer.pipeline``,
``aspectminer.summary``, ...).
"""

from .pipeline import load_resources

__version__ = "0.1.0"

__all__ = ["load_resources"]
