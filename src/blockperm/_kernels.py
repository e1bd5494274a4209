"""The composition kernel under the name the benchmark harness imports.

There is one kernel, the pure-Python one in :mod:`blockperm._glue_py`.
"""

from blockperm._glue_py import glue_labels

__all__ = ["glue_labels"]
