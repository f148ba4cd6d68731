"""Names left from the retired chunked BTB pass; calling them is an error.

No engine uses them.  The per-layer benchmark tracer
(``benchmarks/perf/tracing.py``) wraps ``lookup_block`` and ``commit`` of
these classes in every traced run; ROADMAP item 1 deletes this file when
it retargets the tracer.
"""


def _retired(*args, **kwargs):
    raise RuntimeError("retired")


class BaselineOps:
    lookup_block = commit = _retired


class PDedeOps:
    lookup_block = commit = _retired


class TwoLevelOps:
    lookup_block = commit = _retired
