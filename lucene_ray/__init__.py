"""lucene_ray — a Ray-Data-native inverted-index build + BM25 query engine.

Re-created from scratch with the query capabilities of Apache Lucene core
(reference: /root/reference, Apache Lucene 10.0.0 snapshot), architected as
idiomatic Ray Data: `map_batches` over zero-copy Arrow batches for analysis
and inversion, one raw-task partition exchange that writes the shards and
merges the global term statistics hash-by-term,
per-partition lineage manifests for resumable builds, and stateful actor
pools holding memory-mapped posting shards for query serving.

Nothing in this package calls ``ray.init()`` — the embedding application
(driver, bench.py, pytest fixture) owns the Ray session.
"""

__version__ = "0.1.0"
