"""Segment-like posting shard: build (inversion + encode) and mmap read.

A shard is the Ray-Data equivalent of a flushed Lucene segment
(`lucene/core/src/java/org/apache/lucene/index/DocumentsWriterPerThread.java:342`
flush path → `codecs/lucene90/Lucene90PostingsWriter.java:211-250`): one input
partition → one immutable directory:

    shard-{pid:05d}/
      postings.bin    per-term block payloads (mmap'd at query time)
      terms.parquet   sorted term dict: df/ttf/offsets/skip+impact metadata
      norms.bin       uint8 norm byte per local doc (mmap'd)
      docmap.parquet  local docID -> (conv_id, turn_idx)  [stored-fields pointer]
      manifest.json   lineage: pid, doc_base, counts, fingerprint, status

Local docIDs are dense int32 in (conv_id, turn_idx) order; global docID =
``doc_base + local`` (int64), mirroring Lucene's per-segment docBase scheme
(`index/SegmentInfos.java`, `IndexWriter.java:200` MAX_DOCS int32 cap per
segment).
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..analysis.standard import tokenize_column
from ..util.levenshtein import TermCodes
from ..util.smallfloat import int_to_byte4
from .postings import (
    BLOCK_SIZE,
    encode_postings,
    encode_postings_batch,
    impact_skyline,
    vint_encode,
)

TERMS_FILE = "terms.parquet"
POSTINGS_FILE = "postings.bin"
POSITIONS_FILE = "positions.bin"
NORMS_FILE = "norms.bin"
DOCMAP_FILE = "docmap.parquet"
MANIFEST_FILE = "manifest.json"
VECTORS_FILE = "vectors.npy"
VECTORS_Q_FILE = "vectors_q.npy"   # int8 scalar-quantized (+ manifest scale)
HNSW_FILE = "hnsw.npz"
TV_FILES = ("tv_doc_ptr.npy", "tv_terms.npy", "tv_freqs.npy",
            "tv_pos_ptr.npy", "tv_positions.npy")
PAYLOADS_FILE = "payloads.npz"


def invert_flat(flat: pa.Array, lengths: np.ndarray,
                positions: np.ndarray | None = None):
    """Columnar inversion: flat term array + per-doc lengths -> sorted
    posting lists, entirely via Arrow dictionary encoding + one numpy sort
    (no per-token Python objects).

    ``positions`` (optional) carries explicit per-token positions for graph
    analyzer chains (stop gaps, posInc-0 synonym/shingle overlays); when
    None all position increments are 1.  Tokens must arrive doc-major with
    positions non-decreasing within each doc.

    Returns (terms sorted asc, term_starts, doc_of int32[], freq int32[],
    positions int32[]): positions is aligned with the posting runs — posting
    p's occurrence positions are ``positions[pb[p]:pb[p+1]]`` (ascending)
    with ``pb = concatenate(([0], cumsum(freq)))``.
    """
    n_docs = len(lengths)
    if len(flat) == 0:
        empty = np.array([], dtype=np.int64)
        return (pa.array([], type=pa.string()), np.zeros(1, dtype=np.int64),
                empty.astype(np.int32), empty.astype(np.int32), empty.astype(np.int32))
    denc = pa.compute.dictionary_encode(flat)
    if isinstance(denc, pa.ChunkedArray):
        denc = denc.combine_chunks()
    codes = denc.indices.to_numpy().astype(np.int64)
    uniq = denc.dictionary
    order = pa.compute.sort_indices(uniq).to_numpy()
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[order] = np.arange(len(uniq))
    sorted_terms = uniq.take(pa.array(order))

    doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64), lengths)
    if positions is not None:
        tok_pos = positions.astype(np.int32)
    else:
        # token position within its doc (position increments are all 1)
        doc_starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        tok_pos = (np.arange(len(codes)) - np.repeat(doc_starts, lengths)).astype(np.int32)

    key = rank[codes] * n_docs + doc_idx
    sort_idx = np.argsort(key, kind="stable")     # stable keeps position order
    sk = key[sort_idx]
    run_start = np.empty(len(sk), dtype=bool)
    run_start[0] = True
    np.not_equal(sk[1:], sk[:-1], out=run_start[1:])
    starts = np.nonzero(run_start)[0]
    ukey = sk[starts]
    freq = np.diff(np.concatenate((starts, [len(sk)]))).astype(np.int32)
    term_of = ukey // n_docs
    doc_of = (ukey % n_docs).astype(np.int32)
    positions = tok_pos[sort_idx]
    term_starts = np.searchsorted(term_of, np.arange(len(uniq) + 1))
    return sorted_terms, term_starts, doc_of, freq, positions


def _gather_runs(starts, lens):
    """Indices of the concatenated ranges ``[starts[i], starts[i] + lens[i])``."""
    lens = np.asarray(lens, dtype=np.int64)
    ends = np.cumsum(lens)
    return np.repeat(starts - (ends - lens), lens) + np.arange(ends[-1] if len(ends) else 0)


def _encode_small_terms(term_starts, doc_of, freq, small_ids):
    """Vectorized vint encoding for all tail-only terms (df < BLOCK_SIZE).

    Builds ONE interleaved value array [deltas_t | freqs_t]* and encodes it
    with a single vint_encode call; per-term offsets come from per-value byte
    counts.  Returns (payload bytes, nbytes int64[] per small term).
    """
    from .postings import _bit_length

    if len(small_ids) == 0:
        return b"", np.zeros(0, dtype=np.int64)
    dfs = (term_starts[small_ids + 1] - term_starts[small_ids]).astype(np.int64)
    idx = _gather_runs(term_starts[small_ids], dfs)
    docs = doc_of[idx].astype(np.int64)
    first = np.cumsum(dfs) - dfs                  # each term's first value
    deltas = np.diff(docs, prepend=0)             # per term, the first is doc + 1
    deltas[first] = docs[first] + 1
    # term t's deltas fill combined[2 * first_t:][:df_t], its freqs follow
    combined = np.empty(2 * len(docs), dtype=np.uint64)
    slot = _gather_runs(2 * first, dfs)
    combined[slot] = deltas.astype(np.uint64)
    combined[slot + np.repeat(dfs, dfs)] = freq[idx].astype(np.uint64)
    vb = np.maximum((_bit_length(combined) + 6) // 7, 1)     # bytes per vint
    return vint_encode(combined), np.add.reduceat(vb, 2 * first).astype(np.int64)


def _extract_payloads(flat, lengths: np.ndarray, spec: str):
    """DelimitedPayloadTokenFilter index side
    (`analysis/common/.../payloads/DelimitedPayloadTokenFilter.java:53-70`
    + FloatEncoder): characters before the FIRST delimiter are the token,
    those after parse as the payload value (unparsable payloads raise, the
    Float.parseFloat contract).  Runs at the raw token stream — the
    reference's canonical placement is immediately after the tokenizer.

    Payload values live in a per-shard (doc, raw-position) -> float32
    sidecar instead of inside the postings blocks: every later graph stage
    (stop gaps, synonym/shingle overlays, 1:1 rewrites) PRESERVES a
    surviving token's raw position, so query-time span matches can look
    payloads up by (doc, position) with two searchsorteds — no postings
    format change and no cost on payload-free indexes.

    Returns (stripped flat tokens, sidecar dict | None)."""
    parts = spec.split(":")
    delim = parts[1] if len(parts) > 1 and parts[1] else "|"
    if not isinstance(flat, (pa.Array, pa.ChunkedArray)):
        flat = pa.array(np.asarray(flat, dtype=object), type=pa.string())
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    sp = pa.compute.split_pattern(flat, delim, max_splits=1)
    if isinstance(sp, pa.ChunkedArray):
        sp = sp.combine_chunks()
    n_elem = pa.compute.list_value_length(sp).to_numpy(zero_copy_only=False)
    stripped = pa.compute.list_element(sp, 0)
    idx = np.nonzero(n_elem == 2)[0]
    if len(idx) == 0:
        return stripped, None
    pay_str = pa.compute.list_flatten(sp).take(
        pa.array(sp.offsets.to_numpy()[idx] + 1))
    vals = pa.compute.cast(pay_str, pa.float32()) \
        .to_numpy(zero_copy_only=False).astype(np.float32)
    ends = np.cumsum(lengths)
    doc = np.searchsorted(ends, idx, side="right").astype(np.int64)
    starts = ends - lengths
    pos = (idx - starts[doc]).astype(np.int32)
    doc_off = np.searchsorted(doc, np.arange(len(lengths) + 1)) \
        .astype(np.int64)
    return stripped, {"doc_off": doc_off, "pos": pos, "val": vals}


KEYWORD_SEP = "\x1f"     # cannot appear inside an analyzed token


def keyword_term(field: str, value: str) -> str:
    """Term-dictionary key for an un-tokenized keyword field value
    (StringField/KeywordField semantics, `document/StringField.java:27`):
    one posting per doc with that exact value, freq=1, non-scoring."""
    return f"{field}{KEYWORD_SEP}{value}"


def _append_keyword_postings(terms, term_starts, doc_of, freq, positions,
                             table: pa.Table, keyword_cols):
    """Splice keyword-field postings into the inversion arrays.

    The few keyword terms are sorted and binary-searched into the sorted text
    dictionary (code-point order, which is the UTF-8 byte order of
    ``sort_indices``); every text and keyword run then moves to its final
    slot in one gather, with no per-term Python over the text terms."""
    kw_terms, kw_docs, kw_dfs = [], [], []
    for col in keyword_cols:
        if col not in table.column_names:
            continue
        denc = pa.compute.dictionary_encode(table.column(col).combine_chunks())
        vals = denc.dictionary.to_pylist()
        keep = np.array([v != "" for v in vals], dtype=bool)
        codes = pa.compute.fill_null(denc.indices, -1).to_numpy(zero_copy_only=False)
        docs = np.nonzero(np.append(keep, False)[codes])[0]    # null's -1 reads False
        # one run per kept value, docs ascending within it
        kw_docs.append(docs[np.argsort(codes[docs], kind="stable")].astype(np.int32))
        kw_dfs.append(np.bincount(codes[docs], minlength=len(vals))[keep])
        kw_terms.extend(keyword_term(col, v) for v, k in zip(vals, keep) if k)
    if not kw_terms:
        return terms, term_starts, doc_of, freq, positions

    os.environ.setdefault("POLARS_MAX_THREADS", "1")
    import polars as pl

    V, K = len(terms), len(kw_terms)
    ko = np.array(sorted(range(K), key=kw_terms.__getitem__), dtype=np.int64)
    kw_arr = pa.array(kw_terms, type=terms.type)
    ins = pl.from_arrow(terms).search_sorted(
        pl.from_arrow(kw_arr.take(pa.array(ko))), side="left").to_numpy()
    # source term s (text terms, then keyword terms in input order) lands at
    # new slot j where src[j] == s
    src = np.empty(V + K, dtype=np.int64)
    src[np.arange(V) + np.searchsorted(ins, np.arange(V), side="right")] = np.arange(V)
    src[ins + np.arange(K)] = V + ko
    kw_docs = np.concatenate(kw_docs)
    kw_dfs = np.concatenate(kw_dfs).astype(np.int64)
    P = len(doc_of)
    run_start = np.concatenate((term_starts[:-1], P + np.cumsum(kw_dfs) - kw_dfs))[src]
    run_len = np.concatenate((np.diff(term_starts), kw_dfs))[src]
    g = _gather_runs(run_start, run_len)
    all_freq = np.concatenate((freq, np.ones(len(kw_docs), dtype=np.int32)))
    pb = np.concatenate(([0], np.cumsum(all_freq, dtype=np.int64)))
    pg = _gather_runs(pb[run_start], pb[run_start + run_len] - pb[run_start])
    all_pos = np.concatenate((positions, np.zeros(len(kw_docs), dtype=np.int32)))
    return (pa.concat_arrays([terms, kw_arr]).take(pa.array(src)),
            np.concatenate(([0], np.cumsum(run_len))),
            np.concatenate((doc_of, kw_docs))[g].astype(np.int32),
            all_freq[g].astype(np.int32), all_pos[pg].astype(np.int32))


def _write_term_vectors(tmp_dir: str, terms, term_starts, doc_of, freq,
                        positions, n_docs: int) -> None:
    """Transpose posting-major (term -> docs) arrays into doc-major CSR term
    vectors: tv_doc_ptr[d]..tv_doc_ptr[d+1] index (tv_terms, tv_freqs)
    term-id/freq pairs for local doc d (term ids ascending); each pair p's
    occurrence positions are tv_positions[tv_pos_ptr[p]:tv_pos_ptr[p+1]]."""
    V = len(terms)
    dfs_all = (term_starts[1:] - term_starts[:-1]).astype(np.int64)
    term_of = np.repeat(np.arange(V, dtype=np.int64), dfs_all)
    kw_mask = pa.compute.match_substring(terms, KEYWORD_SEP) \
        .to_numpy(zero_copy_only=False).astype(bool)
    p_idx = np.nonzero(~kw_mask[term_of])[0]
    order = p_idx[np.argsort(doc_of[p_idx].astype(np.int64) * V + term_of[p_idx],
                             kind="stable")]
    tv_terms = term_of[order].astype(np.int32)
    tv_freqs = freq[order].astype(np.int32)
    counts = np.bincount(doc_of[order], minlength=n_docs)
    tv_doc_ptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    pb = np.concatenate(([0], np.cumsum(freq.astype(np.int64))))
    pos_counts = freq[order].astype(np.int64)
    tv_pos_ptr = np.concatenate(([0], np.cumsum(pos_counts)))
    # gather each reordered posting's position run from the flat stream
    gather = _gather_runs(pb[order], pos_counts)
    tv_positions = (positions[gather].astype(np.int32)
                    if len(gather) else np.zeros(0, dtype=np.int32))
    for name, arr in zip(TV_FILES, (tv_doc_ptr, tv_terms, tv_freqs,
                                    tv_pos_ptr.astype(np.int64), tv_positions)):
        np.save(os.path.join(tmp_dir, name), arr)


def write_shard(out_dir: str, pid: int, table: pa.Table,
                fingerprint: str, text_col: str = "text",
                key_cols: tuple[str, str] = ("conv_id", "turn_idx"),
                index_positions: bool = True,
                keyword_cols: tuple[str, ...] = (),
                docvalue_cols: tuple[str, ...] = (),
                token_filters: tuple[str, ...] = (),
                vector_col: str | None = None,
                vector_graph: bool = True,
                term_vectors: bool = False,
                point_cols: dict | None = None,
                shape_cols: dict | None = None,
                bloom_fields: tuple = (),
                id_version_fields: tuple = (),
                bp_reorder: bool = False,
                index_sort: tuple = ()) -> dict:
    """Build one shard from this partition's rows; atomic (tmp dir + rename).

    Rows are sorted by key_cols (stable global order); local docIDs are their
    ranks.  Global doc bases are NOT known here — the commit assigns
    ``doc_base`` as the prefix sum of shard doc_counts in pid (= conv-range)
    order, which equals the stable global ordering.  Returns the manifest
    dict (also persisted as manifest.json).
    """
    final_dir = os.path.join(out_dir, f"shard-{pid:05d}")
    if os.path.exists(final_dir):
        m = read_manifest(final_dir)
        if m and m.get("status") == "committed" and m.get("fingerprint") == fingerprint:
            return m          # resume: already built
        shutil.rmtree(final_dir)
    tmp_dir = final_dir + ".tmp"
    if os.path.exists(tmp_dir):
        shutil.rmtree(tmp_dir)
    os.makedirs(tmp_dir)

    if table.num_rows >= 2**31 - 128:      # IndexWriter.MAX_DOCS-style cap
        raise ValueError("partition exceeds int32 local docID space; lower "
                         "target_docs_per_partition")
    table = table.sort_by([(key_cols[0], "ascending"), (key_cols[1], "ascending")])

    if index_sort:
        # index-time sort (IndexWriterConfig.setIndexSort / `index/Sorter.java`
        # semantics): local docIDs follow the given (field, asc|desc) chain,
        # key_cols order as the stable tie-break (the sort above ran first).
        # An ascending single-field sort additionally unlocks the
        # sorted-dv binary-search range fast path (docvalue_is_sorted) and
        # makes sorted-top-k early termination exact per shard.
        if bp_reorder:
            raise ValueError("index_sort and bp_reorder both dictate the "
                             "doc layout; pick one")
        table = table.sort_by([(f, "ascending" if d in ("asc", "ascending")
                                else "descending") for f, d in index_sort])

    if bp_reorder and table.num_rows:
        # recursive-graph-bisection doc layout (Dhulipala et al., KDD 2016;
        # the BPIndexReorderer role): permute THIS partition's rows so docs
        # sharing terms are adjacent — postings deltas shrink, PFor blocks
        # get narrower bit widths.  Runs inside the flush task (parallel
        # across shards, no extra shuffle).  The graph uses the raw
        # standard tokenization as a layout proxy (one extra tokenize pass;
        # the real analyzer chain still runs below on the permuted rows).
        # Trade-off: local docIDs stop following key_cols order, so block-
        # join parent/child adjacency and index-sort early termination must
        # not be combined with bp_reorder.
        from ..analysis.standard import tokenize_column as _tok
        from .bp import bp_permutation

        bp_lens, bp_flat = _tok(table.column(text_col))
        perm = bp_permutation(bp_lens, bp_flat)
        table = table.take(pa.array(perm, type=pa.int64()))

    vector_dim = 0
    vector_scale = None
    if vector_col:
        # "col:int8" requests per-shard scalar quantization
        # (Lucene99ScalarQuantizedVectorsFormat model / KnnByteVectorQuery
        # storage: int8 vectors + one uniform scale; a uniform scale cancels
        # in cosine, so scoring semantics are preserved up to rounding).
        vq = vector_col.endswith(":int8")
        vcol = vector_col[:-5] if vq else vector_col
    if vector_col and vcol in table.column_names:
        # per-shard vector store + HNSW graph, built from THIS partition's
        # rows inside the flush task (Lucene95HnswVectorsFormat's
        # per-segment graph; never materialized on the driver)
        varr = table.column(vcol).combine_chunks()
        vals = varr.flatten().to_numpy(zero_copy_only=False).astype(np.float32)
        if table.num_rows:
            vector_dim = len(vals) // table.num_rows
            vm = vals.reshape(table.num_rows, vector_dim)
            if vq:
                amax = float(np.abs(vm).max())
                vector_scale = (amax / 127.0) if amax > 0 else 1.0
                qm = np.clip(np.round(vm / vector_scale), -127, 127) \
                    .astype(np.int8)
                np.save(os.path.join(tmp_dir, VECTORS_Q_FILE), qm)
                # the graph (and all scoring) sees the DEQUANTIZED values,
                # so graph neighbors match search-time similarities exactly
                vm = qm.astype(np.float32) * np.float32(vector_scale)
            else:
                np.save(os.path.join(tmp_dir, VECTORS_FILE), vm)
            if vector_graph:
                from .hnsw import HnswGraph

                norms_v = np.linalg.norm(vm.astype(np.float64), axis=1)
                norms_v[norms_v == 0] = 1.0
                normed = vm.astype(np.float64) / norms_v[:, None]
                g = HnswGraph(normed, np.arange(table.num_rows, dtype=np.int64),
                              seed=1000 + pid).build()
                g.save(os.path.join(tmp_dir, HNSW_FILE))
        table = table.drop_columns([vcol])

    points_meta = {}
    if point_cols:
        # BKD-style point sidecars (`index/points.py`): each field maps to a
        # tuple of per-dimension int64 columns; rows with a null dimension
        # are absent from the sidecar.  Built inside the flush task from
        # THIS partition's (sorted) rows, like vectors/term-vectors.
        from .points import write_points

        keep_cols = set(key_cols) | set(docvalue_cols) | set(keyword_cols) \
            | {text_col}
        for field, dims in point_cols.items():
            if pa.types.is_list(table.column(dims[0]).type):
                # multi-valued points (one doc, many k-dim values — the BKD
                # model FacetSetsField rides on): every dim is a list<int64>
                # column with per-row lengths equal across dims; a null or
                # empty list contributes no points for that doc
                flats, lens = [], None
                for c in dims:
                    col = table.column(c).combine_chunks()
                    ln = pa.compute.fill_null(
                        pa.compute.list_value_length(col), 0) \
                        .to_numpy(zero_copy_only=False).astype(np.int64)
                    if lens is None:
                        lens = ln
                    elif not np.array_equal(lens, ln):
                        raise ValueError(
                            f"point field {field!r}: per-row list lengths "
                            f"differ between dimension columns")
                    flats.append(pa.compute.list_flatten(col)
                                 .to_numpy(zero_copy_only=False)
                                 .astype(np.int64))
                coords = np.stack(flats, axis=1) if len(flats[0]) else \
                    np.zeros((0, len(dims)), dtype=np.int64)
                docs = np.repeat(np.arange(table.num_rows, dtype=np.int32),
                                 lens)
            else:
                arrs = []
                valid = np.ones(table.num_rows, dtype=bool)
                for c in dims:
                    col = table.column(c)
                    if pa.types.is_timestamp(col.type):
                        col = pa.compute.cast(col, pa.int64())
                    valid &= pa.compute.is_valid(col).combine_chunks() \
                        .to_numpy(zero_copy_only=False)
                    arrs.append(col.combine_chunks()
                                .to_numpy(zero_copy_only=False))
                coords = np.stack([np.where(valid, a, 0) for a in arrs],
                                  axis=1).astype(np.int64)[valid]
                docs = np.nonzero(valid)[0].astype(np.int32)
            points_meta[field] = write_points(tmp_dir, field, coords, docs)
        drop = [c for cols in point_cols.values() for c in cols
                if c not in keep_cols and c in table.column_names]
        if drop:
            table = table.drop_columns(sorted(set(drop)))

    shapes_meta = {}
    if shape_cols:
        # shape sidecars (`index/shapes.py`): each field maps to a pair of
        # list<float> degree-coordinate columns (lats, lons); rows with a
        # null shape are absent from the sidecar
        from ..search.geo import encode_latitude, encode_longitude
        from .shapes import write_shapes

        keep_cols = set(key_cols) | set(docvalue_cols) | set(keyword_cols) \
            | {text_col}
        for field, spec in shape_cols.items():
            # ("lats", "lons") = geo polygons; leading markers select
            # variants: "xy" = cartesian floats via the sortable-int
            # encoding (XYShape), "line" = open polylines (>= 2 vertices,
            # no rings) — e.g. ("line", lats, lons) or ("xy", "line", x, y)
            markers = set(spec[:-2])
            if not markers <= {"xy", "line"}:
                raise ValueError(f"unknown shape markers {markers}")
            gtype = "line" if "line" in markers else "polygon"
            if "xy" in markers:
                mode, (lat_c, lon_c) = "xy", (spec[-1], spec[-2])  # (y, x)
            else:
                mode, (lat_c, lon_c) = "geo", spec[-2:]
            lat_col = table.column(lat_c).combine_chunks()
            lon_col = table.column(lon_c).combine_chunks()
            if pa.types.is_list(lat_col.type.value_type) or \
                    pa.types.is_large_list(lat_col.type.value_type):
                # list<list<float>>: ring 0 = outer, rest = holes
                # (`geo/Polygon.java` holes); row-wise extraction — the
                # holes path is opt-in, flat single-ring stays vectorized
                lat_rows = lat_col.to_pylist()
                lon_rows = lon_col.to_pylist()
                docs_l, counts_l, sizes_l, flat_la, flat_lo = [], [], [], [], []
                for i, (la, lo) in enumerate(zip(lat_rows, lon_rows)):
                    if la is None or lo is None:
                        continue
                    sizes = [len(r) for r in la]
                    if [len(r) for r in lo] != sizes:
                        raise ValueError(f"shape field {field}: lat/lon "
                                         "ring sizes differ")
                    docs_l.append(i)
                    counts_l.append(sum(sizes))
                    sizes_l.append(np.asarray(sizes, dtype=np.int64))
                    flat_la.extend(v for r in la for v in r)
                    flat_lo.extend(v for r in lo for v in r)
                raw_lat = np.asarray(flat_la, dtype=np.float64)
                raw_lon = np.asarray(flat_lo, dtype=np.float64)
                if mode == "xy":
                    from ..search.xy import encode_xy

                    e_lat, e_lon = encode_xy(raw_lat), encode_xy(raw_lon)
                else:
                    e_lat = encode_latitude(raw_lat)
                    e_lon = encode_longitude(raw_lon)
                if gtype == "line":
                    raise ValueError("line shape fields take flat "
                                     "list<float> columns, not rings")
                shapes_meta[field] = write_shapes(
                    tmp_dir, field, e_lat, e_lon,
                    np.asarray(counts_l, dtype=np.int64),
                    np.asarray(docs_l, dtype=np.int32), mode=mode,
                    ring_sizes=sizes_l or None)
                continue
            valid = (pa.compute.is_valid(lat_col).to_numpy(zero_copy_only=False)
                     & pa.compute.is_valid(lon_col).to_numpy(zero_copy_only=False))
            la_off = lat_col.offsets.to_numpy().astype(np.int64)
            counts_all = np.diff(la_off)
            lo_counts = np.diff(lon_col.offsets.to_numpy().astype(np.int64))
            if np.any(valid & (counts_all != lo_counts)):
                raise ValueError(f"shape field {field}: lat/lon vertex "
                                 "counts differ")
            docs = np.nonzero(valid)[0].astype(np.int32)
            counts = counts_all[valid]
            raw_lat = lat_col.flatten().to_numpy(zero_copy_only=False) \
                .astype(np.float64)[np.repeat(valid, counts_all)]
            raw_lon = lon_col.flatten().to_numpy(zero_copy_only=False) \
                .astype(np.float64)[np.repeat(valid, lo_counts)]
            if mode == "xy":
                from ..search.xy import encode_xy

                flat_lat, flat_lon = encode_xy(raw_lat), encode_xy(raw_lon)
            else:
                flat_lat = encode_latitude(raw_lat)
                flat_lon = encode_longitude(raw_lon)
            shapes_meta[field] = write_shapes(tmp_dir, field, flat_lat,
                                              flat_lon, counts, docs,
                                              mode=mode, gtype=gtype)
        drop = [c for cols in shape_cols.values() for c in cols
                if c not in keep_cols and c in table.column_names]
        if drop:
            table = table.drop_columns(sorted(set(drop)))

    from ..analysis.chars import (
        apply_char_filters_column,
        split_text_stages,
        tokenize_column_alt,
    )

    char_specs, alt_tok, token_filters = split_text_stages(token_filters)
    text_arr = table.column(text_col)
    if char_specs:
        # char filters (html_strip / map / pattern) rewrite the text before
        # tokenization, like the reference's CharFilter chain
        text_arr = apply_char_filters_column(text_arr, char_specs)
    if alt_tok:
        lengths, flat = tokenize_column_alt(text_arr, alt_tok)
    else:
        lengths, flat = tokenize_column(text_arr)
    pay_spec = next((s for s in token_filters
                     if s.startswith("delimited_payload")), None)
    if pay_spec is not None:
        flat, pay_meta = _extract_payloads(flat, lengths, pay_spec)
        if pay_meta is not None:
            np.savez(os.path.join(tmp_dir, PAYLOADS_FILE), **pay_meta)
    tok_positions = None
    norm_lengths = lengths
    if token_filters:
        # opt-in analyzer chain applied to the flat token stream before
        # inversion; the commit records token_filters so the query side
        # applies the same (1:1 part of the) chain — both sides agree like
        # one shared Analyzer.  Graph stages (stop/syn/shingle) may change
        # token counts and positions; norms count only non-overlap tokens
        # (IndexingChain discountOverlaps).
        from ..analysis.filters import run_token_chain

        flat, lengths, tok_positions, norm_lengths = run_token_chain(
            flat, lengths, token_filters)
    terms, term_starts, doc_of, freq, positions = invert_flat(
        flat, lengths, tok_positions)
    if keyword_cols:
        terms, term_starts, doc_of, freq, positions = _append_keyword_postings(
            terms, term_starts, doc_of, freq, positions, table, keyword_cols)
    # normalize the dictionary type: the polars path yields large_string,
    # the per-row fallback string — shards must agree for stats concat
    terms = pa.compute.cast(terms, pa.string())
    norms = int_to_byte4(norm_lengths.astype(np.int64))
    dv_cols = [c for c in docvalue_cols if c not in key_cols]
    # IDVersion writer contract (IDVersionPostingsWriter.startDoc throws
    # on a second posting for a term): each ID term of an id_version
    # field must appear in exactly ONE doc of this segment
    for f in id_version_fields:
        pre = keyword_term(f, "")
        t_np = terms.to_numpy(zero_copy_only=False)
        lo = int(np.searchsorted(t_np, pre))
        hi = int(np.searchsorted(t_np, pre[:-1] + chr(ord(KEYWORD_SEP) + 1)))
        dfs_f = term_starts[lo + 1:hi + 1] - term_starts[lo:hi]
        if len(dfs_f) and int(dfs_f.max()) > 1:
            dup = t_np[lo + int(np.argmax(dfs_f))].split(KEYWORD_SEP, 1)[1]
            raise ValueError(
                f"id_version field {f!r}: ID {dup!r} indexed in "
                f"{int(dfs_f.max())} docs of one segment")

    return _persist_shard(
        tmp_dir, final_dir, pid, terms, term_starts, doc_of, freq, positions,
        index_positions=index_positions, norms=norms,
        docmap_tbl=table.select(list(key_cols) + dv_cols),
        range_cols=list(key_cols[1:]) + dv_cols,
        doc_count_field=int((lengths > 0).sum()),   # docs with >=1 term (Terms.getDocCount semantics)
        sum_ttf=int(lengths.astype(np.int64).sum()),
        vector_dim=vector_dim, vector_scale=vector_scale,
        term_vectors=term_vectors, fingerprint=fingerprint,
        bloom_fields=bloom_fields,
        extra=_sidecar_extra(points_meta, shapes_meta))


def _sidecar_extra(points_meta: dict, shapes_meta: dict) -> dict | None:
    """Manifest extras for point/shape sidecars; each shape field's bbox
    point meta is ALSO registered under points["<field>__bbox"], so the
    generic points reader / CheckIndex paths see it."""
    points = dict(points_meta or {})
    for field, m in (shapes_meta or {}).items():
        points[f"{field}__bbox"] = m["bbox"]
    out = {}
    if points:
        out["points"] = points
    if shapes_meta:
        out["shapes"] = shapes_meta
    return out or None


def _persist_shard(tmp_dir: str, final_dir: str, pid: int, terms,
                   term_starts, doc_of, freq, positions, *,
                   index_positions: bool, norms: np.ndarray,
                   docmap_tbl: pa.Table, range_cols,
                   doc_count_field: int, sum_ttf: int,
                   vector_dim: int = 0, vector_scale=None,
                   term_vectors: bool = False, fingerprint: str = "",
                   bloom_fields: tuple = (),
                   extra: dict | None = None) -> dict:
    """Encode + persist one shard from its inversion arrays — the codec-write
    half of the flush, shared by ``write_shard`` and the SegmentMerger path
    (``index/merge.py::force_merge``), which supplies already-merged arrays
    instead of re-analyzing.  ``terms`` is a sorted pa.string array; posting
    p's occurrence positions are ``positions[pb[p]:pb[p+1]]``."""
    n_docs = len(norms)

    if term_vectors:
        # term vectors = the doc-major transpose of the inversion
        # (`codecs/lucene90/Lucene90TermVectorsFormat.java` — a per-doc mini
        # inverted index with freqs + positions).  CSR layout over local
        # docs, term-sorted within each doc, TEXT terms only (keyword-
        # namespace postings are field metadata, not field content); stored
        # as separate .npy sidecars so readers mmap them like postings.
        _write_term_vectors(tmp_dir, terms, term_starts, doc_of, freq,
                            positions, n_docs)

    V = len(terms)
    dfs = (term_starts[1:] - term_starts[:-1]).astype(np.int64)
    small_mask = dfs < BLOCK_SIZE
    small_ids = np.nonzero(small_mask)[0]
    big_ids = np.nonzero(~small_mask)[0]

    # ---- encode: vectorized small terms + per-term loop for big terms ----
    small_payload, small_nbytes = _encode_small_terms(term_starts, doc_of, freq, small_ids)
    offs = np.zeros(V, dtype=np.int64)
    nbytes = np.zeros(V, dtype=np.int64)
    nbytes[small_ids] = small_nbytes
    small_offs = np.concatenate(([0], np.cumsum(small_nbytes[:-1]))) if len(small_ids) else np.zeros(0)
    offs[small_ids] = small_offs

    big_payloads = []
    big_meta = {}
    cursor = len(small_payload)
    batch_enc = encode_postings_batch(doc_of, freq, term_starts, big_ids)
    for t in big_ids:
        payload, b_offs, b_last = batch_enc[int(t)]
        offs[t] = cursor
        nbytes[t] = len(payload)
        big_meta[int(t)] = (b_offs, b_last)
        big_payloads.append(payload)
        cursor += len(payload)

    with open(os.path.join(tmp_dir, POSTINGS_FILE), "wb") as f:
        f.write(small_payload)
        for p in big_payloads:
            f.write(p)

    # ---- skip/impact metadata ----
    # small terms: one skip entry (off 0, last doc = final doc, single
    # conservative impact pair max_freq/min_norm)
    ends = term_starts[1:] - 1
    last_doc_small = doc_of[ends]                     # last doc per term
    pnorms = norms[doc_of]                            # norm byte per posting
    maxf = np.zeros(V, dtype=np.int64)
    np.maximum.at(maxf, np.repeat(np.arange(V), dfs), freq.astype(np.int64))
    minn = np.full(V, 255, dtype=np.int64)
    np.minimum.at(minn, np.repeat(np.arange(V), dfs), pnorms.astype(np.int64))

    # vectorized list-column assembly: small terms have exactly one skip
    # entry ([0], last_doc, single conservative impact pair); big terms get
    # their per-block entries from the (few) per-term python loops above
    n_skip = np.ones(V, dtype=np.int64)
    big_imp = {}
    n_imp = np.ones(V, dtype=np.int64)
    if len(big_ids):
        # batched skylines: one dense (block x norm-byte) max-freq matrix for
        # ALL big-term blocks, then the monotone-prune vectorized per row —
        # identical output to per-block impact_skyline without the Python
        # loop over blocks
        dfs_big = dfs[big_ids].astype(np.int64)
        nb_term = (dfs_big + BLOCK_SIZE - 1) // BLOCK_SIZE
        blk_base = np.concatenate(([0], np.cumsum(nb_term)))
        tot = int(dfs_big.sum())
        run_pref = np.concatenate(([0], np.cumsum(dfs_big)[:-1]))
        starts_big = term_starts[big_ids].astype(np.int64)
        idx = np.repeat(starts_big - run_pref, dfs_big) + np.arange(tot)
        ordinal = np.arange(tot) - np.repeat(run_pref, dfs_big)
        blk_of = np.repeat(blk_base[:-1], dfs_big) + ordinal // BLOCK_SIZE
        dense = np.zeros((int(blk_base[-1]), 256), dtype=np.int32)
        np.maximum.at(dense, (blk_of, pnorms[idx].astype(np.int64)),
                      freq[idx].astype(np.int32))
        run = np.maximum.accumulate(dense, axis=1)
        keep = dense > 0
        keep[:, 1:] &= dense[:, 1:] > run[:, :-1]
        ic_all = keep.sum(axis=1).astype(np.int64)
        rows_k, cols_k = np.nonzero(keep)
        sky_f = dense[rows_k, cols_k].astype(np.int32)
        sky_n = cols_k.astype(np.uint8)
        sky_bounds = np.concatenate(([0], np.cumsum(ic_all)))
        for j, t in enumerate(big_ids):
            b_offs, b_last = big_meta[int(t)]       # includes the tail entry
            n_skip[t] = len(b_offs)
            bs, be = blk_base[j], blk_base[j + 1]
            big_imp[int(t)] = (ic_all[bs:be],
                               sky_f[sky_bounds[bs]:sky_bounds[be]],
                               sky_n[sky_bounds[bs]:sky_bounds[be]])
            n_imp[t] = int(sky_bounds[be] - sky_bounds[bs])

    skip_bounds = np.concatenate(([0], np.cumsum(n_skip)))
    imp_bounds = np.concatenate(([0], np.cumsum(n_imp)))
    v_skip_offs = np.zeros(skip_bounds[-1], dtype=np.int32)
    v_skip_last = np.zeros(skip_bounds[-1], dtype=np.int32)
    v_imp_counts = np.ones(skip_bounds[-1], dtype=np.int32)
    v_imp_freqs = np.zeros(imp_bounds[-1], dtype=np.int32)
    v_imp_norms = np.zeros(imp_bounds[-1], dtype=np.int32)
    if len(small_ids):
        v_skip_last[skip_bounds[small_ids]] = last_doc_small[small_ids]
        v_imp_freqs[imp_bounds[small_ids]] = maxf[small_ids]
        v_imp_norms[imp_bounds[small_ids]] = minn[small_ids]
    for t in big_ids:
        b_offs, b_last = big_meta[int(t)]
        sb, ib = skip_bounds[t], imp_bounds[t]
        v_skip_offs[sb:sb + n_skip[t]] = b_offs
        v_skip_last[sb:sb + n_skip[t]] = b_last
        ic, vf, vn = big_imp[int(t)]
        v_imp_counts[sb:sb + n_skip[t]] = ic
        v_imp_freqs[ib:ib + n_imp[t]] = vf
        v_imp_norms[ib:ib + n_imp[t]] = vn

    # ---- positions stream (DOCS_AND_FREQS_AND_POSITIONS; PhraseQuery) ----
    # per-posting delta encoding: first occurrence stores the position, later
    # ones the gap (Lucene90PostingsWriter position semantics); ONE vint pass
    # for the whole shard, per-term byte offsets from per-value byte counts
    ttf_per_term = np.add.reduceat(freq.astype(np.int64), term_starts[:-1]) if V else np.zeros(0, dtype=np.int64)
    if index_positions and len(positions):
        from .postings import _bit_length

        pb = np.concatenate(([0], np.cumsum(freq.astype(np.int64))))
        run_start = np.zeros(len(positions), dtype=bool)
        run_start[pb[:-1]] = True
        pdelta = np.empty(len(positions), dtype=np.int64)
        pdelta[0] = positions[0]
        pdelta[1:] = positions[1:].astype(np.int64) - positions[:-1].astype(np.int64)
        pdelta[run_start] = positions[run_start]
        pos_payload = vint_encode(pdelta.astype(np.uint64))
        vb = np.maximum((_bit_length(pdelta.astype(np.uint64)) + 6) // 7, 1)
        val_off = np.concatenate(([0], np.cumsum(vb)))
        term_val_bounds = pb[term_starts]          # value index at each term boundary
        pos_off = val_off[term_val_bounds[:-1]]
        pos_n = val_off[term_val_bounds[1:]] - pos_off
        with open(os.path.join(tmp_dir, POSITIONS_FILE), "wb") as f:
            f.write(pos_payload)
    else:
        pos_off = np.zeros(V, dtype=np.int64)
        pos_n = np.zeros(V, dtype=np.int64)
        index_positions = False

    def _list_arr(values, bounds):
        return pa.ListArray.from_arrays(pa.array(bounds, type=pa.int32()),
                                        pa.array(values, type=pa.int32()))

    terms_table = pa.table({
        "term": terms,
        "df": pa.array(dfs, type=pa.int32()),
        "ttf": pa.array(ttf_per_term, type=pa.int64()),
        "pos_off": pa.array(pos_off, type=pa.int64()),
        "pos_n": pa.array(pos_n, type=pa.int64()),
        "off": pa.array(offs, type=pa.int64()),
        "nbytes": pa.array(nbytes, type=pa.int64()),
        "skip_offs": _list_arr(v_skip_offs, skip_bounds),
        "skip_last": _list_arr(v_skip_last, skip_bounds),
        "imp_counts": _list_arr(v_imp_counts, skip_bounds),
        "imp_freqs": _list_arr(v_imp_freqs, imp_bounds),
        "imp_norms": _list_arr(v_imp_norms, imp_bounds),
    })
    pq.write_table(terms_table, os.path.join(tmp_dir, TERMS_FILE))

    norms.astype(np.uint8).tofile(os.path.join(tmp_dir, NORMS_FILE))
    # docmap doubles as the doc-values store (NumericDocValues analogue,
    # `index/NumericDocValues.java`): per-doc int64 columns in local-docID
    # order; timestamps are stored as epoch-us int64.  Parquet column
    # projection keeps lookups cheap; manifest min/max enables shard pruning
    # for RangeQuery (the flat stand-in for BKD cell bounds).
    dv_ranges = {}
    for c in range_cols:
        col = docmap_tbl.column(c)
        if pa.types.is_timestamp(col.type):
            col = pa.compute.cast(col, pa.int64())
            docmap_tbl = docmap_tbl.set_column(
                docmap_tbl.column_names.index(c), c, col)
        if pa.types.is_integer(col.type) and len(col):
            dv_ranges[c] = [int(pa.compute.min(col).as_py()),
                            int(pa.compute.max(col).as_py())]
        elif (pa.types.is_list(col.type) or pa.types.is_large_list(col.type)) \
                and pa.types.is_integer(col.type.value_type):
            # multi-valued numeric dv (SortedNumericDocValues): flattened
            # min/max — valid shard-prune bounds for any-value range queries
            flat = pa.compute.list_flatten(col)
            if len(flat):
                dv_ranges[c] = [int(pa.compute.min(flat).as_py()),
                                int(pa.compute.max(flat).as_py())]
    # per-column aggregate stats (sum, n_positive): the analogue of the
    # precomputed term stats FeatureField.computePivotFeatureValue reads —
    # lets pivot computation stay O(shards) instead of scanning columns
    dv_sums = {}
    for c in range_cols:
        col = docmap_tbl.column(c)
        if pa.types.is_integer(col.type) and len(col):
            arr = col.to_numpy(zero_copy_only=False).astype(np.int64)
            dv_sums[c] = [int(arr[arr > 0].sum()), int((arr > 0).sum())]
    pq.write_table(docmap_tbl, os.path.join(tmp_dir, DOCMAP_FILE))

    blooms = {}
    if bloom_fields:
        # FuzzySet term sidecars for primary-key fields
        # (`codecs/bloom/BloomFilteringPostingsFormat.java`) — built from
        # the sorted dictionary's per-field prefix slice
        from .bloom import write_field_blooms

        blooms = write_field_blooms(tmp_dir, np.asarray(terms, dtype=object),
                                    n_docs, bloom_fields, KEYWORD_SEP)

    manifest = {
        "pid": int(pid),
        "doc_count": int(n_docs),
        "doc_count_field": int(doc_count_field),
        "sum_ttf": int(sum_ttf),
        "sum_df": int(dfs.sum()),
        "n_terms": int(V),
        "has_positions": bool(index_positions),
        "term_vectors": bool(term_vectors),
        "vector_dim": int(vector_dim),
        "vector_scale": vector_scale,
        "docvalues": dv_ranges,
        "dv_sums": dv_sums,
        "fingerprint": fingerprint,
        "status": "committed",
        **({"blooms": blooms} if blooms else {}),
        **(extra or {}),
    }
    with open(os.path.join(tmp_dir, MANIFEST_FILE), "w") as f:
        json.dump(manifest, f)
    os.rename(tmp_dir, final_dir)
    return manifest


def read_manifest(shard_dir: str) -> dict | None:
    p = os.path.join(shard_dir, MANIFEST_FILE)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)


class _QuantizedVectors:
    """Lazy dequantizing view over an int8 mmap (KnnByteVectorQuery-style
    storage with one uniform shard scale): slicing returns float32
    `int8 * scale`; the full matrix only materializes via astype()."""

    __slots__ = ("q", "scale", "shape")

    def __init__(self, q: np.ndarray, scale: float):
        self.q = q
        self.scale = np.float32(scale)
        self.shape = q.shape

    def __len__(self):
        return len(self.q)

    def __getitem__(self, idx):
        return self.q[idx].astype(np.float32) * self.scale

    def astype(self, dtype):
        return (self.q.astype(np.float64) * float(self.scale)).astype(dtype)

    def __array__(self, dtype=None, copy=None):
        out = self.q.astype(np.float32) * self.scale
        return out.astype(dtype) if dtype is not None else out


class ShardReader:
    """Memory-mapped reader over one shard (the per-slice hot query state,
    analogous to an mmap'd SegmentReader — `store/MMapDirectory.java:97,131`).

    The term dictionary is loaded into RAM (sorted Arrow table → binary
    search); postings.bin and norms.bin are np.memmap'd so the OS page cache
    is shared across query actors on a node.
    """

    def __init__(self, shard_dir: str):
        self.dir = shard_dir
        self.manifest = read_manifest(shard_dir)
        if self.manifest is None or self.manifest.get("status") != "committed":
            raise FileNotFoundError(f"shard not committed: {shard_dir}")
        self.doc_base = int(self.manifest.get("doc_base", 0))  # set by commit
        self.doc_count = int(self.manifest["doc_count"])
        t = pq.read_table(os.path.join(shard_dir, TERMS_FILE))
        self._terms = t.column("term").combine_chunks()
        self._df = t.column("df").to_numpy()
        self._ttf = t.column("ttf").to_numpy()
        self._off = t.column("off").to_numpy()
        self._nbytes = t.column("nbytes").to_numpy()
        self._skip_offs = t.column("skip_offs").combine_chunks()
        self._skip_last = t.column("skip_last").combine_chunks()
        self._imp_counts = t.column("imp_counts").combine_chunks()
        self._imp_freqs = t.column("imp_freqs").combine_chunks()
        self._imp_norms = t.column("imp_norms").combine_chunks()
        self._pos_off = t.column("pos_off").to_numpy() if "pos_off" in t.column_names else None
        self._pos_n = t.column("pos_n").to_numpy() if "pos_n" in t.column_names else None
        self._pos = None
        # numpy views for fast binary search
        self._term_np = self._terms.to_numpy(zero_copy_only=False)
        psize = os.path.getsize(os.path.join(shard_dir, POSTINGS_FILE))
        self._post = (np.memmap(os.path.join(shard_dir, POSTINGS_FILE), dtype=np.uint8, mode="r")
                      if psize else np.zeros(0, dtype=np.uint8))
        self.norms = np.memmap(os.path.join(shard_dir, NORMS_FILE), dtype=np.uint8, mode="r") \
            if self.doc_count else np.zeros(0, dtype=np.uint8)
        self._docmap = None
        self._tv = None              # lazy-mmapped term-vector sidecars
        self._points = {}            # lazy PointsReaders by field
        self.deleted = None          # optional live-docs mask (set by searcher)

    def points(self, field: str):
        """mmap'd PointsReader for one point field; None when the field has
        no point sidecar in this shard (query matches nothing here)."""
        if field not in self._points:
            meta = (self.manifest.get("points") or {}).get(field)
            if meta is None:
                self._points[field] = None
            else:
                from .points import PointsReader

                self._points[field] = PointsReader(self.dir, field, meta)
        return self._points[field]

    def shapes(self, field: str):
        """mmap'd ShapesReader for one shape field; None when absent."""
        if not hasattr(self, "_shapes"):
            self._shapes = {}
        if field not in self._shapes:
            meta = (self.manifest.get("shapes") or {}).get(field)
            if meta is None:
                self._shapes[field] = None
            else:
                from .shapes import ShapesReader

                self._shapes[field] = ShapesReader(self.dir, field, meta)
        return self._shapes[field]

    def point_bounds(self, field: str):
        """Shard-level (min, max) per-dim bounds from the manifest
        (getMinPackedValue/getMaxPackedValue shard pruning); None when the
        field is absent or empty."""
        meta = (self.manifest.get("points") or {}).get(field)
        if not meta or not meta.get("min"):
            return None
        return meta["min"], meta["max"]

    def set_deletes(self, path: str | None):
        """Attach a generational live-docs sidecar (commit-referenced)."""
        if path and os.path.exists(path):
            self.deleted = np.load(path)
        else:
            self.deleted = None

    @property
    def n_terms(self) -> int:
        return len(self._df)

    def term_codes(self):
        """The dictionary's length-bucketed code-point encoding for fuzzy
        expansion (`util/levenshtein.TermCodes`), built on first use so
        non-fuzzy traffic never pays for it."""
        tc = getattr(self, "_term_codes", None)
        if tc is None:
            tc = self._term_codes = TermCodes(self._term_np)
        return tc

    def seek_exact(self, term: str) -> int:
        """Sorted-term binary search (block-tree seekExact equivalent,
        `blocktree/Lucene90BlockTreeTermsReader.java:341`); -1 if absent.
        Fields with a bloom sidecar check it first
        (`codecs/bloom/BloomFilteringPostingsFormat.java` TermsEnum: a NO
        skips the dictionary probe — the shard-pruning path for
        primary-key lookups)."""
        blooms = self.manifest.get("blooms")
        if blooms and KEYWORD_SEP in term:
            field = term.split(KEYWORD_SEP, 1)[0]
            bf = self._bloom(field)
            if bf is not None and not bf.contains_one(term):
                return -1
        i = int(np.searchsorted(self._term_np, term))
        if i < len(self._term_np) and self._term_np[i] == term:
            return i
        return -1

    def _bloom(self, field: str):
        """Lazy-loaded BloomFilter for a field; None when absent."""
        cache = getattr(self, "_bloom_cache", None)
        if cache is None:
            cache = self._bloom_cache = {}
        if field not in cache:
            meta = (self.manifest.get("blooms") or {}).get(field)
            if meta is None:
                cache[field] = None
            else:
                from .bloom import BloomFilter

                cache[field] = BloomFilter.load(
                    os.path.join(self.dir, meta["file"]))
        return cache[field]

    def term_stats(self, tid: int) -> tuple[int, int]:
        return int(self._df[tid]), int(self._ttf[tid])

    def payload(self, tid: int) -> memoryview:
        o, n = int(self._off[tid]), int(self._nbytes[tid])
        return memoryview(self._post)[o:o + n]

    # process-wide decoded-postings cache (LRUQueryCache analogue,
    # `search/LRUQueryCache.java`): hot terms are decoded once per actor
    # process, not once per query.  Size-bounded by byte footprint.
    _CACHE: "dict[tuple[str, int], tuple[np.ndarray, np.ndarray]]" = {}
    _CACHE_BYTES = [0]
    _CACHE_LIMIT = 256 * 1024 * 1024

    def postings(self, tid: int):
        """Full decode: (local doc_ids int32[], freqs int32[]) — batched
        group-by-bit-width decode via the skip table, LRU-cached."""
        from .postings import decode_list

        key = (self.dir, self.manifest.get("fingerprint", ""), tid)
        hit = ShardReader._CACHE.get(key)
        if hit is not None:
            # move-to-end = recently used (dict preserves insertion order)
            ShardReader._CACHE.pop(key)
            ShardReader._CACHE[key] = hit
            return hit
        out = decode_list(self.payload(tid), int(self._df[tid]),
                          self._skip_offs[tid].values.to_numpy())
        nbytes = out[0].nbytes + out[1].nbytes
        if nbytes < ShardReader._CACHE_LIMIT // 8:
            ShardReader._CACHE[key] = out
            ShardReader._CACHE_BYTES[0] += nbytes
            while ShardReader._CACHE_BYTES[0] > ShardReader._CACHE_LIMIT:
                old_key, old = next(iter(ShardReader._CACHE.items()))
                ShardReader._CACHE.pop(old_key)
                ShardReader._CACHE_BYTES[0] -= sum(a.nbytes for a in old)
        return out

    def postings_if_cached(self, tid: int):
        """The LRU-cached full decode, or None — candidate-position lookups
        (MaxScore rescore) prefer a cache hit over a subset block decode."""
        key = (self.dir, self.manifest.get("fingerprint", ""), tid)
        return ShardReader._CACHE.get(key)

    def skip_data(self, tid: int):
        """(skip_offs, skip_last, imp_counts, imp_freqs, imp_norms) numpy."""
        return (self._skip_offs[tid].values.to_numpy(),
                self._skip_last[tid].values.to_numpy(),
                self._imp_counts[tid].values.to_numpy(),
                self._imp_freqs[tid].values.to_numpy(),
                self._imp_norms[tid].values.to_numpy())

    def positions(self, tid: int, freqs: np.ndarray) -> np.ndarray:
        """Flat occurrence positions for this term's postings, given the
        decoded freqs (posting p's positions are flat[pb[p]:pb[p+1]] with
        pb = cumsum(freqs)).  Lazy vint decode from positions.bin,
        LRU-cached like postings (the vint scan dominated repeat phrase /
        span / interval queries on hot terms)."""
        return self.positions_with_bounds(tid, freqs)[0]

    def positions_with_bounds(self, tid: int, freqs: np.ndarray):
        """(flat positions, pb boundaries) with pb = [0, cumsum(freqs)] —
        cached together so repeat positional queries skip both the vint
        scan and the boundary cumsum."""
        key = (self.dir, self.manifest.get("fingerprint", ""), "pos", tid)
        hit = ShardReader._CACHE.get(key)
        if hit is not None:
            ShardReader._CACHE.pop(key)
            ShardReader._CACHE[key] = hit
            return hit
        flat = self._decode_positions(tid, freqs)
        pb = np.concatenate(([0], np.cumsum(freqs.astype(np.int64))))
        out = (flat, pb)
        nbytes = flat.nbytes + pb.nbytes
        if nbytes < ShardReader._CACHE_LIMIT // 8:
            ShardReader._CACHE[key] = out
            ShardReader._CACHE_BYTES[0] += nbytes
            while ShardReader._CACHE_BYTES[0] > ShardReader._CACHE_LIMIT:
                old_key, old = next(iter(ShardReader._CACHE.items()))
                ShardReader._CACHE.pop(old_key)
                ShardReader._CACHE_BYTES[0] -= sum(a.nbytes for a in old)
        return out

    def _decode_positions(self, tid: int, freqs: np.ndarray) -> np.ndarray:
        from .postings import vint_decode

        if self._pos is None:
            p = os.path.join(self.dir, POSITIONS_FILE)
            self._pos = np.memmap(p, dtype=np.uint8, mode="r")
        o, n = int(self._pos_off[tid]), int(self._pos_n[tid])
        total = int(freqs.sum())
        deltas, _ = vint_decode(memoryview(self._pos)[o:o + n], total)
        d = deltas.astype(np.int64)
        csum = np.cumsum(d)
        pb = np.cumsum(freqs.astype(np.int64))[:-1]
        run_base = np.zeros(total, dtype=np.int64)
        if len(pb):
            starts = pb
            base_vals = csum[starts - 1]
            run_id = np.zeros(total, dtype=np.int64)
            run_id[starts] = 1
            run_id = np.cumsum(run_id)
            bases = np.concatenate(([0], base_vals))
            run_base = bases[run_id]
        return (csum - run_base).astype(np.int32)

    def vectors(self):
        """mmap'd float32 (doc_count, dim) vector matrix in local-docID order
        (the per-segment flat-vector file of Lucene95HnswVectorsFormat);
        None when the shard has no vector column.  Quantized shards return a
        :class:`_QuantizedVectors` view: int8 stays mmap'd, slices
        dequantize on access (KnnByteVectorQuery-style storage)."""
        v = getattr(self, "_vecs", False)
        if v is False:
            p = os.path.join(self.dir, VECTORS_FILE)
            pq_ = os.path.join(self.dir, VECTORS_Q_FILE)
            if os.path.exists(pq_):
                scale = float(self.manifest.get("vector_scale") or 1.0)
                v = _QuantizedVectors(np.load(pq_, mmap_mode="r"), scale)
            elif os.path.exists(p):
                v = np.load(p, mmap_mode="r")
            else:
                v = None
            self._vecs = v
        return v

    def vector_norms(self) -> np.ndarray:
        """Cached float64 L2 norms of the raw vectors (cosine denominators)."""
        n = getattr(self, "_vec_norms", None)
        if n is None:
            vm = self.vectors()
            n = np.linalg.norm(vm.astype(np.float64), axis=1)
            n[n == 0] = 1.0
            self._vec_norms = n
        return n

    def hnsw(self):
        """Lazy per-shard HNSW graph; None when absent (exact fallback)."""
        g = getattr(self, "_hnsw", False)
        if g is False:
            from .hnsw import HnswGraph

            p = os.path.join(self.dir, HNSW_FILE)
            g = self._hnsw = HnswGraph.load(p) if os.path.exists(p) else None
        return g

    def docmap(self) -> pa.Table:
        if self._docmap is None:
            self._docmap = pq.read_table(os.path.join(self.dir, DOCMAP_FILE))
        return self._docmap

    def set_dv_updates(self, files: dict | None,
                       ranges: dict | None = None) -> None:
        """Attach generational doc-values sidecars (commit-referenced; the
        `docValuesGen` overlay — newest generation replaces the column)."""
        self._dv_files = dict(files or {})
        self._dv_ranges = dict(ranges or {})
        self._dv_cache = {}
        self._dv_sorted_cache = {}

    def docvalue(self, field: str) -> np.ndarray:
        """Per-doc int64 doc-values column in local-docID order (lazy, cached;
        reads only the requested parquet column; a dv-update sidecar
        generation, when attached, replaces the original column)."""
        cache = getattr(self, "_dv_cache", None)
        if cache is None:
            cache = self._dv_cache = {}
        dv = cache.get(field)
        if dv is None:
            upd = getattr(self, "_dv_files", {}).get(field)
            if upd and os.path.exists(upd):
                dv = np.load(upd).astype(np.int64)
            else:
                if self._docmap is not None:
                    col = self._docmap.column(field)
                else:
                    col = pq.read_table(os.path.join(self.dir, DOCMAP_FILE),
                                        columns=[field]).column(field)
                if pa.types.is_timestamp(col.type):
                    col = pa.compute.cast(col, pa.int64())
                dv = col.to_numpy(zero_copy_only=False).astype(np.int64)
            cache[field] = dv
        return dv

    def docvalue_range(self, field: str) -> tuple[int, int] | None:
        """(min, max) for shard pruning — the dv-update generation's range
        when one is attached (the original manifest range is stale then),
        else the immutable shard manifest's."""
        r = getattr(self, "_dv_ranges", {}).get(field) \
            or self.manifest.get("docvalues", {}).get(field)
        return (int(r[0]), int(r[1])) if r else None

    def docvalue_is_sorted(self, field: str) -> bool:
        """True when the column is non-decreasing in local-docID order —
        the IndexSortSortedNumericDocValuesRangeQuery precondition
        (`sandbox/.../IndexSortSortedNumericDocValuesRangeQuery.java`
        semantics: ranges on the index-sort field binary-search the
        boundaries instead of scanning).  Checked once per reader per
        column (one O(n) pass, amortized over every later range query;
        dv-update overlays invalidate via the set_dv_updates cache
        reset)."""
        cache = getattr(self, "_dv_sorted_cache", None)
        if cache is None:
            cache = self._dv_sorted_cache = {}
        got = cache.get(field)
        if got is None:
            upd = getattr(self, "_dv_files", {}).get(field)
            if upd:             # overlaid columns lose the sort guarantee
                got = False
            else:
                dv = self.docvalue(field)
                got = bool(np.all(dv[1:] >= dv[:-1])) if len(dv) else True
            cache[field] = got
        return got

    def sorted_numeric_docvalue(self, field: str) -> tuple[np.ndarray, np.ndarray]:
        """Multi-valued numeric doc values (`index/SortedNumericDocValues.java`
        semantics: per-doc values returned in ASCENDING order): CSR view
        (offsets int64[n_docs+1], values int64[]) over the docmap list<int>
        column.  Canonicalized (per-doc sort) once per reader and cached —
        the reference sorts at index time; here the docmap column doubles as
        the stored field, so the dv view canonicalizes lazily instead."""
        cache = getattr(self, "_mv_num_cache", None)
        if cache is None:
            cache = self._mv_num_cache = {}
        got = cache.get(field)
        if got is None:
            col = self.docmap().column(field).combine_chunks()
            if isinstance(col, pa.ChunkedArray):
                col = col.chunk(0) if col.num_chunks else pa.array([], col.type)
            offsets = np.asarray(col.offsets, dtype=np.int64)
            # flatten() drops the offset window; slice values explicitly
            values = np.asarray(col.values, dtype=np.int64)[offsets[0]:offsets[-1]]
            offsets = offsets - offsets[0]
            # per-doc ascending sort, vectorized: order by (doc, value)
            parent = np.repeat(np.arange(len(offsets) - 1, dtype=np.int64),
                               np.diff(offsets))
            order = np.lexsort((values, parent))
            got = cache[field] = (offsets, values[order])
        return got

    def sorted_set_docvalue(self, field: str) \
            -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Multi-valued string doc values (`index/SortedSetDocValues.java`
        semantics: per-doc DISTINCT ords in ascending order): (offsets
        int64[n_docs+1], ords int32[], vocab str[]) where vocab is the
        shard's sorted term dictionary for the field and ords index it.
        Built once per reader from the docmap list<string> column."""
        cache = getattr(self, "_mv_str_cache", None)
        if cache is None:
            cache = self._mv_str_cache = {}
        got = cache.get(field)
        if got is None:
            col = self.docmap().column(field).combine_chunks()
            if isinstance(col, pa.ChunkedArray):
                col = col.chunk(0) if col.num_chunks else pa.array([], col.type)
            offs = np.asarray(col.offsets, dtype=np.int64)
            flat = col.values.slice(offs[0], offs[-1] - offs[0])
            offs = offs - offs[0]
            vocab_arr = pa.compute.unique(flat).sort()
            vocab = vocab_arr.to_numpy(zero_copy_only=False)
            ords = pa.compute.index_in(flat, vocab_arr) \
                .to_numpy(zero_copy_only=False).astype(np.int32)
            parent = np.repeat(np.arange(len(offs) - 1, dtype=np.int64),
                               np.diff(offs))
            order = np.lexsort((ords, parent))
            ords, parent = ords[order], parent[order]
            # SORTED SET: drop per-doc duplicate ords, rebuild offsets
            if len(ords):
                keep = np.concatenate((
                    [True], (ords[1:] != ords[:-1]) | (parent[1:] != parent[:-1])))
                ords, parent = ords[keep], parent[keep]
            counts = np.bincount(parent, minlength=len(offs) - 1) \
                if len(parent) else np.zeros(len(offs) - 1, dtype=np.int64)
            offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
            got = cache[field] = (offsets, ords, vocab)
        return got

    def selected_numeric(self, field: str, selector: str,
                         missing: int = 0) -> np.ndarray:
        """Single-valued view over a multi-valued numeric column
        (`search/SortedNumericSelector.java` MIN/MAX wrap): per-doc selected
        int64, docs with no values mapped to ``missing`` (the SortField
        missingValue, default 0 like the reference LongComparator)."""
        cache = getattr(self, "_mv_sel_cache", None)
        if cache is None:
            cache = self._mv_sel_cache = {}
        key = (field, selector, int(missing))
        got = cache.get(key)
        if got is None:
            offsets, values = self.sorted_numeric_docvalue(field)
            counts = np.diff(offsets)
            hi = max(len(values) - 1, 0)
            if selector == "min":
                idx = np.clip(offsets[:-1], 0, hi)
            elif selector == "max":
                idx = np.clip(offsets[1:] - 1, 0, hi)
            else:
                raise ValueError(f"unknown SortedNumericSelector {selector!r}")
            vals = values[idx] if len(values) else np.zeros(len(counts), np.int64)
            got = cache[key] = np.where(counts > 0, vals, np.int64(missing))
        return got

    def selected_ord(self, field: str, selector: str) -> np.ndarray:
        """Single-valued ord view over a multi-valued string column
        (`search/SortedSetSelector.java` MIN/MAX/MIDDLE_MIN/MIDDLE_MAX):
        per-doc selected ord into ``sorted_set_docvalue``'s vocab; docs with
        no values get ord -1 (missing sorts first ascending, the reference
        TermOrdValComparator null semantics)."""
        offsets, ords, _ = self.sorted_set_docvalue(field)
        counts = np.diff(offsets)
        hi = max(len(ords) - 1, 0)
        if selector == "min":
            idx = offsets[:-1]
        elif selector == "max":
            idx = offsets[1:] - 1
        elif selector == "middle_min":     # even count -> lower middle
            idx = offsets[:-1] + (counts - 1) // 2
        elif selector == "middle_max":     # even count -> higher middle
            idx = offsets[:-1] + counts // 2
        else:
            raise ValueError(f"unknown SortedSetSelector {selector!r}")
        sel = ords[np.clip(idx, 0, hi)].astype(np.int64) if len(ords) \
            else np.zeros(len(counts), np.int64)
        return np.where(counts > 0, sel, np.int64(-1))

    @property
    def has_term_vectors(self) -> bool:
        return bool(self.manifest.get("term_vectors"))

    def term_vector(self, local_doc: int, with_positions: bool = False):
        """Per-doc mini inverted index (`index/TermVectors.java#get` /
        Lucene90TermVectorsFormat semantics): (term_ids asc int32[],
        freqs int32[]) for the doc's TEXT terms, plus a list of per-term
        ascending position arrays when `with_positions`.  Term ids index
        this shard's dictionary (`self._term_np[tid]` is the term string).
        Raises FileNotFoundError when the index was built without
        term_vectors=True."""
        if self._tv is None:
            self._tv = tuple(np.load(os.path.join(self.dir, f), mmap_mode="r")
                             for f in TV_FILES)
        doc_ptr, tv_terms, tv_freqs, pos_ptr, tv_pos = self._tv
        s, e = int(doc_ptr[local_doc]), int(doc_ptr[local_doc + 1])
        tids, freqs = tv_terms[s:e], tv_freqs[s:e]
        if not with_positions:
            return tids, freqs
        poss = [tv_pos[int(pos_ptr[p]):int(pos_ptr[p + 1])]
                for p in range(s, e)]
        return tids, freqs, poss

    def payloads(self):
        """Lazy (doc_off, pos, val) payload sidecar written by the
        delimited_payload stage; None when the index carries no payloads."""
        p = getattr(self, "_pay", False)
        if p is False:
            f = os.path.join(self.dir, PAYLOADS_FILE)
            if os.path.exists(f):
                z = np.load(f)
                doc_off, pos, val = z["doc_off"], z["pos"], z["val"]
                side_doc = np.repeat(
                    np.arange(len(doc_off) - 1, dtype=np.int64),
                    np.diff(doc_off))
                # composite (doc << 32 | pos) keys are globally sorted (doc
                # asc, pos asc within doc) -> one searchsorted per lookup
                p = ((side_doc << 32) | pos.astype(np.int64), val)
            else:
                p = None
            self._pay = p
        return p

    def payload_lookup(self, docs: np.ndarray, positions: np.ndarray):
        """Vectorized payload lookup for matched (doc, position) pairs:
        returns ``(values, found)`` parallel arrays where a position with no
        stored payload yields value 1 and found False — value 1 is the
        PayloadDecoder.FLOAT_DECODER null convention
        (`queries/payloads/PayloadDecoder.java:29`), the found mask lets
        SpanPayloadCheckQuery distinguish genuinely-missing payloads.
        Docs need not be sorted."""
        out = np.ones(len(docs), dtype=np.float32)
        pay = self.payloads()
        if pay is None or len(docs) == 0:
            return out, np.zeros(len(docs), dtype=bool)
        keys, val = pay
        q = (docs.astype(np.int64) << 32) | positions.astype(np.int64)
        idx = np.searchsorted(keys, q)
        ok = idx < len(keys)
        ok[ok] = keys[idx[ok]] == q[ok]
        out[ok] = val[idx[ok]]
        return out, ok

    def payload_factors(self, docs: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Payload factors only (missing -> 1), the PayloadScoreQuery view."""
        return self.payload_lookup(docs, positions)[0]

    def lookup_docs(self, local_ids: np.ndarray) -> pa.Table:
        """(conv_id, turn_idx) rows for the given local docIDs (top-k only)."""
        return self.docmap().take(pa.array(local_ids, type=pa.int64()))
