"""Outlink extraction: HTML pages -> (src, pos, dst) link-graph edges.

The crawl-graph feeder the reference implies but never materializes: the
reference serializes ``<a href>`` into markdown link syntax per document
(reference app/main.py via its converter; our twin at
engine/mdserialize.py:100), while at corpus scale the hrefs themselves are
the product — the edge list that drives PageRank-style quality scores
(engine/graph.py), crawl-frontier dedup and domain rollups.

Design (100 TB shape):
- Map-side only, ZERO shuffle: every href of a document lives in that
  document's row, so extraction, URL resolution, fragment stripping and
  within-document first-occurrence dedup all happen inside one
  ``map_batches`` pass; only the narrow (src, pos, dst) edges leave the
  stage. Feed the result straight into ``partition.with_url_hash`` /
  ``graph.pagerank_int`` without re-reading pages.
- Vectorized: ``pc.split_pattern(html, 'href="')`` (one Arrow C pass)
  replaces a per-row regex scan; href values are the split tails truncated
  at their closing quote (``replace_substring_regex('(?s)".*$')``), with
  offsets/ordinals derived by numpy index math. Resolution is a masked
  ``pc.if_else`` chain over ``starts_with`` tests — no Python loop touches
  a document. The only per-edge pandas step is the (row, dst) keep-first
  dedup hash, bounded by edges-per-batch.
- SQL-twinnable: semantics exactly match the RE2 extraction
  ``regexp_extract_all(html, 'href="([^"]*)"', 1)`` plus a CASE resolver,
  so the DuckDB oracle can parse the SAME html (query ``outlinks``).

Semantics / documented simplifications:
- An href is the value of a double-quoted ``href="..."`` attribute; values
  must be quote-terminated (an unterminated trailing href is dropped, like
  the RE2 twin) and must not themselves contain the literal ``href="`` —
  both true of well-formed HTML.
- ``pos`` is the 1-based ordinal of the href among the document's matched
  hrefs (before any drop/dedup), i.e. the ordinality of
  ``regexp_extract_all``.
- Dropped outright: empty values and ``#fragment`` / ``mailto:`` /
  ``javascript:`` / ``data:`` links.
- Resolution against the document's own ``src`` URL (must be absolute
  ``http(s)://host/...`` with a path): absolute http(s) hrefs pass
  through; ``//host/x`` gets the src scheme; ``/x`` gets the src origin;
  anything else is joined to the src directory (no ``..`` normalization —
  a documented simplification). Fragments are stripped from resolved
  targets; duplicate (src, dst) pairs within a document keep the first
  occurrence.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

_DROP_PREFIXES = ("#", "mailto:", "javascript:", "data:")

_EDGE_SCHEMA = pa.schema([("src", pa.string()), ("pos", pa.int64()),
                          ("dst", pa.string())])


def _empty_edges() -> pa.Table:
    return _EDGE_SCHEMA.empty_table()


def _candidate_hrefs(t: pa.Table, html_col: str):
    """Shared scan: split every page on ``href="`` and locate the matched
    href tails. Returns (tails, href, pos, rows) — the raw split tails,
    the quote-truncated href values, the 1-based ordinal among the row's
    matched hrefs, and each candidate's row index — or None when the batch
    has no matches. Each row's first split part precedes any href; the
    rest each start with an href value, required to have a closing quote
    (RE2-twin semantics)."""
    parts = pc.split_pattern(t[html_col], pattern='href="')
    if isinstance(parts, pa.ChunkedArray):
        parts = parts.combine_chunks()
    flat = parts.flatten()
    counts = np.asarray(
        pc.list_value_length(parts).to_numpy(zero_copy_only=False),
        dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
    is_tail = np.ones(len(flat), dtype=bool)
    is_tail[starts[counts > 0]] = False
    has_quote = pc.not_equal(
        pc.find_substring(flat, '"'), -1).to_numpy(zero_copy_only=False)
    cand = is_tail & np.asarray(has_quote, dtype=bool)
    if not cand.any():
        return None
    # 1-based ordinal among the row's matched hrefs, via cumulative sums.
    csum = np.cumsum(cand)
    before_row = np.concatenate(([0], csum))[starts]
    rows_all = np.repeat(np.arange(t.num_rows, dtype=np.int64), counts)
    pos_all = csum - np.repeat(before_row, counts)
    sel = np.flatnonzero(cand)
    tails = flat.take(pa.array(sel))
    href = pc.replace_substring_regex(
        tails, pattern='(?s)".*$', replacement="")
    return tails, href, pos_all[sel], rows_all[sel]


def _edges_from_batch(t: pa.Table, url_col: str, html_col: str) -> pa.Table:
    if t.num_rows == 0:
        return _empty_edges()
    cand = _candidate_hrefs(t, html_col)
    if cand is None:
        return _empty_edges()
    _, href, pos, rows = cand

    drop = pc.equal(href, "")
    for p in _DROP_PREFIXES:
        drop = pc.or_(drop, pc.starts_with(href, pattern=p))
    keep = pc.invert(drop).to_numpy(zero_copy_only=False)
    keep = np.asarray(keep, dtype=bool)
    if not keep.any():
        return _empty_edges()
    kept = np.flatnonzero(keep)
    href = href.take(pa.array(kept))
    pos = pos[kept]
    rows = rows[kept]

    src_col = t[url_col]
    if isinstance(src_col, pa.ChunkedArray):
        src_col = src_col.combine_chunks()
    src = src_col.take(pa.array(rows))
    dst = _resolve_refs(src, href)
    valid = pc.and_(pc.is_valid(dst),
                    pc.fill_null(pc.not_equal(dst, ""), False))
    valid = np.asarray(valid.to_numpy(zero_copy_only=False), dtype=bool)
    if not valid.all():
        vi = np.flatnonzero(valid)
        src, dst = src.take(pa.array(vi)), dst.take(pa.array(vi))
        pos, rows = pos[vi], rows[vi]

    # Within-document first-occurrence dedup (rows are in pos order).
    first = ~pd.DataFrame(
        {"r": rows, "d": dst.to_pandas()}).duplicated(["r", "d"]).to_numpy()
    if not first.all():
        fi = np.flatnonzero(first)
        src, dst = src.take(pa.array(fi)), dst.take(pa.array(fi))
        pos = pos[fi]
    return pa.table({"src": src, "pos": pa.array(pos, type=pa.int64()),
                     "dst": dst})


def extract_outlinks(ds: "ray.data.Dataset", url_col: str = "url",
                     html_col: str = "html") -> "ray.data.Dataset":
    """(src, pos, dst) resolved outlink edges, one map-side pass (see
    module docstring for semantics). Narrow output: pages never leave the
    extraction stage, only edges do."""
    return ds.map_batches(
        lambda t: _edges_from_batch(t, url_col, html_col),
        batch_format="pyarrow")


def _anchors_from_batch(t: pa.Table, url_col: str, html_col: str) -> pa.Table:
    schema = pa.schema([("src", pa.string()), ("pos", pa.int64()),
                        ("href", pa.string()), ("text", pa.string())])
    if t.num_rows == 0:
        return schema.empty_table()
    cand = _candidate_hrefs(t, html_col)
    if cand is None:
        return schema.empty_table()
    tails, href, pos, rows = cand
    # anchor text: run between the tag's closing '>' and the next '<';
    # null when the tag never closes (malformed — absent from the RE2
    # twin's zip as well on well-formed input).
    text = pc.struct_field(pc.extract_regex(
        tails, pattern=r'(?s)^[^"]*"[^>]*>(?P<t>[^<]*)'), "t")
    src_col = t[url_col]
    if isinstance(src_col, pa.ChunkedArray):
        src_col = src_col.combine_chunks()
    src = src_col.take(pa.array(rows))
    return pa.table({"src": src, "pos": pa.array(pos, type=pa.int64()),
                     "href": href, "text": text})


def extract_anchor_texts(ds: "ray.data.Dataset", url_col: str = "url",
                         html_col: str = "html") -> "ray.data.Dataset":
    """(src, pos, href, text) anchor-text rows — the anchor-text corpus, a
    standard relevance/label signal for training data. Same one-pass
    vectorized machinery and href semantics as :func:`extract_outlinks`
    (``pos`` ordinals align between the two outputs, so anchors join to
    resolved edges on (src, pos) with no re-parse); no drop rules — which
    anchors matter is the consumer's policy. ``text`` is the run between
    the anchor tag's closing ``>`` and the next ``<`` (first text node
    only), null for a tag that never closes."""
    return ds.map_batches(
        lambda t: _anchors_from_batch(t, url_col, html_col),
        batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Image-text pair mining: <img src/alt> extraction (CLIP-style pretraining
# pairs; the multimodal sibling of the outlink extractor)
# ---------------------------------------------------------------------------

def _resolve_refs(src: pa.Array, ref: pa.Array) -> pa.Array:
    """Resolve ``ref`` URLs against their page ``src`` (same rules as
    outlinks: absolute pass-through, //-protocol-relative, /-root-relative,
    else directory join; fragments stripped)."""
    origin = pc.struct_field(
        pc.extract_regex(src, pattern=r"^(?P<o>https?://[^/]+)"), "o")
    scheme = pc.struct_field(
        pc.extract_regex(src, pattern=r"^(?P<s>https?):"), "s")
    base_dir = pc.struct_field(
        pc.extract_regex(src, pattern=r"^(?P<d>.*/)"), "d")
    is_abs = pc.or_(pc.starts_with(ref, pattern="http://"),
                    pc.starts_with(ref, pattern="https://"))
    is_proto_rel = pc.starts_with(ref, pattern="//")
    is_root_rel = pc.and_(pc.starts_with(ref, pattern="/"),
                          pc.invert(is_proto_rel))
    out = pc.if_else(
        is_abs, ref,
        pc.if_else(
            is_proto_rel, pc.binary_join_element_wise(scheme, ref, ":"),
            pc.if_else(
                is_root_rel, pc.binary_join_element_wise(origin, ref, ""),
                pc.binary_join_element_wise(base_dir, ref, ""))))
    return pc.replace_substring_regex(out, pattern="(?s)#.*$",
                                      replacement="")


_IMG_SCHEMA = pa.schema([("src", pa.string()), ("pos", pa.int64()),
                         ("img", pa.string()), ("alt", pa.string())])


def _imgs_from_batch(t: pa.Table, url_col: str, html_col: str) -> pa.Table:
    if t.num_rows == 0:
        return _IMG_SCHEMA.empty_table()
    parts = pc.split_pattern(t[html_col], pattern="<img")
    if isinstance(parts, pa.ChunkedArray):
        parts = parts.combine_chunks()
    flat = parts.flatten()
    counts = np.asarray(
        pc.list_value_length(parts).to_numpy(zero_copy_only=False),
        dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
    is_tail = np.ones(len(flat), dtype=bool)
    is_tail[starts[counts > 0]] = False
    # a candidate img tag must close ('>' present) and carry src="..."
    # inside the tag — the RE2 twin '<img[^>]*src="..."' semantics
    tag = pc.replace_substring_regex(flat, pattern="(?s)>.*$",
                                     replacement="")
    closed = pc.not_equal(
        pc.find_substring(flat, ">"), -1).to_numpy(zero_copy_only=False)
    src_val = pc.struct_field(
        pc.extract_regex(tag, pattern='src="(?P<v>[^"]*)"'), "v")
    has_src = pc.and_(pc.is_valid(src_val),
                      pc.not_equal(pc.fill_null(src_val, ""), ""))
    has_src = np.asarray(has_src.to_numpy(zero_copy_only=False), dtype=bool)
    cand = is_tail & np.asarray(closed, dtype=bool) & has_src
    for p in _DROP_PREFIXES:
        starts_bad = pc.fill_null(
            pc.starts_with(src_val, pattern=p), False)
        cand &= ~np.asarray(starts_bad.to_numpy(zero_copy_only=False),
                            dtype=bool)
    if not cand.any():
        return _IMG_SCHEMA.empty_table()
    csum = np.cumsum(cand)
    before_row = np.concatenate(([0], csum))[starts]
    rows_all = np.repeat(np.arange(t.num_rows, dtype=np.int64), counts)
    pos_all = csum - np.repeat(before_row, counts)
    sel = np.flatnonzero(cand)
    sel_pa = pa.array(sel)
    ref = src_val.take(sel_pa)
    alt = pc.struct_field(
        pc.extract_regex(tag.take(sel_pa), pattern='alt="(?P<v>[^"]*)"'),
        "v")
    page = t[url_col]
    if isinstance(page, pa.ChunkedArray):
        page = page.combine_chunks()
    page = page.take(pa.array(rows_all[sel]))
    return pa.table({"src": page,
                     "pos": pa.array(pos_all[sel], type=pa.int64()),
                     "img": _resolve_refs(page, ref),
                     "alt": alt})


def extract_image_refs(ds: "ray.data.Dataset", url_col: str = "url",
                       html_col: str = "html") -> "ray.data.Dataset":
    """(src, pos, img, alt) — image-text pair mining over crawl pages: every
    closed ``<img …>`` tag with a non-empty, non-data: ``src="…"`` yields
    the resolved image URL plus its ``alt`` caption (null when absent) —
    the harvesting stage of a CLIP-style multimodal pretraining pipeline
    (pair = image payload fetched per ``img`` × caption from ``alt``).
    Same one-pass vectorized shape as :func:`extract_outlinks`: map-side
    only, narrow rows out, RE2-twin semantics
    (``'<img[^>]*src="([^"]*)"'``), ``pos`` = 1-based ordinal among the
    page's kept tags."""
    return ds.map_batches(
        lambda t: _imgs_from_batch(t, url_col, html_col),
        batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Head metadata: og:/description/canonical extraction
# ---------------------------------------------------------------------------

_META_SCHEMA = pa.schema([
    ("url", pa.string()), ("og_title", pa.string()),
    ("og_image", pa.string()), ("description", pa.string()),
    ("canonical", pa.string()),
])

# property/name attribute before content (the overwhelmingly common order);
# content value is double-quoted. RE2-twin patterns, shared with the oracle.
_OG_TITLE_RE = r'(?s)<meta[^>]*property="og:title"[^>]*content="(?P<v>[^"]*)"'
_OG_IMAGE_RE = r'(?s)<meta[^>]*property="og:image"[^>]*content="(?P<v>[^"]*)"'
_DESC_RE = r'(?s)<meta[^>]*name="description"[^>]*content="(?P<v>[^"]*)"'
_CANON_RE = r'(?s)<link[^>]*rel="canonical"[^>]*href="(?P<v>[^"]*)"'


def _head_meta_from_batch(t: pa.Table, url_col: str,
                          html_col: str) -> pa.Table:
    if t.num_rows == 0:
        return _META_SCHEMA.empty_table()
    html = pc.cast(t[html_col], pa.string())
    url = pc.cast(t[url_col], pa.string())

    def first(pattern: str) -> pa.Array:
        out = pc.struct_field(pc.extract_regex(html, pattern=pattern), "v")
        return out.combine_chunks() if isinstance(out, pa.ChunkedArray) \
            else out

    canonical = first(_CANON_RE)
    # canonical URLs resolve like links (relative canonicals are legal)
    resolved = _resolve_refs(url, pc.fill_null(canonical, ""))
    canonical = pc.if_else(pc.is_valid(canonical), resolved, canonical)
    og_image = first(_OG_IMAGE_RE)
    og_image = pc.if_else(pc.is_valid(og_image),
                          _resolve_refs(url, pc.fill_null(og_image, "")),
                          og_image)
    return pa.table({
        "url": url, "og_title": first(_OG_TITLE_RE), "og_image": og_image,
        "description": first(_DESC_RE), "canonical": canonical,
    })


def extract_head_meta(ds: "ray.data.Dataset", url_col: str = "url",
                      html_col: str = "html") -> "ray.data.Dataset":
    """(url, og_title, og_image, description, canonical) — page-level head
    metadata: OpenGraph title/image (the caption/thumbnail signal that
    pairs with :func:`extract_image_refs` in a multimodal pipeline), meta
    description, and the rel=canonical URL (the crawl-dedup key: pages
    sharing a resolved canonical are THE SAME document to a dedup stage).
    First match wins per field, null when absent; og:image and canonical
    resolve through the shared link resolver. One vectorized RE2 pass per
    field, map-side only."""
    return ds.map_batches(
        lambda t: _head_meta_from_batch(t, url_col, html_col),
        batch_format="pyarrow")


# ---------------------------------------------------------------------------
# robots meta directives (noindex / nofollow)
# ---------------------------------------------------------------------------

_ROBOTS_RE = r'(?s)<meta[^>]*name="robots"[^>]*content="(?P<v>[^"]*)"'
# a directive is a comma/whitespace-delimited token, case-insensitive;
# 'none' == 'noindex, nofollow' (the Google/robots-meta convention)
_NOINDEX_RE = r"(?i)(^|[,\s])(noindex|none)([,\s]|$)"
_NOFOLLOW_RE = r"(?i)(^|[,\s])(nofollow|none)([,\s]|$)"


def _robots_from_batch(t: pa.Table, url_col: str, html_col: str) -> pa.Table:
    html = pc.cast(t[html_col], pa.string())
    content = pc.struct_field(
        pc.extract_regex(html, pattern=_ROBOTS_RE), "v")
    filled = pc.fill_null(content, "")
    return pa.table({
        "url": pc.cast(t[url_col], pa.string()),
        "noindex": pc.match_substring_regex(filled, _NOINDEX_RE),
        "nofollow": pc.match_substring_regex(filled, _NOFOLLOW_RE),
    })


def extract_robots_meta(ds: "ray.data.Dataset", url_col: str = "url",
                        html_col: str = "html") -> "ray.data.Dataset":
    """(url, noindex, nofollow) — the robots-meta crawl-compliance flags:
    noindex pages must drop from an indexed/trained corpus, nofollow pages
    contribute no outlinks to the link graph (compose with
    :func:`extract_outlinks` via an anti-join on noindex/nofollow urls).
    First matching robots meta tag wins; absent tag ⇒ both false;
    ``none`` implies both directives. One vectorized RE2 pass, map-side
    only."""
    return ds.map_batches(
        lambda t: _robots_from_batch(t, url_col, html_col),
        batch_format="pyarrow")


# ---------------------------------------------------------------------------
# JSON-LD structured data (schema.org) extraction
# ---------------------------------------------------------------------------

_JSONLD_RE = (r'(?s)<script type="application/ld\+json">'
              r"(?P<v>.*?)</script>")


def _jsonld_from_batch(t: pa.Table, url_col: str, html_col: str) -> pa.Table:
    import json

    html = pc.cast(t[html_col], pa.string())
    block = pc.struct_field(pc.extract_regex(html, pattern=_JSONLD_RE), "v")
    types: list = []
    names: list = []
    for raw in block.to_pylist():
        typ = name = None
        if raw is not None:
            try:
                obj = json.loads(raw)
            except ValueError:
                obj = None
            if isinstance(obj, dict):  # top-level object only (SQL twin:
                typ = obj.get("@type")  # json_extract on $.@type)
                name = obj.get("name")
                if not isinstance(typ, str):
                    typ = None
                if not isinstance(name, str):
                    name = None
        types.append(typ)
        names.append(name)
    return pa.table({
        "url": pc.cast(t[url_col], pa.string()),
        "jsonld_type": pa.array(types, type=pa.string()),
        "jsonld_name": pa.array(names, type=pa.string()),
    })


def extract_jsonld(ds: "ray.data.Dataset", url_col: str = "url",
                   html_col: str = "html") -> "ray.data.Dataset":
    """(url, jsonld_type, jsonld_name) — schema.org JSON-LD structured
    data: the page-classification signal (Article/Product/Recipe/…)
    crawl pipelines use for domain routing and the name/headline caption
    source. First ``<script type="application/ld+json">`` block per page;
    malformed JSON / non-object roots / missing or non-string fields all
    yield nulls (never a task failure). Block location is one vectorized
    RE2 pass; JSON parse runs only on pages that HAVE a block."""
    return ds.map_batches(
        lambda t: _jsonld_from_batch(t, url_col, html_col),
        batch_format="pyarrow")


# ---------------------------------------------------------------------------
# published-date extraction (temporal filtering / freshness signal)
# ---------------------------------------------------------------------------

_PUB_META_RE = (r'(?s)<meta[^>]*property="article:published_time"'
                r'[^>]*content="(?P<v>[^"]*)"')
_PUB_TIME_RE = r'(?s)<time[^>]*datetime="(?P<v>[^"]*)"'
# documented simplification: datePublished is read straight off the raw
# JSON-LD text with RE2 (no JSON parse) — the value is a quoted ISO string
# in well-formed schema.org markup, and the date validator below rejects
# anything else.
_PUB_JSONLD_RE = r'(?s)"datePublished"\s*:\s*"(?P<v>[^"]*)"'
# a candidate value counts only if it STARTS with a plausible ISO date
_DATE_PREFIX_RE = (r"^(?P<d>(?:19|20)\d{2}-(?:0[1-9]|1[0-2])"
                   r"-(?:0[1-9]|[12]\d|3[01]))")
# /YYYY/MM/DD/ (or trailing) path segment in the page's own URL
_URL_DATE_RE = (r"/(?P<d>(?:19|20)\d{2}/(?:0[1-9]|1[0-2])"
                r"/(?:0[1-9]|[12]\d|3[01]))(?:/|$)")


def _valid_date(vals: pa.Array) -> pa.Array:
    """YYYY-MM-DD prefix of each candidate, null when implausible."""
    out = pc.struct_field(
        pc.extract_regex(pc.fill_null(vals, ""), pattern=_DATE_PREFIX_RE),
        "d")
    return out.combine_chunks() if isinstance(out, pa.ChunkedArray) else out


def _pub_dates_from_batch(t: pa.Table, url_col: str,
                          html_col: str) -> pa.Table:
    html = pc.cast(t[html_col], pa.string())
    url = pc.cast(t[url_col], pa.string())

    def first(pattern: str, src: pa.Array) -> pa.Array:
        out = pc.struct_field(pc.extract_regex(src, pattern=pattern), "v")
        return out.combine_chunks() if isinstance(out, pa.ChunkedArray) \
            else out

    meta = _valid_date(first(_PUB_META_RE, html))
    time_ = _valid_date(first(_PUB_TIME_RE, html))
    jsonld = _valid_date(first(_PUB_JSONLD_RE, html))
    from_url = pc.struct_field(
        pc.extract_regex(url, pattern=_URL_DATE_RE), "d")
    if isinstance(from_url, pa.ChunkedArray):
        from_url = from_url.combine_chunks()
    from_url = pc.replace_substring(from_url, pattern="/", replacement="-")

    pub = pc.coalesce(meta, time_, jsonld, from_url)
    src = pc.if_else(
        pc.is_valid(meta), pa.scalar("meta", type=pa.string()),
        pc.if_else(
            pc.is_valid(time_), pa.scalar("time", type=pa.string()),
            pc.if_else(
                pc.is_valid(jsonld), pa.scalar("jsonld", type=pa.string()),
                pc.if_else(pc.is_valid(from_url),
                           pa.scalar("url", type=pa.string()),
                           pa.scalar(None, type=pa.string())))))
    return pa.table({"url": url, "pub_date": pub, "pub_source": src})


def extract_pub_dates(ds: "ray.data.Dataset", url_col: str = "url",
                      html_col: str = "html") -> "ray.data.Dataset":
    """(url, pub_date, pub_source) — best-effort publication date per page,
    the temporal-filtering signal (date-range corpus cuts, freshness
    weighting, snapshot alignment). Signals in priority order, first VALID
    date wins: ``article:published_time`` meta > first ``<time datetime>``
    > JSON-LD ``datePublished`` > a /YYYY/MM/DD/ path segment in the URL.
    A candidate must start with a plausible ISO date (month 01-12, day
    01-31) or it falls through to the next signal; no signal ⇒ nulls.
    Four vectorized RE2 passes, map-side only, ZERO shuffle."""
    return ds.map_batches(
        lambda t: _pub_dates_from_batch(t, url_col, html_col),
        batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Sitemap XML extraction (sitemaps.org protocol)
# ---------------------------------------------------------------------------

_SITEMAP_SCHEMA = pa.schema([
    ("src", pa.string()), ("kind", pa.string()), ("pos", pa.int64()),
    ("loc", pa.string()), ("lastmod", pa.string()),
])

_LOC_RE = r"(?s)<loc>\s*(?P<v>[^<]*?)\s*</loc>"
_LASTMOD_RE = r"(?s)<lastmod>\s*(?P<v>[^<]*?)\s*</lastmod>"


def _sitemap_entries(t: pa.Table, url_col: str, xml_col: str,
                     tag: str) -> pa.Table:
    """One literal-tag scan: split every doc on ``<tag>``, truncate each
    tail at ``</tag>``, extract trimmed <loc>/<lastmod>. Entries without a
    <loc> are dropped; an empty/absent <lastmod> is null (the SQL-twin
    NULLIF normalization). pos is the 1-based ordinal among the row's
    ``tag`` entries."""
    empty = _SITEMAP_SCHEMA.empty_table()
    if t.num_rows == 0:
        return empty
    xml = pc.fill_null(pc.cast(t[xml_col], pa.string()), "")
    parts = pc.split_pattern(xml, pattern=f"<{tag}>")
    if isinstance(parts, pa.ChunkedArray):
        parts = parts.combine_chunks()
    flat = parts.flatten()
    counts = np.asarray(pc.list_value_length(parts)
                        .to_numpy(zero_copy_only=False), dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
    is_tail = np.ones(len(flat), dtype=bool)
    is_tail[starts[counts > 0]] = False
    closed = pc.not_equal(pc.find_substring(flat, f"</{tag}>"), -1) \
        .to_numpy(zero_copy_only=False)
    cand = is_tail & np.asarray(closed, dtype=bool)
    if not cand.any():
        return empty
    rows_all = np.repeat(np.arange(t.num_rows, dtype=np.int64), counts)
    sel = np.flatnonzero(cand)
    block = pc.replace_substring_regex(
        flat.take(pa.array(sel)), pattern=f"(?s)</{tag}>.*$",
        replacement="")
    loc = pc.struct_field(pc.extract_regex(block, pattern=_LOC_RE), "v")
    lastmod = pc.struct_field(
        pc.extract_regex(block, pattern=_LASTMOD_RE), "v")
    lastmod = pc.if_else(pc.equal(pc.fill_null(lastmod, ""), ""),
                         pa.scalar(None, type=pa.string()), lastmod)
    ok = (pc.is_valid(loc).to_numpy(zero_copy_only=False)
          & (pc.utf8_length(pc.fill_null(loc, ""))
             .to_numpy(zero_copy_only=False) > 0))
    if not ok.any():
        return empty
    rows = rows_all[sel][ok]
    # 1-based ordinal among the row's KEPT entries of this tag
    pos = np.arange(len(rows), dtype=np.int64) + 1
    row_first = np.concatenate(([True], rows[1:] != rows[:-1]))
    pos = pos - np.maximum.accumulate(np.where(row_first, pos - 1, 0))
    src_col = t[url_col]
    if isinstance(src_col, pa.ChunkedArray):
        src_col = src_col.combine_chunks()
    oki = pa.array(np.flatnonzero(ok))
    return pa.table({
        "src": src_col.take(pa.array(rows)),
        "kind": pa.array(np.full(len(rows), tag, dtype=object),
                         type=pa.string()),
        "pos": pa.array(pos, type=pa.int64()),
        "loc": pc.cast(loc.take(oki), pa.string()),
        "lastmod": pc.cast(lastmod.take(oki), pa.string()),
    })


def extract_sitemap(ds: "ray.data.Dataset", url_col: str = "url",
                    xml_col: str = "xml") -> "ray.data.Dataset":
    """(src, kind, pos, loc, lastmod) from sitemaps.org XML — both
    ``<url>`` page entries and ``<sitemap>`` index entries (kind column;
    pos is the 1-based ordinal within the row's kind). <loc> values are
    whitespace-trimmed; entries without a <loc> drop; empty <lastmod>
    normalizes to null. Locs are NOT resolved (the protocol requires
    absolute URLs). One literal split + RE2 extraction per kind, map-side
    only — a frontier feeder: compose with snapshot_delta on (loc,
    lastmod) fingerprints to find re-crawl candidates."""
    def run(t: pa.Table) -> pa.Table:
        return pa.concat_tables([
            _sitemap_entries(t, url_col, xml_col, "url"),
            _sitemap_entries(t, url_col, xml_col, "sitemap"),
        ])

    return ds.map_batches(run, batch_format="pyarrow")


_REFRESH_SCHEMA = pa.schema([("src", pa.string()), ("delay", pa.int64()),
                             ("dst", pa.string())])


def _meta_refresh_from_batch(t: pa.Table, url_col: str,
                             html_col: str) -> pa.Table:
    if t.num_rows == 0:
        return _REFRESH_SCHEMA.empty_table()
    html = t[html_col]
    if isinstance(html, pa.ChunkedArray):
        html = html.combine_chunks()
    # first refresh directive per page (extract_regex = first RE2 match,
    # same as the DuckDB twin's regexp_extract)
    content = pc.struct_field(pc.extract_regex(
        html,
        pattern=r'(?i)<meta[^>]*http-equiv="refresh"[^>]*'
                r'content="(?P<c>[^"]*)"'), "c")
    delay = pc.struct_field(pc.extract_regex(
        content, pattern=r"^\s*(?P<d>[0-9]+)"), "d")
    target = pc.struct_field(pc.extract_regex(
        content, pattern=r"(?i);\s*url\s*=\s*(?P<u>.*?)\s*$"), "u")
    keep = np.asarray(
        pc.and_(pc.is_valid(target),
                pc.not_equal(pc.fill_null(target, ""), ""))
        .to_numpy(zero_copy_only=False), dtype=bool)
    idx = np.flatnonzero(keep)
    if len(idx) == 0:
        return _REFRESH_SCHEMA.empty_table()
    sel = pa.array(idx)
    src_col = t[url_col]
    if isinstance(src_col, pa.ChunkedArray):
        src_col = src_col.combine_chunks()
    src = src_col.take(sel)
    dst = _resolve_refs(src, target.take(sel))
    return pa.table({"src": src,
                     "delay": pc.cast(delay.take(sel), pa.int64()),
                     "dst": dst})


def extract_meta_refresh(ds: "ray.data.Dataset", url_col: str = "url",
                         html_col: str = "html") -> "ray.data.Dataset":
    """(src, delay, dst) from ``<meta http-equiv="refresh"
    content="N; url=TARGET">`` directives — the soft-redirect channel a
    crawl pipeline must fold into its redirect graph alongside HTTP 3xx
    (compose with :func:`engine.graph.resolve_redirects`). One RE2
    extraction pass per page, map-side only, narrow edge output.

    Semantics (RE2-twin, SQL-checkable): the FIRST refresh directive per
    page wins; ``content`` must be double-quoted; the target is everything
    after a case-insensitive ``;url=`` with surrounding whitespace
    trimmed; directives with no target (pure reload timers, e.g.
    ``content="300"``) are dropped; targets resolve against the page URL
    with the outlink resolver rules (absolute / protocol-relative /
    root-relative / directory join, fragment stripped). ``delay`` is the
    leading integer of ``content`` (null if malformed)."""
    return ds.map_batches(
        lambda t: _meta_refresh_from_batch(t, url_col, html_col),
        batch_format="pyarrow")


# ---------------------------------------------------------------------------
# RSS / Atom feed extraction — the other frontier feeder next to sitemaps:
# feeds carry fresh-content URLs plus editorial titles/timestamps, the
# recrawl-scheduling signal a crawl pipeline mines before fetching pages.
# ---------------------------------------------------------------------------

_FEED_SCHEMA = pa.schema([
    ("src", pa.string()), ("kind", pa.string()), ("pos", pa.int64()),
    ("title", pa.string()), ("link", pa.string()),
    ("published", pa.string()),
])
_TITLE_RE = r"(?s)<title>\s*(?P<v>[^<]*?)\s*</title>"
_RSS_LINK_RE = r"(?s)<link>\s*(?P<v>[^<]*?)\s*</link>"
_ATOM_LINK_RE = r'(?s)<link[^>]*href="(?P<v>[^"]*)"'
_PUBDATE_RE = r"(?s)<pubDate>\s*(?P<v>[^<]*?)\s*</pubDate>"
_UPDATED_RE = r"(?s)<updated>\s*(?P<v>[^<]*?)\s*</updated>"


def _feed_entries(t: pa.Table, url_col: str, xml_col: str, tag: str,
                  kind: str, link_re: str, pub_re: str) -> pa.Table:
    """Same one-literal-split block scan as :func:`_sitemap_entries`, over
    ``<item>`` (RSS 2.0) or ``<entry>`` (Atom) blocks: title and published
    are trimmed element texts (null when absent/empty); the link is the
    element text (RSS) or the first ``href`` attribute (Atom); items
    without a link drop. pos is the 1-based ordinal among the row's KEPT
    items."""
    empty = _FEED_SCHEMA.empty_table()
    if t.num_rows == 0:
        return empty
    xml = pc.fill_null(pc.cast(t[xml_col], pa.string()), "")
    parts = pc.split_pattern(xml, pattern=f"<{tag}>")
    if isinstance(parts, pa.ChunkedArray):
        parts = parts.combine_chunks()
    flat = parts.flatten()
    counts = np.asarray(pc.list_value_length(parts)
                        .to_numpy(zero_copy_only=False), dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
    is_tail = np.ones(len(flat), dtype=bool)
    is_tail[starts[counts > 0]] = False
    closed = pc.not_equal(pc.find_substring(flat, f"</{tag}>"), -1) \
        .to_numpy(zero_copy_only=False)
    cand = is_tail & np.asarray(closed, dtype=bool)
    if not cand.any():
        return empty
    rows_all = np.repeat(np.arange(t.num_rows, dtype=np.int64), counts)
    sel = np.flatnonzero(cand)
    block = pc.replace_substring_regex(
        flat.take(pa.array(sel)), pattern=f"(?s)</{tag}>.*$",
        replacement="")
    link = pc.struct_field(pc.extract_regex(block, pattern=link_re), "v")
    title = pc.struct_field(pc.extract_regex(block, pattern=_TITLE_RE), "v")
    pub = pc.struct_field(pc.extract_regex(block, pattern=pub_re), "v")
    title = pc.if_else(pc.equal(pc.fill_null(title, ""), ""),
                       pa.scalar(None, type=pa.string()), title)
    pub = pc.if_else(pc.equal(pc.fill_null(pub, ""), ""),
                     pa.scalar(None, type=pa.string()), pub)
    ok = (pc.is_valid(link).to_numpy(zero_copy_only=False)
          & (pc.utf8_length(pc.fill_null(link, ""))
             .to_numpy(zero_copy_only=False) > 0))
    if not ok.any():
        return empty
    rows = rows_all[sel][ok]
    pos = np.arange(len(rows), dtype=np.int64) + 1
    row_first = np.concatenate(([True], rows[1:] != rows[:-1]))
    pos = pos - np.maximum.accumulate(np.where(row_first, pos - 1, 0))
    src_col = t[url_col]
    if isinstance(src_col, pa.ChunkedArray):
        src_col = src_col.combine_chunks()
    oki = pa.array(np.flatnonzero(ok))
    return pa.table({
        "src": src_col.take(pa.array(rows)),
        "kind": pa.array(np.full(len(rows), kind, dtype=object),
                         type=pa.string()),
        "pos": pa.array(pos, type=pa.int64()),
        "title": pc.cast(title.take(oki), pa.string()),
        "link": pc.cast(link.take(oki), pa.string()),
        "published": pc.cast(pub.take(oki), pa.string()),
    })


def extract_feed(ds: "ray.data.Dataset", url_col: str = "url",
                 xml_col: str = "xml") -> "ray.data.Dataset":
    """(src, kind, pos, title, link, published) from RSS 2.0 ``<item>``
    and Atom ``<entry>`` blocks in one map-side pass (kind ∈ rss|atom; a
    document can contribute both). Items without a link drop; empty
    title/published normalize to null. Map-side only, narrow output —
    compose with snapshot_delta on (link, published) for recrawl
    candidates, exactly like the sitemap feeder."""
    def run(t: pa.Table) -> pa.Table:
        return pa.concat_tables([
            _feed_entries(t, url_col, xml_col, "item", "rss",
                          _RSS_LINK_RE, _PUBDATE_RE),
            _feed_entries(t, url_col, xml_col, "entry", "atom",
                          _ATOM_LINK_RE, _UPDATED_RE),
        ])

    return ds.map_batches(run, batch_format="pyarrow")


_HREFLANG_SCHEMA = pa.schema([
    ("src", pa.string()), ("pos", pa.int64()),
    ("hreflang", pa.string()), ("href", pa.string()),
])


def _hreflang_from_batch(t: pa.Table, url_col: str,
                         html_col: str) -> pa.Table:
    if t.num_rows == 0:
        return _HREFLANG_SCHEMA.empty_table()
    parts = pc.split_pattern(pc.fill_null(t[html_col], ""),
                             pattern="<link")
    if isinstance(parts, pa.ChunkedArray):
        parts = parts.combine_chunks()
    flat = parts.flatten()
    counts = np.asarray(pc.list_value_length(parts)
                        .to_numpy(zero_copy_only=False), dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
    is_tail = np.ones(len(flat), dtype=bool)
    is_tail[starts[counts > 0]] = False
    # attribute order inside the tag is free: truncate at '>' then test
    # rel/hreflang/href independently (the RE2-twin LIKE + extract chain)
    tag = pc.replace_substring_regex(flat, pattern="(?s)>.*$",
                                     replacement="")
    closed = pc.not_equal(
        pc.find_substring(flat, ">"), -1).to_numpy(zero_copy_only=False)
    is_alt = pc.not_equal(
        pc.find_substring(tag, 'rel="alternate"'), -1) \
        .to_numpy(zero_copy_only=False)
    lang = pc.struct_field(
        pc.extract_regex(tag, pattern='hreflang="(?P<v>[^"]*)"'), "v")
    href = pc.struct_field(
        pc.extract_regex(tag, pattern='href="(?P<v>[^"]*)"'), "v")
    ok_lang = pc.and_(pc.is_valid(lang),
                      pc.not_equal(pc.fill_null(lang, ""), ""))
    ok_href = pc.and_(pc.is_valid(href),
                      pc.not_equal(pc.fill_null(href, ""), ""))
    cand = (is_tail & np.asarray(closed, dtype=bool)
            & np.asarray(is_alt, dtype=bool)
            & np.asarray(ok_lang.to_numpy(zero_copy_only=False), dtype=bool)
            & np.asarray(ok_href.to_numpy(zero_copy_only=False), dtype=bool))
    if not cand.any():
        return _HREFLANG_SCHEMA.empty_table()
    csum = np.cumsum(cand)
    before_row = np.concatenate(([0], csum))[starts]
    rows_all = np.repeat(np.arange(t.num_rows, dtype=np.int64), counts)
    pos_all = csum - np.repeat(before_row, counts)
    sel = np.flatnonzero(cand)
    sel_pa = pa.array(sel)
    page = t[url_col]
    if isinstance(page, pa.ChunkedArray):
        page = page.combine_chunks()
    page = page.take(pa.array(rows_all[sel]))
    return pa.table({
        "src": page,
        "pos": pa.array(pos_all[sel], type=pa.int64()),
        "hreflang": pc.cast(lang.take(sel_pa), pa.string()),
        "href": _resolve_refs(page, pc.cast(href.take(sel_pa),
                                            pa.string())),
    })


def extract_hreflang(ds: "ray.data.Dataset", url_col: str = "url",
                     html_col: str = "html") -> "ray.data.Dataset":
    """(src, pos, hreflang, href) from ``<link rel="alternate"
    hreflang="xx" href="...">`` head tags — the language-alternate graph
    behind parallel-corpus mining (pages explicitly declare their own
    translations) and multilingual crawl dedup. Attribute order inside
    the tag is free; tags missing rel="alternate", hreflang or href
    drop; hrefs resolve with the outlink resolver rules; pos is the
    1-based ordinal among the page's kept alternates. Map-side only,
    narrow edge output."""
    return ds.map_batches(
        lambda t: _hreflang_from_batch(t, url_col, html_col),
        batch_format="pyarrow")


def anchor_corpus(ds: "ray.data.Dataset", url_col: str = "url",
                  html_col: str = "html") -> "ray.data.Dataset":
    """Inbound anchor-text corpus: for every link TARGET, the ordered
    concatenation of anchor texts pointing at it — the classic
    page-surrogate signal (anchor text often describes a target better
    than the target's own text; the basis of ORCAS/MS-MARCO-style weak
    labels and link-text retrieval corpora). Output
    (dst, n_anchors, anchors) with texts joined by ``' | '`` in
    (src, pos) order.

    Plan: map-side anchor extraction (:func:`extract_anchor_texts`),
    outlink-resolver target resolution with the outlink drop rules plus
    empty/null anchor texts; ONE bucketed exchange of narrow
    (dst, src, pos, text) rows (pages never cross the wire);
    per-bucket ordered string_agg is vectorized pandas
    (:func:`engine.joins.bucketed_map_groups` — Python calls capped at
    the exchange width)."""
    import pandas as pd

    from engine.joins import bucketed_map_groups

    anchors = extract_anchor_texts(ds, url_col, html_col)

    def resolve(t: pa.Table) -> pa.Table:
        href = pc.fill_null(t["href"], "")
        keep = pc.invert(pc.equal(href, ""))
        for p in _DROP_PREFIXES:
            keep = pc.and_(keep, pc.invert(pc.starts_with(href, pattern=p)))
        keep = pc.and_(keep, pc.not_equal(pc.fill_null(t["text"], ""), ""))
        t = t.filter(keep)
        return pa.table({"dst": _resolve_refs(t["src"], t["href"]),
                         "src": t["src"], "pos": t["pos"],
                         "text": t["text"]})

    rows = anchors.map_batches(resolve, batch_format="pyarrow")

    def per_bucket(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.sort_values(["dst", "src", "pos"], kind="mergesort")
        agg = g.groupby("dst", sort=False).agg(
            n_anchors=("text", "size"), anchors=("text", " | ".join))
        agg["n_anchors"] = agg["n_anchors"].astype("int64")
        return agg.reset_index()

    return bucketed_map_groups(rows, "dst", per_bucket)


_OUTLINE_SCHEMA = pa.schema([
    ("src", pa.string()), ("level", pa.int64()), ("pos", pa.int64()),
    ("text", pa.string()),
])


def _headings_at_level(t: pa.Table, url_col: str, html_col: str,
                       k: int) -> pa.Table:
    """One literal split on ``<hk``: a candidate block must close its
    opening tag BEFORE its ``</hk>`` (the RE2-twin ``<hk[^>]*>(.*?)</hk>``
    semantics); inner markup strips, whitespace trims, empties drop."""
    parts = pc.split_pattern(pc.fill_null(t[html_col], ""),
                             pattern=f"<h{k}")
    if isinstance(parts, pa.ChunkedArray):
        parts = parts.combine_chunks()
    flat = parts.flatten()
    counts = np.asarray(pc.list_value_length(parts)
                        .to_numpy(zero_copy_only=False), dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
    is_tail = np.ones(len(flat), dtype=bool)
    is_tail[starts[counts > 0]] = False
    gt = pc.find_substring(flat, ">").to_numpy(zero_copy_only=False)
    close = pc.find_substring(flat, f"</h{k}>") \
        .to_numpy(zero_copy_only=False)
    cand = is_tail & (gt >= 0) & (close >= 0) & (gt < close)
    if not cand.any():
        return _OUTLINE_SCHEMA.empty_table()
    rows_all = np.repeat(np.arange(t.num_rows, dtype=np.int64), counts)
    sel = np.flatnonzero(cand)
    block = flat.take(pa.array(sel))
    inner = pc.replace_substring_regex(
        pc.replace_substring_regex(block, pattern=r"(?s)^[^>]*>",
                                   replacement=""),
        pattern=f"(?s)</h{k}>.*$", replacement="")
    text = pc.utf8_trim_whitespace(pc.replace_substring_regex(
        inner, pattern=r"<[^>]*>", replacement=""))
    keep = np.asarray(pc.not_equal(text, "").to_numpy(
        zero_copy_only=False), dtype=bool)
    if not keep.any():
        return _OUTLINE_SCHEMA.empty_table()
    ki = np.flatnonzero(keep)
    rows = rows_all[sel][ki]
    pos = np.arange(len(rows), dtype=np.int64) + 1
    row_first = np.concatenate(([True], rows[1:] != rows[:-1]))
    pos = pos - np.maximum.accumulate(np.where(row_first, pos - 1, 0))
    src_col = t[url_col]
    if isinstance(src_col, pa.ChunkedArray):
        src_col = src_col.combine_chunks()
    return pa.table({
        "src": src_col.take(pa.array(rows)),
        "level": pa.array(np.full(len(rows), k, dtype=np.int64)),
        "pos": pa.array(pos, type=pa.int64()),
        "text": text.take(pa.array(ki)),
    })


def extract_outline(ds: "ray.data.Dataset", url_col: str = "url",
                    html_col: str = "html") -> "ray.data.Dataset":
    """(src, level, pos, text) heading outline per page — h1..h6 element
    texts with inline markup stripped and whitespace trimmed; empty
    headings drop; pos is the 1-based ordinal among the page's KEPT
    headings of that level. The document-structure signal behind
    structure-aware chunking (split long docs at heading boundaries) and
    title-hierarchy features. Map-side only, six literal scans per page.
    Documented simplification (shared with the RE2 SQL twin): headings
    nested inside a same-level heading (malformed HTML) are not handled.
    """
    def run(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _OUTLINE_SCHEMA.empty_table()
        return pa.concat_tables([
            _headings_at_level(t, url_col, html_col, k)
            for k in range(1, 7)])

    return ds.map_batches(run, batch_format="pyarrow")


def url_features_batch(t: pa.Table, url_col: str = "url") -> pa.Table:
    """Vectorized URL-shape features — the spam/quality-filter inputs of
    the DCLM/RefinedWeb URL-rule family (deep paths, parameter-heavy and
    digit-heavy URLs correlate with boilerplate/spam). All-integer
    output (SQL-twin-exact, no float convention): host, path depth
    (number of '/'-separated segments after the origin), query-parameter
    count, digit count and length of the path, and a has_query flag.
    One RE2/Arrow pass per feature, map-side only."""
    urls = t[url_col]
    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    host = pc.struct_field(
        pc.extract_regex(urls, pattern=r"^https?://(?P<h>[^/?#]+)"), "h")
    path = pc.struct_field(
        pc.extract_regex(urls, pattern=r"^https?://[^/?#]+(?P<p>/[^?#]*)"),
        "p")
    path = pc.fill_null(path, "/")
    query = pc.struct_field(
        pc.extract_regex(urls, pattern=r"\?(?P<q>[^#]*)"), "q")
    has_query = pc.cast(pc.is_valid(query), pa.int64())
    # depth: '/a/b/' and '/a/b' both depth 2 — count non-empty segments
    depth = pc.cast(pc.count_substring_regex(path, pattern="[^/]+"),
                    pa.int64())
    n_params = pc.cast(
        pc.add(pc.count_substring_regex(pc.fill_null(query, ""),
                                        pattern="&"),
               pc.cast(pc.is_valid(query), pa.int64())),
        pa.int64())
    path_digits = pc.cast(pc.count_substring_regex(path, pattern="[0-9]"),
                          pa.int64())
    path_len = pc.cast(pc.utf8_length(path), pa.int64())
    return pa.table({
        url_col: urls,
        "host": pc.cast(host, pa.string()),
        "depth": depth,
        "n_params": n_params,
        "path_digits": path_digits,
        "path_len": path_len,
        "has_query": has_query,
    })


def url_features(ds: "ray.data.Dataset",
                 url_col: str = "url") -> "ray.data.Dataset":
    """See :func:`url_features_batch`. Map-side only; compose with
    :func:`engine.stats.attach_group_stat` on host for the per-domain
    spam prior."""
    return ds.map_batches(lambda t: url_features_batch(t, url_col),
                          batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Code-block mining: <pre>/<code> extraction (web-code corpus construction,
# the StarCoder/StackOverflow-style pretraining-data source)
# ---------------------------------------------------------------------------

_CODE_SCHEMA = pa.schema([
    ("url", pa.string()), ("pos", pa.int64()), ("lang", pa.string()),
    ("n_lines", pa.int64()), ("n_chars", pa.int64()),
    ("text", pa.string()),
])

# entity unescape chain shared verbatim with the SQL twin: the five named
# entities that dominate code markup; &amp; LAST so double-escapes survive
# one level (documented simplification: numeric references pass through)
_CODE_ENTITIES = (("&lt;", "<"), ("&gt;", ">"), ("&quot;", '"'),
                  ("&#39;", "'"), ("&amp;", "&"))


def _code_blocks_from_batch(t: pa.Table, url_col: str,
                            html_col: str) -> pa.Table:
    """One vectorized pass: split pages on '<pre', keep tails that are
    real pre tags (next char is '>' or whitespace/attr) AND close with
    '</pre'; body = text between the tag's '>' and '</pre', minus an
    optional <code ...> wrapper; lang = the first language-/lang- class
    token in the pre/code tag head. Same split/ordinal machinery as
    :func:`_candidate_hrefs`."""
    if t.num_rows == 0:
        return _CODE_SCHEMA.empty_table()
    html = t[html_col]
    if isinstance(html, pa.ChunkedArray):
        html = html.combine_chunks()
    parts = pc.split_pattern(html, pattern="<pre")
    if isinstance(parts, pa.ChunkedArray):
        parts = parts.combine_chunks()
    flat = parts.flatten()  # null pages contribute no parts (count 0)
    counts = np.asarray(
        pc.fill_null(pc.list_value_length(parts), 0)
        .to_numpy(zero_copy_only=False), dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
    is_tail = np.ones(len(flat), dtype=bool)
    is_tail[starts[counts > 0]] = False
    blocks = pc.extract_regex(
        flat, pattern=r"(?s)^(?P<head>[\s>][^>]*>|>)(?P<b>.*?)</pre")
    body = pc.struct_field(blocks, "b")
    head = pc.struct_field(blocks, "head")
    ok = np.asarray(pc.is_valid(body).to_numpy(zero_copy_only=False),
                    dtype=bool)
    cand = is_tail & ok
    if not cand.any():
        return _CODE_SCHEMA.empty_table()
    csum = np.cumsum(cand)
    before_row = np.concatenate(([0], csum))[starts]
    rows_all = np.repeat(np.arange(t.num_rows, dtype=np.int64), counts)
    pos_all = csum - np.repeat(before_row, counts)
    sel = np.flatnonzero(cand)
    body = body.take(pa.array(sel))
    head = head.take(pa.array(sel))
    # optional <code ...> wrapper: strip it from the body, append its tag
    # head to the lang-search region
    code_head = pc.struct_field(pc.extract_regex(
        body, pattern=r"(?s)^\s*<code(?P<ch>[^>]*)>"), "ch")
    body = pc.replace_substring_regex(
        body, pattern=r"(?s)^\s*<code[^>]*>", replacement="")
    body = pc.replace_substring_regex(
        body, pattern=r"(?s)</code>\s*$", replacement="")
    lang_region = pc.binary_join_element_wise(
        head, pc.fill_null(code_head, ""), " ")
    lang = pc.struct_field(pc.extract_regex(
        lang_region,
        pattern=r'class="(?:[^"]*\s)?(?:language|lang)-'
                r'(?P<l>[A-Za-z0-9+#_.-]+)'), "l")
    for entity, ch in _CODE_ENTITIES:
        body = pc.replace_substring(body, pattern=entity, replacement=ch)
    src = t[url_col]
    if isinstance(src, pa.ChunkedArray):
        src = src.combine_chunks()
    return pa.table({
        "url": src.take(pa.array(rows_all[sel])),
        "pos": pa.array(pos_all[sel], type=pa.int64()),
        "lang": pc.cast(lang, pa.string()),
        "n_lines": pc.cast(pc.add(
            pc.count_substring(body, "\n"), 1), pa.int64()),
        "n_chars": pc.cast(pc.utf8_length(body), pa.int64()),
        "text": pc.cast(body, pa.string()),
    })


def extract_code_blocks(ds: "ray.data.Dataset", url_col: str = "url",
                        html_col: str = "html") -> "ray.data.Dataset":
    """(url, pos, lang, n_lines, n_chars, text) per ``<pre>`` block — the
    web-code mining stage. ``pos`` is the 1-based ordinal among the page's
    kept blocks; ``lang`` is the first ``language-``/``lang-`` class token
    on the pre or its immediate ``<code>`` wrapper (null when untagged);
    ``text`` preserves the block's whitespace (pre semantics) with the
    five named HTML entities unescaped. Map-side only, narrow output —
    pages never leave the stage. Documented simplifications (shared with
    the SQL twin): lowercase tags, first text run per block, unclosed
    blocks drop, nested <pre> not handled."""
    return ds.map_batches(
        lambda t: _code_blocks_from_batch(t, url_col, html_col),
        batch_format="pyarrow")
