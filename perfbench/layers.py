"""Per-layer timing of the extraction kernel, measured from outside it.

The traced pass runs ``extract_batch`` in this process over the workload's
rows, batch by batch, with the public functions of each engine layer
replaced by timing wrappers for the duration of the pass. Nothing inside
``engine/`` is changed: the wrappers are set on the module attributes the
kernel looks up when it calls them, and restored afterwards.

Each wrapper is a span. A span's time is added to its parent's child time,
so ``extract_row`` minus its direct stage calls is the dispatch cost and
``extract_batch`` minus its rows is the per-batch build. Spans count only
inside ``ExtractActor.__call__``; the warm-up row each batch extracts in
its constructor is part of the batch build.

A separate pass measures allocation with ``tracemalloc``, which slows
Python code several-fold and so never shares a pass with the timings.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time
import tracemalloc
from collections import Counter

# (module, attribute, span): the stage functions of each layer, named by
# the module that holds the binding the kernel calls through
STAGES = (
    ("engine.extract", "parse_html", "htmlx.parse"),
    ("engine.htmlx.fastparser", "decode_html", "htmlx.decode"),
    ("engine.htmlx.parser", "decode_html", "htmlx.decode"),
    ("engine.extract", "strip_boilerplate", "htmlx.strip"),
    ("engine.extract", "extract_title", "htmlx.title"),
    ("engine.extract", "serialize", "mdserialize.serialize"),
    ("engine.extract", "markdown_to_plain", "textops.plain"),
    ("engine.pdfx.extract", "parse_objects", "pdfx.objects"),
    ("engine.pdfx.extract", "get_pages", "pdfx.pages"),
    ("engine.pdfx.extract", "page_content", "pdfx.streams"),
    ("engine.pdfx.cmap", "build_page_fonts", "pdfx.fonts"),
    ("engine.pdfx.extract", "interpret", "pdfx.content"),
    ("engine.pdfx.extract", "page_blocks", "pdfx.layout"),
    ("engine.docxx", "docx_document", "docxx.document"),
)

# the calls whose peak allocation the tracemalloc pass records: (module,
# attribute, layer, whether one call is one page or document of the layer)
ALLOC_STAGES = (
    ("engine.extract", "parse_html", "htmlx", True),
    ("engine.extract", "strip_boilerplate", "htmlx", False),
    ("engine.extract", "extract_title", "htmlx", False),
    ("engine.extract", "serialize", "mdserialize", True),
    ("engine.pdfx.extract", "extract_pdf_doc", "pdfx", True),
)


@contextlib.contextmanager
def _patched(patches):
    """Set (module, attribute, value) triples; restore the originals."""
    saved = []
    try:
        for mod, attr, value in patches:
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)


class Tracer:
    def __init__(self):
        self._stack: list[list[float]] = []  # child seconds of open spans
        self._in_rows = 0
        self.seconds: Counter = Counter()
        self.calls: Counter = Counter()
        self.row_ms: list[float] = []
        self.dispatch_s = 0.0
        self.html_bytes = 0
        self.pdf_pages = 0

    def _span(self, name: str, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                if self._in_rows:
                    self._record(name, dt, frame[0], args, result)

        return traced

    def _record(self, name, dt, child_s, args, result) -> None:
        self.seconds[name] += dt
        self.calls[name] += 1
        if name == "extract.row":
            self.row_ms.append(dt * 1e3)
            self.dispatch_s += dt - child_s
        elif name == "htmlx.parse":
            self.html_bytes += len(args[0])
        elif name == "pdfx.pages" and result is not None:
            self.pdf_pages += len(result)

    def _rows(self, call):
        def rows(actor, batch):
            self._in_rows += 1
            try:
                return call(actor, batch)
            finally:
                self._in_rows -= 1

        return rows

    def patches(self):
        import engine.extract

        out = [(engine.extract.ExtractActor, "__call__",
                self._rows(engine.extract.ExtractActor.__call__)),
               (engine.extract, "extract_row",
                self._span("extract.row", engine.extract.extract_row))]
        for mod_name, attr, name in STAGES:
            mod = importlib.import_module(mod_name)
            out.append((mod, attr, self._span(name, getattr(mod, attr))))
        return out


def kernel_pass(batches, patches=()) -> tuple[float, list]:
    """Seconds spent in extract_batch over the batches, and the outputs."""
    from engine.extract import extract_batch

    total, outs = 0.0, []
    with _patched(patches):
        for batch in batches:
            t0 = time.perf_counter()
            outs.append(extract_batch(batch))
            total += time.perf_counter() - t0
    return total, outs


def alloc_pass(payloads) -> dict[str, float]:
    """Peak KiB held during each layer's calls, per page or document."""
    from engine.extract import extract_row

    held: Counter = Counter()
    units: Counter = Counter()

    def metered(layer, counts, fn):
        def call(*args, **kwargs):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                held[layer] += tracemalloc.get_traced_memory()[1] - start
                units[layer] += counts

        return call

    patches = []
    for mod_name, attr, layer, counts in ALLOC_STAGES:
        mod = importlib.import_module(mod_name)
        patches.append((mod, attr, metered(layer, counts, getattr(mod, attr))))
    tracemalloc.start()
    try:
        with _patched(patches):
            for payload in payloads:
                extract_row(payload or b"")
    finally:
        tracemalloc.stop()
    return {layer: held[layer] / 1024 / units[layer] if units[layer] else 0.0
            for layer in ("htmlx", "mdserialize", "pdfx")}


def kernel_metrics(tr: Tracer, traced_s: float, untraced_s: float,
                   n_batches: int, alloc: dict) -> dict:
    def per(name: str, n: int) -> float:
        return tr.seconds[name] * 1e3 / n if n else 0.0

    pages = tr.calls["htmlx.parse"]
    docs = tr.calls["pdfx.objects"]
    rows = len(tr.row_ms)
    row_s = tr.seconds["extract.row"]
    stage_s = sum(tr.seconds[name] for name in {s for _, _, s in STAGES}
                  if name != "htmlx.decode")  # decode runs inside parse
    q = statistics.quantiles(tr.row_ms, n=100) if rows > 1 else [0.0] * 99
    return {
        "htmlx.pages": (pages, "count"),
        "htmlx.in_kib_per_page": (tr.html_bytes / 1024 / pages
                                  if pages else 0.0, "KiB"),
        "htmlx.parse_ms_per_page": (per("htmlx.parse", pages), "ms"),
        "htmlx.decode_ms_per_page": (per("htmlx.decode", pages), "ms"),
        "htmlx.strip_ms_per_page": (per("htmlx.strip", pages), "ms"),
        "htmlx.title_ms_per_page": (per("htmlx.title", pages), "ms"),
        "mdserialize.serialize_ms_per_page": (
            per("mdserialize.serialize", tr.calls["mdserialize.serialize"]),
            "ms"),
        "textops.plain_ms_per_page": (
            per("textops.plain", tr.calls["textops.plain"]), "ms"),
        "pdfx.docs": (docs, "count"),
        "pdfx.pages_per_doc": (tr.pdf_pages / docs if docs else 0.0, "count"),
        "pdfx.objects_ms_per_doc": (per("pdfx.objects", docs), "ms"),
        "pdfx.streams_ms_per_doc": (per("pdfx.streams", docs), "ms"),
        "pdfx.fonts_ms_per_doc": (per("pdfx.fonts", docs), "ms"),
        "pdfx.content_ms_per_doc": (per("pdfx.content", docs), "ms"),
        "pdfx.layout_ms_per_doc": (per("pdfx.layout", docs), "ms"),
        "docxx.document_ms_per_doc": (
            per("docxx.document", tr.calls["docxx.document"]), "ms"),
        "extract.row_samples": (rows, "count"),
        "extract.row_ms_p50": (q[49], "ms"),
        "extract.row_ms_p99": (q[98], "ms"),
        "extract.dispatch_ms_per_row": (tr.dispatch_s * 1e3 / rows
                                        if rows else 0.0, "ms"),
        "extract.batch_build_ms_per_batch": (
            (traced_s - row_s) * 1e3 / n_batches, "ms"),
        "htmlx.alloc_kib_per_page": (alloc["htmlx"], "KiB"),
        "mdserialize.alloc_kib_per_page": (alloc["mdserialize"], "KiB"),
        "pdfx.alloc_kib_per_doc": (alloc["pdfx"], "KiB"),
        "trace.overhead_share": ((traced_s - untraced_s) / untraced_s,
                                 "ratio"),
        "trace.unaccounted_share": ((traced_s - stage_s) / traced_s,
                                    "ratio"),
    }
