"""Ray-Data-native main-content extraction engine.

A from-scratch rebuild of the capabilities of the reference
``cocacha12/document-converter-api`` (see ``SURVEY.md``) as streaming
``ray.data.Dataset`` pipelines over zero-copy Arrow batches:

- ``engine.htmlx``  — stdlib HTML tokenizer/DOM + readability-style boilerplate strip
- ``engine.pdfx``   — stdlib PDF object/stream parser + layout ordering
- ``engine.docxx``  — stdlib DOCX (zip + XML) extractor
- ``engine.mdserialize`` — deterministic Markdown serializer with span records
- ``engine.textops``     — exact wrapper-op semantics (chunking, format strips, ...)
- ``engine.extract``     — per-row kernel + the ``extract_batch`` batch transform
- ``engine.pipeline``    — the Dataset graph (read → gate → extract task → sink)
- ``engine.checkpoint``  — partition manifests, resume filter, GC
- ``engine.stats``       — job-stats / listing queries over the output tables
- ``engine.dedup``       — exact + MinHash-LSH + SimHash + n-gram-Jaccard dedup
- ``engine.similarity``  — embedding cosine top-k (brute force + LSH-bucketed)
- ``engine.textstats``   — language-ID, quality scoring, token counts, fingerprints
- ``engine.multimodal``  — binary-column decode/feature stages, stateless tasks

No ``ray.init``/``ray.shutdown`` happens anywhere in this package: sessions are
owned by the caller (driver, bench.py, or the pytest fixture).
"""

__version__ = "0.1.0"
