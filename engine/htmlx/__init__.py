"""HTML path: tokenizer/DOM (H1), boilerplate strip (H2), title (H4).

Rebuilds, stdlib-only, what the reference delegates to MarkItDown's
BeautifulSoup-based HtmlConverter (reference: app/main.py:383 via
requirements.txt:7) plus the readability-style density upgrade the north_star
requires. See SURVEY.md §2.2 H1-H4.
"""

from engine.htmlx.dom import Node, is_node, text_len, link_text_len
from engine.htmlx.boilerplate import strip_boilerplate, select_content_root
from engine.htmlx.title import extract_title

# the regex-scanner tokenizer (~1.6× the stdlib build's parse throughput);
# its equivalence with engine.htmlx.parser is tested (tests/test_fastparser.py)
from engine.htmlx.fastparser import parse_html_fast as parse_html

__all__ = [
    "Node",
    "is_node",
    "parse_html",
    "strip_boilerplate",
    "select_content_root",
    "extract_title",
    "text_len",
    "link_text_len",
]
