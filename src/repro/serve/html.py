"""Minimal HTML rendering for ``repro serve`` (stdlib only).

The HTML report is deliberately thin: it wraps the exact text tables of
:func:`repro.harness.report.report_sections` in escaped ``<pre>`` blocks,
so the browser view and ``repro report`` can never disagree on content —
only on chrome.
"""

from __future__ import annotations

from html import escape
from typing import Any, Dict, List, Sequence, Tuple

_STYLE = """
body { font-family: system-ui, sans-serif; margin: 2rem auto;
       max-width: 72rem; color: #1a1a2e; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
pre { background: #f6f8fa; border: 1px solid #d0d7de; border-radius: 6px;
      padding: 0.8rem 1rem; overflow-x: auto; font-size: 0.85rem; }
table { border-collapse: collapse; font-size: 0.9rem; }
td, th { border: 1px solid #d0d7de; padding: 0.3rem 0.7rem; text-align: left; }
th { background: #f6f8fa; }
code { background: #f6f8fa; padding: 0.1rem 0.3rem; border-radius: 4px; }
a { color: #0969da; }
"""


def page(title: str, body: str) -> str:
    """One complete HTML document around pre-rendered (safe) body markup."""
    return ("<!doctype html>\n<html><head><meta charset=\"utf-8\">"
            f"<title>{escape(title)}</title>"
            f"<style>{_STYLE}</style></head>\n"
            f"<body><h1>{escape(title)}</h1>\n{body}\n</body></html>\n")


def report_page(sections: Sequence[Tuple[str, str]], *,
                record_count: int) -> str:
    """The ``/v1/report`` view: escaped text tables under section headers."""
    parts: List[str] = [
        f"<p>{record_count} stored record(s). "
        "Raw records: <code>GET /v1/records/&lt;spec_hash&gt;</code>.</p>"
    ]
    if not sections:
        parts.append("<p>No records stored yet.</p>")
    for title, body in sections:
        parts.append(f"<h2>{escape(title)}</h2>\n"
                     f"<pre>{escape(body)}</pre>")
    return page("repro report", "\n".join(parts))


def index_page(jobs: Sequence[Dict[str, Any]], *,
               record_count: int) -> str:
    """The ``/`` view: live job table plus pointers into the API."""
    parts: List[str] = [
        "<p>Long-lived scenario service. "
        "<a href=\"/v1/report\">report</a> · "
        "<a href=\"/metrics\">metrics</a> · "
        f"{record_count} stored record(s).</p>",
        "<h2>Jobs</h2>",
    ]
    if not jobs:
        parts.append("<p>No jobs submitted yet "
                     "(<code>POST /v1/jobs</code> a scenario spec).</p>")
    else:
        rows = ["<table><tr><th>Job</th><th>Name</th><th>Client</th>"
                "<th>State</th><th>Progress</th></tr>"]
        for job in jobs:
            state = job["state"] + (" (cached)" if job["cached"] else "")
            rows.append(
                "<tr>"
                f"<td><code>{escape(job['id'][:16])}</code></td>"
                f"<td>{escape(str(job['name']))}</td>"
                f"<td>{escape(str(job['client']))}</td>"
                f"<td>{escape(state)}</td>"
                f"<td>{job['completed_increments']}/"
                f"{job['total_increments']}</td>"
                "</tr>")
        rows.append("</table>")
        parts.append("\n".join(rows))
    return page("repro serve", "\n".join(parts))
