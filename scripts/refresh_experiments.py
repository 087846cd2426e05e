#!/usr/bin/env python
"""Refresh the measured tables in EXPERIMENTS.md from recorded runs.

Reads the four run artifacts (laptop figures, stress figures, the
stress scenarios at a 0.5 s budget, paper-scale sweep) and splices
their tables into EXPERIMENTS.md, replacing the corresponding fenced
code blocks.  Keeps the document's prose untouched, so re-running the
evaluation and refreshing the numbers is a two-command affair:

    python -m repro evaluate --output figures_output.txt
    python scripts/refresh_experiments.py

The stress artifact comes from ``python -m repro evaluate --seeds 0 1 2
--flexibilities 0 1 2 3 --num-requests 8 --time-limit 3 --output
figures_stress.txt``; the 0.5 s one from the same command with
``--time-limit 0.5 --output figures_gap_stress.txt``.
"""

from __future__ import annotations

import re
import sys

EXPERIMENTS = "EXPERIMENTS.md"

#: (EXPERIMENTS.md anchor, table header) of each table taken from the
#: laptop run, ``figures_output.txt``
LAPTOP_TABLES = (
    ("## Figure 3", "flex  delta"),
    ("## Figure 5", "flex  max_earliness"),
    ("## Figure 7", "flex  greedy vs csigma"),
    ("## Figure 9", "flex  csigma vs flex 0"),
)

#: (EXPERIMENTS.md anchor, run artifact, figure title, table header) of
#: each table found as the first header of its shape after the figure's
#: title (Figs. 3 and 5 have the same headers)
TITLED_TABLES = (
    ("## Figure 4", "figures_stress.txt", "Figure 4", "flex  delta"),
    ("## Figure 6", "figures_gap_stress.txt", "Figure 6", "flex  max_earliness"),
)


def extract_figure(text: str, title_prefix: str) -> str | None:
    """Grab one figure's table body (header..rows) from a run artifact."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith(title_prefix):
            body = [line.rstrip()]
            for row in lines[i + 1 :]:
                if not row.strip() or row.startswith("(total"):
                    break
                body.append(row.rstrip())
            return "\n".join(body)
    return None


def extract_titled(text: str, title: str, header: str) -> str | None:
    """Grab the first ``header`` table after the line starting ``title``."""
    marker = text.find(title)
    return extract_figure(text[marker:], header) if marker >= 0 else None


def replace_block(doc: str, anchor: str, new_body: str) -> str:
    """Replace the first fenced block after ``anchor`` with ``new_body``."""
    idx = doc.find(anchor)
    if idx < 0:
        print(f"  anchor not found: {anchor!r}", file=sys.stderr)
        return doc
    open_idx = doc.find("```", idx)
    close_idx = doc.find("```", open_idx + 3)
    if open_idx < 0 or close_idx < 0:
        print(f"  fenced block not found after {anchor!r}", file=sys.stderr)
        return doc
    return doc[: open_idx + 3] + "\n" + new_body + "\n" + doc[close_idx:]


def main() -> int:
    doc = open(EXPERIMENTS, encoding="utf-8").read()

    try:
        laptop = open("figures_output.txt", encoding="utf-8").read()
    except OSError:
        laptop = None
    try:
        sweep = open("paper_scale_sweep.txt", encoding="utf-8").read()
    except OSError:
        sweep = None

    if laptop:
        for anchor, title in LAPTOP_TABLES:
            body = extract_figure(laptop, title)
            if body:
                doc = replace_block(doc, anchor, body)
                print(f"refreshed block after {anchor}")

    for anchor, artifact, title, header in TITLED_TABLES:
        try:
            run = open(artifact, encoding="utf-8").read()
        except OSError:
            continue
        body = extract_titled(run, title, header)
        if body:
            doc = replace_block(doc, anchor, body)
            print(f"refreshed block after {anchor}")

    if sweep:
        body = extract_figure(sweep, "flex    cS revenue")
        if body is None:
            body = extract_figure(sweep, "flex")
        if body:
            doc = replace_block(doc, "### Paper-scale sweep", body)
            print("refreshed paper-scale sweep block")

    open(EXPERIMENTS, "w", encoding="utf-8").write(doc)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
