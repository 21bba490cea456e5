"""Shared plumbing for the benchmark harness.

Every bench regenerates one experiment from DESIGN.md's index
(F1 or C1..C27): it builds the workload, runs the system, prints the
paper-style table, saves it under ``benchmarks/reports/`` (the
artifacts EXPERIMENTS.md cites), and asserts the *shape* of the
paper's claim.  The ``benchmark`` fixture times the experiment's
computational core.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from repro.util.tables import Table

REPORTS_DIR = Path(__file__).parent / "reports"

__all__ = ["emit", "Table"]


def _parse_blocks(text: str) -> dict[str, str]:
    """Split a report file into ``{experiment_id: body}`` blocks.

    A block starts at a ``[experiment_id]`` header line and runs to
    the next header (or EOF); bodies keep their text, trailing
    whitespace normalised.
    """
    blocks: dict[str, str] = {}
    current: str | None = None
    lines: list[str] = []

    def flush() -> None:
        if current is not None:
            blocks[current] = "\n".join(lines).rstrip("\n")

    for line in text.splitlines():
        if line.startswith("[") and line.rstrip().endswith("]"):
            flush()
            current = line.strip()[1:-1]
            lines = []
        elif current is not None:
            lines.append(line)
    flush()
    return blocks


def emit(experiment_id: str, table: Table | str, *, beside: Path | None = None) -> None:
    """Print the regenerated table and persist it as an artifact.

    The report is ``benchmarks/reports/<id>.txt``, or, with ``beside``
    (a harness's ``--output`` JSON path), ``<id>.txt`` in that file's
    directory: a redirected run leaves the tracked report alone.

    Idempotent: the ``[experiment_id]`` block is rewritten in place,
    so re-running a bench (even after its table's rendering changed)
    never duplicates blocks.  The write is atomic — temp file in the
    same directory, then ``os.replace`` — so a crashed run can't leave
    a half-written report behind.
    """
    text = (table.render() if isinstance(table, Table) else str(table)).rstrip("\n")
    print(f"\n[{experiment_id}]")
    print(text)
    directory = REPORTS_DIR if beside is None else Path(beside).parent
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{experiment_id.lower()}.txt"
    blocks = _parse_blocks(path.read_text()) if path.exists() else {}
    blocks[experiment_id] = text
    payload = "".join(f"[{eid}]\n{body}\n\n" for eid, body in blocks.items())
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
