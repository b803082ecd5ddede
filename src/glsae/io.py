"""Panel file ingestion and deterministic delimited-text output.

Panels arrive as UTF-8 CSV with the mandatory header
``area,source,estimate,se`` (comma separator, period decimal): one row per
(area, source) cell, standard errors rather than variances (squared on
ingestion). The panel must be rectangular with no duplicate cells.

All emitted tables are CSV with floats written in shortest round-trip
form, so byte-identical reruns are a meaningful contract. Output tables
begin with a ``# manifest: <hash>`` comment line tying them to the run
manifest; readers here skip ``#`` lines.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .model import SourcePanel, validate_panel

PANEL_HEADER = ("area", "source", "estimate", "se")


class PanelFormatError(ValueError):
    pass


def load_panel(path) -> SourcePanel:
    """Parse and validate a panel file; errors carry 1-based line numbers."""
    path = Path(path)
    cells: dict[tuple[str, str], tuple[float, float]] = {}
    areas: list[str] = []
    sources: list[str] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PanelFormatError(f"{path}: empty file") from None
        if tuple(h.strip() for h in header) != PANEL_HEADER:
            raise PanelFormatError(f"{path}:1: header must be {','.join(PANEL_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if row and row[0].lstrip().startswith("#"):
                continue
            if len(row) != 4:
                raise PanelFormatError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            area, source = row[0].strip(), row[1].strip()
            try:
                est = float(row[2])
                se = float(row[3])
            except ValueError:
                raise PanelFormatError(f"{path}:{lineno}: non-numeric estimate or se") from None
            if not np.isfinite(est) or not np.isfinite(se):
                raise PanelFormatError(f"{path}:{lineno}: estimate and se must be finite")
            if se <= 0:
                raise PanelFormatError(f"{path}:{lineno}: se must be > 0")
            key = (area, source)
            if key in cells:
                raise PanelFormatError(f"{path}:{lineno}: duplicate cell (area {area!r}, source {source!r})")
            cells[key] = (est, se)
            if area not in areas:
                areas.append(area)
            if source not in sources:
                sources.append(source)
    if not cells:
        raise PanelFormatError(f"{path}: no data rows")
    y = np.empty((len(areas), len(sources)))
    v = np.empty_like(y)
    for i, area in enumerate(areas):
        for j, source in enumerate(sources):
            if (area, source) not in cells:
                raise PanelFormatError(f"{path}: non-rectangular panel; missing (area {area!r}, source {source!r})")
            est, se = cells[(area, source)]
            y[i, j] = est
            v[i, j] = se * se
    panel = SourcePanel(tuple(areas), tuple(sources), y, v)
    report = validate_panel(panel)
    if not report.ok:
        msgs = "; ".join(viol.message for viol in report.violations)
        raise PanelFormatError(f"{path}: invalid panel: {msgs}")
    return panel


def save_panel(panel: SourcePanel, path) -> None:
    rows = []
    for i, area in enumerate(panel.areas):
        for j, source in enumerate(panel.sources):
            rows.append((area, source, panel.y[i, j], float(np.sqrt(panel.v[i, j]))))
    write_table(path, PANEL_HEADER, rows, manifest_hash=None)


def fmt(value) -> str:
    """Shortest round-trip formatting for floats; str() for the rest."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_table(path, header, rows, manifest_hash: str | None) -> None:
    """Deterministic CSV writer; prepends the manifest stamp when given."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = []
    if manifest_hash is not None:
        lines.append(f"# manifest: {manifest_hash}")
    lines.append(",".join(str(h) for h in header))
    for row in rows:
        lines.append(",".join(fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _numbered_records(path) -> list[tuple[int, list[str]]]:
    """(1-based line, fields) of each CSV record that is neither blank nor a ``#`` comment."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        records = [(reader.line_num, r) for r in reader if r and not r[0].lstrip().startswith("#")]
    if not records:
        raise PanelFormatError(f"{path}: no header row")
    return records


def read_table(path) -> tuple[list[str], list[list[str]]]:
    """Read a CSV written by :func:`write_table`, skipping comment lines."""
    records = [r for _, r in _numbered_records(path)]
    return records[0], records[1:]


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def manifest_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()[:16]


def write_manifest(path, config: dict, outputs: dict[str, str]) -> str:
    """Write the run manifest; returns the config hash stamped into outputs."""
    h = manifest_hash(config)
    payload = {"config": config, "manifest_hash": h, "outputs": outputs}
    Path(path).write_text(canonical_json(payload) + "\n", encoding="utf-8", newline="\n")
    return h


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def load_value_csv(path, value_column: str = "value") -> tuple[list[str], np.ndarray]:
    """Read (area, value) pairs, one per area; returns area labels and the value vector.

    A missing, non-numeric or non-finite value is refused with its 1-based line.
    """
    (_, header), *rows = _numbered_records(path)
    if header[:1] != ["area"] or value_column not in header:
        raise PanelFormatError(f"{path}: expected columns 'area' and {value_column!r}")
    vcol = header.index(value_column)
    areas = [r[0] for _, r in rows]
    seen = set()
    for area in areas:
        if area in seen:
            raise PanelFormatError(f"{path}: area {area!r} is listed twice")
        seen.add(area)
    values = []
    for lineno, r in rows:
        if len(r) <= vcol:
            raise PanelFormatError(f"{path}:{lineno}: no {value_column!r} field")
        try:
            value = float(r[vcol])
        except ValueError:
            raise PanelFormatError(f"{path}:{lineno}: non-numeric {value_column} {r[vcol]!r}") from None
        if not math.isfinite(value):
            raise PanelFormatError(f"{path}:{lineno}: {value_column} must be finite, got {r[vcol]!r}")
        values.append(value)
    return areas, np.array(values)
