"""Result containers for the experiment runners.

A report separates its deterministic body (config echo, data rows, constant
provenance) from run metadata (timing, timestamps): two runs with the same
config must produce byte-identical bodies regardless of worker count, while
metadata is free to differ and is quarantined accordingly.
"""

from __future__ import annotations

import csv
import io
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

SCHEMA_VERSION = 1

ROW_FIELDS = ("x", "empirical", "theoretical", "ratio")


def make_row(x, empirical, theoretical=None):
    """Build one data row; the ratio is absent when it would be 0/0."""
    ratio = None
    if theoretical is not None and theoretical != 0:
        ratio = empirical / theoretical
    return {"x": x, "empirical": empirical, "theoretical": theoretical, "ratio": ratio}


@dataclass
class ExperimentReport:
    kind: str
    config: dict
    rows: list
    constant: dict | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        xs = [row["x"] for row in self.rows]
        if xs != sorted(xs):
            raise ValueError("report rows must be sorted by x")

    def body(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "config": self.config,
            "rows": self.rows,
        }
        if self.constant is not None:
            out["constant"] = self.constant
        return out

    def body_json(self) -> str:
        return json.dumps(self.body(), sort_keys=True, separators=(",", ":"))

    def to_json(self) -> str:
        full = self.body()
        full["metadata"] = self.metadata
        return json.dumps(full, sort_keys=True, indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(ROW_FIELDS)
        for row in self.rows:
            writer.writerow(["" if row[k] is None else row[k] for k in ROW_FIELDS])
        return buf.getvalue()

    def finish(self, started: float) -> "ExperimentReport":
        self.metadata["runtime_seconds"] = round(time.time() - started, 3)
        self.metadata["finished_at"] = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
        return self


@contextmanager
def phase(metadata: dict, name: str):
    """Add the block's wall time to metadata["phases"][name]["seconds"], keep the
    counters the block puts in the yielded entry, and record peak_rss_mb."""
    entry = metadata.setdefault("phases", {}).setdefault(name, {"seconds": 0.0})
    started = time.perf_counter()
    yield entry
    entry["seconds"] = round(entry["seconds"] + time.perf_counter() - started, 6)
    import resource  # on first use, so runs that time no phase never load it
    metadata["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def constant_provenance(estimate) -> dict:
    return {
        "value": estimate.value,
        "method": estimate.method,
        "truncations": estimate.truncations,
        "tail_estimate": estimate.tail_estimate,
        "field": estimate.field_name,
        "r": estimate.r,
    }
