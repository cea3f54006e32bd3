"""What a run must reproduce: the dispatch digest, the event count and the
SHA-256 of the serialized report, stored per workload and seed in
goldens.json."""

import hashlib
import json
from pathlib import Path

GOLDENS_PATH = Path(__file__).resolve().parent / "goldens.json"


def outcome(package, report) -> dict:
    text = package.serialize_report(report)
    return {"digest": report.digest,
            "events": report.events_processed,
            "report_sha256": hashlib.sha256(text.encode()).hexdigest()}


def load_goldens() -> dict:
    """workload -> seed (as a string) -> outcome."""
    with open(GOLDENS_PATH) as f:
        return json.load(f)


def mismatches(got: dict, expected: dict) -> list:
    """Names of the fields in which `got` differs from `expected`."""
    return [k for k in ("digest", "events", "report_sha256")
            if got.get(k) != expected.get(k)]
