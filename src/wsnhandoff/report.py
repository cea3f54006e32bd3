"""Report text: the file a run saves, what `run` and `compare` print, and
the parser that reads a saved report's counters back.  Every layout opens
with one `layer.name=value` line per counter, in registry order."""

from .simulation import RunReport
from .stats import (REGISTRY, Classification, NoSignificantChangeError,
                    RegistryMismatchError, StatsLedger, qos_improvement)


def _counter_lines(ledger: StatsLedger) -> list:
    return [f"{token}={value}" for token, value in ledger.as_dict().items()]


def _link_lines(report: RunReport, layout: str) -> list:
    """One line per link: `layout` filled with ms, endpoint, t and path."""
    return [layout.format(
                ms=link.ms_id, t=link.established_at,
                endpoint=f"{link.endpoint.kind.value}:{link.endpoint.node_id}",
                path=",".join(link.relay_path) or "-")
            for link in report.links]


def serialize_report(report: RunReport) -> str:
    """The report file: counters, then `link`, `energy` and `digest` lines."""
    lines = (_counter_lines(report.ledger)
             + _link_lines(report, "link {ms} {endpoint} {t:.6f} {path}"))
    for mote, (units, mode) in report.mote_energy.items():
        lines.append(f"energy {mote} {units} {mode}")
    lines.append(f"digest {report.digest}")
    return "\n".join(lines) + "\n"


def render_run(report: RunReport) -> str:
    """What `run` prints: counters, links, mote energy, events and digest."""
    lines = _counter_lines(report.ledger) + [""] + _link_lines(
        report, "link: {ms} -> {endpoint} at t={t:.3f} via {path}")
    total = sum(units for units, _ in report.mote_energy.values())
    asleep = sum(1 for _, mode in report.mote_energy.values()
                 if mode == "sleeping")
    lines.append(f"motes: {len(report.mote_energy)} total, {asleep} released "
                 f"to sleep, {total} energy units spent")
    lines.append(f"events: {report.events_processed}")
    lines.append(f"digest: {report.digest}")
    return "\n".join(lines) + "\n"


def render_report(ledger: StatsLedger, classification: Classification) -> str:
    """What `compare` prints: counters, each counter's verdict, the QoS."""
    lines = _counter_lines(ledger) + [""]
    for token in REGISTRY:
        delta, cat = classification.per_counter[token]
        lines.append(f"{token}: {cat.value} ({delta:+d})")
    try:
        pct = qos_improvement(classification)
        lines.append(f"QoS improvement: {pct:.2f}%")
    except NoSignificantChangeError:
        lines.append("QoS improvement: undefined (no significant change)")
    return "\n".join(lines) + "\n"


def parse_report_ledger(text: str) -> StatsLedger:
    """Rebuild the counter ledger from a report file.

    Raises RegistryMismatchError when counters are missing, repeated or
    unknown, or a value is not a non-negative decimal integer, so reports
    from incompatible builds cannot be compared.
    """
    ledger = StatsLedger()
    seen = set()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(("link ", "energy ", "digest ")):
            continue
        if "=" not in line:
            raise RegistryMismatchError(f"unparseable report line {line!r}")
        token, _, value = line.partition("=")
        key = token.strip()
        if key not in REGISTRY:
            raise RegistryMismatchError(f"unknown counter {token!r}")
        if key in seen:
            raise RegistryMismatchError(f"duplicate counter {token!r}")
        seen.add(key)
        if not (value.isascii() and value.strip().isdigit()):
            raise RegistryMismatchError(f"not a count: {line!r}")
        ledger.record(key, int(value))
    missing = [k for k in REGISTRY if k not in seen]
    if missing:
        raise RegistryMismatchError(f"missing counters: {missing}")
    return ledger
