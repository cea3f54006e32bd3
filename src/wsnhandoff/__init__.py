"""Deterministic discrete-event simulator of sensor-mote assisted cellular
handoff with satellite fallback."""

from .engine import EventQueue, PastTimeError, RngStream
from .protocol import (DecisionOutcome, DiscoveryRequest, Escalation,
                       LinkRecord, MoteMode, MoteState, MscDecision)
from .queues import FifoQueue, StrictPriorityQueue
from .routing import INFINITY_METRIC, RoutingLoopError, UnreachableError
from .report import parse_report_ledger, render_report, serialize_report
from .scenario import (ParseError, Scenario, SimParams, ValidationError,
                       load_scenario, reference_scenario, serialize_scenario,
                       strip_wsn)
from .simulation import RunReport, Simulation, run
from .stats import (Category, NoSignificantChangeError, StatsLedger,
                    classify, qos_improvement)
from .world import (MobilityPath, NodeKind, PacketOutcome, Point,
                    RadioProfile, comm_graph, packet_outcome, position_at,
                    profile_for_range)

__version__ = "0.1.0"
