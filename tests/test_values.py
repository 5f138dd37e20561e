"""The value types the per-packet path allocates: slotted, built positionally
in a pinned field order, and never resized after construction."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

from l4span.core import AccEcnFields, EcnCodepoint, FiveTuple, FlowClass, Packet, Proto, TcpFields
from l4span.marking import MarkParams, _FlowRecord
from l4span.profile import EgressEstimate, ProfileEntry
from l4span.ransim.layer import DrbLayer
from l4span.ransim.rlc import Sdu
from l4span.senders import ReceiverState
from l4span.shortcircuit import FeedbackMode, FlowFeedbackState

PKG = Path(__file__).resolve().parents[1] / "src" / "l4span"
FT = FiveTuple(1, 2, 10, 20, Proto.TCP)


def _packet() -> Packet:
    return Packet(1, FT, 1500, EcnCodepoint.ECT1, 0.0, TcpFields(0, 0, 0, AccEcnFields()))


VALUES = {
    "Packet": _packet,
    "TcpFields": TcpFields,
    "AccEcnFields": AccEcnFields,
    "Sdu": lambda: Sdu(_packet(), 1, 0.0),
    "ProfileEntry": lambda: ProfileEntry(1, 1500),
    "EgressEstimate": lambda: EgressEstimate(1e6, 0.0, 0, 0.0, 0.0, 1),
    "_FlowRecord": lambda: _FlowRecord(FlowClass.L4S, 0.0),
    "FlowFeedbackState": lambda: FlowFeedbackState(FeedbackMode.ACC_ECN),
    "ReceiverState": lambda: ReceiverState(FT, FeedbackMode.ACC_ECN),
}


@pytest.mark.parametrize("name", list(VALUES))
def test_per_packet_values_have_no_instance_dict(name):
    value = VALUES[name]()
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        value.extra = 1


def test_the_layer_keeps_its_instance_dict():
    # a test-side simulator replaces on_ran_feedback on layer instances
    layer = DrbLayer(MarkParams())
    assert hasattr(layer, "__dict__")
    layer.on_ran_feedback = None


# the hot path passes these fields by position: reordering one would give
# its value to another field without an error
FIELD_ORDER = {
    Packet: ["pkt_id", "five_tuple", "size_bytes", "ecn", "created_at", "tcp", "fb_cutoff",
             "pred_sojourn", "payload_bytes"],
    TcpFields: ["seq", "ack_no", "flags", "accecn"],
    AccEcnFields: ["ace_counter", "ce_bytes", "ect0_bytes", "ect1_bytes"],
    Sdu: ["pkt", "sn", "enq_at", "head_at", "done_at"],
    ProfileEntry: ["pdcp_sn", "size_bytes", "t_transmit"],
    EgressEstimate: ["r_hat", "e_hat", "n_queue", "sojourn_hat", "at", "sample_count"],
}


@pytest.mark.parametrize("cls", list(FIELD_ORDER), ids=lambda c: c.__name__)
def test_positional_field_order_is_pinned(cls):
    assert [f.name for f in fields(cls)] == FIELD_ORDER[cls]


def test_payload_bytes_is_set_once_at_construction():
    assert [f.name for f in fields(Packet) if not f.init] == ["payload_bytes"]
    assert _packet().payload_bytes == 1460
    udp = Packet(2, FT._replace(proto=Proto.UDP), 1500, EcnCodepoint.ECT1, 0.0)
    assert udp.payload_bytes == 1472


FIXED = {"size_bytes", "five_tuple"}  # what payload_bytes is computed from
CONSTRUCTORS = {"__init__", "__post_init__"}


def _stored(target: ast.AST):
    """The expressions an assignment target stores to (not those it reads)."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _stored(elt)
    elif isinstance(target, ast.Starred):
        yield from _stored(target.value)
    else:
        yield target


def _assignments_outside_constructors(tree: ast.AST) -> list[tuple[int, str]]:
    found = []

    def visit(node, in_constructor):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_constructor = node.name in CONSTRUCTORS
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            for sub in _stored(target):
                if isinstance(sub, ast.Attribute) and sub.attr in FIXED and not in_constructor:
                    found.append((sub.lineno, sub.attr))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "setattr" and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant) and node.args[1].value in FIXED):
            found.append((node.lineno, node.args[1].value))
        for child in ast.iter_child_nodes(node):
            visit(child, in_constructor)

    visit(tree, False)
    return found


def test_nothing_resizes_or_readdresses_a_packet_after_construction():
    found = {str(path.relative_to(PKG)): _assignments_outside_constructors(ast.parse(path.read_text()))
             for path in sorted(PKG.rglob("*.py"))}
    assert len(found) > 10
    assert {rel: hits for rel, hits in found.items() if hits} == {}


def test_the_assignment_check_sees_each_form():
    src = ("def f(p, d):\n    p.size_bytes = 1\n    p.size_bytes += 1\n"
           "    setattr(p, 'five_tuple', None)\n    a, p.five_tuple = 1, 2\n"
           "    d[p.five_tuple] = p.size_bytes\n"
           "class C:\n    def __post_init__(self):\n        self.size_bytes = 2\n")
    assert _assignments_outside_constructors(ast.parse(src)) == [
        (2, "size_bytes"), (3, "size_bytes"), (4, "five_tuple"), (5, "five_tuple")]
