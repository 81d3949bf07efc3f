"""Clean-telemetry fixture: every emit names a registered event.
tests/analysis/test_rules.py asserts zero findings here.
"""
from repro.obs import events as ev


def narrate(writer) -> None:
    writer.emit(ev.REQUEST_SUBMIT, 0.0, disk=0)
    writer.emit("request.complete", 1.0, disk=0)   # literal, but registered
