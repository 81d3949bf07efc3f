"""OBS001 fixture: events emitted outside the registered taxonomy.

Line numbers are asserted exactly by tests/analysis/test_rules.py.
"""


def narrate(writer, names: list[str]) -> None:
    writer.emit("totally.adhoc", 0.0)  # line 8: OBS001 (unregistered literal)
    for name in names:
        writer.emit(name, 1.0)      # line 10: OBS001 (dynamic event type)
