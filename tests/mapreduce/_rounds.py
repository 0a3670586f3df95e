"""Test-only round inputs and reducers for the runtime tests.

A ``repro worker`` daemon unpickles a reducer by module and name, so a
test that sends one to a real daemon subprocess puts this directory on
the daemon's ``PYTHONPATH`` and sends a reducer from here.
"""

from __future__ import annotations


def modulo_groups(values, modulus):
    """Group ``values`` by their remainder mod ``modulus``, in first-seen order."""
    groups = {}
    for value in values:
        groups.setdefault(value % modulus, []).append(value)
    return groups


def echo_reducer(key, values):
    """Return the group as it arrived, as one ``(key, values)`` pair."""
    yield (key, values)
