"""Deterministic dual-robot relay navigation simulator and benchmark tools.

Two robots split a fetch-and-deliver instruction into a relay: the first
hand (FH) picks the item up and deposits it at a handoff point, the second
hand (SH) receives it there and carries it to the delivery point.  The
package provides procedural scene and episode generation, a rollout engine
whose robots exchange packets only over a simulated transport, with
event-triggered subtask swapping, room-label adjudication tooling, and the
metric/reporting stack used to compare coordination policies.

The API lives in the submodules (``relaynav.world``, ``relaynav.engine``,
``relaynav.cli``, ...); import names from there.  This module imports none
of them: every ``relaynav`` subcommand starts a fresh interpreter, and a
command should pay only for the modules it runs: ``gen-scenes`` and
``gen-episodes`` load no rollout engine.  The package is plain Python and
depends on nothing outside the standard library; numpy is a test
dependency only.  A submodule read as an attribute, ``relaynav.engine``, is
imported on first access.
"""

import importlib

__version__ = "0.1.0"


def __getattr__(name: str):
    if not name.startswith("_"):
        try:
            return importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
