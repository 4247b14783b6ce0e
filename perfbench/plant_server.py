"""Serve one controller connection of the simulated plant, then exit.

Run with ``src`` on ``PYTHONPATH``::

    python3 perfbench/plant_server.py [--trace]

Prints the bound loopback port on the first stdout line, serves exactly one
connection on a fresh lockstep :class:`twinloop.TwinPlant`, and after the
controller disconnects prints one JSON line: the folded span totals of
``PlantProtocol.handle_command`` and ``twin.step`` with ``--trace``, else ``{}``.
It gives up after ``ACCEPT_TIMEOUT_S`` without a connection, so a controller
that died never leaves it running.
"""

from __future__ import annotations

import json
import sys

from twinloop import PlantProtocol, PlantServer, TwinParams, TwinPlant

from tracing import Tracer, step_observer

ACCEPT_TIMEOUT_S = 60.0


def main(argv: list[str]) -> int:
    tracer = Tracer() if "--trace" in argv else None
    if tracer is not None:
        from twinloop import twin

        tracer.patch(twin, "step", "twin.step", step_observer(tracer))
        tracer.patch(PlantProtocol, "handle_command", "plantio.server_handle")
    server = PlantServer(("127.0.0.1", 0), TwinPlant(TwinParams(), mode="lockstep"))
    server.timeout = ACCEPT_TIMEOUT_S
    try:
        print(server.server_address[1], flush=True)
        server.handle_request()
    finally:
        server.server_close()
    print(json.dumps(tracer.fold({}) if tracer is not None else {}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
