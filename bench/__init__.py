"""The repo benchmark: four workloads over sim/asyncio/TCP, one command.

Run from the repo root::

    python3 -m bench                      # all four workloads, every metric
    python3 -m bench --workload steady.sim --seed 3 --seconds 30 --trace 0

Everything here drives the system through the public
``repro.deploy.Deployment`` contract and times layers from outside, by
calling their public functions; nothing under ``src/`` knows the
benchmark exists.  See ``bench/README.md`` for the metric and workload
definitions and the measurement protocol.
"""
