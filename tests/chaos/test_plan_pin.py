"""Pin the seed -> plan mapping of :mod:`repro.chaos.plan`.

Every pinned sim digest, chaos printout and soak JSON derives from
``ChaosPlan.generate``, so a refactor of the plan code must leave the
mapping byte-for-byte unchanged.  One sha256 of canonical JSON covers,
for seeds 0-199 under four option sets: the generated plan and its
description, the shrink to all but the last process, and the repair of a
seeded shuffle of half its ops, and the first 200 ops of the endless
seeded op stream.

``python tests/chaos/test_plan_pin.py`` prints the digest of the tree it
runs in.
"""

import hashlib
import json
import random
from itertools import islice

from repro.chaos import ChaosPlan, sanitise_ops

OPTION_SETS = (
    {},
    {"servers": 3},
    {"overlay_leaders": 2},
    {"servers": 3, "overlay_leaders": 2},
)

PINNED = "81f00967dadf48d3772ab3ad0edcc3c3ecef30a97b385eec35655da4ad9dcae0"


def plan_digest() -> str:
    digest = hashlib.sha256()
    for options in OPTION_SETS:
        for seed in range(200):
            plan = ChaosPlan.generate(seed, **options)
            smaller = plan.with_processes(plan.processes[:-1])
            half = random.Random(seed).sample(plan.ops, len(plan.ops) // 2)
            repaired = sanitise_ops(
                plan.processes,
                half,
                leaders=plan.overlay_leaders,
                servers=plan.servers,
            )
            stream = islice(plan.schedule_state().random_ops(random.Random(seed)), 200)
            record = {
                "plan": plan.to_dict(),
                "describe": plan.describe(),
                "smaller": smaller.to_dict(),
                "repaired": [op.to_dict() for op in repaired],
                "stream": [op.to_dict() for op in stream],
            }
            digest.update(json.dumps(record, sort_keys=True).encode())
    return digest.hexdigest()


def test_seed_to_plan_mapping_is_pinned():
    assert plan_digest() == PINNED


if __name__ == "__main__":
    print(plan_digest())
