"""Pinned digests of simulator runs: the simulator's behaviour, byte for byte.

Each run is reduced to one sha256 over its trace and its per-kind link
totals.  Events are canonicalised so the digest does not depend on the
interpreter's hash seed: dataclasses become their class name and field
values, sets and maps are sorted, floats are written with ``repr``.  A
refactor of the simulated network, its CO_RFIFO hosting or the world
that assembles them must leave every digest unchanged; a change that is
meant to move them must re-record them and say why.

Runs: seeded ``ChaosRunner("sim")`` episodes (plain, under the two-tier
overlay, on a three-server tier), every ``SCENARIOS`` entry on the
oracle and on a two-server tier, and seeded runs that cut and heal links
under faulty traffic with no view change - the only runs here whose
reliable peers see a cut suffix retransmitted.  Re-record with
``python tests/net/test_sim_digest.py``.

Before re-recording, diff the runs' time-free *skeletons* between the
parent and the change: ``python tests/net/test_sim_digest.py --skeleton
FILE`` in each checkout writes, per run, each (receiver, sender)
delivery sequence, each process's (view, transitional set) sequence,
the link totals and the trace length, and ``--diff PARENT CHANGE`` names
every run and field that moved - each one needs its cause stated.
"""

import dataclasses
import hashlib
import json
import sys
from collections.abc import Mapping

import pytest

from repro.chaos import ChaosPlan, ChaosRunner, FaultInjector, FaultModel
from repro.checking.events import DeliverEvent, ViewEvent
from repro.deploy import SCENARIOS, run_scenario
from repro.net import SimWorld, UniformLatency


def canonical(value):
    """``value`` as plain JSON data with every unordered collection sorted."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [type(value).__name__] + [
            canonical(getattr(value, f.name)) for f in dataclasses.fields(value)
        ]
    if isinstance(value, (set, frozenset)):
        return sorted((canonical(item) for item in value), key=json.dumps)
    if isinstance(value, Mapping):
        items = ([canonical(k), canonical(v)] for k, v in value.items())
        return ["map"] + sorted(items, key=json.dumps)
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, float):
        return ["float", repr(value)]
    if value is None or isinstance(value, (str, int)):
        return value
    return [type(value).__name__, repr(value)]


def digest(trace, link_totals):
    data = {"events": [canonical(event) for event in trace], "links": canonical(link_totals)}
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


def skeleton(trace, link_totals):
    """What a run did, without when: per-link delivery orders, each
    process's views with their transitional sets, totals and length."""
    deliveries, views = {}, {}
    for event in trace:
        if isinstance(event, DeliverEvent):
            key = f"{event.proc}<-{event.sender}"
            deliveries.setdefault(key, []).append(canonical(event.payload))
        elif isinstance(event, ViewEvent):
            entry = [canonical(event.view), canonical(event.transitional)]
            views.setdefault(str(event.proc), []).append(entry)
    return {"deliveries": deliveries, "views": views,
            "totals": canonical(link_totals), "length": len(trace)}


CHAOS = {
    f"chaos-{label}-{seed}": (seed, shape)
    for label, shape in (
        ("plain", {}),
        ("overlay2", {"overlay_leaders": 2}),
        ("servers3", {"servers": 3}),
    )
    for seed in range(15)
}
MEMBERSHIPS = {"oracle": {}, "servers2": {"servers": 2}}
RUNS = (
    sorted(CHAOS)
    + [f"scenario-{name}-{membership}" for name in SCENARIOS for membership in MEMBERSHIPS]
    + [f"cut-{seed}-{membership}" for seed in range(5) for membership in MEMBERSHIPS]
)
CUTS = ([["a", "b"], ["c", "d", "e"]], [["a", "c"], ["b"], ["d", "e"]], None)


def cut_and_heal(seed, options):
    """Traffic across link cuts the membership never hears of: copies in
    flight at each cut, sends while cut, then a heal."""
    faults = FaultModel(drop=0.1, duplicate=0.1, delay=0.2, reorder=0.1, seed=seed)
    world = SimWorld(
        latency=UniformLatency(0.5, 2.0, seed=seed), faults=FaultInjector(faults), **options
    )
    pids = ["a", "b", "c", "d", "e"]
    world.add_nodes(pids)
    world.start()
    world.settle()
    for step, groups in enumerate(CUTS):
        for pid in pids:
            world.node(pid).send(f"{pid}-{step}")
        world.run_until(world.now() + 0.7)
        if groups is None:
            world.links.heal()
        else:
            world.links.partition(groups)
        for pid in pids:
            world.node(pid).send(f"{pid}-{step}-cut")
    world.settle()
    return world.trace, world.links.totals()


def run_trace(run):
    """``run``'s trace and link totals."""
    if run in CHAOS:
        seed, shape = CHAOS[run]
        episode = ChaosRunner("sim").run(ChaosPlan.generate(seed, **shape))
        assert episode.ok, episode.summary()
        return episode.trace, episode.link_totals
    kind, name, membership = run.split("-", 2)
    if kind == "cut":
        return cut_and_heal(int(name), MEMBERSHIPS[membership])
    deployment = run_scenario("sim", SCENARIOS[name], **MEMBERSHIPS[membership])
    return deployment.trace, deployment.link_totals()


def run_digest(run):
    return digest(*run_trace(run))


EXPECTED = {
    "chaos-overlay2-0": "4bab1ecc5cee3930830dec49292602ac81d9cef0dc6efad7bd02124d012ec707",
    "chaos-overlay2-1": "98dd891e062765cbe89883ab5a5dfeed817a7d67371af19df8f26d89bb3c78a3",
    "chaos-overlay2-10": "2ad2c354cbb2d9034dac93e82e45f7a22bef2b4ac3515b8d2191cdaff01280eb",
    "chaos-overlay2-11": "9aab2ef4e0d5392273fad87ea71eb5d267eae37bc761a0266c5f1c1dbadbf4a2",
    "chaos-overlay2-12": "37e2c30bfba055bda4ce8acfb492c12cd126bb047e3ddb28515350323719ebb8",
    "chaos-overlay2-13": "5dc4df73b853368df8f30048fc2bf86feceecf44be1a2874d0881b3a6e399856",
    "chaos-overlay2-14": "fe3ddd11d2f9747be7df1d039ba70dd8a3cb074af385b00ba345533b15d45b3e",
    "chaos-overlay2-2": "b461943f84a80ea5bbccba82d8dc84a8c9ad6598f53924fe7526509363c9ff1f",
    "chaos-overlay2-3": "44e54f171d008f72c4620cd4c1abd630cf32a9f18615468d3ef04a8eb57af427",
    "chaos-overlay2-4": "507436c2092d583b9d4504f079c5db302563ced5aafb89f7c9b76ed5dbf6d130",
    "chaos-overlay2-5": "c64701c8e814d2271e66b1adac21855ec1af4367a677a2f481a42822b0b1cbab",
    "chaos-overlay2-6": "30523727af189514689a0beb59953330e20de3fac90dbc66a1f9e7e0a430484e",
    "chaos-overlay2-7": "933dfd38b254e33202f2594e036478d6f2cb46add19cdfde5940a7cffc588872",
    "chaos-overlay2-8": "3aaab6233e08757cf3cedf6fac4b87f28c27332789b52196b5499ca59b551d10",
    "chaos-overlay2-9": "ae85d627bc348c379371e8db616797191c76701185be5302d1775ad4f7b58d49",
    "chaos-plain-0": "ba29409f70698e619974d28e4802d503f31acf1bc94c118bf3e3ead902f36193",
    "chaos-plain-1": "2c66adfc4f1e0f0365141732c3ecaa4845a2a7bdbf2350f4e4f5920fa720c726",
    "chaos-plain-10": "af2c7c6519668c405e4c951298627afc2ecff9ec977ab3ed0250fbb13954c8e0",
    "chaos-plain-11": "e2934cd10f5db6f6c5090c574084fc1b2eb9fa04f8ee09e474429c6325b87b18",
    "chaos-plain-12": "1dc5f50ae2b87f0816ddf1b7bd720e7e4cbe37f10f9e045111edf6562ec68e49",
    "chaos-plain-13": "03649eb7a735bfafe7653899cefdb82d5d4fc10e06ec20219fbccf38dce582e3",
    "chaos-plain-14": "ee21d675bebbe0e7ec7e8388f76f37aaa363caf7cbdce329186af69b63d82ded",
    "chaos-plain-2": "bb4acc4db472acc727e84c1040c8a57785cafcf1e2822a4d303b8fb3636d514e",
    "chaos-plain-3": "4f8e7718a63649a6ba947d788134544cdff30ac91c8d6e32402b2066d0bf9979",
    "chaos-plain-4": "b793242c915db2e52a73986831dbb24fc18b2e04a799387a8bfbce0620ba688e",
    "chaos-plain-5": "a9b0cba1a6517185fa517fa617c8fcbd0ee13e9e04320b089a79b2042556375f",
    "chaos-plain-6": "c6bbde099c9dfc7f7ce093ba8049d377ebb6c7ecbc191414b0f7e9f9389ec419",
    "chaos-plain-7": "50142c8e4204e5ec0c32551303f4b355a85037b4686aacd7776775664c35455c",
    "chaos-plain-8": "55a16f55481a1740f61b8d4712a8ae715e11b2942ba88ad22c4aad6f4e56220b",
    "chaos-plain-9": "f9276dec3f6153ed4a52bafc66acd4e223ba412ba15feaf717e9b2a03fdfd284",
    "chaos-servers3-0": "9362ec70a223621209b01c5fdd236e64096d7f8eb281d4a254cb36b8ee0aeba7",
    "chaos-servers3-1": "545140dcda05ca3b0f311da70099bd736f1eca229fb13c2957babdc6e0724ccc",
    "chaos-servers3-10": "1015ca2999a159ddc82e38710d160d178656199e160c555c01e695ae37c26d64",
    "chaos-servers3-11": "31ff3f0ca733f202d1959e49e2a7ae10882eedcb27f926c7a9a921d2bb7980b4",
    "chaos-servers3-12": "8953f9c37bdf2426691580d0f9a22f48a4c30473e7d3c45919a7aa87accfb0ff",
    "chaos-servers3-13": "1cfe472e138bde902ca242917ba3e8d1ea12ae4fa6bc43f4f783c8203eb92dbe",
    "chaos-servers3-14": "d53f388cadeb7f2ba7c5b00ce1e75cf001dfea7cce27a27b6e737e14541a5f50",
    "chaos-servers3-2": "ee6e17cf35fba07d2df27a06b24373506ef05c6a6d6b6eab96ce37b08018cc95",
    "chaos-servers3-3": "4a47488f2e30130b0f1db2eb714be48a1854bebacf96bd0edfdab5d2d3a74546",
    "chaos-servers3-4": "08712e8daaf72da58a53328ba21c94eb0e8a40408b2b51c148d77163451967bd",
    "chaos-servers3-5": "a955810686387e3a61908b3e11732ffd20401e135fa167f91278595ef8657dbc",
    "chaos-servers3-6": "2644328afa622a2d62c9dc4b7c047a435a129ccd647498c432205a7440f6c483",
    "chaos-servers3-7": "a51af62b54f0d2fa42e80fbe4e6a7689648547f208fb516931183459bb753a45",
    "chaos-servers3-8": "2c579de23c7395b11306b72ec7f6634310b355ebc237dc4944e40c92651f1be8",
    "chaos-servers3-9": "0ce827d94e3b8b91a1d474391972265e235ffc2001115ac9820da15a11e8c54d",
    "scenario-self_delivery-oracle": "d1ed532bbd3880aecf20a24f744e6a2b6618f3eea83c297eaa16c46f186d5491",
    "scenario-self_delivery-servers2": "ab6c96a5e29d619490ef980c6918745177b55648eb9de525ba4c9ebf1d20ed12",
    "scenario-reconfiguration-oracle": "4af4c32ec91c065e0524925f5737a33de2ca08a787fd88dd11b7569b857a08c8",
    "scenario-reconfiguration-servers2": "e4b0db2ff881a295ab14c7cd8ed8cbc3d2481be8f3c1a3f4092eb46a90440b8b",
    "scenario-virtual_synchrony-oracle": "7c937c5c232bbaaaa90fa172bbd42352ac00863089fc796654fa4e6330008935",
    "scenario-virtual_synchrony-servers2": "10350e68e5995414de7a2ca1f54923119e03281f6ff5ed0ec77f9b4e1f2fd1ab",
    "scenario-churn-oracle": "50cd76d2461a2966751a14fae861e7666a52cb16212dacc25ff7421bc312232f",
    "scenario-churn-servers2": "db076c704271f407a5890b63cd461507b750b07a551df6f8bc54ec631f83d778",
    "scenario-crash_mid_sync-oracle": "a7460e0532ec8963b56c8c35dd5174a00802a6c4b3f1fe47298069b309be4acf",
    "scenario-crash_mid_sync-servers2": "7e30391db46aeb42b5f2274ac7515505377913d4d59e645fa17a21a614fa8815",
    "cut-0-oracle": "cc14da134f726574579a5d3dc41da5148c4bcb3fc600bf692fbda7bf2d64a695",
    "cut-0-servers2": "5a25b6a6044fe5749f3430b5c624fd5e8cb5a7ff4371d76210b3338d6bb1c126",
    "cut-1-oracle": "9cb7c4d000ccce9f22eb5524896b92fc374505c95069780e4bd835085376cdf2",
    "cut-1-servers2": "3398e40cbca082b1eef99e0b1a832ad74c67890f8178c892fa18bc6b105922a3",
    "cut-2-oracle": "2f1f2332da5ddda9a747c40775e45c01662f877c1c96ceda511dafe4e71ca4cf",
    "cut-2-servers2": "e74a87eea932f41e1ebf6c8531f5d18cc183b878d97023ec47ba16cb996d2043",
    "cut-3-oracle": "09d0bb534b3d761e7ba9eedf1a90cb617b3b189da8ed910c127f83ef2348db64",
    "cut-3-servers2": "2a301a2722594142717b64e19b9afbd5de37b805281a78b478400ac71f9778af",
    "cut-4-oracle": "39ccc52e7fbc8980afd7c8cbbdb856cab9a0d022a674a6a9f94c1e3d5dd9ed4b",
    "cut-4-servers2": "1f56c0a372ad8b18296609d89ebf0112e696b5f78c2d071f9d38ed1fe3406c8c",
}


@pytest.mark.parametrize("run", RUNS)
def test_sim_run_digest_is_pinned(run):
    assert run_digest(run) == EXPECTED[run]


def diff_skeletons(parent, change):
    """Each run whose skeleton moved, and the fields that did."""
    for run in RUNS:
        moved = [field for field in parent[run] if parent[run][field] != change[run][field]]
        if moved:
            print(f"{run}: {', '.join(moved)}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--skeleton"]:
        with open(sys.argv[2], "w") as out:
            json.dump({run: skeleton(*run_trace(run)) for run in RUNS}, out, sort_keys=True)
    elif sys.argv[1:2] == ["--diff"]:
        diff_skeletons(*(json.load(open(path)) for path in sys.argv[2:4]))
    else:
        print("EXPECTED = {")
        for run in RUNS:
            print(f'    "{run}": "{run_digest(run)}",')
        print("}")
