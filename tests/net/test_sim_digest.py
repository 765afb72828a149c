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
    "chaos-overlay2-0": "8f7680e25dd787872e294ed2c82ff8a4a058891255acc673d7c8ae8d137d97f1",
    "chaos-overlay2-1": "ef7c9b94ca8722254836a7246badd9c77c746ce999363240eee9fb324729d943",
    "chaos-overlay2-10": "a4d54a06b13d2821c3f358d1f1997bca715039aa60f9228f9d8ba8c80fec6124",
    "chaos-overlay2-11": "7f36a772a2f48a9ae5bad6c1fa6c4d96a3b4f8ad3e26cbd4d2096fc87ae10157",
    "chaos-overlay2-12": "fd371cc164ab9633f6615d19db14e6bc345f04027b9c148ca9614033faa76b59",
    "chaos-overlay2-13": "8e717b5470407773905fbbcd7ee98c4906cb84754a529f1c57dffbe72d23b48a",
    "chaos-overlay2-14": "ec65b5a4fca1726967a600707c39b9bc1e017e7c9b5d0641fb5e855e7228c264",
    "chaos-overlay2-2": "513c4f975be38866e2593b6a2538ad42c04b49aaed778a925448104dff174008",
    "chaos-overlay2-3": "de73cb11a3d07df4af8e8b1e7614a1c0a28b17401d01c536af6a38eb5a1fe28f",
    "chaos-overlay2-4": "e9f3da116f17815ffc3d303abdb94c92679d65d42aa39b59cb5811550c8178c7",
    "chaos-overlay2-5": "de99b40f9f790a9e608a541035fe94e90c5fb397749b86216c2c0daaddbbaf59",
    "chaos-overlay2-6": "1cd3bb3c4e2037f9366d36199d6a1011a384b7b7e4fbacf2fcfd1c56d427fb23",
    "chaos-overlay2-7": "11852d4a18d23c7855840c54f4ef378fbca90dedac7d81f87fd2077e5644d044",
    "chaos-overlay2-8": "76597de74e197644b8e73821c3a6a0ee0a28ec53150efe342db5921bea5caeec",
    "chaos-overlay2-9": "a70856bd4aae57ff3ab0349d28fe5f5eeeff0cec6b327e6b4ee5ce3091afa9e6",
    "chaos-plain-0": "8aa40bf5fc0b8273064fe8ae363e714340440b3aa9b8b5b019dc27702c230410",
    "chaos-plain-1": "03f8485cac58096484853918b103df76cf6997f50cf07de810f055e406e120fc",
    "chaos-plain-10": "01490eb1c687db54d1e7e8f77d0f84be0ecaf7b2ff4b39cf4c86cfe9cd6ff1bc",
    "chaos-plain-11": "412d6b3a4ac9aa97f1349ba2f0e70c5d0b766a6a38455d03be0264f33f4e1851",
    "chaos-plain-12": "9db027d4b5653deb72c01f5daada0952b64562371f8ffa03f2003f0f27be8e1d",
    "chaos-plain-13": "7871c81172d968556ff189f354b161cc513b029f0d716561118efc49701069f7",
    "chaos-plain-14": "87b8f0a86ff8ba1eb6bddbe93f95a278ea88f8c1c7ac07dacf62f6543a75faa1",
    "chaos-plain-2": "d444a2623fc9347f2a570555c63b5c98d6d62ecb76593f8d3863fdaf2b015cb9",
    "chaos-plain-3": "d952bfa9a8b4efa5ccdc8adbcc68840c014787b77da382d2a6ef4a43cdbc56bd",
    "chaos-plain-4": "20c410668fb518ace202c96ff73d0d1f777c5aff91845846c73633733775458b",
    "chaos-plain-5": "f90bd24f48fd569ffefe3a0ae50732da85836b540fa7f9e1c9e4260da507f829",
    "chaos-plain-6": "ee3a3528c5085385cb2bab7b137ead3b29a2f61fc9f2bc626aeb3d4e23002388",
    "chaos-plain-7": "d806427bffa92decc8c549d80eb7f3ee9f9502c9253ff4c846ff606d80c0bb1a",
    "chaos-plain-8": "7463bdfb358ed5b5297a38eb92feee426b42ca5e17a75214596989c6d25e758e",
    "chaos-plain-9": "dc6f2aed4af66b255a2479f591b861fd192def10e7254a6f24ad26ff7a5f0ffe",
    "chaos-servers3-0": "65f09846d1f2c30eb81f97901e18ac8d97b15712e0e6173c8a05627d2060c144",
    "chaos-servers3-1": "fbee48584dd5b1367463c9863063ca559e6389729586e0190856189dbce76f50",
    "chaos-servers3-10": "294345a9ff5ab26cb0512a50fcdf343d1e572593c880601a36026899d6a6c5e4",
    "chaos-servers3-11": "33169fb587fb57c6baa027b3291639595cfbbf1f0a7a1aa80b329933ea2f481d",
    "chaos-servers3-12": "97037ae9f4159b6546f03dc0af9e1b4927b05178e6d9739149376e2747d0fc0d",
    "chaos-servers3-13": "fdbb8d80f655b86dc70dbe05d7f54053b3036aaf007f10ab77b5658338e9597d",
    "chaos-servers3-14": "cc985bc8a3525b59f45c34dad0b0cfb144e92cf403f91f0d20d388c68f9cb7b6",
    "chaos-servers3-2": "98752b4dd369349b0f861eb9dc7d0b50115db9867a6c92df562bc9daeadc0852",
    "chaos-servers3-3": "559bff341e12aba1b5ac072f2ce3c341ed32f5297d11b0ebfa8dce2f9eb5feda",
    "chaos-servers3-4": "105589cc384bb943706ec03bab875be91396be9261a1b4d5f58228303aaa46df",
    "chaos-servers3-5": "871cef15eaf23aebe20a0c0b5178fae542b8c56c8ad106cb0329b19f692a414b",
    "chaos-servers3-6": "a20f811f5add26557a2385143a599a1330bb072554306a538ef738a3c2850e6c",
    "chaos-servers3-7": "0cb5667ac04a280797534657b962260b7d98a30bf3287da7510c65fb0d182893",
    "chaos-servers3-8": "23198fe1738d0f6f5e523296f86a7c2b38972b329f6f845c9798162dc3dd7857",
    "chaos-servers3-9": "5e69ababdc37e986676f9f428e692b48045d34371547fb5861ceb6d021ce414a",
    "scenario-self_delivery-oracle": "669e022daa19a1f0ba5fcbb4b00d74f0cff6b542d1869d740689e5e0e2902f4e",
    "scenario-self_delivery-servers2": "2b6654de5cb6510dd56ac625ff89da155db70db1b7eb5efd4bbbacc11fce9e24",
    "scenario-reconfiguration-oracle": "5df69ab542856f28f3688d1a94b655b3614c5cd897477a9fcda61ca0fd54040b",
    "scenario-reconfiguration-servers2": "569af4baf4b938361a3095f43bf31141ef925148800a62b4ed371f03eed8ca54",
    "scenario-virtual_synchrony-oracle": "2e3983e0c796ef468dd4ad23a256b5f981b4abf5ed6899b376b3b3861d146747",
    "scenario-virtual_synchrony-servers2": "0b89b8d21b7b727af88f7a5364a725e500e9f6da69be417dee0f3edb2efd8464",
    "scenario-churn-oracle": "01d84bb4e82b0292124daf96d035e1abf679fc880b3ff0f714b7ed8c5ec7aab5",
    "scenario-churn-servers2": "8245d27d94207a613e49949c2fb4b0c8a711d707a8209565454e2cb672eea98a",
    "scenario-crash_mid_sync-oracle": "606eb4c12514a8831eec66873493e6e2a3684d90d18f289718eaa6f05ffaaf8c",
    "scenario-crash_mid_sync-servers2": "2d673b29ca6190f364b6bb403b0507a062c32c8790b869138904f0e34c4f09c4",
    "cut-0-oracle": "66a3dbc887714d1d936f4ca3f050ca772f2a8686a19b81bb2d2849b197dc54a7",
    "cut-0-servers2": "2d65e3b5be514d6c0af9c4bee3adc89e9e6d510bc18167f4dd10fac763b79159",
    "cut-1-oracle": "7e6cd6db10da304d254bef49478cc25ac42885a29a12094d7f32eb7e77d50d36",
    "cut-1-servers2": "f8781e5046e11adff35a9347a7d70dc0163fc9a7a4cdf7959db649bca9aca161",
    "cut-2-oracle": "36211a3f8bb89f35182c49e0c0a05a560d3b46543a188f26625da4d6fc789fbc",
    "cut-2-servers2": "b33ec5ca77dccca86904dfe1159ae146584103dd1aecd91f8d3ba9128be51bd7",
    "cut-3-oracle": "feccb60c12b0e0c5343f247b9718c3628a640debc8437cc9007f9a8216d6e0e4",
    "cut-3-servers2": "e845606e244d832702c126f82d00907f567e29c77c2d6652d6793d637cff9c3a",
    "cut-4-oracle": "9683b9f9e02d010bbd15c8e729f6eb9b2e9b4a8545b2e10f088c2e04227c3dcf",
    "cut-4-servers2": "9b1ffdb7d4912a573682b3602c06412beb388091cdd16fda6be6c0a1c287f256",
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
