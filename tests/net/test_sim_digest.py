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
"""

import dataclasses
import hashlib
import json
from collections.abc import Mapping

import pytest

from repro.chaos import ChaosPlan, ChaosRunner, FaultInjector, FaultModel
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
    return digest(world.trace, world.links.totals())


def run_digest(run):
    if run in CHAOS:
        seed, shape = CHAOS[run]
        episode = ChaosRunner("sim").run(ChaosPlan.generate(seed, **shape))
        assert episode.ok, episode.summary()
        return digest(episode.trace, episode.link_totals)
    kind, name, membership = run.split("-", 2)
    if kind == "cut":
        return cut_and_heal(int(name), MEMBERSHIPS[membership])
    deployment = run_scenario("sim", SCENARIOS[name], **MEMBERSHIPS[membership])
    return digest(deployment.trace, deployment.link_totals())


EXPECTED = {
    "chaos-overlay2-0": "8f7680e25dd787872e294ed2c82ff8a4a058891255acc673d7c8ae8d137d97f1",
    "chaos-overlay2-1": "ef7c9b94ca8722254836a7246badd9c77c746ce999363240eee9fb324729d943",
    "chaos-overlay2-10": "61e3143749ce5b0f32977cb92eb5d98bbac15c30e522d1f0e9c75ba21931565a",
    "chaos-overlay2-11": "7f36a772a2f48a9ae5bad6c1fa6c4d96a3b4f8ad3e26cbd4d2096fc87ae10157",
    "chaos-overlay2-12": "4855dc337a6b224584db51fae7e8dc6b09c31fac62ba62436465ed4740081086",
    "chaos-overlay2-13": "17afd2fa9d57798d910f406b7fe5f62a36a6d58a17dbb31efb1bf10a22bbd7c5",
    "chaos-overlay2-14": "19ce7097dfccb4067b434fe38d388b4f95624ce01d9cc0f0f473cf874e6b22ec",
    "chaos-overlay2-2": "548e42bd6b7ce8b0a0da3bcaf5955b07fae0cb5a1c619c21b55c6e7e095a8352",
    "chaos-overlay2-3": "13fba49d2620079d94609e7370bfcd8f388474924c2f9526ef2da5c21d545584",
    "chaos-overlay2-4": "38e80e62148e24f5cc5ee143fd206a8671db4a8737deced3c1cb9edee0f1939c",
    "chaos-overlay2-5": "d6411108e0a033534f10e64b070feb9cd19b7f3f45f05b549053d9eeb852c41d",
    "chaos-overlay2-6": "de24c027696f157e3764d156f95928df5540d2f4afcaf586164ec7b0e7160c9a",
    "chaos-overlay2-7": "11852d4a18d23c7855840c54f4ef378fbca90dedac7d81f87fd2077e5644d044",
    "chaos-overlay2-8": "317160732bcbbe4d6632ff2e3e0e7c6c1d2ca0ba208584b676a74d438a7f21ae",
    "chaos-overlay2-9": "a70856bd4aae57ff3ab0349d28fe5f5eeeff0cec6b327e6b4ee5ce3091afa9e6",
    "chaos-plain-0": "8aa40bf5fc0b8273064fe8ae363e714340440b3aa9b8b5b019dc27702c230410",
    "chaos-plain-1": "03f8485cac58096484853918b103df76cf6997f50cf07de810f055e406e120fc",
    "chaos-plain-10": "7b3f4238e3e4ee03324f3ed8590916c32a0c891c5b1f87a164530fd58143e416",
    "chaos-plain-11": "88d7ef777912a7768820120670434f3ac3f0e0ff51c2d9c8b7b2da1f96191edb",
    "chaos-plain-12": "0ad4fc3605b6b8bb25e564736963bf22b078866a2113999554575a127ab8ec99",
    "chaos-plain-13": "80f7333001e652be87f8401191c8eb3f30cdf9cc74d0378fda37d39c8a05efdd",
    "chaos-plain-14": "87b8f0a86ff8ba1eb6bddbe93f95a278ea88f8c1c7ac07dacf62f6543a75faa1",
    "chaos-plain-2": "7b55a2be1524b9d2a3e96301ea320b19935cf06e6b0e10027fcb40b7a4d77fd8",
    "chaos-plain-3": "c427f6011787087324cb2d9034feee854b5e794a3581f2dac3a136db0e1e292e",
    "chaos-plain-4": "bceedd152ed0d72a82394845b577727a8058de5463b7e33f8369f04117949b74",
    "chaos-plain-5": "f90bd24f48fd569ffefe3a0ae50732da85836b540fa7f9e1c9e4260da507f829",
    "chaos-plain-6": "1b69ddfa68f21bb4d957befbfbed35b73dabcce7af40905f66671dd9ce7dd504",
    "chaos-plain-7": "d806427bffa92decc8c549d80eb7f3ee9f9502c9253ff4c846ff606d80c0bb1a",
    "chaos-plain-8": "0ce63e9d334249f15ae557fec67552c434aa2aa8e10b26a2bef0dc9177d490f1",
    "chaos-plain-9": "08577ff18b34c154ac0e71dd8da4676929ee9d55455d1e73f1a9da067ac649c3",
    "chaos-servers3-0": "8b8c9f815e906148c5e2aa2c2eeddcc5e04c2b73a2fd19b5dbe45d73fdecc3e4",
    "chaos-servers3-1": "c5ec7d461c5dc68f30fb955f94a89ee134f2ba4520d36b4344f292c70ae27c5c",
    "chaos-servers3-10": "cd041f33b0942af4419f65f3cdd4415524761c5cedcc9824e866f7eefc0e4128",
    "chaos-servers3-11": "26220ff983fadd783d3656719df0bf0a9cfcf69a44754cc2968f6905e7e31c5b",
    "chaos-servers3-12": "901ab67ccc4c4730664faeb2e560714c4400902ee749ab950b22e68be8cd82c4",
    "chaos-servers3-13": "9fd87819be56fb988c2105fa7ab07124d855f0466625ebe1fc185cefbeeabfdf",
    "chaos-servers3-14": "e4b03f0c9ca712b346e0aba9cbed75e445f10cfd950d13d573338034173a636e",
    "chaos-servers3-2": "1738ee7b1f14da98939015698cc642b409f28a57ac57c2805ea4d197d359c4bd",
    "chaos-servers3-3": "43f5f9c8a7e9c4e2afe5b4fe30850e735bbbf77ade28a2807cc4d5915b109e04",
    "chaos-servers3-4": "105589cc384bb943706ec03bab875be91396be9261a1b4d5f58228303aaa46df",
    "chaos-servers3-5": "a75dce77e25a0cd8efb3716e5cf1e8c18f8a27bb793e5246542a450429dcb58e",
    "chaos-servers3-6": "30f513761be68044c2dc6f381020c04e52c7859e27deea4c1a3127b2ab0eadb6",
    "chaos-servers3-7": "623537d2989fd924e168f652e42680be513bf6d154474df080ee8c6f1b6b4ba7",
    "chaos-servers3-8": "377c7aca90148a62109516462543667678b99f48e1d45958a1238a0f7e38e38f",
    "chaos-servers3-9": "eb790ac5894c01d1da23119f41e016fab5863be01ee3c523a2d9ac072e2bd7c2",
    "scenario-self_delivery-oracle": "21aaf11c0e3acbfb251ae3b9d65224b55c2995c2670156229492dfb26b196aef",
    "scenario-self_delivery-servers2": "d8ad3478b01695a00908d77bc72ef7934d8d0e1fb6450fa3c07e081099829a18",
    "scenario-reconfiguration-oracle": "dd4affc558a5fc5ff7a805132a11cd4d4f1b12e0cfbb1fd374ffc9febff32956",
    "scenario-reconfiguration-servers2": "bb7617f802440207006cfb3c3a30858f6df0c714bb969a93fb0ef6c59548feec",
    "scenario-virtual_synchrony-oracle": "fa651a946e3b11ec5542a0767b29dbac40b89ed44c470fcec3330c1df0e82590",
    "scenario-virtual_synchrony-servers2": "b0873d06b13d1c281d09feac19203d3656301c080aa19f4e6a95e11a158d05c7",
    "scenario-churn-oracle": "01d84bb4e82b0292124daf96d035e1abf679fc880b3ff0f714b7ed8c5ec7aab5",
    "scenario-churn-servers2": "f672b19db3054eadf11e00239e7f36068de063a9b4039b267118fbe72fc357a0",
    "scenario-crash_mid_sync-oracle": "606eb4c12514a8831eec66873493e6e2a3684d90d18f289718eaa6f05ffaaf8c",
    "scenario-crash_mid_sync-servers2": "0578278daa1d9d188db22aa56d27ff20a09750ade54b86f14f391f76733ea273",
    "cut-0-oracle": "66a3dbc887714d1d936f4ca3f050ca772f2a8686a19b81bb2d2849b197dc54a7",
    "cut-0-servers2": "2d65e3b5be514d6c0af9c4bee3adc89e9e6d510bc18167f4dd10fac763b79159",
    "cut-1-oracle": "7e6cd6db10da304d254bef49478cc25ac42885a29a12094d7f32eb7e77d50d36",
    "cut-1-servers2": "9d291965ff04f537231a8a047d874a2467a034e61084cf15a68ccee79fbe05ee",
    "cut-2-oracle": "36211a3f8bb89f35182c49e0c0a05a560d3b46543a188f26625da4d6fc789fbc",
    "cut-2-servers2": "03812e5b5262a811e209f4bbaafd4200d0a727dfc3b7cb73fd3bc4849a1500b5",
    "cut-3-oracle": "feccb60c12b0e0c5343f247b9718c3628a640debc8437cc9007f9a8216d6e0e4",
    "cut-3-servers2": "e845606e244d832702c126f82d00907f567e29c77c2d6652d6793d637cff9c3a",
    "cut-4-oracle": "9683b9f9e02d010bbd15c8e729f6eb9b2e9b4a8545b2e10f088c2e04227c3dcf",
    "cut-4-servers2": "9b1ffdb7d4912a573682b3602c06412beb388091cdd16fda6be6c0a1c287f256",
}


@pytest.mark.parametrize("run", RUNS)
def test_sim_run_digest_is_pinned(run):
    assert run_digest(run) == EXPECTED[run]


if __name__ == "__main__":
    print("EXPECTED = {")
    for run in RUNS:
        print(f'    "{run}": "{run_digest(run)}",')
    print("}")
