"""Golden exports of instrumented runs.

Each case runs a small batch with telemetry and/or the decision ledger
on and serialises every export those recorders feed, byte for byte as
the writers produce them: the recorder's text rendering (which keeps
each record's detail keys in recorded order), the JSONL stream, the
Perfetto trace with per-process tracks, ``metrics.to_dict()`` live and
detached, the ledger summary and its ``repro-decisions/1`` stream, and
the causal attribution (profile document plus queued decomposition).
Together the cases reach every recording site: CPU slices, waits and
preemptions, store-and-forward and wormhole transport, memory and
buffer waits, the three scheduler tiers, and a ring small enough to
drop records.  The SHA-256 digest of each export is pinned below, so a
change to what is recorded, or to the order it is recorded in, fails
here.  A speed change to the recording path must leave every digest
alone; only a change meant to alter recorded output may re-pin them,
by pasting the output of ``PYTHONPATH=src python tests/test_obs_golden.py``
into ``GOLDEN``.

Job, message and collective ids come from process-global counters, so
each case runs in a fresh interpreter: its digests then do not depend
on which tests ran before it.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

import pytest

GOLDEN = {
    'fig4-timesharing': {
        'attribution':
            '5dede89a0ab70e294568c970fc1a3973f7f4f47a3e00e84db3cef5837154c2bb',
        'decisions':
            '53ad65599f8cac5bc235bcb70bea3c3738b5097244d64704e61948ca6bb2814a',
        'detached':
            'afac96a61b6fe7814907526f0a786610884ac0f9bb8fe9ffb61212b715d02ec3',
        'jsonl':
            '706d92ea186aa55078bb5f798c0984f192ded01edd85be53cb44252eb472df7a',
        'ledger':
            '7cb011d1f812e86d493450c7b78624c6ebb5da7a5efe47462584a1576212be89',
        'metrics':
            'afac96a61b6fe7814907526f0a786610884ac0f9bb8fe9ffb61212b715d02ec3',
        'perfetto':
            'e87c60276b070ebe32a73efd6b1760e5ee1f7edd7b0e7fb99634c28add73ef6c',
        'queued':
            '66ac049e41530d619e7dd3b64943698345c96ba7bce63f5a1cbf2faabb3cac1f',
        'text':
            '2219967779b76741495178823e832f91894c3bce4539dd178eec8eae32267c91',
    },
    'wormhole': {
        'attribution':
            '532588cd1a1b0240c2802ea1ad041d1adf6ae941e77a5e74663adcbc474f4993',
        'decisions':
            'e8066f81bc9d7b9b1befa440f95042b08ab4f75ef76da0d2e3ac8f06255a55c3',
        'detached':
            '6b834728b5d4a3bdaa301bfb6ec138e557b631841e273006ff129b91c8fe1935',
        'jsonl':
            '97cc38614d6bd355fdab5df087712b62be0e7d94abfccd237d46c01fcccf5b1a',
        'ledger':
            '3280f4964f8ae0df5800f877ea1eb8ffda350489bd979ffa8c4ebb401c17ec3d',
        'metrics':
            '6b834728b5d4a3bdaa301bfb6ec138e557b631841e273006ff129b91c8fe1935',
        'perfetto':
            'fbf38c5e5eee9ec3c7d40ad542826562e8ee710cc1b2beb15b3b2257680ff33b',
        'queued':
            '66ac049e41530d619e7dd3b64943698345c96ba7bce63f5a1cbf2faabb3cac1f',
        'text':
            '65c7e8edc5bf48d9461d87a79602f613a30325f1a3a5da32d6a074fc4ae717eb',
    },
    'gang': {
        'attribution':
            '5758b19c153670fad04262c6f2951b02f5081e31e897934159364d1eba235647',
        'decisions':
            '0747313c48a5035f72c0c1e9f6a0c1d823314501cb7ae74fcc25cbb32fba5f86',
        'detached':
            '62f144645959e059f727133225ea2be8cdacee8023e738fbb8ee2b55fa3d4661',
        'jsonl':
            'cf03c224482823b612d049fa45d035fec8f7c5d7c2f797509a1e6fe1a134b561',
        'ledger':
            'e704fdbb82e5a02f151de8f7389834ee55992aa120deefcbbf4bad9debf034bb',
        'metrics':
            '62f144645959e059f727133225ea2be8cdacee8023e738fbb8ee2b55fa3d4661',
        'perfetto':
            '24f36999d998d9749db248e1e051680cb24b19111f0e27fab79e1e0f5faf5fed',
        'queued':
            '66ac049e41530d619e7dd3b64943698345c96ba7bce63f5a1cbf2faabb3cac1f',
        'text':
            '9196b0b71a26b927b50d3ad66e4293d50d7de3e64f86109726e38dc847a96061',
    },
    'static': {
        'attribution':
            '247ec83b162b790ab3f30ff99193f1cb40dd3ee3b3588fce85374f583e91e81c',
        'decisions':
            '9fc583e8d9a64bb5607d16f11cf027c581467cec5ba4e87941efcc6042fae5db',
        'detached':
            'acd11b4ee83142f7a4149aa8e5549922f4a3e05dd18ecffe26408c9ebc94fd4d',
        'jsonl':
            'ceebe35fb89544671f57728fff20176994ba09a35f1d8e8a9371dae881f6b8c3',
        'ledger':
            '03111bbab0ee1f4d7b6f26fec1760ef41bd7af45af48f668172fd0dc0eefa074',
        'metrics':
            'acd11b4ee83142f7a4149aa8e5549922f4a3e05dd18ecffe26408c9ebc94fd4d',
        'perfetto':
            'ed4230ba0619ac4dc481e74ac3454873657a733b4e985a99438099025cf9117c',
        'queued':
            '3016a069bad375905a4052d3acecb3cc45ee7dcbae42d06425e7feaa7ef03dbc',
        'text':
            '146b7ce203927b53ffffbd285817358a5ccd1f7922851aecc53ab40415acece9',
    },
    'ring-drops': {
        'attribution':
            '67314978465525415aecd5d118a03ba1429c0c01ac07898d1f76809e0baccdd3',
        'decisions':
            '5ef1bde84f12bb1621453b09c89719b103ef1091fad3b4a631b11d583e8560ff',
        'detached':
            '260d92fab93c662f4c5226d2210206c1cb4c1639e5b51233ba089837e82e4edc',
        'jsonl':
            'f3984829e7cf9796593ec754c2d94877beb584f5ffb9d1c0a2bd1104dffca157',
        'ledger':
            'f7734c7d65affe29ceffc474202109d2ef309b52fb4d6f8fcb9bc2e3c07bfd8f',
        'metrics':
            '260d92fab93c662f4c5226d2210206c1cb4c1639e5b51233ba089837e82e4edc',
        'perfetto':
            '0d6a2cff4eeed6c915cb1d0940ade6dc3714245cc3c5e28d6287a8e1080779c2',
        'queued':
            '44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a',
        'text':
            'a9cbed37a5ee5cba945ae6e80aa94ed22cbbe3bf46c88dcfefac03afb557bda3',
    },
    'ledger-only': {
        'decisions':
            '8461e9f29a4c81a69639748c0afbbb2883e20daa7bb2f165e29cd1e1223f32a9',
        'ledger':
            'fe46afb720be92df19cbc7b4cce6fafd982d69db7fc5c08aba7b0accb2eb17ae',
        'queued':
            '44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a',
    },
}


def _batch(app="matmul", architecture="adaptive", num_small=3, num_large=1):
    from repro.workload import standard_batch

    small, large = (16, 32) if app == "matmul" else (256, 512)
    return standard_batch(app, architecture=architecture,
                          num_small=num_small, num_large=num_large,
                          small_size=small, large_size=large,
                          fixed_processes=4)


def _run(policy, batch, **config):
    from repro.core import MulticomputerSystem, SystemConfig

    system = MulticomputerSystem(
        SystemConfig(num_nodes=4, topology="mesh", **config), policy)
    system.run_batch(batch)
    return system


def _decisions_log(ledger):
    from repro.obs import DecisionsLog

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "decisions.jsonl")
        log = DecisionsLog(path)
        log.write_segment(ledger, case="golden")
        log.close()
        with open(path) as fh:
            return fh.read()


def _exports(system):
    """Every export of the run's recorders, as the writers serialise it."""
    from repro.obs import (
        jsonl_lines,
        profile_run,
        queued_decomposition,
        to_perfetto,
    )

    out = {}
    tel = system.telemetry
    if tel is not None:
        out["text"] = tel.recorder.to_text()
        out["jsonl"] = "\n".join(jsonl_lines(tel))
        out["perfetto"] = json.dumps(to_perfetto(tel, process_tracks=True),
                                     separators=(",", ":"))
        out["metrics"] = json.dumps(tel.metrics.to_dict())
        out["detached"] = json.dumps(tel.detach().metrics.to_dict())
        out["attribution"] = json.dumps(profile_run(tel).to_dict(), indent=1)
    led = system.decisions
    if led is not None:
        out["ledger"] = json.dumps(led.summary())
        out["decisions"] = _decisions_log(led)
        out["queued"] = json.dumps(queued_decomposition(led.recorder))
    return out


def _fig4_timesharing():
    from repro.core import TimeSharing

    # A mailbox region just over the largest message makes senders
    # wait for reassembly memory: ``mem.wait`` records.
    return _run(TimeSharing(), _batch(), telemetry=True, decisions=True,
                mailbox_bytes=12288)


def _wormhole():
    from repro.core import HybridPolicy

    return _run(HybridPolicy(2), _batch("sort"), switching="wormhole",
                telemetry=True, decisions=True)


def _gang():
    from repro.core import GangScheduling

    # Gang rotation pauses job tags mid-slice: ``cpu.preempt`` records.
    return _run(GangScheduling(2, gang_slot=0.003),
                _batch(architecture="fixed"), telemetry=True, decisions=True)


def _static():
    from repro.core import StaticSpaceSharing

    # Queued jobs: the super scheduler's ready-queue gauge, placement
    # and deferral records.
    return _run(StaticSpaceSharing(2), _batch(), telemetry=True,
                decisions=True)


def _ring_drops():
    from repro.core import TimeSharing

    return _run(TimeSharing(), _batch(), telemetry=True, decisions=True,
                telemetry_capacity=100)


def _ledger_only():
    from repro.core import DynamicSpaceSharing

    # The ledger on its private ring, with sizing records.
    return _run(DynamicSpaceSharing(), _batch(), decisions=True)


CASES = {
    "fig4-timesharing": _fig4_timesharing,
    "wormhole": _wormhole,
    "gang": _gang,
    "static": _static,
    "ring-drops": _ring_drops,
    "ledger-only": _ledger_only,
}


def digests(name):
    """SHA-256 of each export of case ``name``, run in this process."""
    return {part: hashlib.sha256(text.encode()).hexdigest()
            for part, text in sorted(_exports(CASES[name]()).items())}


def _fresh_digests(name):
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), name],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("name", sorted(CASES))
def test_obs_golden_exports(name):
    """Every export serialises to exactly the pinned digests."""
    assert _fresh_digests(name) == GOLDEN[name]


def test_cases_reach_every_recording_site():
    """The cases together record every category the model emits."""
    seen = set()
    dropped = 0
    for build in CASES.values():
        system = build()
        recorder = (system.telemetry.recorder if system.telemetry
                    is not None else system.decisions.recorder)
        seen.update(recorder.categories())
        dropped += recorder.dropped
    assert {"cpu.slice", "cpu.wait", "cpu.preempt", "link.transfer",
            "net.msg", "buf.wait", "mem.wait", "sched.decision",
            "job.submitted", "job.dispatched", "job.started",
            "job.completed"} <= seen
    assert dropped > 0


if __name__ == "__main__":
    if len(sys.argv) > 1:
        print(json.dumps(digests(sys.argv[1])))
    else:
        for case in CASES:
            print(f"    {case!r}: {{")
            for part, digest in _fresh_digests(case).items():
                print(f"        {part!r}:\n            {digest!r},")
            print("    },")
