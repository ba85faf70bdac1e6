"""Pin every quick Fig. 9a and ablation cell.

These are the only cells that run ASAP with DPO coalescing off (Fig. 9a
``No-Opt``: one DPO per write, issued even while an earlier one for the
line is in flight) and the only ones whose LLC evicts lines an
uncommitted region still tracks, so the eviction writeback stands in
for the slot's DPO (Abl. 3). No ``bench/golden.json`` cell covers either
path. Each cell runs as the harness runs it (``run_cell``); its
``RunResult`` digest (the first 32 hex digits of the sha256 of its
canonical JSON, as in ``test_golden_cells.py``) and its harvested
``extras`` must match the values recorded here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.harness.experiments import ablations, fig9a
from repro.harness.parallel import run_cell

#: cell -> RunResult digest prefix
DIGESTS = {
    "fig9a/BN/ASAP-No-Opt": "3b36035009607115f7713d7e08c477fc",
    "fig9a/BN/ASAP+C": "5686876cec0476e5d1c0b466f7604843",
    "fig9a/BN/ASAP+C+LP": "53b973b6555e26beb0fcc6e500e96f5a",
    "fig9a/BN/ASAP": "b70fc45a8850c6bad72328cc906bba25",
    "fig9a/BT/ASAP-No-Opt": "6c1e16ffb7f64505d038541c4433c79c",
    "fig9a/BT/ASAP+C": "6c1e16ffb7f64505d038541c4433c79c",
    "fig9a/BT/ASAP+C+LP": "f60d1b1da095bca0b8dc73986cbf4d51",
    "fig9a/BT/ASAP": "7991234274dc1f09b053ce3815c26aec",
    "fig9a/CT/ASAP-No-Opt": "ed91a98abcf3a9331b5abf34100a663d",
    "fig9a/CT/ASAP+C": "a5738e461990728b7e0afa1fa01c9704",
    "fig9a/CT/ASAP+C+LP": "9781bcc0f5029cde402e824deaf2e2ca",
    "fig9a/CT/ASAP": "0a6149a3330bedf266f1127b60601e59",
    "fig9a/EO/ASAP-No-Opt": "e80dd3fde15b9fcce9ae0574db066368",
    "fig9a/EO/ASAP+C": "98a83c767178349b6ef429a76ebd9429",
    "fig9a/EO/ASAP+C+LP": "32a24810f3e48fef798204da0920e76c",
    "fig9a/EO/ASAP": "b6e2d755d935cf5e4fc5aa9efdec7e41",
    "fig9a/HM/ASAP-No-Opt": "8a8c795b9d2908b0ead507b510fe4080",
    "fig9a/HM/ASAP+C": "6801a9c882e8dd416016933bf0d264df",
    "fig9a/HM/ASAP+C+LP": "d1a046bfddd2fa6ade87368d09e6cc41",
    "fig9a/HM/ASAP": "e141dbea32326ee3664e49e800cc0e18",
    "fig9a/Q/ASAP-No-Opt": "ecb5bc0d959f8a1f36d87968c30efb54",
    "fig9a/Q/ASAP+C": "dd656507b87f39cfb90418972d888314",
    "fig9a/Q/ASAP+C+LP": "2edb06674effe45505bea28185fb64db",
    "fig9a/Q/ASAP": "5fb41361777bf2aeedf1b6320d60f0d6",
    "fig9a/RB/ASAP-No-Opt": "b4536c1d96e6d9de30452d4be40490b1",
    "fig9a/RB/ASAP+C": "f7b458038f494a814fd7b76fbd770535",
    "fig9a/RB/ASAP+C+LP": "68b06ece00b649c4ae6a861adb5eb116",
    "fig9a/RB/ASAP": "72d8ab4c75b3b697563c66df3208063f",
    "fig9a/SS/ASAP-No-Opt": "bc6b00a3d82b73df9d3b1080e4a54acc",
    "fig9a/SS/ASAP+C": "bc6b00a3d82b73df9d3b1080e4a54acc",
    "fig9a/SS/ASAP+C+LP": "d84f469815244bfbc6fa86169b7469bb",
    "fig9a/SS/ASAP": "02924d1223febd87f62d6f2e4721de1f",
    "fig9a/TPCC/ASAP-No-Opt": "6587911a0bb05edf986c5583f469031d",
    "fig9a/TPCC/ASAP+C": "073626993b18da863ee4310a8f962175",
    "fig9a/TPCC/ASAP+C+LP": "494ece8c88481d3faed33ffcc00b4acc",
    "fig9a/TPCC/ASAP": "1773bae649c997ab5f309a29b8d56a4b",
    "ablations/dpo/1": "56c6aff63507c543f7d3c5f76fee07e6",
    "ablations/dpo/2": "5478f6a4d53cdfe43c60e0d1d82ad09a",
    "ablations/dpo/4": "a978a9f9555f93d39f4a9fff19532eeb",
    "ablations/dpo/8": "23709ee281279c8bfe14542ccbcfb3b5",
    "ablations/wpq/asap/2": "c2cde2c0d4a143997456578ad54b3041",
    "ablations/wpq/asap/4": "15ee53fc527b14f5149488fd67ca5db3",
    "ablations/wpq/asap/8": "8f9230bbb7fa5accbad88a5e211e7ddd",
    "ablations/wpq/asap/32": "8ba88ef42d21408370cb14ad73d1c66d",
    "ablations/wpq/hwundo/2": "3d88c185692c1bde819fd49e6885fb32",
    "ablations/wpq/hwundo/4": "567860630c0055c3b1648cc55a24ce03",
    "ablations/wpq/hwundo/8": "567860630c0055c3b1648cc55a24ce03",
    "ablations/wpq/hwundo/32": "567860630c0055c3b1648cc55a24ce03",
    "ablations/wpq/sw/2": "3f3ed84c2d7d8cc5b96fa8b282691ff5",
    "ablations/wpq/sw/4": "719dfbb224d1d2c04989b096279cca3d",
    "ablations/wpq/sw/8": "72658bd4222d6a19bc00b072d1757e14",
    "ablations/wpq/sw/32": "72658bd4222d6a19bc00b072d1757e14",
    "ablations/bloom/1KB filter": "4854ebc6326e5001086d7a4df0850507",
    "ablations/bloom/1-bit filter": "300a403b469991c84f81269313b451d1",
    "ablations/fence/1": "9f413fc89452a5a99c35ad4260395f99",
    "ablations/fence/4": "494974fd6ab9393ee66e2c7630298873",
    "ablations/fence/16": "76281065f49b2310c6ca08bf8b756881",
    "ablations/fence/0": "65eec62263242e9824093eb876b0ac8c",
}

#: cell -> the ``extras`` its spec harvests (cells without extras harvest {})
EXTRAS = {
    "ablations/dpo/1": {"dpos_initiated": 1200},
    "ablations/dpo/2": {"dpos_initiated": 660},
    "ablations/dpo/4": {"dpos_initiated": 660},
    "ablations/dpo/8": {"dpos_initiated": 660},
    "ablations/bloom/1KB filter": {"spills": 9, "hits": 9, "false_positives": 0},
    "ablations/bloom/1-bit filter": {"spills": 9, "hits": 9, "false_positives": 268},
}


def _cells():
    for table, module in (("fig9a", fig9a), ("ablations", ablations)):
        for spec in module.plan(quick=True).specs:
            yield table + "/" + "/".join(str(part) for part in spec.key), spec


CELLS = list(_cells())


def _digest(result) -> str:
    text = json.dumps(dataclasses.asdict(result), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def test_every_cell_is_pinned():
    assert sorted(label for label, _spec in CELLS) == sorted(DIGESTS)


@pytest.mark.parametrize("label, spec", CELLS, ids=[label for label, _ in CELLS])
def test_cell_matches_pin(label, spec):
    cell = run_cell(spec)
    assert _digest(cell.result) == DIGESTS[label]
    assert cell.extras == EXTRAS.get(label, {})
