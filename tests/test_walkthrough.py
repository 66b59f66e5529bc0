"""The walkthrough's bytes, pinned across commits.

A seed-7 walkthrough (see walkthrough.py) on the standard corpus, and on
160-token documents over 120 words a topic: there V = 2,501, so the Adam
step is shared with a helper thread, and pool = N takes top_k's
whole-row path. Every data file it writes must hash to the value below.
A change that moves these bytes on purpose says so, with the metrics
before and after, and pins the new values. The bytes depend on numpy
and on the BLAS kernel it picks, which a failure prints, but not on the
BLAS thread count.
"""

import numpy as np
import pytest

from walkthrough import run_walkthrough

STANDARD = {
    "a0.5/checkpoint.bin": "619d8295d135c21ad18c03af42987315fd965d6ccf3266b58f797b216a0c891b",
    "a0.5/eval-test/report.tsv": "de98ee46393fb8579399b7ce78b595e3c0d046e81e9a4e4cc2901aff046c118b",
    "a0.5/eval-test/report.txt": "17a93e90d2100c840047d2386396259b67f2840622b9eb5c4304241373310012",
    "a0.5/eval-test/run.tsv": "a082b4979aefd27d3d3497a1590758b4d2388ae629cd622b6e1211f69819a5d5",
    "a0.5/eval-train/report.tsv": "02a85b7745fcc12909caa72f88bd7f97a0114eacb786b1909c76e34853839dad",
    "a0.5/eval-train/report.txt": "f4158add54d3c6468e1a77d9882b0f37439d56fabb219c17afb1528200d82e9a",
    "a0.5/eval-train/run.tsv": "a305ef8771553753580f291d38f4138f3e50c5908e3cc30f36d68831b83cd21f",
    "a0.5/history.tsv": "4fa2080b584f6739e4336520eeeff9a6a1f9834170bc7eea9b921966f5f01543",
    "a0.5/rerank-200/run.tsv": "0e810251d302772f751538a25c9664283fa832aaf028e90ddc0110a13f8c816d",
    "a0.5/rerank-50/run.tsv": "ca36300a8c3faa51caa954a83b7d6d3a007f8eedec33df4a5a0367286382ce1e",
    "a1.0/checkpoint.bin": "f1eeaa6042faaf42d793059f83eddca0b538be15b6e2ff7152dae8277992b351",
    "a1.0/eval-test/report.tsv": "69efff1dae0ac6065cababb72f5df2c5214540a6cbcc03b795a4a10f855c0c2b",
    "a1.0/eval-test/report.txt": "c51f3bc34b33d7efe24204460012b0210b429e9cd7608d0bc15b548d94ad2edc",
    "a1.0/eval-test/run.tsv": "b9b8c2d06edec5174df11bc777ccf936b9787562a74c6f2aa2982eb1ed37d845",
    "a1.0/eval-train/report.tsv": "a1081dcae98def5e57632540a3cb380dd01d34c35f6c5fdf75143d7760eb15de",
    "a1.0/eval-train/report.txt": "048f35ce539ffa072e4d8d569bc48fe2a38b7485d5c02d77138237d4be689d90",
    "a1.0/eval-train/run.tsv": "97f88d73293b17a765be1c6432fa1d88333065856a361c2d0c74ffec6867fe57",
    "a1.0/history.tsv": "78a42e97b9a60727dadea1d23d4fc83700c492ed0a4f0486168d22c282167985",
    "a1.0/rerank-200/run.tsv": "09fe839636285a90f81bc2a78bae551b5cab249cdb2048c0f5db4d0483cc89cc",
    "a1.0/rerank-50/run.tsv": "0fbc901d07ebcf52cd58e23fa51f09473df802e337dea36be5c58c4a32241483",
    "data/corpus.jsonl": "d0bc895be50bd62f8208f43100cd9d29493fdb3bb99ab1a2077aa2bdbad13bdf",
    "data/test.tsv": "b45446d628e51d93efe23b87f482e91d47904aff5d706d5bc51c0d85191a520a",
    "data/train.tsv": "12e04dfa013a2284115cd792fd9aa8df41c8e2d64a965395171cd69d4324e7da",
    "report.tsv": "434e5b277e2f3ad3fdb53467080a07029bf7e48a7ca69f6f54c22b01fd80fbf8",
}

LONG_DOCS = {
    "a0.5/checkpoint.bin": "4f1863cdcdcd90ad64c791c6decb9d48b3fb50abe5e70509f8737d8a55df07da",
    "a0.5/eval-test/report.tsv": "3ffe5aff7178b0d4104641b269919595bd0fc7ba129b70225b7cc832230fca50",
    "a0.5/eval-test/report.txt": "a9b69ef47c1fe9b8546f552104cd2ca473b97efd098a0b6a612656080b11addc",
    "a0.5/eval-test/run.tsv": "6226bc3f63f3469d64819167125ba89a0f4dcbf3e5f82ea424db0ab9e3395dea",
    "a0.5/eval-train/report.tsv": "f4f365eabebb7c24291c7fe85beb190b8b58bc9f87720fec1c5377a1b804244f",
    "a0.5/eval-train/report.txt": "53d6a9084b76279a87149f3bdaa5ba958c7e5619fc7fbdb42816825afbf65954",
    "a0.5/eval-train/run.tsv": "b470d13844d9364e463ff1769faf79f4e2156b52bda4d6103fd3e3b5903bbb64",
    "a0.5/history.tsv": "c1d9caa37a7ada4628868a7d14860ae10d45957f5a49bcfb4540fdd35bcce622",
    "a0.5/rerank-200/run.tsv": "36d7d8ff082f7eae1d50986ecef382a6b04e81421f3463cda07a5566f59ccf0c",
    "a0.5/rerank-50/run.tsv": "f1d7be44fee67419e565e14d38cf42b188dfae79e293b606c3c520878d663750",
    "a1.0/checkpoint.bin": "3a3ec1de4b04cedbdf94a59ebcefe3b905afa808a4b805d2baeadf5f673ed6ce",
    "a1.0/eval-test/report.tsv": "d0e29155505d1a7c687410061eeca4555c3845ebe86f34462bfb558d5ff081de",
    "a1.0/eval-test/report.txt": "fdee9532b0b2f982a42c1d1c6fc99b0dc67feb68a05bda2a801de2d9d725066f",
    "a1.0/eval-test/run.tsv": "7a1abf873fe689721ec6b9cfa69cd4117d90d60105245767c24679c18d44a52a",
    "a1.0/eval-train/report.tsv": "dc2cdb974cc2c669fe3dda04d22559f1c109671b805742c1ad1d6a44942ddf30",
    "a1.0/eval-train/report.txt": "22ebc8682f3b3936998de58a6ea30dc69ed81201a53d599f48daa7cefb0c4cfb",
    "a1.0/eval-train/run.tsv": "3792a2cfd7ba8c0e71ba13aa08add1f80726a5850af2fb82dff5d13e38a1ce0a",
    "a1.0/history.tsv": "5012426b9f11a828c6fbebf695b5045b5fc085f757e363a66085a605c83e3d6a",
    "a1.0/rerank-200/run.tsv": "c4e55178edaa017e37da69cbe55a839ccb4ebdcdf4bba42e9009b71661d5c34d",
    "a1.0/rerank-50/run.tsv": "aa8cfc169db78783400755ee45ce229d8ee39f4148b88beecb34ed17c8323873",
    "data/corpus.jsonl": "2999319698eab832a971423c9dda209eb210b11e6ab4e9dc3a200210cf6902d3",
    "data/test.tsv": "428b38ebc10bed48474f2ddd678bde3917cf7f962969ee4ae8955eaebd36a677",
    "data/train.tsv": "78f2eddace1dc0c2b80d549d0a6ff9312284c078857b603ca7a0566d0c796cd0",
    "report.tsv": "e8ea95b3b1f0f9f6d9c57fd1e2468d4f8711b4a9a3f5a38145cd53c2b77de29b",
}

@pytest.mark.parametrize("flags, pins", [
    ((), STANDARD),
    (("--doc-len", "160", "--vocab-per-topic", "120"), LONG_DOCS),
], ids=["standard", "long-docs"])
def test_walkthrough_bytes_are_pinned(tmp_path, capsys, flags, pins):
    digests = run_walkthrough(tmp_path, flags)
    capsys.readouterr()
    moved = sorted(path for path in pins.keys() | digests.keys() if pins.get(path) != digests.get(path))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert not moved, (f"moved: {', '.join(moved)} (numpy {np.__version__}, "
                       f"BLAS {blas.get('name')} {blas.get('openblas configuration', blas.get('version'))})")
