"""Byte-for-byte stdout of a fixed set of CLI calls.

Each digest is the SHA-256 of stdout recorded before folding moved to a
worklist with union-find, or, for the calls after the first eighteen,
before transfer and the homology projection took their closed forms and
words were built in one pass; any change to a graph's numbering, a basis
order, a report or a seeded suite shows up here.
"""

import hashlib
import json
import random

import pytest

from fgr.cli import main

GOLDEN = [
    (("lm", "--m", "31"), "70828ba5e4610e3bd10dd6690996e92f25cf3ab423ab23c12668e0b1c27f2b6e"),
    (("lm", "--m", "32"), "08f64ee35b1e801f25eaa53eef40597801072b1d65586fd5851785179fc3dfd7"),
    (("hm", "--m", "9"), "f6061a66550c779ec69448794184d82a25ae7b90ab44a3179d0830e67e9aefb2"),
    (("gamma", "--m", "7"), "e3a5f3d8671eb096cb8f185181c1c25e9245e233db68a81d042bc0f016447afe"),
    (("fold", "--rank", "2", "--gens", "a,baBB,bbaB,bbb"), "19d2ec8c4efd2a57581c15fd70b8225b45c750a96fedeb49870739b3e14eef28"),
    (("fold", "--rank", "3", "--gens", "[a,b]^3,bcB,(ac)^4C,abcabc"), "92aa28e207a70cddcbc795be9c5a1fabf0c4c2c1b7ed4deda695436614ed521d"),
    (("basis", "--rank", "3", "--gens", "[a,b]^2,bcB,(ac)^3,aBc"), "2449008536e0dee4d9fc645fb9a2c611aca9a77a8615ec1f8537a55aeae6db3f"),
    (("rewrite", "--rank", "2", "--gens", "a,baBB,bbaB,bbb", "--word", "(a[a,b])^2"), "188b0e876e8c879461626fda56b571c65f639cd7be5d63c6a3e7bc83b735ab2d"),
    (("transfer", "--rank", "2", "--gens", "a,baBB,bbaB,bbb", "--word", "a[a,b]"), "adc2fb3641465f3e27e3ef913b61b2ff523c65803751a1625344f79ec1b2ed1d"),
    (("intersect", "--rank", "2", "--gens", "a,baBB,bbaB", "--gens2", "a[a,b]"), "c70624fd137bdec8c64eee3addf330e1041b27e0cd0917f275cbf9cba17f22b4"),
    (("bergman", "--n", "3", "--m", "21", "--k", "2"), "82a84f52de8a1275ceeb919768193b0f3b7ca400893cb4c95a405cc5c5ac9cdd"),
    (("suite", "hanna-neumann", "--trials", "50", "--seed", "1"), "5e7f9851e2b8a7792b617ec90e8c5427189679e6fd19916d8570469b30fdaeb2"),
    (("suite", "normal-power", "--trials", "50", "--seed", "1"), "633e1701397015c736f647b574188bce37e48da7d2e16b96221abf70160f0ede"),
    (("suite", "rank-bound-rk3", "--trials", "50", "--seed", "1"), "c5d7d15ae749d25e4475af356f403c607cfd27c9255ccf375caa24b5e4241e81"),
    (("suite", "rank2-intersection", "--trials", "50", "--seed", "1"), "c7e13c6d82f4b1c5125980c29aaa722583eaece5dccf7daf800d08a15b8e23e6"),
    (("suite", "schreier-formula", "--trials", "50", "--seed", "1"), "5929ce002163af7d1e415e83b474412d5abe6987ae18b08c2e15762f35338d08"),
    (("suite", "single-cycle-power", "--trials", "50", "--seed", "1"), "f532e20080b983dd5f114b2f1439cbbdb37f3d24fda519d6e15493b54fb50be7"),
    (("suite", "transfer-visibility", "--trials", "50", "--seed", "1"), "019a60f299f460c0bdf2af9960690d0d4c0845b489be67cf8a70ad5de20c649b"),
    (("basis", "--rank", "2", "--gens", "(ab)^300"), "0ba1caa0044341a3ee4cb0ea8c8abb642163f9a50c60b2e6d069ad635fc6c37e"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_cli_stdout_digest(capsys, argv, digest):
    assert main(list(argv)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def stdout_digest(capsys, argv):
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_transfer_on_hm9_with_its_tree_digest(capsys, tmp_path):
    assert main(["hm", "--m", "9"]) == 0
    payload = json.loads(capsys.readouterr().out)
    path = tmp_path / "hm9.json"
    path.write_text(json.dumps(payload))
    argv = ["transfer", "--graph", str(path), "--tree", ",".join(payload["tree"])]
    assert (
        stdout_digest(capsys, argv + ["--word", "a[a,b]^4"])
        == "5d3f605acc3ccca2da2145657011377a4efea6cc0b200eec9a1b08c63cebc24b"
    )


def test_member_with_flat_2048_letter_word_digest(capsys):
    word = "".join(random.Random(2048).choice("abAB") for _ in range(2048))
    argv = ["member", "--rank", "2", "--gens", "aa,ab,aB", "--word", word]
    assert (
        stdout_digest(capsys, argv)
        == "77d672fc7ee073399a780f5b5e93903d542442fce5ef200ac2d7fc24ff8deb45"
    )
