"""Golden digests: a protocol-shaped run must reproduce these artifacts byte for byte.

Six learning curves (slp and mlp on OR/AND/XOR, 20 epochs, 10
realizations) and the three ROC runs (slp-OR, slp-XOR, mlp-XOR, 10
epochs), all with SVG siblings.  Every other setting is the protocol
default.  A refactor or speed-up of the trainers must leave every digest
unchanged; a change that is meant to move the numbers re-records them.
"""

import hashlib

from memperceptron.harness import parse_config, run_learning_experiment, run_roc_experiment

GOLDEN = {
    "curve_mlp_and.csv": "1528697eb8ab0a2a42c5b622b9fef46a310389ab9834d9655b9c64381d4c8bc5",
    "curve_mlp_and.svg": "ac8660c9cfa85b9a6eda24672c32aeee6e49d1da90cfefd620929d51837718be",
    "curve_mlp_or.csv": "0f489b6b2b14b6149037b7304156afb1fe3d94473839290249ddb910f34b85f6",
    "curve_mlp_or.svg": "86dc7873e298992a635f2c9666c9b1aead9567ebabf127cd453813701b3a82b3",
    "curve_mlp_xor.csv": "6e23b604290a6563ef914b3050515ac2dc93836e44c5f0393d4ae693e6f13531",
    "curve_mlp_xor.svg": "927216dfa49a4c7eb8f85c6e7fbbf786e0c0ba68b784343539713b214bbd3778",
    "curve_slp_and.csv": "101194d9b118e23d31ac828c8708963467f8a727cd4997d1a2431471efd77462",
    "curve_slp_and.svg": "437da7a83339cf2af9b8e02c24de9da7ae91f7651235eacb15ceb5f2b8e69dc6",
    "curve_slp_or.csv": "0d9aa6b1a79514c4f570a7f74766d8ab5689b06cc2cbd6faf716242410308921",
    "curve_slp_or.svg": "cd9e76f36bac782b0606e2a9e97c47354ced3cbca3168c2b3b3207f283bd93c1",
    "curve_slp_xor.csv": "c6ee101d7988f44e93de3044d34c538e4daedbef0d28653512773fc040667f91",
    "curve_slp_xor.svg": "5cfcf9190158cc1ac21cfbfd2f8d5f80c7771a6be1dc1890540fde834ebfcf84",
    "roc_mlp_xor.csv": "30c193e3daee403ecc5b9542960f5a322e1625a6444405e6046f3fe29e9374e7",
    "roc_mlp_xor.svg": "76a99e35398fc28773ed22792844ad09de0ed04103ffd173a99ac2cdf56e1e4c",
    "roc_slp_or.csv": "7cc7aab6abd6eec1c72e6cb85a8645fd3b20c94881f2b132711501cbfc032899",
    "roc_slp_or.svg": "75a6f5f84891077f876a74c1c35090f0636e3158d73c0f659700aebe27357ec6",
    "roc_slp_xor.csv": "4548c9977b805e55d649d0cc73ba3dba18e69769748d2576fc4b5fd11269314a",
    "roc_slp_xor.svg": "1bd15fa3dd81d9f45e46cd60552e033d21afb43a88fc2c8d1a4e00e684f72c18",
}


def _digests(out_dir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


def test_protocol_artifacts_match_golden_digests(tmp_path):
    for model in ("slp", "mlp"):
        for gate in ("OR", "AND", "XOR"):
            run_learning_experiment(parse_config(overrides={
                "model": model, "gate": gate, "epochs": 20, "n_realizations": 10,
                "out_dir": str(tmp_path), "svg": True,
            }))
    for model, gate in (("slp", "OR"), ("slp", "XOR"), ("mlp", "XOR")):
        run_roc_experiment(parse_config(overrides={
            "model": model, "gate": gate, "epochs": 10,
            "out_dir": str(tmp_path), "svg": True,
        }))
    assert _digests(tmp_path) == GOLDEN
