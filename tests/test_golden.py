"""Golden artifacts: every CLI command's outputs pinned by SHA-256.

The pipeline runs on a small seed-7 fleet: synth, ingest, panel (also
with scheduled visits excluded, a gap cap and an end week; with a start
date before the first approval; and with no utilization sidecar), report
with each model kind (and a forest with one-row leaves, a deeper GBT and
a random split), train followed by eval, simulate and mel for a logistic model and for a
forest, and a two-point tune. Each command's outputs, as listed in its manifest, must
hash to the recorded values, so a refactor that moves any byte of any
artifact (a tree threshold, the last digit of a ratio) fails here.
manifest.json is left out because it carries a timestamp and local paths.
"""

import hashlib
import json
from pathlib import Path

from fleetrisk.cli import main

GOLDEN = {
    "eval/eval_report.json": "5264baa677651a9c83c4e0aad42755442fa55a1542900c580e40c0ca0256563c",
    "eval/histogram_false.csv": "c4baa2951180524997501ccd280b294075708903d6154de0bac4f88f5edb1caf",
    "eval/histogram_true.csv": "72cbda638f3589bf11c3a53a64b7f435809d9db91e2562fbf1d78bfe5e866a8a",
    "ingest/records.csv": "363365d1aaa837c7df06b973ee714e32697a610272aac84a6ae5852f4064158a",
    "ingest/row_errors.csv": "76b0425701d089ebeda4a24a13dad7cf2e5a1f732c629cf13ab7f1659a8e0915",
    "mel-forest/mel_risk.json": "0619b45533f876d23ed2804cd7ba764720e27bf5bb2dcac4d2074c02ebffd3f5",
    "mel/mel_risk.json": "c00d40c8be04ee4ddaa693433b9df971c7f647e3efad0c0a36bffbf84c3b04a1",
    "panel-early-start/panel.csv": "598102c9d665730818e307e5b54a40926b1dba93e7bec030d6477721b55d448d",
    "panel-no-sidecar/panel.csv": "6d521cda7d1606045facc5a37cd6fde4fd0f9f261d33b58b19f7068fb1e78be7",
    "panel-options/panel.csv": "0485afea285356802522f7b5172e2e46ba0d2af0ceba1da4aaa7998f2e061b5c",
    "panel/panel.csv": "dc4f7dcb0ede504cf01abb6aa9edcb5f88d56400fea7bd23e968eb121340830f",
    "report-forest-leaf1/ablation.csv": "1ccd2c1237f25cd40bffe69e5b294cecdda7cc2aee6980b81af073021443f79d",
    "report-forest-leaf1/eval_report.json": "c64584110e18eacd82ce0d980b351eed6385e4a3aee100006aa82373bc66984a",
    "report-forest-leaf1/histogram_false.csv": "7cb5834a164759e4b6fd4e18970e004f20d749fe937d3439c80a85bc53d9a0fb",
    "report-forest-leaf1/histogram_true.csv": "75d7bf8ee13b705bcbaf162ad68f9647103a218df6f1e9c0d5642e1b2d89e67f",
    "report-forest-leaf1/labor_hours.csv": "bdaed481d3f12a6f619fce4de95e783d0d8f9afcb0ec9236724ae99d527695ed",
    "report-forest-leaf1/model.json": "9b7235c91f7e736500bcf38bf22b37dafd9ae70e0f904e2ab01281270497d82a",
    "report-forest-leaf1/policy_hist_proactive.csv": "6fa82b90dc63345b6a88e80ed846fbd0e6a9dc5916de16d06196b06161efd77a",
    "report-forest-leaf1/policy_hist_random.csv": "fc9251a3d523c8e95968ee88f83046d9f84823e7c484f85646d17d42f8a0dd4e",
    "report-forest-leaf1/policy_summary.json": "0bef4e95e756c52116d624fb8fd52c96f46e2db7d78224ea35ea2f70a18631db",
    "report-forest-leaf1/policy_trace.csv": "7e8631fac587fc8cc7cadc169b5187253aa88219841659c6833078f11193e077",
    "report-forest/ablation.csv": "ec9850e62b247a1ed2abceb7cee60f817e5992cbbef7f217e88e4e634901c505",
    "report-forest/eval_report.json": "3b623bdbd0e96217d18e03717af2820d42a510309ae67eac0d4d2a085ebb258d",
    "report-forest/histogram_false.csv": "708e96288c12703b862a2f8eba082e160aeb27ae6e658ea2bb895c5d643685df",
    "report-forest/histogram_true.csv": "8565d38459229f363adea93de02b3da4dd453246e5bc5db930463fc40724060d",
    "report-forest/labor_hours.csv": "bdaed481d3f12a6f619fce4de95e783d0d8f9afcb0ec9236724ae99d527695ed",
    "report-forest/model.json": "767f4a949df07ffe442adae62a3d611f088f948c9145d9e7d222914d7536b203",
    "report-forest/policy_hist_proactive.csv": "edfd7275f325e223b4c8b445a9ef0f99693b9856391b3e5c113a298b78f6a8d8",
    "report-forest/policy_hist_random.csv": "fc9251a3d523c8e95968ee88f83046d9f84823e7c484f85646d17d42f8a0dd4e",
    "report-forest/policy_summary.json": "2489ef32e6097a2cd737cd277cdb776636a8039b37e12ca30f52adf76a8a42b1",
    "report-forest/policy_trace.csv": "0a2186e369e8422f33105474e7543f3bb893ae1448500ca42ef5b6040bf34342",
    "report-gbt-deep/ablation.csv": "735090ad629935c961ae930c7fd5a7ebfeeec2eca8a68824e7c2ff08ebaf6260",
    "report-gbt-deep/eval_report.json": "5f136bd6d18f42bdd541c5f5448ce80264909f9250284f06fa1eef4df46ae585",
    "report-gbt-deep/histogram_false.csv": "d97e600c75181613ca668d4854290f86866db4dfbc504bbe26d607b916f53da6",
    "report-gbt-deep/histogram_true.csv": "c3f043324e76bcea3d7d5bde12424e06ad9fdac74b5fa28ae1f9db95b901e3f5",
    "report-gbt-deep/labor_hours.csv": "bdaed481d3f12a6f619fce4de95e783d0d8f9afcb0ec9236724ae99d527695ed",
    "report-gbt-deep/model.json": "07ca07a05d08449863f8757d289cc22f7aafc90a87a98c9d31ae371a7dfeec8e",
    "report-gbt-deep/policy_hist_proactive.csv": "093d4e4ed4f9c54dc148c2611444b3ad83877d1e8e993f6ca436207b85171d08",
    "report-gbt-deep/policy_hist_random.csv": "fc9251a3d523c8e95968ee88f83046d9f84823e7c484f85646d17d42f8a0dd4e",
    "report-gbt-deep/policy_summary.json": "c27c278612869ad3b9710e709d4c9303236630333850bebebc30ea0dcb4567c0",
    "report-gbt-deep/policy_trace.csv": "413b7ca8266959ba7cc84a75c5da9007dd60ec31194afb66777ecd2dc069818c",
    "report-gbt/ablation.csv": "66001f523a78b411e3e2c5ed2b36bee1e796a55207cfcf07db3cfdcbff6e6824",
    "report-gbt/eval_report.json": "f03fb677a5738e11b252300a40ba8370344af0e979adde0473d1ae07a6f22624",
    "report-gbt/histogram_false.csv": "e042b4572f06b267204d676569dea10daf2cc9bd3cbdd3e7f4591c51693c6837",
    "report-gbt/histogram_true.csv": "24fe790ebd5c3195451dd6ccef90ee6c20f1ce5e21cf024aca7eb351fdc4a31d",
    "report-gbt/labor_hours.csv": "bdaed481d3f12a6f619fce4de95e783d0d8f9afcb0ec9236724ae99d527695ed",
    "report-gbt/model.json": "ad872d242eab7ed762b7d51329b193124c88375bb57deb91932bce5951278f6d",
    "report-gbt/policy_hist_proactive.csv": "54e2ee0254ccd269b71da57077bc7956147cbf50bae59e099b83c50d5ce9f6cd",
    "report-gbt/policy_hist_random.csv": "fc9251a3d523c8e95968ee88f83046d9f84823e7c484f85646d17d42f8a0dd4e",
    "report-gbt/policy_summary.json": "cbc1f1d84eea55934afc2d62efa81009b2d3ad308ab5b59ee5c8c4af46a4a578",
    "report-gbt/policy_trace.csv": "001b2a6c6a66c264297f30cf174ef21e3fa78d6fa83a6578b3d81049b954f47b",
    "report-logistic/ablation.csv": "3aafeea805498abf60434afe0bdad9f4c827ed126d0a1b645834c567488a93b2",
    "report-logistic/eval_report.json": "5264baa677651a9c83c4e0aad42755442fa55a1542900c580e40c0ca0256563c",
    "report-logistic/histogram_false.csv": "c4baa2951180524997501ccd280b294075708903d6154de0bac4f88f5edb1caf",
    "report-logistic/histogram_true.csv": "72cbda638f3589bf11c3a53a64b7f435809d9db91e2562fbf1d78bfe5e866a8a",
    "report-logistic/labor_hours.csv": "bdaed481d3f12a6f619fce4de95e783d0d8f9afcb0ec9236724ae99d527695ed",
    "report-logistic/model.json": "9220fd3dccf042f285755de4c89f51614e58afcd5cee3baa57d1971e2f039588",
    "report-logistic/policy_hist_proactive.csv": "89ecf41b7d639f086c60c64b5969534712df9e3d1e87149c9b5c3ba8ae934c2f",
    "report-logistic/policy_hist_random.csv": "fc9251a3d523c8e95968ee88f83046d9f84823e7c484f85646d17d42f8a0dd4e",
    "report-logistic/policy_summary.json": "984dacf0f8d68fccbb19fb923b74424addb0322ce4b3fe4a1ef0d9edbb1e6855",
    "report-logistic/policy_trace.csv": "6a4fb2440d04e27af5f8d81d805bda4a96327f3ee65a45c221d15eea982adf68",
    "report-random/ablation.csv": "24ad9fee411f9278ae8c37e6fc169f1ee38f3a8216e69cd58d0a73196beac128",
    "report-random/eval_report.json": "9348a30b550d0cfdcf5ba0bcd6b44282cc9663ee27f420b4ac6eaa7ccce1c551",
    "report-random/histogram_false.csv": "2ae29047f8bbbecae80dfafa88ce68bd500b22672dc750318a6230fc18083588",
    "report-random/histogram_true.csv": "5581182225e9ce5ddc1986402c8bcb101afb0ecddef1c91b64d416a9ea5b3778",
    "report-random/labor_hours.csv": "bdaed481d3f12a6f619fce4de95e783d0d8f9afcb0ec9236724ae99d527695ed",
    "report-random/model.json": "61a22fa4245722337452c099897b734161d2b110c60ee41dfd2102a70ff41ba7",
    "report-random/policy_hist_proactive.csv": "71ee3f00cc9b4906e551432b26d60ec84125eb8247dc492488da2fe0bfb7cfc2",
    "report-random/policy_hist_random.csv": "7d172b88f9775c6228b672a016f427b53d1b2839a87d4869b713bd6c7953a0a2",
    "report-random/policy_summary.json": "13e5e3343f0038ab30910132bce1206e9d3d7e94783068c941629b33896d920f",
    "report-random/policy_trace.csv": "6c75bf579b7746fdc5b15d6077fb21fa501edf676d93d43c0f8d2455879f1563",
    "simulate/policy_hist_proactive.csv": "89ecf41b7d639f086c60c64b5969534712df9e3d1e87149c9b5c3ba8ae934c2f",
    "simulate/policy_hist_random.csv": "fc9251a3d523c8e95968ee88f83046d9f84823e7c484f85646d17d42f8a0dd4e",
    "simulate/policy_summary.json": "984dacf0f8d68fccbb19fb923b74424addb0322ce4b3fe4a1ef0d9edbb1e6855",
    "simulate/policy_trace.csv": "6a4fb2440d04e27af5f8d81d805bda4a96327f3ee65a45c221d15eea982adf68",
    "synth/ground_truth.json": "3cf470da6d5b0d173ed0cbb30923dcbfddc1139c61f1e70c7f58d9cb7b190f6e",
    "synth/subworkorders.csv": "363365d1aaa837c7df06b973ee714e32697a610272aac84a6ae5852f4064158a",
    "synth/utilization.csv": "500c405b36d10382860c2cb6eaf81849a91ed7126e92ae30ab59bc1c487d9a63",
    "train-forest/model.json": "767f4a949df07ffe442adae62a3d611f088f948c9145d9e7d222914d7536b203",
    "train/model.json": "9220fd3dccf042f285755de4c89f51614e58afcd5cee3baa57d1971e2f039588",
    "tune/tune_best.json": "7f2053b3e1d6046114e2d697493744ab3588eebb26a7c4836bbbaab1c29ef16c",
    "tune/tune_results.csv": "8ccdacb69a647c390e3a94f16ad6afbbcd64fd595d6de7a01bd05a700a1f3b7a",
}


def _steps(root):
    fleet = root / "synth"
    data = ["--input", str(fleet / "subworkorders.csv"), "--utilization", str(fleet / "utilization.csv")]
    seeded = ["--seed", "7", *data]
    trees = ["--n-estimators", "10"]
    return [
        ("synth", ["synth", "-o", str(fleet), "--seed", "7", "--n-vehicles", "12", "--n-weeks", "52"]),
        ("ingest", ["ingest", "-o", str(root / "ingest"), *data]),
        ("panel", ["panel", "-o", str(root / "panel"), *data]),
        ("panel-options", [
            "panel", "-o", str(root / "panel-options"), "--exclude-scheduled", "--gap-cap", "6", "--end-week", "40", *data,
        ]),
        ("panel-early-start", ["panel", "-o", str(root / "panel-early-start"), "--start-date", "2014-11-05", *data]),
        ("panel-no-sidecar", ["panel", "-o", str(root / "panel-no-sidecar"), "--input", str(fleet / "subworkorders.csv")]),
        ("report-logistic", ["report", "-o", str(root / "report-logistic"), *seeded]),
        ("report-forest", ["report", "-o", str(root / "report-forest"), "--model", "forest", *trees, *seeded]),
        ("report-gbt", ["report", "-o", str(root / "report-gbt"), "--model", "gbt", *trees, *seeded]),
        ("report-forest-leaf1", [
            "report", "-o", str(root / "report-forest-leaf1"), "--model", "forest", *trees,
            "--min-leaf", "1", "--max-features", "3", *seeded,
        ]),
        ("report-gbt-deep", [
            "report", "-o", str(root / "report-gbt-deep"), "--model", "gbt", *trees, "--max-depth", "5", *seeded,
        ]),
        ("report-random", ["report", "-o", str(root / "report-random"), "--split", "random", *seeded]),
        ("train-forest", ["train", "-o", str(root / "forest"), "--model", "forest", *trees, *seeded]),
        ("mel-forest", ["mel", "-o", str(root / "forest"), "--mel", "truck=2", *seeded]),
        ("train", ["train", "-o", str(root / "scored"), *seeded]),
        ("eval", ["eval", "-o", str(root / "scored"), *seeded]),
        ("simulate", ["simulate", "-o", str(root / "scored"), *seeded]),
        ("mel", ["mel", "-o", str(root / "scored"), "--mel", "truck=2", *seeded]),
        ("tune", ["tune", "-o", str(root / "tune"), "--config", str(root / "tune.json"), *seeded]),
    ]


def test_cli_artifacts_match_golden_hashes(tmp_path):
    (tmp_path / "tune.json").write_text(json.dumps({"tune_grid": {"l2_lambda": [0.0001, 0.01]}}))
    hashes = {}
    for label, argv in _steps(tmp_path):
        assert main(argv) == 0, label
        out = Path(argv[2])
        for name in json.loads((out / "manifest.json").read_text())["outputs"]:
            hashes[f"{label}/{name}"] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    assert hashes == GOLDEN
