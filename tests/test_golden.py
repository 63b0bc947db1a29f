"""Golden artifacts: every CLI command's outputs pinned by SHA-256.

The pipeline runs on a small seed-7 fleet: synth, ingest, panel, report
with each model kind (and a forest with one-row leaves and a deeper GBT),
train followed by eval, simulate and mel for a logistic model and for a
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
    "eval/eval_report.json": "c66efe1135673d1963a2eb4027fc8a394f739bfdf021693495138d61e7fb4d36",
    "eval/histogram_false.csv": "447ecbc3648cb8a48cee833b4653ed7d8197ac9997082e237f5996c4b5c69a9a",
    "eval/histogram_true.csv": "181af0e4590cb38893af4432dd03f84038e8cbada334027aec7f3ceae9bc992b",
    "ingest/records.csv": "363365d1aaa837c7df06b973ee714e32697a610272aac84a6ae5852f4064158a",
    "ingest/row_errors.csv": "76b0425701d089ebeda4a24a13dad7cf2e5a1f732c629cf13ab7f1659a8e0915",
    "mel-forest/mel_risk.json": "574c33262fa6d61de90f4499bdcef7fea311531ecdd4cf95f8e61331e0f503de",
    "mel/mel_risk.json": "0837412bcbc72be8e732b0cde60091ee6fbbc963694be62ec62bad3f825a5644",
    "panel/panel.csv": "dc4f7dcb0ede504cf01abb6aa9edcb5f88d56400fea7bd23e968eb121340830f",
    "report-forest-leaf1/ablation.csv": "3b4c36b2ce8aed89186fd28655b85ff76aa1e13c0cb2583b9fa637829c918b6f",
    "report-forest-leaf1/eval_report.json": "549ad52014478a2edfc72d7c963cb062de4e540be1e6bb3f7a534e97f2304d31",
    "report-forest-leaf1/histogram_false.csv": "9e3c6668d739eb76dc687f62d2e99c59979c832147247214e047990800463901",
    "report-forest-leaf1/histogram_true.csv": "805327f260eff18745e96f1c01537c5452cd3345b1ca1a38f7c83acf9b126888",
    "report-forest-leaf1/labor_hours.csv": "bdaed481d3f12a6f619fce4de95e783d0d8f9afcb0ec9236724ae99d527695ed",
    "report-forest-leaf1/model.json": "94fc564f9bf9fa2139ea5fd0e0863dca9aeb985d9141c9f4cf25fd5e6391970f",
    "report-forest-leaf1/policy_hist_proactive.csv": "dcc970fabc910e0b99bf23e953be5c6fb6d4e9861e96ffaf3f83f436c18130e9",
    "report-forest-leaf1/policy_hist_random.csv": "fc9251a3d523c8e95968ee88f83046d9f84823e7c484f85646d17d42f8a0dd4e",
    "report-forest-leaf1/policy_summary.json": "d1b85fdb9a393491c51b186445a6b0bf2220109a8ad40b694a807336620f53ea",
    "report-forest-leaf1/policy_trace.csv": "14b799de405b1064b602167a465c43e8e39823093645aa80cc22edd1da20d6ea",
    "report-forest/ablation.csv": "fbad306eca89282cffe0b280d8f278dd5ff554db3b75dbc89cd8a2996130954e",
    "report-forest/eval_report.json": "bde4d28d67fc78e8c1ae902bf61f0f24ed6c6f6a52e806f7996634cf77c5097e",
    "report-forest/histogram_false.csv": "6283996ef1a4cf8e7e00d661a68652585050b98cd5bf9926a9cb0af270c55355",
    "report-forest/histogram_true.csv": "d494ffada81962a2a3c04fe30c96d786278ee11cf874d6a58b1368d71871bd9e",
    "report-forest/labor_hours.csv": "bdaed481d3f12a6f619fce4de95e783d0d8f9afcb0ec9236724ae99d527695ed",
    "report-forest/model.json": "ac6c3b4ec35e67e8286f72ecc9edebd977a665ea1e36f36dee2f8c6921e62d6c",
    "report-forest/policy_hist_proactive.csv": "d4bb77d5456bb813f116535c9400f5866cd5ac12f22ad9c45134bbf843d41a90",
    "report-forest/policy_hist_random.csv": "fc9251a3d523c8e95968ee88f83046d9f84823e7c484f85646d17d42f8a0dd4e",
    "report-forest/policy_summary.json": "2dd4c609736541bc1dac198c1a89af5e0f317570431a0f5a78f3d2badad5110c",
    "report-forest/policy_trace.csv": "a2011589c245f3f4abf43cc9a78a4d9a966ffeee53123073795f9e03e6cd2b86",
    "report-gbt-deep/ablation.csv": "735090ad629935c961ae930c7fd5a7ebfeeec2eca8a68824e7c2ff08ebaf6260",
    "report-gbt-deep/eval_report.json": "5f136bd6d18f42bdd541c5f5448ce80264909f9250284f06fa1eef4df46ae585",
    "report-gbt-deep/histogram_false.csv": "d97e600c75181613ca668d4854290f86866db4dfbc504bbe26d607b916f53da6",
    "report-gbt-deep/histogram_true.csv": "c3f043324e76bcea3d7d5bde12424e06ad9fdac74b5fa28ae1f9db95b901e3f5",
    "report-gbt-deep/labor_hours.csv": "bdaed481d3f12a6f619fce4de95e783d0d8f9afcb0ec9236724ae99d527695ed",
    "report-gbt-deep/model.json": "aac20547cb010e72d97ada4f116e105119e0c43a1705ada03fea56cd8293af30",
    "report-gbt-deep/policy_hist_proactive.csv": "093d4e4ed4f9c54dc148c2611444b3ad83877d1e8e993f6ca436207b85171d08",
    "report-gbt-deep/policy_hist_random.csv": "fc9251a3d523c8e95968ee88f83046d9f84823e7c484f85646d17d42f8a0dd4e",
    "report-gbt-deep/policy_summary.json": "c27c278612869ad3b9710e709d4c9303236630333850bebebc30ea0dcb4567c0",
    "report-gbt-deep/policy_trace.csv": "413b7ca8266959ba7cc84a75c5da9007dd60ec31194afb66777ecd2dc069818c",
    "report-gbt/ablation.csv": "66001f523a78b411e3e2c5ed2b36bee1e796a55207cfcf07db3cfdcbff6e6824",
    "report-gbt/eval_report.json": "f03fb677a5738e11b252300a40ba8370344af0e979adde0473d1ae07a6f22624",
    "report-gbt/histogram_false.csv": "e042b4572f06b267204d676569dea10daf2cc9bd3cbdd3e7f4591c51693c6837",
    "report-gbt/histogram_true.csv": "24fe790ebd5c3195451dd6ccef90ee6c20f1ce5e21cf024aca7eb351fdc4a31d",
    "report-gbt/labor_hours.csv": "bdaed481d3f12a6f619fce4de95e783d0d8f9afcb0ec9236724ae99d527695ed",
    "report-gbt/model.json": "871b16b30bff806527b6d2178c16b3613fa18ead9708e55fb2a70795f952bad3",
    "report-gbt/policy_hist_proactive.csv": "54e2ee0254ccd269b71da57077bc7956147cbf50bae59e099b83c50d5ce9f6cd",
    "report-gbt/policy_hist_random.csv": "fc9251a3d523c8e95968ee88f83046d9f84823e7c484f85646d17d42f8a0dd4e",
    "report-gbt/policy_summary.json": "cbc1f1d84eea55934afc2d62efa81009b2d3ad308ab5b59ee5c8c4af46a4a578",
    "report-gbt/policy_trace.csv": "001b2a6c6a66c264297f30cf174ef21e3fa78d6fa83a6578b3d81049b954f47b",
    "report-logistic/ablation.csv": "1bb192a92052228486b9181a200bad8303440b67cca5dfcbaa2468dec876495f",
    "report-logistic/eval_report.json": "c66efe1135673d1963a2eb4027fc8a394f739bfdf021693495138d61e7fb4d36",
    "report-logistic/histogram_false.csv": "447ecbc3648cb8a48cee833b4653ed7d8197ac9997082e237f5996c4b5c69a9a",
    "report-logistic/histogram_true.csv": "181af0e4590cb38893af4432dd03f84038e8cbada334027aec7f3ceae9bc992b",
    "report-logistic/labor_hours.csv": "bdaed481d3f12a6f619fce4de95e783d0d8f9afcb0ec9236724ae99d527695ed",
    "report-logistic/model.json": "5333b8bb92a68c3615ae946ffe9f996fa63f7b7406c2beecb97ada4721b0bcfd",
    "report-logistic/policy_hist_proactive.csv": "6e1239ccd739ce9ae0d245ac04f2d96b3875f06f690055ca086639c11d055711",
    "report-logistic/policy_hist_random.csv": "fc9251a3d523c8e95968ee88f83046d9f84823e7c484f85646d17d42f8a0dd4e",
    "report-logistic/policy_summary.json": "68e04c136023707be9d6a369832f34217dbacc4108917f463a6601a77c547d03",
    "report-logistic/policy_trace.csv": "c0d3c2e10c4c3f8d20dd1d6825772dd28f62e45c0cde9d2a0fbba10bb363bd41",
    "simulate/policy_hist_proactive.csv": "6e1239ccd739ce9ae0d245ac04f2d96b3875f06f690055ca086639c11d055711",
    "simulate/policy_hist_random.csv": "fc9251a3d523c8e95968ee88f83046d9f84823e7c484f85646d17d42f8a0dd4e",
    "simulate/policy_summary.json": "68e04c136023707be9d6a369832f34217dbacc4108917f463a6601a77c547d03",
    "simulate/policy_trace.csv": "c0d3c2e10c4c3f8d20dd1d6825772dd28f62e45c0cde9d2a0fbba10bb363bd41",
    "synth/ground_truth.json": "9c741c3525e315483e6049f73d77e1ded7588ef793612b47b554bc4eeedfbb46",
    "synth/subworkorders.csv": "363365d1aaa837c7df06b973ee714e32697a610272aac84a6ae5852f4064158a",
    "synth/utilization.csv": "500c405b36d10382860c2cb6eaf81849a91ed7126e92ae30ab59bc1c487d9a63",
    "train-forest/model.json": "ac6c3b4ec35e67e8286f72ecc9edebd977a665ea1e36f36dee2f8c6921e62d6c",
    "train/model.json": "5333b8bb92a68c3615ae946ffe9f996fa63f7b7406c2beecb97ada4721b0bcfd",
    "tune/tune_best.json": "27da75f6ce44f8682af9f7b30501d40e88bf2dd7b6cf5d145ef3be0d3c6b0aa5",
    "tune/tune_results.csv": "5be783f30c0b44105396aa77aa37ce3b0b1a215d70c054dd6f3ff4c25f5d6870",
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
