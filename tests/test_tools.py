import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_pipeline_writes_stage_medians(tmp_path):
    out = tmp_path / "BENCH_pipeline.json"
    subprocess.run([sys.executable, str(ROOT / "tools" / "bench_pipeline.py"),
                    "--sizes", "2", "3", "--out", str(out)],
                   check=True, capture_output=True, env={"PYTHONPATH": str(ROOT / "src")})
    result = json.loads(out.read_text())
    assert sorted(result["sizes"]) == ["2", "3"]
    for row in result["sizes"].values():
        assert row["runs"] == 20 * len(result["seeds"])
        assert set(row["stages_s"]) == {"spectrum", "cascade", "simplify", "map",
                                        "verify_classical", "verify_quantum", "connectivity"}
        assert row["total_s"] > 0
        assert row["emit_json_s"] > 0
