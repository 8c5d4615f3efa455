import importlib
import importlib.util
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


def test_perfbench_span_targets_resolve():
    # a renamed target would otherwise show only as trace.missing_targets
    # in a traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for modname, attr, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), f"{modname}.{attr}"
    modname, clsname, attr, _ = spans.WORD_CLASS
    assert attr in vars(getattr(importlib.import_module(modname), clsname))
