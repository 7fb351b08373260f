"""Every committed benchmark record (`BENCH_*.json` at the repository root)
parses, carries the fields every record shares, and names as its claimed
gain an end-to-end metric and a workload that `BENCHMARK.json` declares."""
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
FIELDS = {"change", "claimed_gain", "end_to_end", "hardware", "layer_touched", "method",
          "outputs", "provenance", "tier1", "ungated"}


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["end_to_end"]}, {w["name"] for w in spec["workloads"]}


def test_there_are_benchmark_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_benchmark_record_has_the_shared_fields_and_a_declared_claim(path):
    record = json.loads(path.read_text())
    assert FIELDS <= set(record), f"missing {sorted(FIELDS - set(record))}"
    metrics, workloads = _declared()
    claim = record["claimed_gain"]
    assert claim["metric"] in metrics
    assert claim["workload"] in workloads
