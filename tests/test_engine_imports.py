"""The engine's import path loads no Spark.

Only the real-SparkSQL baseline (``repro.sparkbridge`` and
``repro.harness.sparkreal``) needs pyspark. The engine, the data
generator, the queries, the oracle and the experiment harness import
without it, so an engine, harness or benchmark process never pays for
loading Spark. Each check runs in a fresh interpreter, because the test
session itself has already imported pyspark.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import repro

ENGINE_PATH = [
    "repro.engine.executor",
    "repro.synth_data",
    "repro.queries.tpch",
    "repro.oracle",
    "repro.harness.experiments",
]


def spark_modules_after_importing(modules: list[str]) -> list[str]:
    """The ``pyspark`` modules a fresh interpreter holds after importing
    ``modules`` from this checkout's sources."""
    src = str(Path(repro.__file__).resolve().parents[1])
    code = "".join(f"import {m}\n" for m in modules) + (
        "import json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'pyspark')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout)


def test_engine_path_imports_no_pyspark():
    assert spark_modules_after_importing(ENGINE_PATH) == []


def test_the_spark_baseline_does_import_pyspark():
    """The probe sees Spark where it is loaded."""
    assert "pyspark" in spark_modules_after_importing(["repro.sparkbridge.sparksql"])
