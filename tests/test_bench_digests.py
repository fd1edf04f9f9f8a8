"""The seed-1 digests of the benchmark workloads, pinned: a change to any
count, verdict, witness or record that a workload checks moves them."""

import importlib
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run  # noqa: E402
import workloads  # noqa: E402
from test_perfbench import SMALL  # noqa: E402

DIGESTS = {
    "oracle": ("c69f4b6ef6c9f17c94d916bf5e98f1f279d7a66190be87173e47c56cc700b0ab", None),
    "windows": ("d992d8436af89109a01904b8a878f282d395648cfcc2ee3f1412b0d1e0e1c495", None),
    "catalog": ("8f546a666d856ef8e1185ad8f2ddd4ba57e55841ffbb6d9858f8f5d0f652bf18",
                SMALL["catalog"]),
    "reflect": ("eb308b209eea700ffb589db88f46d3302d44cd1dd75d70a2ed0993d2ec11b825",
                SMALL["reflect"]),
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_seed_one_digest(workload):
    # the modules already imported, not run.load_library(): that re-imports
    # the package, and later tests that patch "twistconj.<module>.<name>"
    # would then miss the modules the CLI runs
    lib = types.SimpleNamespace(
        **{m: importlib.import_module(f"twistconj.{m}") for m in run.LAYERS})
    digest, keep = DIGESTS[workload]
    tasks = workloads.WORKLOADS[workload](lib, 1)
    result = run.Pass([t for t in tasks if keep is None or keep(t[0])])
    assert result.failures == []
    assert result.digest == digest
