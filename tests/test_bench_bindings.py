"""The benchmark under perfbench/ wraps sgparse names where they are looked
up.  Installing every wrapper here fails with an AttributeError as soon as a
change to src/ drops or moves one of those names."""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_bound():
    run, probes = _load("run"), _load("probes")
    sg = run.import_sgparse()
    patches = probes.Patches()
    try:
        probes.install_latency_probes(patches, probes.Recorder(), sg)
        probes.Tracer().install(patches, sg)
        wrapped = list(patches._saved)
        assert all(getattr(owner, name) is not original for owner, name, original in wrapped)
        assert run.describe_machine(sg)["pool_workers"] >= 1
    finally:
        patches.restore()
    originals = {}
    for owner, name, original in wrapped:   # some names are wrapped twice
        originals.setdefault((owner, name), original)
    assert all(getattr(owner, name) is original for (owner, name), original in originals.items())
