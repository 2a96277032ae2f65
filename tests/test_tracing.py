"""The benchmark's tracer, loaded from perfbench/tracing.py as it stands:
every function it wraps still exists under its name, and one small
`analyze` run per subcommand is counted in the layers it goes through."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import boxprod.cli

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).parents[1] / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(owner, cls_name).__dict__[meth]
    return getattr(owner, attr)


@pytest.mark.parametrize("layer", sorted(tracing.LAYERS))
def test_every_traced_function_resolves(layer):
    for module_name, attr, _, _ in tracing.LAYERS[layer]:
        assert callable(_resolve(module_name, attr)), f"{module_name}.{attr}"


# layers each run must go through; a layer with a work counter must count work
TOUCHED = {
    "isoperimetry": ["isoperimetry.scan", "isoperimetry.descent", "spectral.eigen",
                     "graphs.materialize", "cli"],
    "kkl": ["influence", "spectral.eigen", "spectral.transform", "spectral.energy",
            "functions.variance", "graphs.measure", "cli"],
    "friedgut": ["influence", "isoperimetry.scan", "spectral.transform",
                 "spectral.energy", "functions.variance", "cli"],
    "sdp-lift": ["sdp.lift", "sdp.verify", "sdp.triangle", "graphs.materialize",
                 "isoperimetry.scan", "cli"],
    "examples": ["spectral.eigen", "cli"],
}


@pytest.mark.parametrize("command", sorted(TOUCHED))
def test_traced_run_counts_its_layers(command, tmp_path, capsys):
    argv = [command, "--k", "3"]
    # examples builds on K2 and takes no --builtin
    argv += ["--out", str(tmp_path)] if command == "examples" else ["--builtin", "k2"]
    wrapped = [entry[:2] for entries in tracing.LAYERS.values() for entry in entries]
    originals = [_resolve(*where) for where in wrapped]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # looked up at call time, so the wrapper of `run` is the one called
        code = boxprod.cli.run(argv)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    for layer in TOUCHED[command]:
        assert tracer.calls.get(layer, 0) > 0, layer
        for _, _, counter_name, _ in tracing.LAYERS[layer]:
            if counter_name:
                assert tracer.counts.get(f"{layer}.{counter_name}", 0) > 0, layer
    if command == "sdp-lift":
        # 8 lifted vectors, 8 + 28 SA tables, 1 + 8 + 28 Lasserre sets
        assert tracer.counts["sdp.lift.sets"] == 8 + 36 + 37
    # uninstall puts every original back
    assert [_resolve(*where) for where in wrapped] == originals
