"""The benchmark's span tracer installs on, and uninstalls from, the package.

`bench/tracing.py` wraps carlab's public names by looking them up, so a
rename or deletion of a traced name (``cli._HANDLERS``,
``acceptance.ring_grid``, ...) breaks the benchmark.  This test catches that
in the unit suite.
"""
import importlib
import importlib.util
import pathlib
import sys

_TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve it by name
    spec.loader.exec_module(module)
    return module


def _snapshot(tracing):
    """Every binding the tracer may rebind: module globals, traced methods,
    and the CLI handler table."""
    modules = {name: dict(vars(mod)) for name, mod in sys.modules.items()
               if name == "carlab" or name.startswith("carlab.")}
    methods = {}
    for target in tracing.TARGETS:
        if "." in target.attr:
            cls_name, meth = target.attr.split(".")
            cls = getattr(sys.modules[target.module], cls_name)
            methods[target.attr] = cls.__dict__[meth]
    handlers = dict(sys.modules["carlab.cli"]._HANDLERS)
    return modules, methods, handlers


def test_tracer_installs_and_uninstalls_cleanly(tmp_path):
    tracing = _load_tracing()
    for target in tracing.TARGETS:
        importlib.import_module(target.module)
    from carlab import acceptance, cli

    before = _snapshot(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert acceptance.ring_grid is not before[0]["carlab.acceptance"][
            "ring_grid"]
        assert cli._HANDLERS["regions"] is not before[2]["regions"]
        acceptance.ring_grid(0, 16, 8)
        report = cli.run(cli.ExperimentConfig.from_mapping(
            {"experiment": "regions", "d": 5, "k": 2,
             "out_dir": str(tmp_path)}))
        assert report.all_green
    finally:
        tracer.uninstall()
    for span in ("acceptance.builder", "cli.run", "cli.handler",
                 "regions.eval"):
        assert span in tracer.names, span
    assert tracer.out_of_order == 0

    _, methods, handlers = _snapshot(tracing)
    for name, attrs in before[0].items():
        for key, value in attrs.items():
            assert vars(sys.modules[name])[key] is value, (name, key)
    assert methods == before[1]
    assert handlers == before[2]
