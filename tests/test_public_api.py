"""Public-API surface tests: every advertised name resolves and the
documented entry points exist."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.arith",
    "repro.apps",
    "repro.core",
    "repro.core.strategies",
    "repro.data",
    "repro.experiments",
    "repro.hardware",
    "repro.hardware.adders",
    "repro.solvers",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", [])
    assert exported, f"{package} exports nothing"
    for name in exported:
        assert hasattr(module, name), f"{package}.{name} missing"


def test_top_level_quickstart_names():
    import repro

    assert callable(repro.default_mode_bank)
    framework_cls = repro.ApproxIt
    assert hasattr(framework_cls, "run")
    assert hasattr(framework_cls, "run_truth")
    assert hasattr(repro.RunResult, "energy_relative_to")


def test_version_is_consistent():
    import repro
    from repro._version import __version__

    assert repro.__version__ == __version__
    parts = __version__.split(".")
    assert len(parts) == 3 and all(p.isdigit() for p in parts)


def test_cli_entry_point_importable():
    from repro.experiments.cli import main

    assert callable(main)


def test_dataset_registry_matches_table2_count():
    from repro.data import DATASETS

    assert len(DATASETS) == 6  # the paper's six datasets


def test_adder_registry_covers_documented_families():
    from repro.hardware.adders import ADDER_FAMILIES

    assert {"exact", "loa", "etaii", "aca", "gear", "truncated"} <= set(
        ADDER_FAMILIES
    )


def test_benchmark_tracer_wraps_and_restores_the_program_surface():
    """The benchmark's tracer wraps layer entry points by name from
    outside the program; a rename or deletion here must fail fast."""
    import importlib.util
    from pathlib import Path

    from repro.backends import KernelBackend, resolve_backend_name

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)

    tracer = tracer_mod.Tracer()
    tracer.install()
    patches = list(tracer._patches)
    try:
        for owner, attr, original in patches:
            assert vars(owner)[attr] is not original, f"{owner}.{attr} not wrapped"
        wrapped_kernels = {attr for owner, attr, _ in patches if owner is KernelBackend}
        assert wrapped_kernels == {"add_signed", *tracer_mod.FUSED_KERNELS}
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original, f"{owner}.{attr} not restored"
    assert resolve_backend_name() == "numpy"
