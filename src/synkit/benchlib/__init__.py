"""Flight-control benchmark: the models, the requirement catalog with
its contracts and pinned verdicts, and a harness that steps each
observer on inputs drawn from its random driver.  ``benchlib.gsn``
turns the catalog and the pinned verdicts into safety-case inputs."""

from .loader import (
    Benchmark,
    BenchmarkError,
    COMPOSITIONAL_IDS,
    DriverRun,
    ExpectedClass,
    MODEL_FILES,
    NOT_MODELED_IDS,
    PropertySpec,
    benchmark_source,
    driver_harness,
    load_benchmark,
    load_expected,
    sample_step,
)

__all__ = [
    "Benchmark",
    "BenchmarkError",
    "COMPOSITIONAL_IDS",
    "DriverRun",
    "ExpectedClass",
    "MODEL_FILES",
    "NOT_MODELED_IDS",
    "PropertySpec",
    "benchmark_source",
    "driver_harness",
    "load_benchmark",
    "load_expected",
    "sample_step",
]
