"""Cantor-Moran measures on prime mixed-radix schedules.

Certified Fourier decay, digit-partition combinatorics, summability partial
sums, seeded sampling with digit statistics, and exact ball-measure bounds
for the convolved constructions.

Every library submodule but ``errors`` is registered lazily: its module
object exists from the start, but its body runs on first attribute access.
So a command line run pays only for the modules it calls. Each public name
is served from its home submodule through ``_HOME``.
"""

import importlib.util
import sys

from . import errors

__version__ = "0.1.0"

# public name -> home submodule; __all__, __getattr__ and __dir__ all read it
_HOME = {
    name: module
    for module, names in (
        (
            "errors",
            (
                "MoranLabError",
                "InvalidParameter",
                "OutOfRange",
                "InvalidRange",
                "ScheduleTooShort",
                "NotCoprime",
                "EvenPrime",
                "NoPrimeInWindow",
                "NotInSupport",
                "InvalidInterval",
                "GaugeTooSmall",
                "NotWellDistributed",
                "TailNotCertifiable",
                "CounterexampleFound",
                "TooLarge",
            ),
        ),
        (
            "radix",
            (
                "PrimeSchedule",
                "MixedRadixDigits",
                "build_schedule",
                "to_digits",
                "is_prime",
                "next_prime",
            ),
        ),
        (
            "numtheory",
            (
                "Factorization",
                "BaseContext",
                "build_context",
                "multiplicative_order",
                "prime_power_order",
                "order_by_crt",
                "k_of",
                "integer_J",
                "ord_ratio_check",
                "alpha_constant",
                "derived_stirling_constants",
                "round_threshold",
            ),
        ),
        ("rng", ("value_at", "derive_seed")),
        ("system", ("MoranSystem", "binary_system")),
        (
            "fourier",
            (
                "CertifiedModulus",
                "mu_hat_modulus",
                "digit_decay_bound",
            ),
        ),
        (
            "distribution",
            (
                "PartitionCertificate",
                "FiberTable",
                "verify_partition",
                "fiber_counts",
                "classify_Bk",
                "C_bound",
                "check_peak_bound",
            ),
        ),
        ("delsum", ("DelReport", "frequency", "del_partial", "block_trend")),
        (
            "measure",
            (
                "SamplePoint",
                "NormalityReport",
                "AvoidanceVerdict",
                "sample_point",
                "sample_batch",
                "base_digits",
                "normality_report",
                "uniqueness_avoidance",
            ),
        ),
        (
            "dimension",
            (
                "ConvolvedSystem",
                "GaugeFunction",
                "SparseCertificate",
                "build_convolved",
                "h_of_r",
                "sparse_index_set",
                "ball_measure",
                "local_dim_series",
                "running_min_after",
                "h_rate_report",
            ),
        ),
    )
    for name in names
}

__all__ = ["__version__", *_HOME]


def _register_lazy(name: str):
    # importlib's lazy-import recipe. Python 3.11's LazyLoader takes no lock
    # on first access, which is safe because the package starts no threads
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _module in dict.fromkeys(_HOME.values()):
    if _module != "errors":
        globals()[_module] = _register_lazy(_module)
del _module


def __getattr__(name: str):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[home], name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))
