"""Per-layer metrics of the traced run, by name, unit and direction.

Arrows in the comments name the end-to-end metric each group should move.
A workload that never calls a layer reports 0 for it.
"""

from __future__ import annotations

from tracing import Stat
from workloads import Spectra, Verify

SUITES = tuple(Verify.SUITE_TRIALS)
WILLIAMSON_N = Spectra.GENERIC_N
FAMILIES = Spectra.FAMILIES
EXTREMAL_CHECKS = ("extremal.maxmin_check", "extremal.wielandt_certify",
                   "extremal.phi_extremal_check", "extremal.det_product_check")

# (span name, field) pairs read straight from the tracer.
SPAN_FIELDS = [
    # linalg -> verify ops_per_s and op_p50_ms (span caching and batching)
    ("linalg.orthonormal_columns", "calls"), ("linalg.orthonormal_columns", "self_s"),
    ("linalg.span_residual", "calls"),
    ("linalg.subspace_intersect", "calls"), ("linalg.subspace_intersect", "self_s"),
    ("linalg.null_space_basis", "calls"), ("linalg.fnorm", "calls"),
    # linalg -> spectra op_p50_ms, op_tail_ms and ops_per_s (Hermitian eigensolver)
    ("linalg.skew_canonical", "calls"), ("linalg.skew_canonical", "self_s"),
    ("linalg.pd_sqrt_invsqrt", "self_s"),
    # numpy kernels -> verify ops_per_s
    ("numpy.linalg.svd", "calls"), ("numpy.linalg.eigh", "calls"),
    ("numpy.linalg.eigvalsh", "calls"), ("numpy.linalg.norm", "calls"),
    # core -> spectra op_p50_ms, op_tail_ms and ok_ratio
    ("core.williamson", "calls"), ("core.williamson", "self_s"), ("core.williamson", "raised"),
    ("core.symplectic_eigenvalues", "calls"), ("core.symplectic_eigenvalues", "self_s"),
    ("core.symplectic_eigenvalues", "raised"),
    ("core.check_positive_definite", "calls"), ("core.random_symplectic", "self_s"),
    # basis and extremal -> verify op_tail_ms and ops_per_s
    ("basis.dual_chain_construct", "calls"), ("basis.dual_chain_construct", "self_s"),
    ("basis.dual_chain_construct", "raised"),
    ("basis.SymplecticBasis.coords", "calls"), ("basis.same_span_trace_check", "self_s"),
    *[(name, "self_s") for name in EXTREMAL_CHECKS],
    ("extremal.sample_tuple_in_chain", "calls"), ("extremal.poincare_witness", "calls"),
    # inequalities -> verify ops_per_s (lidskii-mult) and the spectra mean ops
    ("inequalities.geometric_mean", "calls"), ("inequalities.geometric_mean", "self_s"),
    ("inequalities.schur_concave_monotone_check", "self_s"),
    ("inequalities.multiplicative_trial_records", "self_s"),
    # matio and cli -> cli-cold op_p50_ms and ops_per_s
    ("matio.load_matrix", "self_s"), ("matio.save_matrix", "self_s"), ("cli.main", "self_s"),
]

UNITS = {"calls": "count", "self_s": "s", "raised": "count"}

PER_LAYER = (
    [(f"{span}.{field}", UNITS[field], "lower") for span, field in SPAN_FIELDS]
    + [("numpy.linalg.self_s", "s", "lower")]
    + [(f"core.williamson.self_s.n{n}", "s", "lower") for n in WILLIAMSON_N]
    + [(f"core.williamson.s.n{n}", "s", "lower") for n in WILLIAMSON_N]
    + [(f"core.williamson.ok_ratio.{f}", "ratio", "higher") for f in FAMILIES]
    + [("extremal.skip_ratio", "ratio", "lower")]
    # harness report metrics -> cli-cold op_tail_ms (the replay op loads the report)
    + [(f"harness.run_suite.{s}.s", "s", "lower") for s in SUITES]
    + [("harness.write_report.s", "s", "lower"), ("harness.replay.s", "s", "lower"),
       ("harness.report_kb", "KiB", "lower"), ("harness.records", "count", "lower")]
    # interpreter start and import -> cli-cold op_p50_ms, and setup_s everywhere
    + [("cli.spawn_s", "s", "lower"), ("cli.import_s", "s", "lower"),
       ("cli.import.scipy_s", "s", "lower")]
    + [("tracing.overhead_ratio", "ratio", "lower"), ("machine.ref_ms", "ms", "lower")]
)


class SkipCounter:
    """Observer for the extremal certificates: skipped over attempted chains or samples."""

    def __init__(self):
        self.skipped = 0
        self.attempted = 0

    def __call__(self, cert):
        self.skipped += cert.n_skipped
        self.attempted += cert.n_chains or cert.n_samples

    @property
    def ratio(self):
        return self.skipped / self.attempted if self.attempted else 0.0


def tracer_hooks(skips):
    """Tags and observers the traced run installs."""
    tags = {
        "core.williamson": lambda args, kwargs: f"n{len(args[0] if args else kwargs['a']) // 2}",
        "harness.run_suite": lambda args, kwargs: args[0] if args else kwargs["suite_id"],
    }
    return tags, {name: skips for name in EXTREMAL_CHECKS}


def compute(stats, extra):
    """Every PER_LAYER metric from tracer stats plus the run-level values in ``extra``."""
    def get(name):
        return stats.get(name, Stat())

    out = {f"{span}.{field}": getattr(get(span), field) for span, field in SPAN_FIELDS}
    out["numpy.linalg.self_s"] = sum(s.self_s for k, s in stats.items()
                                     if k.startswith("numpy.linalg.") and "[" not in k)
    for n in WILLIAMSON_N:
        out[f"core.williamson.self_s.n{n}"] = get(f"core.williamson[n{n}]").self_s
        out[f"core.williamson.s.n{n}"] = get(f"core.williamson[n{n}]").total_s
    for suite in SUITES:
        out[f"harness.run_suite.{suite}.s"] = get(f"harness.run_suite[{suite}]").total_s
    out["harness.write_report.s"] = get("harness.write_report").total_s
    out["harness.replay.s"] = get("harness.replay").total_s
    out.update(extra)
    missing = [name for name, _, _ in PER_LAYER if name not in out]
    if missing:
        raise KeyError(f"per-layer metrics not computed: {missing}")
    return {name: out[name] for name, _, _ in PER_LAYER}
