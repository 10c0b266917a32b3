"""The liederiv layers the benchmark traces, and the exact counts it
reads off their return values.

``LayerTrace`` wraps the functions in ``TRACED`` with a ``Tracer`` and
watches a few return values:

- ``locder.constrain`` calls made directly by a fold (``replay_proof`` or
  ``random_probe_closure``) are the probes it attempted, as the CLI's
  ``probes_tried`` counts them: the basis-singleton warm start that
  ``random_probe_closure`` runs through ``basis_probe_space`` is not
  among them.  A call that returns its input unchanged skipped a scalar
  multiple of an earlier probe.
- The informative probes are read off the printed report: the history
  steps that lowered the candidate dimension, warm start included.
- ``linalg.SparseEchelon.insert`` calls whose parent span is
  ``constrain`` or ``derivation_space`` give the useful-insert ratio
  (the dense ``nullspace`` also inserts rows; those are left out).
- The final candidate echelon of a fold gives rank, nonzero count and
  the largest coefficient bit length.
- ``certify_local_symbolic``, ``witness`` and ``split_linear`` give the
  stratum count, the refuting witness solves and the given-up splits.

Every count is exact and repeats from run to run for a fixed input.
"""

from __future__ import annotations

import json
from fractions import Fraction

from tracer import Tracer

TRACED = (
    "cli.main",
    "liealg.bracket",
    "liealg.check_jacobi",
    "liealg.load",
    "dersolve.derivation_space",
    "dersolve.leibniz_rows",
    "dersolve.is_derivation",
    "linalg.SparseEchelon.insert",
    "linalg.SparseEchelon.nullspace",
    "linalg.Subspace.from_vectors",
    "linalg.rref",
    "linalg.nullspace",
    "linalg.dot",
    "linalg.Matrix.matvec",
    "locder.replay_proof",
    "locder.random_probe_closure",
    "locder.certify_local_symbolic",
    "locder.constrain",
    "locder.orbit_subspace",
    "locder.basis_probe_space",
    "locder.schrodinger_probe_schedule",
    "locder.witness",
    "poly.poly_det",
    "poly.split_linear",
    "poly.MultiPoly.substitute_linear",
)

# (span, ancestor): self time of ``span`` spent anywhere below ``ancestor``
UNDER = (("linalg.Matrix.matvec", "locder.constrain"),)

# inclusive times of whole subtrees
SUBTREES = ("dersolve.is_derivation", "locder.witness")

COUNTS = (
    "locder.probes.attempted",
    "locder.probes.informative",
    "locder.probes.duplicate_skipped",
    "linalg.SparseEchelon.insert.useful_ratio",
    "linalg.echelon.rank",
    "linalg.echelon.nnz",
    "exactfield.max_coeff_bits",
    "locder.certify.strata",
    "locder.witness.refuted",
    "poly.split_linear.gave_up",
)

FOLDS = {"locder.replay_proof", "locder.random_probe_closure"}
INSERT_PARENTS = {"locder.constrain", "dersolve.derivation_space"}


def metric_names() -> list:
    """Every per-layer metric name, in report order."""
    names = []
    for fn in TRACED:
        names += [f"{fn}.calls", f"{fn}.self_s"]
    names += [f"{leaf}.under_{anc.rsplit('.', 1)[1]}.self_s" for leaf, anc in UNDER]
    names += [f"{fn}.total_s" for fn in SUBTREES]
    names += list(COUNTS)
    return names


def coeff_bits(x) -> int:
    """Bit length of the larger of numerator and denominator; for a
    Gaussian rational, the larger over its two parts."""
    if hasattr(x, "re") and hasattr(x, "im"):
        return max(coeff_bits(x.re), coeff_bits(x.im))
    f = Fraction(x)
    return max(abs(f.numerator).bit_length(), f.denominator.bit_length())


class LayerTrace:
    def __init__(self):
        self.counts = {name: 0 for name in COUNTS}
        self.inserts = 0
        self.useful_inserts = 0
        self.tracer = Tracer(
            TRACED,
            observers={
                "locder.constrain": self._on_constrain,
                "linalg.SparseEchelon.insert": self._on_insert,
                "locder.replay_proof": self._on_fold,
                "locder.random_probe_closure": self._on_fold,
                "locder.certify_local_symbolic": self._on_certify,
                "locder.witness": self._on_witness,
                "poly.split_linear": self._on_split,
            },
        )

    def install(self) -> None:
        self.tracer.install()

    def uninstall(self) -> None:
        self.tracer.uninstall()

    def _on_constrain(self, args, kwargs, result, parent) -> None:
        if parent not in FOLDS:
            return
        acc = args[0] if args else kwargs["acc"]
        self.counts["locder.probes.attempted"] += 1
        self.counts["locder.probes.duplicate_skipped"] += result is acc

    def _on_insert(self, args, kwargs, result, parent) -> None:
        if parent in INSERT_PARENTS:
            self.inserts += 1
            self.useful_inserts += bool(result)

    def _on_fold(self, args, kwargs, result, parent) -> None:
        echelon = getattr(getattr(result, "candidate", None), "echelon", None)
        rows = getattr(echelon, "rows", None)
        if rows is None:
            return  # the fold result changed shape; the counts stay 0
        self.counts["linalg.echelon.rank"] = len(rows)
        self.counts["linalg.echelon.nnz"] = sum(len(r) for r in rows.values())
        self.counts["exactfield.max_coeff_bits"] = max(
            (coeff_bits(v) for r in rows.values() for v in r.values()), default=0
        )

    def _on_certify(self, args, kwargs, result, parent) -> None:
        self.counts["locder.certify.strata"] = len(getattr(result, "strata", ()))

    def _on_witness(self, args, kwargs, result, parent) -> None:
        self.counts["locder.witness.refuted"] += result is None

    def _on_split(self, args, kwargs, result, parent) -> None:
        self.counts["poly.split_linear.gave_up"] += result is None

    def report(self, stdout: str) -> dict:
        """Per-layer metrics by name, plus the raw split for the record;
        ``stdout`` is what the traced command printed."""
        try:
            history = json.loads(stdout).get("history") or []
        except (json.JSONDecodeError, AttributeError):
            history = []
        self.counts["locder.probes.informative"] = sum(
            1 for step in history if step["dim_after"] < step["dim_before"]
        )
        summary = self.tracer.summary(under=UNDER)
        funcs = summary["functions"]
        metrics = {}
        for fn in TRACED:
            metrics[f"{fn}.calls"] = funcs[fn]["calls"]
            metrics[f"{fn}.self_s"] = funcs[fn]["self_s"]
        for (leaf, anc), seconds in summary["under"].items():
            metrics[f"{leaf}.under_{anc.rsplit('.', 1)[1]}.self_s"] = seconds
        for fn in SUBTREES:
            metrics[f"{fn}.total_s"] = funcs[fn]["total_s"]
        metrics.update(self.counts)
        metrics["linalg.SparseEchelon.insert.useful_ratio"] = (
            self.useful_inserts / self.inserts if self.inserts else 0.0
        )
        return {
            "metrics": metrics,
            "absent": list(self.tracer.absent),
            "spans": self.tracer.span_count,
            "split": {fn: funcs[fn] for fn in TRACED},
        }
