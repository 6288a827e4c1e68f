"""Span tracer that times opint's layers from outside the program.

`Tracer.install` replaces each traced public function with a wrapper in
every opint namespace that binds it (modules import one another's
functions by name, so patching the defining module alone would miss most
calls), and wraps the suite's check registry and the CLI's command table
in place.  Each wrapped call records a span (name, start, end, parent) in
memory; a layer's self time is its span time minus the time of its direct
child spans.  Work counts are computed from argument shapes, so they are
exact and repeat from run to run.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from collections import defaultdict

import numpy as np

TRACED = {
    "linalg": ("eig_hermitian", "singular_values", "apply_function", "dft_unitary",
               "load_matrix"),
    "doi": ("doi_fourier", "doi_apply", "sampled_transformer_norm",
            "lipschitz_ratio_experiment"),
    "shift": ("xi_fourier", "xi_counting", "xi_arctan", "xi_rank_one",
              "trace_formula_check", "resolvent_identity_check"),
    "sylvester": ("solve_gap", "kron_oracle"),
    "quantization": ("quantize", "momentum_projector", "momentum_operator", "cycle_space",
                     "cotlar_stein_bound", "qp_norm_upper_bound"),
    "cli": ("emit_report",),
    "rng": ("substream",),
}

CLI_COMMANDS = ("suite", "shift", "doi", "sylvester", "quantize", "cotlar", "peller")

# check-record names of the 26 suite checks; the suite workload requires all
# of them in its report, and each has an inclusive-time metric suite.<name>.s
SUITE_CHECKS = (
    "linalg.eig_reconstruction",
    "linalg.schatten_monotone_in_1_over_p",
    "linalg.hoelder_trace_duality",
    "linalg.dft_fourth_power_identity",
    "linalg.apply_function_additive",
    "doi.identity_symbol_acts_trivially",
    "doi.localization_identity",
    "doi.divided_difference_maps_difference",
    "doi.hs_norm_equals_power_iteration",
    "doi.fourier_route_matches_symbol_route",
    "doi.fourier_transformer_within_l1_mass",
    "doi.peller_bound_dominates_sampled_c1",
    "doi.triangular_truncation_idempotent_norm_one",
    "sylvester.doi_matches_kron_and_certificate",
    "sylvester.pi_over_two_delta_bound",
    "shift.krein_trace_formula",
    "shift.properties_a_to_d",
    "shift.route_agreement_canonical_pair",
    "shift.rank_one_argument_route",
    "shift.resolvent_trace_identity",
    "shift.arctan_kernel_representation",
    "quantization.localization_identity",
    "quantization.product_symbol_factorizes",
    "quantization.cotlar_stein_certificate",
    "quantization.bimeasure_additivity_and_representation",
    "quantization.polymeasure_additivity_and_concatenation",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _work_counters(modules):
    """Per-call work, computed from the arguments: name -> f(args, kwargs) -> {counter: n}."""
    doi_nodes = modules["doi"].DEFAULT_FOURIER_QUAD[1]
    shift_nodes = modules["shift"].DEFAULT_FOURIER_QUAD[1]

    def nodes(quad, default):
        return default if quad is None else int(quad.nodes.size)

    return {
        "linalg.eig_hermitian": lambda a, k: {"work_n3": int(np.shape(a[0])[0]) ** 3},
        # singular values come from the eigenvalues of the k x k matrix M*M
        "linalg.singular_values": lambda a, k: {"work_n3": int(np.shape(a[0])[1]) ** 3},
        "doi.doi_fourier": lambda a, k: {"nodes": nodes(_arg(a, k, 3, "quad"), doi_nodes)},
        # the grid x nodes complex matrix of exponentials
        "shift.xi_fourier": lambda a, k: {
            "bytes": int(np.size(_arg(a, k, 3, "grid")))
            * nodes(_arg(a, k, 4, "quad"), shift_nodes) * 16},
        # dense LU of the n^2 x n^2 vectorized system
        "sylvester.kron_oracle": lambda a, k: {"work_n6": int(np.shape(a[0])[0]) ** 6},
        "quantization.quantize": lambda a, k: {"work_n3": int(a[0].n) ** 3},
    }


def metric_names():
    """Every per-layer metric the tracer reports, with its unit."""
    names = {}
    for module, functions in TRACED.items():
        for fn in functions:
            names[f"{module}.{fn}.calls"] = "count"
            names[f"{module}.{fn}.self_s"] = "s"
    names.update({
        "linalg.eig_hermitian.work_n3": "count",
        "linalg.eig_hermitian.unique_ratio": "ratio",
        "linalg.singular_values.work_n3": "count",
        "doi.doi_fourier.nodes": "count",
        "shift.xi_fourier.bytes": "B",
        "sylvester.kron_oracle.work_n6": "count",
        "quantization.quantize.work_n3": "count",
    })
    for command in CLI_COMMANDS:
        names[f"cli.{command}.s"] = "s"
    for check in SUITE_CHECKS:
        names[f"suite.{check}.s"] = "s"
    return names


class Tracer:
    """Wraps opint's traced functions; collects spans while installed."""

    def __init__(self, modules):
        """`modules` maps short names ("linalg", "suite", "cli", ...) to the
        imported opint modules, plus "opint" for the package itself."""
        self._modules = modules
        self._work = _work_counters(modules)
        self._wrappers = {}   # id(original) -> (original, wrapper)
        self._patched = []    # (namespace, key, original), for uninstall
        self.spans = []       # [name, start, end, parent index]
        self._stack = []
        self.counters = defaultdict(int)
        self._eig_inputs = set()
        for module, functions in TRACED.items():
            for fn_name in functions:
                original = getattr(modules[module], fn_name)
                self._wrappers[id(original)] = (
                    original, self._wrap(f"{module}.{fn_name}", original))

    def _wrap(self, name, fn, inclusive_name=None):
        """Span-recording wrapper.  `inclusive_name(result)` names spans whose
        inclusive time is the metric (suite checks, CLI commands)."""
        work = self._work.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if work is not None:
                for counter, amount in work(args, kwargs).items():
                    tracer.counters[f"{name}.{counter}"] += amount
            if name == "linalg.eig_hermitian":
                arr = np.ascontiguousarray(np.asarray(args[0], dtype=np.complex128))
                tracer._eig_inputs.add(
                    hashlib.blake2b(arr.tobytes() + repr(arr.shape).encode()).digest())
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if inclusive_name is not None:
                span[0] = inclusive_name(result)
            return result

        return traced

    def install(self):
        self.reset()
        for module in self._modules.values():
            for key, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, key, entry[1])
                    self._patched.append((module, key, value))
        checks = self._modules["suite"].SUITE_CHECKS
        for i, fn in enumerate(list(checks)):
            checks[i] = self._wrap("suite.?", fn, lambda rec: f"suite.{rec.name}")
            self._patched.append((checks, i, fn))
        runners = self._modules["cli"].RUNNERS
        for command, fn in list(runners.items()):
            runners[command] = self._wrap(f"cli.{command}", fn,
                                          lambda _, c=command: f"cli.{c}")
            self._patched.append((runners, command, fn))

    def uninstall(self):
        for namespace, key, original in reversed(self._patched):
            if isinstance(namespace, (list, dict)):
                namespace[key] = original
            else:
                setattr(namespace, key, original)
        self._patched.clear()

    def reset(self):
        self.spans = []
        self._stack = []
        self.counters = defaultdict(int)
        self._eig_inputs = set()

    def pass_metrics(self):
        """Per-layer metrics of the spans recorded since the last reset."""
        out = dict.fromkeys(metric_names(), 0.0)
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            if f"{name}.s" in out:  # suite checks and CLI commands: inclusive time
                out[f"{name}.s"] += end - start
            if f"{name}.calls" in out:
                out[f"{name}.calls"] += 1
                out[f"{name}.self_s"] += (end - start) - child[i]
        out.update(self.counters)
        calls = out["linalg.eig_hermitian.calls"]
        out["linalg.eig_hermitian.unique_ratio"] = len(self._eig_inputs) / calls if calls else 0.0
        return out

    def write_spans(self, path):
        """Write the recorded spans as JSON lines: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
