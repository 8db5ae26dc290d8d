"""Spans around the library's public functions, and the per-layer metrics.

``Tracer.install`` wraps each target function (or method) and rebinds it
under its name in every module of the ``instability`` package that holds
it; ``uninstall`` restores the originals.  A span
records its function, start, end, parent and the time its traced children
took, so a span's self time is its duration minus that child time.  Spans
stay in memory until ``layer_metrics`` folds them into the per-layer
metrics; nothing here runs while the tracer is not installed.
"""

from __future__ import annotations

import functools
import sys
import time

MB = float(1 << 20)
PACKAGE = "instability"

# (layer, module, attribute path).  "sdp" (HermitianProgram.solve, which
# builds, solves and unpacks) has no metric of its own; tracing it keeps its
# unpacking out of the callers' self time.
TARGETS = [
    ("cli", "instability.cli", "main"),
    *[("serialize", "instability.serialize", f) for f in (
        "matrix_to_json", "matrix_from_json", "state_to_json", "state_from_json",
        "channel_to_json", "channel_from_json", "load_json_file", "dump_json")],
    *[("tasks", "instability.tasks", f) for f in (
        "currency", "covariance_check", "measurement_action", "preparation_action",
        "one_shot_yield", "one_shot_cost_exact", "one_shot_cost_eps", "battery_yield",
        "catalytic_yield0", "lift_effect", "compose_effect", "regularize_sweep",
        "sweep_csv", "sweep_diagnostics")],
    *[("programs", "instability.programs", f) for f in (
        "restricted_ht", "ht_free", "dmax_smoothed_free")],
    ("sdp.build", "instability.sdp", "HermitianProgram.build"),
    ("sdp", "instability.sdp", "HermitianProgram.solve"),
    ("sdp.solve", "instability.sdp", "solve"),
    *[("optimize", "instability.optimize", f) for f in (
        "optimize_trace_functional", "fixed_point_residual", "z1_closed_form",
        "pythagorean_factor", "umegaki_free", "d_min_free", "petz_free",
        "d_alpha_z_free", "m_lambda", "grid_oracle")],
    *[("divergences", "instability.divergences", f) for f in (
        "in_dpi_region", "quasi_entropy", "d_alpha_z", "umegaki", "d_min", "d_max",
        "neyman_pearson", "d_hypothesis")],
    ("channels.apply", "instability.channels", "DestructionChannel.apply"),
    ("channels.apply", "instability.channels", "DestructionChannel.apply_dual"),
    ("linalg.mat_pow", "instability.linalg", "mat_pow"),
    *[("linalg.validation", "instability.linalg", f) for f in (
        "check_hermitian", "check_psd", "check_density", "check_effect")],
]

# Per-layer metrics in the order they are reported, with their units.
UNITS = {
    "sdp.solve_calls": "count", "sdp.ipm_iterations": "count", "sdp.solve_ms": "ms",
    "sdp.ms_per_ipm_iteration": "ms", "sdp.constraint_tensor_mb": "MB", "sdp.build_ms": "ms",
    "programs.calls": "count", "programs.self_ms": "ms",
    "optimize.m_lambda_calls": "count", "optimize.fixed_point_iterations": "count",
    "optimize.self_ms": "ms",
    "linalg.mat_pow_calls": "count", "linalg.mat_pow_ms": "ms",
    "linalg.validation_calls": "count", "linalg.validation_ms": "ms",
    "channels.apply_calls": "count", "channels.apply_ms": "ms",
    "divergences.calls": "count", "divergences.ms": "ms",
    "tasks.self_ms": "ms", "cli.self_ms": "ms", "serialize.ms": "ms",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans = []          # [target index, start, end, parent, child time, nested]
        self._stack = []
        self._depth = {}         # layer -> open spans of that layer
        self._patches = []       # (owner, name, original)
        self.ipm_iterations = 0
        self.fixed_point_iterations = 0
        self.tensor_bytes = 0

    # -- wrapping ---------------------------------------------------------

    def _observe(self, path, args, result):
        """Counts read from the arguments and results of sdp.solve and the fixed point."""
        if path == "solve":
            problem = args[0]
            m = problem.A.shape[0]
            self.tensor_bytes = max(
                self.tensor_bytes, m * sum(n * n for n in problem.block_dims) * 8)
            self.ipm_iterations += result.iterations
        else:
            self.fixed_point_iterations += result.iterations

    def _wrap(self, target, fn):
        layer, _, path = TARGETS[target]
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter
        observe = path if path in ("solve", "optimize_trace_functional") else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [target, 0.0, 0.0, stack[-1] if stack else -1, 0.0, depth.get(layer, 0) > 0]
            spans.append(span)
            stack.append(len(spans) - 1)
            depth[layer] = depth.get(layer, 0) + 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                depth[layer] -= 1
                stack.pop()
                if span[3] >= 0:
                    spans[span[3]][4] += span[2] - span[1]
            if observe is not None:
                self._observe(observe, args, result)
            return result

        return traced

    def install(self):
        package_modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for target, (_, module, path) in enumerate(TARGETS):
            owner = sys.modules[module]
            *cls_path, name = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = vars(owner)[name]
            wrapped = self._wrap(target, original)
            # A method is looked up on its class; a function under every name
            # a module bound it to at import.
            owners = [owner] if cls_path else [
                m for m in package_modules if vars(m).get(name) is original]
            for o in owners:
                setattr(o, name, wrapped)
                self._patches.append((o, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- metrics ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer counts and times over every span recorded so far.

        ``*_ms`` of a layer is the time of its outermost spans (a span nested
        in another of the same layer is not counted twice); ``*.self_ms``
        subtracts the time of traced children.  Validation counts every
        call, nested ones too, since each repeats the checks.
        """
        calls, outer_ms, self_ms = {}, {}, {}
        for target, start, end, _, child, nested in self.spans:
            layer = TARGETS[target][0]
            calls[layer] = calls.get(layer, 0) + 1
            if not nested:
                outer_ms[layer] = outer_ms.get(layer, 0.0) + (end - start) * 1e3
            self_ms[layer] = self_ms.get(layer, 0.0) + (end - start - child) * 1e3
        m_lambda_calls = sum(1 for s in self.spans if TARGETS[s[0]][2] == "m_lambda")
        solve_ms = outer_ms.get("sdp.solve", 0.0)
        return {
            "sdp.solve_calls": calls.get("sdp.solve", 0),
            "sdp.ipm_iterations": self.ipm_iterations,
            "sdp.solve_ms": solve_ms,
            "sdp.ms_per_ipm_iteration": solve_ms / self.ipm_iterations if self.ipm_iterations else 0.0,
            "sdp.constraint_tensor_mb": self.tensor_bytes / MB,
            "sdp.build_ms": outer_ms.get("sdp.build", 0.0),
            "programs.calls": calls.get("programs", 0),
            "programs.self_ms": self_ms.get("programs", 0.0),
            "optimize.m_lambda_calls": m_lambda_calls,
            "optimize.fixed_point_iterations": self.fixed_point_iterations,
            "optimize.self_ms": self_ms.get("optimize", 0.0),
            "linalg.mat_pow_calls": calls.get("linalg.mat_pow", 0),
            "linalg.mat_pow_ms": outer_ms.get("linalg.mat_pow", 0.0),
            "linalg.validation_calls": calls.get("linalg.validation", 0),
            "linalg.validation_ms": outer_ms.get("linalg.validation", 0.0),
            "channels.apply_calls": calls.get("channels.apply", 0),
            "channels.apply_ms": outer_ms.get("channels.apply", 0.0),
            "divergences.calls": calls.get("divergences", 0),
            "divergences.ms": outer_ms.get("divergences", 0.0),
            "tasks.self_ms": self_ms.get("tasks", 0.0),
            "cli.self_ms": self_ms.get("cli", 0.0),
            "serialize.ms": outer_ms.get("serialize", 0.0),
        }
