"""Spans around the public functions of each shallowcal layer.

The tracer replaces a function in every loaded shallowcal module that binds
it, under whatever name that module uses (``harness`` binds ``train``,
``forward_batch``, ``infinite_forward_batch`` and ``sample`` as
``draw_sample`` by name), so a span records each call the program makes.
Spans stay in memory; self time is a span's duration minus the part its
child spans cover.  ``uninstall`` puts every original function back.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

# module -> public functions wrapped in spans.  excess_risk_comparison is
# wrapped so its loop is attributed to the interpolation layer.
TARGETS = {
    "trainer": ("train",),
    "network": ("forward_batch", "frozen_forward_batch", "init_network"),
    "reference": ("infinite_forward_batch", "sample_reference", "gap_experiment"),
    "distributions": ("sample", "evaluator", "population_risk"),
    "metrics": ("risk_breakdown",),
    "interpolation": (
        "sorted_sample",
        "one_nn_rule",
        "knn_rule",
        "wrong_pairs",
        "excess_zero_one_exact",
        "excess_risk_comparison",
    ),
    "harness": ("run_experiment",),
}


def _train_work(args, kwargs, traj):
    """GD steps and multiply-adds of one ``train`` call, from array shapes.

    Per step: forward (n m d + n m), gradient (n m d), each regret
    reference (n m d + n m) and the frozen monitor pass (2 n m d + n m);
    the closing pass at the last iterate is a forward plus a gradient.
    """
    net, X = args[0], args[1]
    refs = kwargs.get("regret_refs", args[5] if len(args) > 5 else None) or {}
    monitors = kwargs.get("monitors", args[4] if len(args) > 4 else True)
    n, (m, d) = X.shape[0], net.weights.shape
    nmd, nm = n * m * d, n * m
    frozen = 2 * nmd + nm if (monitors or refs) else 0
    per_step = 2 * nmd + nm + len(refs) * (nmd + nm) + frozen
    steps = len(traj.records) - 1
    return {"trainer.steps": steps, "trainer.gmac": (steps * per_step + 2 * nmd + nm) / 1e9}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = defaultdict(float)
        self._stack = []
        self._seen_mc = set()
        self._patched = []

    # -- recording -------------------------------------------------------
    def _wrap(self, name, fn):
        hook = getattr(self, "_count_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _count_trainer_train(self, args, kwargs, traj):
        for key, value in _train_work(args, kwargs, traj).items():
            self.counts[key] += value

    def _count_network_forward_batch(self, args, kwargs, result):
        self.counts["network.forward_batch.rows"] += len(result)

    def _count_distributions_sample(self, args, kwargs, result):
        self.counts["distributions.sample.points"] += result.n

    def _count_interpolation_sorted_sample(self, args, kwargs, result):
        self.counts["interpolation.points"] += result.n

    def _count_reference_infinite_forward_batch(self, args, kwargs, result):
        model, X = args[0], np.ascontiguousarray(args[1], dtype=float)
        probe = np.linspace(-1.0, 1.0, 4 * model.dim).reshape(4, model.dim)
        key = hashlib.sha256()
        key.update(repr((model.dim, model.mc_features, model.mc_seed, X.shape)).encode())
        key.update(np.asarray(model.weight_map(probe), dtype=float).tobytes())
        key.update(X.tobytes())
        digest = key.digest()
        self.counts["reference.infinite_forward_batch.calls"] += 1
        self.counts["reference.infinite_forward_batch.repeat_calls"] += digest in self._seen_mc
        self.counts["reference.mc_products"] += model.mc_features * X.shape[0]
        self._seen_mc.add(digest)

    # -- patching --------------------------------------------------------
    def install(self):
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "shallowcal" or key.startswith("shallowcal.")
        ]
        for module_name, functions in TARGETS.items():
            home = importlib.import_module(f"shallowcal.{module_name}")
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- summaries -------------------------------------------------------
    def self_times(self) -> dict:
        """Span name -> (call count, total self seconds, total seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), covered in zip(self.spans, child):
            row = out[name]
            row[0] += 1
            row[1] += end - start - covered
            row[2] += end - start
        return {k: tuple(v) for k, v in out.items()}

    def module_self_times(self) -> dict:
        out = defaultdict(float)
        for name, (_, self_s, _) in self.self_times().items():
            out[name.split(".")[0]] += self_s
        return dict(out)
