"""Span tracing of the xlmimo modules from outside the program.

``Tracer.install`` wraps every public function and public method of the
traced modules.  A function is patched under every name that refers to it
in any loaded ``xlmimo`` module, so a caller that imported it with
``from .channel import lsf_matrix`` (and looks it up as
``xlmimo.env.lsf_matrix``) sees the wrapper too; methods are patched on the
class that defines them.  Each call records one span
``[name, start, end, parent, run_id, attr]`` in memory; ``attr`` carries one
number or digest for the few calls whose work is counted (rows, draws,
records, episodes).  ``write`` dumps the spans as JSON lines when the run
ends, and ``layer_metrics`` turns a run's spans into the per-layer
metrics named in ``LAYER_METRICS``.

A method is named after the class of the instance it runs on, unless that
class overrides it (then after the class that defines it), so
``DoubleLayerTrainer`` episodes are ``dlpc.DoubleLayerTrainer.train_episode``
and a ``super()`` call never nests a span inside one of the same name.
``MarlCore`` spans carry their control layer as a ``.layer1``/``.layer2``
suffix.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import sys
import time

TRACED_MODULES = (
    "xlmimo.channel",
    "xlmimo.se",
    "xlmimo.env",
    "xlmimo.marl.nets",
    "xlmimo.marl.replay",
    "xlmimo.marl.trainer",
    "xlmimo.dlpc",
    "xlmimo.harness.config",
    "xlmimo.harness.run",
    "xlmimo.harness.cli",
)

# per-layer metric -> (unit, better)
LAYER_METRICS = {
    "channel.make_channel_stats.s": ("s", "lower"),
    "channel.lsf_matrix.calls": ("count", "lower"),
    "channel.lsf_matrix.s": ("s", "lower"),
    "channel.sample_ssf_batch.draws": ("count", "lower"),
    "channel.sample_ssf_batch.s": ("s", "lower"),
    "se.se_closed_form_mr.calls": ("count", "lower"),
    "se.se_closed_form_mr.s": ("s", "lower"),
    "se.se_closed_form_mr.ms_per_call": ("ms", "lower"),
    "se.se_monte_carlo.s": ("s", "lower"),
    "se.se_monte_carlo.draws_per_s": ("1/s", "higher"),
    "env.CellFreeEnv.step.self_s": ("s", "lower"),
    "env.CellFreeEnv.stats_grid.s": ("s", "lower"),
    "env.CellFreeEnv.observe_layer2.calls": ("count", "lower"),
    "env.CellFreeEnv.observe_layer2.s": ("s", "lower"),
    "marl.nets.Mlp.forward.calls": ("count", "lower"),
    "marl.nets.Mlp.forward.rows": ("count", "lower"),
    "marl.nets.Mlp.forward.s": ("s", "lower"),
    "marl.nets.Mlp.backward.calls": ("count", "lower"),
    "marl.nets.Mlp.backward.s": ("s", "lower"),
    "marl.replay.ReplayBuffer.refresh_priorities.calls": ("count", "lower"),
    "marl.replay.ReplayBuffer.refresh_priorities.s": ("s", "lower"),
    "marl.replay.fill_extraction_pool.calls": ("count", "lower"),
    "marl.replay.fill_extraction_pool.records": ("count", "lower"),
    "marl.replay.fill_extraction_pool.s": ("s", "lower"),
    "marl.trainer.MarlCore.act.s.layer1": ("s", "lower"),
    "marl.trainer.MarlCore.act.s.layer2": ("s", "lower"),
    "marl.trainer.MarlCore.record.s.layer1": ("s", "lower"),
    "marl.trainer.MarlCore.record.s.layer2": ("s", "lower"),
    "marl.trainer.MarlCore.refresh_and_fill.s.layer1": ("s", "lower"),
    "marl.trainer.MarlCore.refresh_and_fill.s.layer2": ("s", "lower"),
    "marl.trainer.MarlCore.update.s.layer1": ("s", "lower"),
    "marl.trainer.MarlCore.update.s.layer2": ("s", "lower"),
    "marl.trainer.MarlCore.state_dict.s": ("s", "lower"),
    "marl.trainer.MarlCore.load_state_dict.s": ("s", "lower"),
    "dlpc.layer2_allocate.s": ("s", "lower"),
    "dlpc.DoubleLayerTrainer.train_episode.self_s": ("s", "lower"),
    "harness.run.evaluate_greedy.s": ("s", "lower"),
    "harness.run.evaluate_greedy.episodes": ("count", "lower"),
    "harness.run.evaluate_greedy.distinct_episodes": ("count", "higher"),
    "harness.run.evaluate_greedy.se_calls": ("count", "lower"),
    "harness.run.run_experiment.self_s": ("s", "lower"),
    "harness.cli.cmd_eval.self_s": ("s", "lower"),
}


def _rows(args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs["x"]
    shape = getattr(x, "shape", None)
    return shape[0] if shape is not None and len(shape) == 2 else 1


def _episode_digest(args, kwargs, result):
    h = hashlib.sha256()
    for r in result["rewards"]:
        h.update(r.tobytes())
    h.update(repr(result["sum_se"]).encode())
    return h.hexdigest()[:16]


# work counted per call, keyed by the defining module and qualified name
ATTR_HOOKS = {
    "marl.nets.Mlp.forward": _rows,
    "channel.sample_ssf_batch": lambda a, k, r: a[1] if len(a) > 1 else k["n"],
    "se.se_monte_carlo": lambda a, k, r: k.get("n_draws", a[4] if len(a) > 4 else 10_000),
    "marl.replay.fill_extraction_pool": lambda a, k, r: len(r),
    "marl.trainer.Trainer.greedy_episode": _episode_digest,
    "marl.trainer.Trainer.train_episode": lambda a, k, r: len(r["sum_se"]),
}

# span-name suffix per instance for classes that serve several layers
NAME_SUFFIX = {"MarlCore": lambda self: f".layer{self.layer}"}


def _short(module_name: str) -> str:
    return module_name[len("xlmimo."):] if module_name.startswith("xlmimo.") else module_name


def _public_members(mod):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n, v in vars(mod).items()
                 if getattr(v, "__module__", None) == mod.__name__]
    for n in names:
        if not n.startswith("_") and hasattr(mod, n):
            yield n, getattr(mod, n)


class Tracer:
    """Wraps the public API of the traced modules and records spans."""

    def __init__(self):
        self.spans: list = []
        self.run_id = ""
        self.wrapped: set = set()  # defining names of every wrapped target
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)

    # -- installation ----------------------------------------------------------
    def install(self):
        for modname in TRACED_MODULES:
            mod = importlib.import_module(modname)
            short = _short(modname)
            for name, obj in _public_members(mod):
                if inspect.isclass(obj) and obj.__module__ == modname:
                    for attr, fn in list(vars(obj).items()):
                        if attr.startswith("_") or not inspect.isfunction(fn):
                            continue
                        key = f"{short}.{obj.__name__}.{attr}"
                        self._patch(obj, attr, self._wrap_method(fn, obj, attr, key))
                elif inspect.isfunction(obj) and obj.__module__ == modname:
                    key = f"{short}.{name}"
                    wrapper = self._wrap(obj, key)
                    for other in list(sys.modules.values()):
                        if getattr(other, "__name__", "").startswith("xlmimo"):
                            for ref, value in list(vars(other).items()):
                                if value is obj:
                                    self._patch(other, ref, wrapper)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _record(self, fn, name, hook, args, kwargs):
        spans, stack = self.spans, self._stack
        rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.run_id, None]
        stack.append(len(spans))
        spans.append(rec)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            stack.pop()
        if hook is not None:
            rec[5] = hook(args, kwargs, result)
        return result

    def _wrap(self, fn, key):
        self.wrapped.add(key)
        hook = ATTR_HOOKS.get(key)
        record = self._record

        def wrapper(*args, **kwargs):
            return record(fn, key, hook, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_method(self, fn, owner, attr, key):
        self.wrapped.add(key)
        hook = ATTR_HOOKS.get(key)
        record = self._record
        names: dict = {}

        def wrapper(self_, *args, **kwargs):
            cls = type(self_)
            base = names.get(cls)
            if base is None:
                named = cls if getattr(cls, attr) is wrapper else owner
                base = names[cls] = f"{_short(named.__module__)}.{named.__name__}.{attr}"
            suffix = NAME_SUFFIX.get(owner.__name__)
            name = base + suffix(self_) if suffix else base
            return record(fn, name, hook, (self_,) + args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output ------------------------------------------------------------------
    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(spans, wrapped) -> dict:
    """Per-layer metrics of a run's spans.

    ``.s`` is the summed duration of a name's spans, ``.self_s`` the summed
    duration minus the time covered by child spans, ``.calls`` the span
    count.  A metric whose wrapped target no longer exists in the program
    is left out.
    """
    n = len(spans)
    child = [0.0] * n
    eval_anc = [-1] * n  # nearest enclosing evaluate_greedy span
    for i, (name, t0, t1, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += t1 - t0
            eval_anc[i] = parent if spans[parent][0] == "harness.run.evaluate_greedy" else eval_anc[parent]

    total: dict = {}
    self_t: dict = {}
    calls: dict = {}
    attr_sum: dict = {}
    digests: dict = {}
    eval_episodes = eval_se = 0
    for i, (name, t0, t1, _, _, attr) in enumerate(spans):
        dur = t1 - t0
        total[name] = total.get(name, 0.0) + dur
        self_t[name] = self_t.get(name, 0.0) + dur - child[i]
        calls[name] = calls.get(name, 0) + 1
        if isinstance(attr, (int, float)):
            attr_sum[name] = attr_sum.get(name, 0) + attr
        if eval_anc[i] >= 0:
            if name.endswith(".greedy_episode"):
                eval_episodes += 1
                digests.setdefault(eval_anc[i], set()).add(attr)
            elif name == "se.se_closed_form_mr":
                eval_se += 1

    def tot(name):
        return total.get(name, 0.0)

    se_calls = calls.get("se.se_closed_form_mr", 0)
    se_s = tot("se.se_closed_form_mr")
    mc_s = tot("se.se_monte_carlo")
    values = {
        "channel.make_channel_stats.s": tot("channel.make_channel_stats"),
        "channel.lsf_matrix.calls": calls.get("channel.lsf_matrix", 0),
        "channel.lsf_matrix.s": tot("channel.lsf_matrix"),
        "channel.sample_ssf_batch.draws": attr_sum.get("channel.sample_ssf_batch", 0),
        "channel.sample_ssf_batch.s": tot("channel.sample_ssf_batch"),
        "se.se_closed_form_mr.calls": se_calls,
        "se.se_closed_form_mr.s": se_s,
        "se.se_closed_form_mr.ms_per_call": 1000.0 * se_s / se_calls if se_calls else 0.0,
        "se.se_monte_carlo.s": mc_s,
        "se.se_monte_carlo.draws_per_s": attr_sum.get("se.se_monte_carlo", 0) / mc_s if mc_s else 0.0,
        "env.CellFreeEnv.step.self_s": self_t.get("env.CellFreeEnv.step", 0.0),
        "env.CellFreeEnv.stats_grid.s": tot("env.CellFreeEnv.stats_grid"),
        "env.CellFreeEnv.observe_layer2.calls": calls.get("env.CellFreeEnv.observe_layer2", 0),
        "env.CellFreeEnv.observe_layer2.s": tot("env.CellFreeEnv.observe_layer2"),
        "marl.nets.Mlp.forward.calls": calls.get("marl.nets.Mlp.forward", 0),
        "marl.nets.Mlp.forward.rows": attr_sum.get("marl.nets.Mlp.forward", 0),
        "marl.nets.Mlp.forward.s": tot("marl.nets.Mlp.forward"),
        "marl.nets.Mlp.backward.calls": calls.get("marl.nets.Mlp.backward", 0),
        "marl.nets.Mlp.backward.s": tot("marl.nets.Mlp.backward"),
        "marl.replay.ReplayBuffer.refresh_priorities.calls":
            calls.get("marl.replay.ReplayBuffer.refresh_priorities", 0),
        "marl.replay.ReplayBuffer.refresh_priorities.s":
            tot("marl.replay.ReplayBuffer.refresh_priorities"),
        "marl.replay.fill_extraction_pool.calls": calls.get("marl.replay.fill_extraction_pool", 0),
        "marl.replay.fill_extraction_pool.records":
            attr_sum.get("marl.replay.fill_extraction_pool", 0),
        "marl.replay.fill_extraction_pool.s": tot("marl.replay.fill_extraction_pool"),
        "marl.trainer.MarlCore.state_dict.s":
            tot("marl.trainer.MarlCore.state_dict.layer1")
            + tot("marl.trainer.MarlCore.state_dict.layer2"),
        "marl.trainer.MarlCore.load_state_dict.s":
            tot("marl.trainer.MarlCore.load_state_dict.layer1")
            + tot("marl.trainer.MarlCore.load_state_dict.layer2"),
        "dlpc.layer2_allocate.s": tot("dlpc.layer2_allocate"),
        "dlpc.DoubleLayerTrainer.train_episode.self_s":
            self_t.get("dlpc.DoubleLayerTrainer.train_episode", 0.0),
        "harness.run.evaluate_greedy.s": tot("harness.run.evaluate_greedy"),
        "harness.run.evaluate_greedy.episodes": eval_episodes,
        "harness.run.evaluate_greedy.distinct_episodes": sum(len(d) for d in digests.values()),
        "harness.run.evaluate_greedy.se_calls": eval_se,
        "harness.run.run_experiment.self_s": self_t.get("harness.run.run_experiment", 0.0),
        "harness.cli.cmd_eval.self_s": self_t.get("harness.cli.cmd_eval", 0.0),
    }
    for method in ("act", "record", "refresh_and_fill", "update"):
        for layer in (1, 2):
            values[f"marl.trainer.MarlCore.{method}.s.layer{layer}"] = tot(
                f"marl.trainer.MarlCore.{method}.layer{layer}"
            )
    return {k: v for k, v in values.items() if _target(k) in wrapped}


# the wrapped target each metric reads (its defining module and qualified name)
_TARGETS = {
    "harness.run.evaluate_greedy.episodes": "marl.trainer.Trainer.greedy_episode",
    "harness.run.evaluate_greedy.distinct_episodes": "marl.trainer.Trainer.greedy_episode",
    "harness.run.evaluate_greedy.se_calls": "se.se_closed_form_mr",
    "dlpc.DoubleLayerTrainer.train_episode.self_s": "marl.trainer.Trainer.train_episode",
}


def _target(metric: str) -> str:
    if metric in _TARGETS:
        return _TARGETS[metric]
    parts = metric.split(".")
    while parts[-1] in ("s", "self_s", "calls", "rows", "draws", "records", "ms_per_call",
                        "draws_per_s", "layer1", "layer2"):
        parts.pop()
    return ".".join(parts)
