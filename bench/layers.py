"""Module -> layer map, and cProfile self time aggregated by layer.

A layer is a set of ``repro`` modules. A rule ending in ``.*`` names a
package and every module below it; any other rule names one module (a
package's ``__init__`` is named by the package). Every module under
``src/repro`` matches exactly one rule (``test_bench.py`` checks this),
so a layer's numbers never count a module twice.

Code outside ``repro`` (builtins, the standard library, generated
``dataclass`` methods, the benchmark's own wrappers) has no layer of its
own. Its self time is charged to the layers of its direct callers, in
proportion to cProfile's per-caller self times; a caller that is itself
outside ``repro`` passes the charge on to its own callers, in proportion
to their cumulative times. Its calls are split the same way by call
counts, so ``<layer>.calls`` repeats exactly for a deterministic run.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

LAYERS: Dict[str, Tuple[str, ...]] = {
    "engine": ("repro.engine.*",),
    "sim.executor": ("repro.sim.executor", "repro.sim.ops"),
    "sim": (
        "repro.sim",
        "repro.sim.machine",
        "repro.sim.stats",
        "repro.sim.oracle",
        "repro.sim.trace",
    ),
    "core": ("repro.core.*",),
    "mem.hierarchy": (
        "repro.mem",
        "repro.mem.hierarchy",
        "repro.mem.cache",
        "repro.mem.tagstore",
    ),
    "mem.wpq": ("repro.mem.wpq", "repro.mem.controller", "repro.mem.timing"),
    "mem.image": ("repro.mem.image",),
    "persist": ("repro.persist.*",),
    "workloads": ("repro.workloads.*",),
    "runtime": ("repro.runtime.*",),
    "recovery": ("repro.recovery.*",),
    "harness": ("repro.harness.*",),
    "common": ("repro.common.*",),
    "other": ("repro", "repro.analysis.*", "repro.area.*", "repro.explore.*"),
}

OTHER = "other"

#: cProfile function label: (filename, first line, name)
Func = Tuple[str, int, str]


def _matches(module: str, rule: str) -> bool:
    if rule.endswith(".*"):
        package = rule[:-2]
        return module == package or module.startswith(package + ".")
    return module == rule


def layers_of_module(module: str) -> List[str]:
    """Every layer with a rule matching ``module`` (exactly one when the
    map is complete)."""
    return [
        layer
        for layer, rules in LAYERS.items()
        if any(_matches(module, rule) for rule in rules)
    ]


def module_of_file(path: str, src_dir: str) -> Optional[str]:
    """``src/repro/sim/ops.py`` -> ``repro.sim.ops``; None outside ``repro``."""
    rel = os.path.relpath(os.path.abspath(path), src_dir)
    if not rel.endswith(".py") or rel.split(os.sep)[0] != "repro":
        return None
    parts = rel[: -len(".py")].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def layer_profile(stats: dict, src_dir: str) -> Dict[str, Dict[str, float]]:
    """Aggregate a ``cProfile.Profile().stats`` mapping by layer.

    Returns ``{layer: {"self_s": seconds, "calls": count}}`` for every
    layer in :data:`LAYERS`. ``stats`` maps each function to
    ``(primitive calls, calls, self time, cumulative time, callers)``,
    and ``callers`` maps each caller to ``(calls, primitive calls, self
    time, cumulative time)`` of the calls it made.
    """
    file_layers: Dict[str, Optional[str]] = {}

    def own_layer(func: Func) -> Optional[str]:
        filename = func[0]
        if filename not in file_layers:
            module = module_of_file(filename, src_dir)
            if module is None:
                file_layers[filename] = None
            else:
                matched = layers_of_module(module)
                file_layers[filename] = matched[0] if matched else OTHER
        return file_layers[filename]

    # metric -> (entry of a caller's tuple that splits a function's own
    # amount among its callers, entry that splits a caller's onward charge)
    split = {"self_s": (2, 3), "calls": (0, 0)}
    shares: Dict[Tuple[Func, str], Dict[str, float]] = {}

    def share_of(func: Func, metric: str, visiting: frozenset) -> Dict[str, float]:
        """How a charge made to ``func`` splits across layers."""
        layer = own_layer(func)
        if layer is not None:
            return {layer: 1.0}
        if (func, metric) in shares:
            return shares[func, metric]
        callers = stats[func][4] if func in stats else {}
        if func in visiting or not callers:
            return {OTHER: 1.0}
        weights = {caller: t[split[metric][1]] for caller, t in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {caller: t[0] for caller, t in callers.items()}
            total = sum(weights.values())
        out: Dict[str, float] = {}
        for caller, weight in weights.items():
            for layer, part in share_of(caller, metric, visiting | {func}).items():
                out[layer] = out.get(layer, 0.0) + part * weight / total
        shares[func, metric] = out
        return out

    totals = {layer: {metric: 0.0 for metric in split} for layer in LAYERS}
    for func, (_cc, calls, self_s, _ct, callers) in stats.items():
        own = {"self_s": self_s, "calls": calls}
        layer = own_layer(func) or (None if callers else OTHER)
        for metric, (entry, _onward) in split.items():
            if layer is not None:
                totals[layer][metric] += own[metric]
                continue
            for caller, t in callers.items():
                for to, part in share_of(caller, metric, frozenset({func})).items():
                    totals[to][metric] += part * t[entry]
    return totals
