"""Outside-in tracing of the eight ``cubeforge`` modules.

`Tracer.install` wraps every public function of each module and every
public method of each class the module defines, and rebinds each wrapped
function in every ``cubeforge.*`` namespace that imported it (so
``invert.psi`` and ``core.psi`` both report).  Nothing in the program
changes; `Tracer.uninstall` restores every original object.

A wrapper records one span per call.  A span's self time is its
duration minus the durations of the spans it directly contains, so the
self times of all spans add up to the time spent inside top-level
spans; the rest of the traced wall time is the benchmark's own.

Only ``run.py --trace 1`` imports this module.
"""

from __future__ import annotations

import inspect
import sys
import time
import weakref
from collections import defaultdict

LAYERS = ("indices", "perms", "core", "adc", "nerve", "invert", "transfor", "cli")
# methods whose statistics are also kept by the dimension of their first cell
BY_DIM = {("nerve", "NcModel.face"), ("nerve", "NcModel.deg"),
          ("nerve", "NcModel.conn"), ("nerve", "NcModel.comp")}
MARK = "_perfbench_wrapper"


class Stat:
    __slots__ = ("calls", "self_s", "incl_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[tuple, Stat] = defaultdict(Stat)
        self.top_s = 0.0  # time inside top-level spans
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[float] = []  # per open span: time of its child spans
        self._undo: list[tuple] = []
        self._solver_keys = weakref.WeakKeyDictionary()

    def reset(self) -> None:
        self.stats.clear()
        self.counters.clear()
        self.top_s = 0.0
        self._solver_keys = weakref.WeakKeyDictionary()

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        originals: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"cubeforge.{layer}"]
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    originals[id(obj)] = self._wrap(obj, layer, name)
                elif inspect.isclass(obj):
                    for mname, meth in list(vars(obj).items()):
                        if inspect.isfunction(meth) and not mname.startswith("_"):
                            wrapper = self._wrap(meth, layer, f"{name}.{mname}")
                            self._undo.append((obj, mname, meth))
                            setattr(obj, mname, wrapper)
        for modname, mod in list(sys.modules.items()):
            if modname != "cubeforge" and not modname.startswith("cubeforge."):
                continue
            for name, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _wrap(self, fn, layer: str, name: str):
        stats, stack, clock = self.stats, self._stack, time.perf_counter
        key = (layer, name)
        by_dim = key in BY_DIM
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                for k in ((key, (layer, name, args[1].dim)) if by_dim else (key,)):
                    st = stats[k]
                    st.calls += 1
                    st.self_s += dur - child
                    st.incl_s += dur
                if stack:
                    stack[-1] += dur
                else:
                    self.top_s += dur
            if hook is not None:
                hook(args, out)
            return out

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, MARK, fn)
        return wrapper

    # -- counters recorded at the layer boundary -----------------------------

    def _solver_query(self, solver, key, k: int, bound: int) -> None:
        self.counters["solver.queries"] += 1
        seen = self._solver_keys.setdefault(solver, set())
        if key in seen:
            return
        seen.add(key)
        self.counters["solver.misses"] += 1
        K = solver.K
        if k <= K.top:
            points = 1
            for flag in K.cone[k]:
                points *= bound + 1 if flag else 2 * bound + 1
            self.counters["solver.box_points"] += points

    def _after__ChainSolver_chains_with_boundary(self, args, out) -> None:
        solver, k, rhs, bound = args[:4]
        self._solver_query(solver, (k, rhs, bound), k, bound)

    def _after__ChainSolver_vertex_chains(self, args, out) -> None:
        solver, bound = args[:2]
        aug = args[2] if len(args) > 2 else 1
        self._solver_query(solver, ("aug", aug, bound), 0, bound)

    def _after__NerveBase_sample_cells(self, args, out) -> None:
        self.counters["sample.draws"] += len(out)
        self.counters["sample.distinct"] += len({c.payload for c in out})

    def _after_check_axioms(self, args, out) -> None:
        self.counters["check_axioms.instances"] += sum(out.checked.values())


def installed_wrappers() -> list[str]:
    """Names of wrappers still reachable from the ``cubeforge`` modules."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if modname != "cubeforge" and not modname.startswith("cubeforge."):
            continue
        for name, obj in vars(mod).items():
            if hasattr(obj, MARK):
                found.append(f"{modname}.{name}")
            elif inspect.isclass(obj) and obj.__module__ == modname:
                found.extend(f"{modname}.{name}.{m}" for m, v in vars(obj).items()
                             if hasattr(v, MARK))
    return found


def _mean_us(st: Stat) -> float:
    return st.self_s / st.calls * 1e6 if st.calls else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced pass, as name -> (value, unit)."""
    stats, ctr = tracer.stats, tracer.counters
    get = lambda layer, name, *dim: stats.get((layer, name, *dim), Stat())  # noqa: E731
    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        own = [st for key, st in stats.items() if key[0] == layer and len(key) == 2]
        self_s = sum(st.self_s for st in own)
        m[f"{layer}.self_s"] = (self_s, "s")
        m[f"{layer}.calls"] = (sum(st.calls for st in own), "count")
        m[f"{layer}.share"] = (self_s / wall_s, "ratio")
    for op in ("face", "deg", "conn", "comp"):
        st = get("nerve", f"NcModel.{op}")
        m[f"nerve.{op}.us"] = (_mean_us(st), "us")
        m[f"nerve.{op}.calls"] = (st.calls, "count")
        for d in range(5):
            m[f"nerve.{op}.d{d}.us"] = (_mean_us(get("nerve", f"NcModel.{op}", d)), "us")
    for op in ("r_inverse", "t_inverse"):
        m[f"nerve.{op}.us"] = (_mean_us(get("nerve", f"NcModel.{op}")), "us")
    m["nerve.cells.s"] = (get("nerve", "_NerveBase.cells").incl_s, "s")
    m["nerve.sample_cells.s"] = (get("nerve", "_NerveBase.sample_cells").incl_s, "s")
    draws = ctr["sample.draws"]
    m["nerve.sample.distinct_ratio"] = (ctr["sample.distinct"] / draws if draws else 0.0, "ratio")
    queries = ctr["solver.queries"]
    solver_s = (get("nerve", "_ChainSolver.chains_with_boundary").incl_s
                + get("nerve", "_ChainSolver.vertex_chains").incl_s)
    m["nerve.solver.queries"] = (queries, "count")
    m["nerve.solver.miss_ratio"] = (ctr["solver.misses"] / queries if queries else 0.0, "ratio")
    m["nerve.solver.s"] = (solver_s, "s")
    m["nerve.solver.box_points"] = (ctr["solver.box_points"], "count")
    m["nerve.solver.points_per_s"] = (
        ctr["solver.box_points"] / solver_s if solver_s else 0.0, "1/s")
    m["adc.mat_vec.calls"] = (get("adc", "mat_vec").calls, "count")
    m["adc.d.us"] = (_mean_us(get("adc", "Adc.d")), "us")
    m["adc.in_cone.calls"] = (get("adc", "Adc.in_cone").calls, "count")
    m["adc.smith_normal_form.calls"] = (get("adc", "smith_normal_form").calls, "count")
    m["adc.smith_normal_form.s"] = (get("adc", "smith_normal_form").incl_s, "s")
    m["core.check_axioms.self_s"] = (get("core", "check_axioms").self_s, "s")
    m["core.check_axioms.instances"] = (ctr["check_axioms.instances"], "count")
    m["core.check_composable.calls"] = (get("core", "CubModel.check_composable").calls, "count")
    m["core.psi.us"] = (_mean_us(get("core", "psi")), "us")
    m["core.grid2.calls"] = (get("core", "grid2").calls, "count")
    for name in ("t_inverse", "verify_t_inverse", "sigma_act", "is_plain_invertible"):
        m[f"invert.{name}.us"] = (_mean_us(get("invert", name)), "us")
    m["invert.classify_omega_p.s"] = (get("invert", "classify_omega_p").incl_s, "s")
    m["perms.min_rep.us"] = (_mean_us(get("perms", "min_rep")), "us")
    for name in ("to_oplax", "validate_transfor", "is_pseudo"):
        m[f"transfor.{name}.us"] = (_mean_us(get("transfor", name)), "us")
    m["cli.build_parser.us"] = (_mean_us(get("cli", "build_parser")), "us")
    m["cli.main.self_us"] = (_mean_us(get("cli", "main")), "us")
    for cmd in ("check", "classify", "invert", "fold", "perm", "transfor"):
        st = get("cli", f"cmd_{cmd}")
        m[f"cli.{cmd}.ms"] = (st.incl_s / st.calls * 1e3 if st.calls else 0.0, "ms")
    m["bench.self_s"] = (wall_s - tracer.top_s, "s")
    return m
