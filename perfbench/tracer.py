"""Per-layer spans and counters for one traced child process.

The tracer wraps public functions of the fermi2d layers from the outside:
nothing inside ``src/`` changes.  Each wrapper is installed on every loaded
namespace that holds the function (``ladders`` from-imports
``antisymmetrize``, ``cli`` from-imports ``random_kernel``), and methods are
patched on their class.  Spans are kept in memory as
``[name, start, end, parent]`` and written out once, when the child ends;
the benchmark parent turns them into calls, total and self time.

This module imports only the standard library at import time, so the
benchmark parent can read the span table without loading numpy.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time

# (module, attribute or Class.method) pairs timed as spans.  The metric
# prefix is the module name without the package, e.g. ``ladders.compose``.
SPANS = (
    ("fermi2d.occupation", "fermi_sweep"),
    ("fermi2d.occupation", "jump_at"),
    ("fermi2d.occupation", "occupation_limit"),
    ("fermi2d.ladders", "delta_ladder_telescope"),
    ("fermi2d.ladders", "iterated_ladder"),
    ("fermi2d.ladders", "compound_ladder"),
    ("fermi2d.ladders", "compose"),
    ("fermi2d.ladders", "build_scheme"),
    ("fermi2d.ladders", "LadderScheme.resectorize"),
    ("fermi2d.ladders", "LadderScheme.scale_bubble"),
    ("fermi2d.kernels", "antisymmetrize"),
    ("fermi2d.kernels", "reduce_ph"),
    ("fermi2d.kernels", "value_ph"),
    ("fermi2d.kernels", "reduce_pp"),
    ("fermi2d.kernels", "value_pp"),
    ("fermi2d.kernels", "random_kernel"),
    ("fermi2d.kernels", "shear_prime"),
    ("fermi2d.kernels", "extract_component"),
    ("fermi2d.kernels", "sector_norm_p"),
    ("fermi2d.scales", "ScaleModel.covariance"),
    ("fermi2d.sectors", "build_fermi_curve"),
    ("fermi2d.sectors", "build_sectorization"),
    ("fermi2d.sectors", "hat_weights"),
    ("fermi2d.selfenergy", "check_q_budget"),
    ("fermi2d.selfenergy", "family_from_text"),
    ("fermi2d.selfenergy", "resum_P"),
    ("fermi2d.selfenergy", "resum_Q"),
    ("fermi2d.hoelder", "verify_family"),
    ("fermi2d.hoelder", "empirical_exponent"),
    ("fermi2d.cli", "emit"),
)

# Counted, not timed: (module, attribute, counter name).
COUNTED = (
    ("scipy.integrate", "quad", "occupation.quad.calls"),
    ("numpy", "gradient", "selfenergy.gradient.calls"),
)

# The self-energy model whose S and dS/dk0 evaluations are counted.
MODEL_FACTORY = ("fermi2d.occupation", "linear_self_energy")


def span_name(module: str, qual: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{qual}"


def resolve(module: str, qual: str):
    """Return (owner, attribute, object) for ``module`` and ``qual``.

    Raises ImportError or AttributeError when the name is gone, so an API
    rename fails the traced run instead of reporting zero calls.
    """
    owner = importlib.import_module(module)
    *outer, attr = qual.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def _array_digest(*arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(repr((a.shape, a.dtype.str)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


class Tracer:
    """Span recorder for one process; install() once, dump() at exit."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.stack = []      # indices of open spans
        self.counters = {}
        self.keys = {}       # counter name -> set of distinct inputs

    # -- recording --------------------------------------------------------

    def count(self, name: str, n: int = 1):
        self.counters[name] = self.counters.get(name, 0) + n

    def distinct(self, name: str, key):
        self.keys.setdefault(name, set()).add(key)

    def wrap_span(self, name: str, fn, before=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()

        return wrapper

    def wrap_count(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- per-layer input hooks ----------------------------------------------

    def _occupation_point(self, args, kwargs):
        kx = kwargs["kx"] if "kx" in kwargs else args[2]
        ky = kwargs["ky"] if "ky" in kwargs else args[3]
        self.distinct("occupation.occupation_limit", (float(kx), float(ky)))

    def _compose_inputs(self, args, kwargs):
        left, bub, rung = args[:3]
        self.distinct("ladders.compose",
                      _array_digest(left, bub.line_a, bub.line_b, rung))
        # Pairwise contraction order of ladders.compose: two three-operand
        # einsums of n^2 m^3 multiply-adds per step, then n^4 m^2; a complex
        # multiply-add is 8 real flops.  Computed from shapes, not measured.
        n, m = left.shape[0], bub.line_a.shape[0]
        self.count("ladders.compose.flops", 8 * (4 * n * n * m ** 3 + n ** 4 * m * m))

    def _budget_members(self, args, kwargs):
        family = kwargs["family"] if "family" in kwargs else args[0]
        self.count("selfenergy.check_q_budget.members", len(family.q))

    def _counted_model(self, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            model = factory(*args, **kwargs)
            model.S = self.wrap_count("occupation.S.evals", model.S)
            model.dS_dk0 = self.wrap_count("occupation.S.evals", model.dS_dk0)
            return model

        return make

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every name in SPANS, COUNTED and MODEL_FACTORY, importing
        each module; call it before the op imports or calls anything."""
        hooks = {"occupation.occupation_limit": self._occupation_point,
                 "ladders.compose": self._compose_inputs,
                 "selfenergy.check_q_budget": self._budget_members}
        replacements = []
        for module, qual in SPANS:
            owner, attr, orig = resolve(module, qual)
            name = span_name(module, qual)
            replacements.append((owner, attr, orig,
                                 self.wrap_span(name, orig, hooks.get(name))))
        for module, qual, name in COUNTED:
            owner, attr, orig = resolve(module, qual)
            replacements.append((owner, attr, orig, self.wrap_count(name, orig)))
        owner, attr, orig = resolve(*MODEL_FACTORY)
        replacements.append((owner, attr, orig, self._counted_model(orig)))

        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "fermi2d" or n.startswith("fermi2d.")]
        for owner, attr, orig, new in replacements:
            setattr(owner, attr, new)
            if isinstance(owner, type):
                continue
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        setattr(ns, key, new)

    def dump(self, path: str):
        payload = {"spans": self.spans, "counters": self.counters,
                   "distinct": {k: len(v) for k, v in self.keys.items()}}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
