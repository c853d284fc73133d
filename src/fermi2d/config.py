"""Scale parameters and plain-text run configuration.

Config files are flat ``key = value`` text with optional ``[section]``
blocks.  Keys outside any section configure the scale parameters and the
dispersion model; the one section, ``[scenario]``, holds the jump-sweep
options.  Any other key or section is an error, so a typo is not silently
ignored.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

MODEL_KEY = "model"


@dataclass(frozen=True)
class ScaleParams:
    """Multiscale bookkeeping constants.

    M is the scale ratio (shells shrink like M^-j), aleph the sector-length
    exponent (sector length l_j = M^(-aleph j)), lambda0/upsilon the coupling
    scales entering the norm budgets.  r0/r are the tracked derivative orders
    (temporal/spatial) of the majorant series; alpha and bconst are the
    aggregation weights of the scale norms (defaults are non-canonical, see
    README).
    """

    M: float = 2.0
    aleph: float = 0.6
    aleph_prime: float = 0.62
    j0: int = 2
    jmax: int = 8
    lambda0: float = 1e-3
    upsilon: float = 0.2
    r0: int = 2
    r: int = 2
    alpha: float = 2.0
    bconst: float = 1.0

    def __post_init__(self):
        if not self.M > 1.0:
            raise ValueError("scale ratio M must exceed 1")
        if not (0.5 < self.aleph < self.aleph_prime < 2.0 / 3.0):
            raise ValueError("need 1/2 < aleph < alephPrime < 2/3")
        if not self.j0 >= 2:
            raise ValueError("first scale j0 must be >= 2")
        if not self.jmax >= self.j0:
            raise ValueError("Jmax must be >= j0")
        if not 0.0 < self.lambda0 < math.inf:
            raise ValueError("lambda0 must be positive and finite")
        if not (0.0 < self.upsilon < 0.25):
            raise ValueError("upsilon must lie in (0, 1/4)")
        if self.r0 < 0 or self.r < 0:
            raise ValueError("truncation orders must be nonnegative")

    def sector_length(self, j: int) -> float:
        """l_j = M^(-aleph j)."""
        return self.M ** (-self.aleph * j)

    def shell_hi(self, j: int) -> float:
        """Outer radius of the j-th shell in |i k0 - e(k)|."""
        return math.sqrt(2.0 * self.M) / self.M ** j


def parse_config_text(text: str) -> tuple[dict, dict[str, dict]]:
    """Parse flat key=value text with [section] blocks.

    Returns (top-level dict, {section name: dict}).  Values are kept as
    strings; callers coerce.  Comments start with '#'.
    """
    top: dict = {}
    sections: dict[str, dict] = {}
    current = top
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise ValueError(f"line {lineno}: empty section name")
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = line.split("=", 1)
        current[key.strip()] = val.strip()
    return top, sections


# config key -> (ScaleParams field, type)
PARAM_KEYS = {
    "M": ("M", float),
    "aleph": ("aleph", float),
    "alephPrime": ("aleph_prime", float),
    "j0": ("j0", int),
    "Jmax": ("jmax", int),
    "lambda0": ("lambda0", float),
    "upsilon": ("upsilon", float),
    "alpha": ("alpha", float),
    "bconst": ("bconst", float),
    "r0": ("r0", int),
    "r": ("r", int),
}
SCENARIO = "scenario"
SCENARIO_KEYS = ("npoints", "lambda", "gprofile", "tol", "kind")
SCENARIO_KIND = "jump-sweep"


def params_from_mapping(mapping: dict) -> ScaleParams:
    """Build ScaleParams from string-valued config keys."""
    return ScaleParams(**{field: typ(mapping[key])
                          for key, (field, typ) in PARAM_KEYS.items()
                          if key in mapping})


def load_config(path) -> tuple[ScaleParams, str, dict[str, dict]]:
    """Load a config file.

    Returns (params, model name, sections).  The model name defaults to
    "quadratic"; anisotropy may be configured as ``model = quadratic:0.8``.
    A key or section the run does not read is a ValueError naming it: the
    top level takes PARAM_KEYS and ``model``, the one section is
    ``[scenario]`` with SCENARIO_KEYS, and its ``kind``, if given, is
    ``jump-sweep``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        top, sections = parse_config_text(fh.read())
    for key in top:
        if key not in PARAM_KEYS and key != MODEL_KEY:
            raise ValueError(f"unknown config key {key!r}")
    for name, keys in sections.items():
        if name != SCENARIO:
            raise ValueError(f"unknown config section [{name}]")
        for key in keys:
            if key not in SCENARIO_KEYS:
                raise ValueError(f"unknown [{SCENARIO}] key {key!r}")
    kind = sections.get(SCENARIO, {}).get("kind", SCENARIO_KIND)
    if kind != SCENARIO_KIND:
        raise ValueError(f"[{SCENARIO}] kind must be {SCENARIO_KIND!r}, "
                         f"got {kind!r}")
    params = params_from_mapping(top)
    model = top.get(MODEL_KEY, "quadratic")
    return params, model, sections
