"""Reach: every public function of fermi2d has a driver or a named reason.

The GOLDEN commands of test_golden.py, with the make_family.py runs that
write their inputs, run in process under sys.setprofile, which records
the code object of every function entered.  A public function or method
(no part of its name starts with "_") that no run enters must appear in
KEPT with the reason it stays: the acceptance criterion that calls it,
the fast path it is the tested reference for, the perfbench name that
needs it (one of the SPANS pairs of perfbench/tracer.py), or the ROADMAP
item that will give it a driver.  A KEPT entry that names no function, or
one that the runs enter, fails too, so the list stays the exact set of
kept references per module.
"""
import ast
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import fermi2d
from test_golden import GOLDEN, inputs, run  # noqa: F401  (inputs: fixture)

CRIT = "acceptance criterion {}"
SPANS = "a perfbench/tracer.py SPANS name"
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
ITEM = "ROADMAP item {}"

# qualified name (module.function or module.Class.method) -> reason
KEPT = {
    # blocks: the dense form, through which criterion 4 reaches the dense
    # directed operations
    "blocks.BlockKernel.dense": CRIT.format(4) + ", through compound_ladder; "
                                "reference: the dense kernel every blocked "
                                "operation is tested against",
    "blocks.BlockKernel.from_dense": CRIT.format(4),
    # kernels: the dense algebra
    "kernels.Kernel4.max_abs": CRIT.format(3),
    "kernels.KernelSpace.iota": CRIT.format(3),
    "kernels.KernelSpace.primed": CRIT.format(3),
    "kernels.MomentumGrid.values": CRIT.format(3),
    "kernels.antisymmetrize": CRIT.format(3) + " and 4",
    "kernels.component_mask": CRIT.format(3),
    "kernels.conservation_mask": CRIT.format(3),
    "kernels.extract_component": CRIT.format(3),
    "kernels.flip": CRIT.format(3),
    "kernels.is_inversion_symmetric": "reference for "
                                      "BlockKernel.is_inversion_symmetric",
    "kernels.number_conserving_mask": CRIT.format(3),
    "kernels.pi_collapse": CRIT.format(5),
    "kernels.random_kernel": CRIT.format(3),
    "kernels.reduce_ph": CRIT.format(3) + " and 4",
    "kernels.reduce_pp": CRIT.format(3),
    "kernels.s_kappa": CRIT.format(3),
    "kernels.sct_prime": CRIT.format(5),
    "kernels.sector_norm_p": SPANS,
    "kernels.shear": CRIT.format(5),
    "kernels.shear_prime": CRIT.format(3),
    "kernels.value_ph": CRIT.format(3) + " and 4",
    "kernels.value_pp": CRIT.format(3),
    "kernels.zero_kernel": "reference: BlockKernel.dense builds on it",
    # ladders
    "ladders.compose": CRIT.format(4) + ", through the directed ph chain of "
                       "compound_ladder; reference for _chain_steps",
    "ladders.compound_ladder": CRIT.format(4),
    "ladders.iterated_ladder": SPANS,
    "ladders.ladder_closed_form": CRIT.format(4),
    # occupation: the scalar pieces of the five-piece split
    "occupation.i1_quad": CRIT.format(2),
    "occupation.i2_quad": "reference for occupation_limits in "
                          "test_occupation_limits_match_the_five_pieces",
    "occupation.i3_closed": CRIT.format(2),
    "occupation.i3_cutoff_extrapolated": CRIT.format(2),
    "occupation.i3_cutoff_quad": CRIT.format(2),
    "occupation.i4_quad": "reference for occupation_limits in "
                          "test_occupation_limits_match_the_five_pieces",
    "occupation.jump_at": SPANS,
    "occupation.occupation_limit": SPANS,
    # scales
    "scales.ScaleInterval.le": ITEM.format(3) + ", through nu_le",
    "scales.ScaleModel.nu": CRIT.format(9),
    "scales.ScaleModel.nu_ge": CRIT.format(9),
    "scales.ScaleModel.nu_gt": CRIT.format(9),
    "scales.ScaleModel.nu_le": ITEM.format(3),
    # selfenergy
    "selfenergy.BudgetReport.max_ratio_per_pair": CRIT.format(7),
    "selfenergy.BudgetReport.worst_ratio": CRIT.format(7),
    "selfenergy.amputation_A1": ITEM.format(3),
    "selfenergy.amputation_A2": ITEM.format(3),
    "selfenergy.check_resum_bounds": ITEM.format(3),
    "selfenergy.green2": ITEM.format(3),
    "selfenergy.grid_sup_derivatives": "the check_q_budget path for a member "
                                       "that is not a ProductQ, which the "
                                       "support and reality tests use",
    "selfenergy.p_tail_decay": ITEM.format(3),
    "selfenergy.proper_sigma": CRIT.format(6),
    "selfenergy.q_tail_decay": CRIT.format(7),
    "selfenergy.sigma_k0_derivative": CRIT.format(6),
    "selfenergy.sup_derivatives": "reference: the dense oracle of "
                                  "dense_budget_oracle",
}


def _function(attr):
    """The plain function behind a class attribute (staticmethod,
    classmethod, property or cached_property), or None."""
    for name in ("__func__", "fget", "func"):
        attr = getattr(attr, name, attr)
    return attr if inspect.isfunction(attr) else None


def public_functions():
    """{code object: qualified name} of every public function and method
    defined in a fermi2d module."""
    found = {}
    for info in pkgutil.iter_modules(fermi2d.__path__):
        module = importlib.import_module(f"fermi2d.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__ \
                    or name.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__qualname__ == name:
                found[obj.__code__] = f"{info.name}.{name}"
            elif inspect.isclass(obj):
                for attr_name, attr in vars(obj).items():
                    fn = _function(attr)
                    if fn is not None and not attr_name.startswith("_"):
                        found[fn.__code__] = f"{info.name}.{name}.{attr_name}"
    return found


@pytest.fixture(scope="module")
def reach(request):
    """(public names, names entered by the golden runs)."""
    public = public_functions()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        root, paths = request.getfixturevalue("inputs")
        for command in sorted(GOLDEN):
            run(command, root, paths)
    finally:
        sys.setprofile(None)
    return set(public.values()), {public[c] for c in entered if c in public}


def test_every_public_function_is_reached_or_kept(reach):
    public, entered = reach
    assert sorted(public - entered - set(KEPT)) == []


def test_kept_names_exist(reach):
    public, _ = reach
    assert sorted(set(KEPT) - public) == []


def test_kept_names_are_not_reached(reach):
    _, entered = reach
    assert sorted(set(KEPT) & entered) == []


def tracer_spans():
    """The span names (module.qualname, as KEPT writes them) of the SPANS
    pairs of perfbench/tracer.py, read with ast, not imported."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS"
                for t in node.targets):
            return {f"{module.rsplit('.', 1)[-1]}.{qual}"
                    for module, qual in ast.literal_eval(node.value)}
    raise AssertionError(f"{TRACER} assigns no SPANS")


def test_spans_reasons_name_a_traced_span():
    # a KEPT entry kept for a perfbench span must name a pair that the
    # tracer's SPANS lists
    claimed = {name for name, why in KEPT.items() if SPANS in why}
    assert claimed
    assert sorted(claimed - tracer_spans()) == []
