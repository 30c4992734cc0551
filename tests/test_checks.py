"""One rule for every numeric parameter of a public constructor or set-up entry.

A value is a Python or numpy int or float but never a bool, is finite,
lies in its interval and is an integer where it counts something; any
other value raises a ``ValueError`` that opens with the argument's name.
"""

import inspect
import math

import numpy as np
import pytest

import proxrestart
from proxrestart import (
    CsrMatrix,
    Dataset,
    ElasticNet,
    FixedRestart,
    FunctionValueRestart,
    GradientMappingRestart,
    L1,
    LogisticObjective,
    NonMonotoneRestart,
    QuadraticObjective,
    SolverConfig,
    SquaredL2,
    Zero,
    check_invariants,
    generate_synthetic,
    parse_libsvm,
    run,
)

_A = CsrMatrix.from_dense(np.eye(2))
_THEORY_TRACE = run(QuadraticObjective(_A, np.ones(2)), Zero(),
                    SolverConfig(max_iters=4, stepsize_mode="theory", scheme=FixedRestart(2)),
                    np.zeros(2))

# (entry, argument) -> (call with the argument set to v, a value outside its interval,
# a value inside it)
ARGUMENTS = {
    ("SolverConfig", "max_iters"): (lambda v: SolverConfig(max_iters=v), -1, 3),
    ("SolverConfig", "lambda_factor"):
        (lambda v: SolverConfig(max_iters=3, lambda_factor=v), 1.5, 1),
    ("SolverConfig", "beta"):
        (lambda v: SolverConfig(max_iters=3, stepsize_mode="custom", beta=v), 0.0, 2),
    ("SolverConfig", "tolerance"): (lambda v: SolverConfig(max_iters=3, tolerance=v), -1e-3, 0),
    ("FixedRestart", "q"): (lambda v: FixedRestart(v), 0, 3),
    ("FunctionValueRestart", "rho"): (lambda v: FunctionValueRestart(rho=v), 0.0, 1),
    ("FunctionValueRestart", "min_period"): (lambda v: FunctionValueRestart(min_period=v), 0, 3),
    ("GradientMappingRestart", "tau"): (lambda v: GradientMappingRestart(tau=v), 0.5, -1),
    ("GradientMappingRestart", "min_period"):
        (lambda v: GradientMappingRestart(min_period=v), 0, 3),
    ("NonMonotoneRestart", "tau"): (lambda v: NonMonotoneRestart(tau=v), -1.5, 0),
    ("NonMonotoneRestart", "min_period"): (lambda v: NonMonotoneRestart(min_period=v), 0, 3),
    ("L1", "mu"): (lambda v: L1(v), -0.1, 1),
    ("SquaredL2", "mu"): (lambda v: SquaredL2(v), -0.1, 1),
    ("ElasticNet", "mu1"): (lambda v: ElasticNet(v, 0.1), -0.1, 1),
    ("ElasticNet", "mu2"): (lambda v: ElasticNet(0.1, v), -0.1, 1),
    ("LogisticObjective", "alpha"):
        (lambda v: LogisticObjective(_A, np.ones(2), alpha=v), -0.1, 2),
    ("generate_synthetic", "n"): (lambda v: generate_synthetic("logistic_sep", v, 3, 0), 0, 10),
    ("generate_synthetic", "d"): (lambda v: generate_synthetic("logistic_sep", 10, v, 0), 0, 3),
    ("generate_synthetic", "seed"):
        (lambda v: generate_synthetic("logistic_sep", 10, 3, v), -1, 5),
    ("parse_libsvm", "expected_dim"): (lambda v: parse_libsvm(["1 1:1"], expected_dim=v), -1, 3),
    ("check_invariants", "lipschitz"): (lambda v: check_invariants(_THEORY_TRACE, v), 0.0, 1),
}
INTEGER_ARGUMENTS = {"max_iters", "q", "min_period", "n", "d", "seed", "expected_dim"}

# public numbers the rule does not cover: per-call inputs on the iteration path, records
# the solver fills in and a loader that forwards to parse_libsvm
NOT_CHECKED = {
    ("gradient_mapping", "eta"), ("momentum_coefficient", "k"),
    ("momentum_coefficient", "checkpoint"), ("apg_restart_step", "beta"),
    ("load_libsvm", "expected_dim"),
    *(("RestartObservation", f) for f in ("k", "since_restart", "F_curr", "F_prev")),
    *(("SolverState", f) for f in ("F", "k", "checkpoint")),
    *(("StepRecord", f) for f in ("F", "grad_map_norm", "step_norm", "lam", "beta",
                                  "alpha_next", "checkpoint_subdiff")),
}


def _numeric_parameters():
    """``(public name, parameter)`` for every parameter annotated as an int or a float."""
    found = set()
    for name in proxrestart.__all__:
        obj = getattr(proxrestart, name)
        try:
            parameters = inspect.signature(obj).parameters.values()
        except (TypeError, ValueError):
            continue
        found.update((name, p.name) for p in parameters  # a NamedTuple's are ForwardRefs
                     if str(getattr(p.annotation, "__forward_arg__", p.annotation))
                     .split(" | ")[0] in ("int", "float"))
    return found


def test_every_public_number_is_checked_or_named_exempt():
    # a numeric field added later must join ARGUMENTS (or, off the set-up path, NOT_CHECKED)
    assert _numeric_parameters() == set(ARGUMENTS) | NOT_CHECKED


@pytest.mark.parametrize("bad", ["true", "str", "nan", "inf", "out_of_range"])
@pytest.mark.parametrize("key", ARGUMENTS, ids=".".join)
def test_bad_number_names_its_argument(key, bad):
    make, outside, _ = ARGUMENTS[key]
    value = {"true": True, "str": "x", "nan": math.nan, "inf": math.inf,
             "out_of_range": outside}[bad]
    with pytest.raises(ValueError, match=f"^{key[1]} must be "):
        make(value)


def _kept(result):
    """What a result keeps of its arguments, to compare across argument types."""
    if isinstance(result, LogisticObjective):
        return result.alpha
    if isinstance(result, Dataset):
        return result.name, result.n_cols, result.features.to_dense().tobytes()
    return result


@pytest.mark.parametrize("key", ARGUMENTS, ids=".".join)
def test_python_and_numpy_numbers_are_taken(key):
    make, _, inside = ARGUMENTS[key]
    kinds = [np.int64, np.int32] if key[1] in INTEGER_ARGUMENTS else [float, np.int64, np.float64]
    expected = _kept(make(inside))
    for kind in kinds:
        assert _kept(make(kind(inside))) == expected, kind


def test_an_int_past_the_float_range_is_refused():
    with pytest.raises(ValueError, match="^mu must be a nonnegative finite number, got 1000"):
        L1(10**400)
