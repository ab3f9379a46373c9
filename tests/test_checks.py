"""The numeric input policy of `advqls._checks` at every constructor and
entry point that takes numbers.

The first property feeds one field at a time a value of the wrong kind, a
non-finite one or a NumPy scalar, with every other field at its default.
Construction either succeeds, storing plain Python values that a JSON
manifest can hold (every real field a `float`), or raises a ValueError
whose message starts with the field's name or quotes it as `field=`.
The second property does the same for the arguments of the module-level
functions and the `Circuit` builders: a call either returns a valid
result or raises a ValueError whose message starts with the argument's
name.
"""

import dataclasses
import inspect
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from advqls import _checks, cli, problem, resources, sim, spsa, vqls


def _forecast(**kwargs):
    return resources.ForecastConfig(**{"horizontal_resolution_deg": 5.0, "tau": 3, **kwargs})


def _run_config(**kwargs):
    return cli.RunConfig.from_dict(kwargs)


TARGETS = {
    "ProblemSpec": (problem.ProblemSpec, problem.ProblemSpec),
    "SpsaConfig": (spsa.SpsaConfig, spsa.SpsaConfig),
    "ForecastConfig": (_forecast, resources.ForecastConfig),
    "AnsatzConfig": (vqls.AnsatzConfig, vqls.AnsatzConfig),
    "RunConfig.from_dict": (_run_config, cli.RunConfig),
}
CASES = [
    (target, field.name)
    for target, (_, cls) in TARGETS.items()
    for field in dataclasses.fields(cls)
]

VALUES = st.sampled_from([
    True, False, "3", "", None, [], [3], {},
    3.0, 2.5, -1, 0, 10**400,                       # floats for integers, bounds, overflow
    float("nan"), float("inf"), float("-inf"),
    np.int64(3), np.uint8(0), np.float64(0.5), np.float32(2.0),
    np.float64("nan"), np.float32("inf"), np.bool_(True), np.str_("3"),
])


def _plain(built) -> dict:
    return built.to_dict() if isinstance(built, cli.RunConfig) else dataclasses.asdict(built)


def _reals(built):
    """(name, value) of each set float-annotated field of `built` and of
    the dataclasses it holds."""
    for f in dataclasses.fields(built):
        value = getattr(built, f.name)
        if dataclasses.is_dataclass(value):
            yield from _reals(value)
        elif f.type in ("float", "float | None") and value is not None:
            yield f.name, value


@settings(max_examples=500, deadline=None)
@given(case=st.sampled_from(CASES), value=VALUES)
# the unchecked entry points this policy closed
@example(case=("AnsatzConfig", "num_qubits"), value=3.0)
@example(case=("ForecastConfig", "vertical_levels"), value=1.5)
@example(case=("ForecastConfig", "tau"), value=True)
@example(case=("RunConfig.from_dict", "spsa_overrides"), value=None)
@example(case=("RunConfig.from_dict", "spsa_overrides"), value=[["max_iter", 5]])
@example(case=("ProblemSpec", "n"), value=10**400)
@example(case=("ProblemSpec", "nu"), value=10**400)
# an integer real, which is stored as a float
@example(case=("ProblemSpec", "dt"), value=np.int64(3))
def test_construction_succeeds_or_names_the_field(case, value):
    target, field = case
    build = TARGETS[target][0]
    try:
        built = build(**{field: value})
    except ValueError as exc:
        message = str(exc)
        assert message.startswith(f"{field} ") or f"{field}=" in message, message
    else:
        json.dumps(_plain(built), allow_nan=False)
        for name, stored in _reals(built):
            assert type(stored) is float, (name, stored)


STATE = sim.Circuit(2).run()    # |00>: every readout of "ZI" is exactly 1


def _circuit(num_qubits=2):
    return sim.Circuit(num_qubits)


def _h(q=0):
    return sim.Circuit(2).h(q)


def _ry(angle=0.5, q=0):
    return sim.Circuit(2).ry(angle, q)


def _cz(control=0, target=1):
    return sim.Circuit(2).cz(control, target)


def _cry(angle=0.5, control=0, target=1):
    return sim.Circuit(2).cry(angle, control, target)


def _expectation(amplitudes=STATE, label="ZI"):
    return sim.expectation(amplitudes, label)


def _sample_expectation(amplitudes=STATE, label="ZI", shots=16, seed=0):
    return sim.sample_expectation(amplitudes, label, shots, seed)


def _analytic_solution(t=1.0):
    return problem.analytic_solution(problem.ProblemSpec(), t)


def _qubit_count(dimension=8):
    return resources.qubit_count(dimension)


def _vector_dimension(n=2, tau=3, n_t=1):
    return resources.vector_dimension(n, tau, n_t)


def _unit_state(circuit):
    assert type(circuit.num_qubits) is int
    if circuit.num_qubits <= 3:     # a register small enough to run
        assert np.linalg.norm(circuit.run()) == pytest.approx(1.0)


def _reads_one(value):
    assert value == 1.0


def _finite(values):
    assert np.isfinite(values).all()


def _plain_int(value):
    assert type(value) is int


# each entry point with valid defaults, and the check of what it returns
CALLS = {
    "Circuit": (_circuit, _unit_state),
    "Circuit.h": (_h, _unit_state),
    "Circuit.ry": (_ry, _unit_state),
    "Circuit.cz": (_cz, _unit_state),
    "Circuit.cry": (_cry, _unit_state),
    "expectation": (_expectation, _reads_one),
    "sample_expectation": (_sample_expectation, _reads_one),
    "analytic_solution": (_analytic_solution, _finite),
    "qubit_count": (_qubit_count, _plain_int),
    "vector_dimension": (_vector_dimension, _plain_int),
}
CALL_CASES = [
    (target, argument)
    for target, (call, _) in CALLS.items()
    for argument in inspect.signature(call).parameters
]


@settings(max_examples=500, deadline=None)
@given(case=st.sampled_from(CALL_CASES), value=VALUES)
# the unchecked arguments this policy closed
@example(case=("sample_expectation", "shots"), value=2.5)
@example(case=("sample_expectation", "seed"), value=-1)
@example(case=("sample_expectation", "seed"), value=None)
@example(case=("sample_expectation", "amplitudes"), value=np.zeros(4))
@example(case=("sample_expectation", "amplitudes"), value=np.array([np.nan, 1.0, 0.0, 0.0]))
@example(case=("Circuit.ry", "angle"), value=float("nan"))
@example(case=("Circuit.h", "q"), value=0.5)
@example(case=("expectation", "amplitudes"), value=np.ones(1))
@example(case=("vector_dimension", "n"), value=2.0)
@example(case=("qubit_count", "dimension"), value=True)
@example(case=("analytic_solution", "t"), value=float("nan"))
def test_call_returns_or_names_the_argument(case, value):
    target, argument = case
    call, check = CALLS[target]
    try:
        result = call(**{argument: value})
    except ValueError as exc:
        message = str(exc)
        assert message.startswith(f"{argument} ") or (
            argument in ("control", "target") and message.startswith("control and target ")
        ), message
    else:
        assert not isinstance(value, (bool, np.bool_)), "a bool was taken for a number"
        check(result)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"ensemble_size": True}, "ensemble_size"),
        ({"ensemble_size": 2.0}, "ensemble_size"),
        ({"base_seed": -1}, "base_seed"),
        ({"base_seed": 0.5}, "base_seed"),
        ({"shots": np.float64(8192)}, "shots"),
        ({"workers": True}, "workers"),
    ],
)
@pytest.mark.usefixtures("cold_memo")
def test_run_ensemble_names_its_argument_before_any_work(monkeypatch, kwargs, name):
    def no_work(*args, **kw):
        raise AssertionError("run_ensemble built a system before checking its arguments")

    monkeypatch.setattr(problem, "build_block_system", no_work)
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        vqls.run_ensemble(problem.ProblemSpec(), **kwargs)


@pytest.mark.parametrize(
    "args, name",
    [((3.0, 7), "num_qubits"), ((3, True), "n_terms"), ((0, 7), "num_qubits")],
)
def test_circuit_count_names_its_argument(args, name):
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        vqls.circuit_count(*args, "full_sym")


def test_numpy_scalars_are_stored_as_python_numbers():
    # what RunConfig accepts it can write to its manifest, and a record
    # run with NumPy seeds and shots serializes like the Python-int run
    cfg = cli.RunConfig.from_dict({
        "problem": {"n": np.int64(4), "nu": np.float64(0.05)},
        "ensemble_size": np.int64(2),
        "shots": np.uint16(512),
        "spsa_overrides": {"max_iter": np.int32(3), "a": np.float32(4.0)},
    })
    manifest = json.loads(json.dumps(cfg.to_dict()))
    assert manifest["ensemble_size"] == 2 and manifest["shots"] == 512
    assert manifest["spsa_overrides"] == {"max_iter": 3, "a": 4.0}
    assert type(cfg.problem.n) is int and type(cfg.spsa_overrides["max_iter"]) is int
    run = spsa.SpsaConfig(max_iter=np.int64(3), stop_rule="none")
    python, numpy = (
        vqls.solve(problem.ProblemSpec(), spsa_cfg=run, shots=shots, seed=seed)
        for shots, seed in ((512, 1), (np.int64(512), np.int64(1)))
    )
    assert json.dumps(numpy.to_dict()) == json.dumps(python.to_dict())


@pytest.mark.parametrize(
    "check, args, message",
    [
        (_checks.integer, ("k", 5, 1, 4), "k must be an integer in [1, 4], got 5"),
        (_checks.integer, ("k", np.bool_(True)), "k must be an integer, got "),
        (_checks.real, ("x", -0.5, 0), "x must be a finite real number >= 0, got -0.5"),
        (_checks.real, ("x", 0.0, None, True), "x must be positive, got 0.0"),
        (_checks.real, ("x", 10**400), "x must be a finite real number, got 1000"),
    ],
)
def test_messages(check, args, message):
    with pytest.raises(ValueError) as info:
        check(*args)
    assert str(info.value).startswith(message)
