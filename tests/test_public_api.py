"""The package's exported names: each resolves, none repeats, the
removed ones stay removed, the sizes that arrays fix are not
arguments, and the sweeps take the basis first."""

import inspect

import pytest

import kraussphere
from kraussphere import cli, geometry, linalg, optimizer, sampling, transforms


@pytest.mark.parametrize("name", kraussphere.__all__)
def test_exported_name_resolves(name):
    assert hasattr(kraussphere, name)


def test_no_duplicate_exports():
    assert len(kraussphere.__all__) == len(set(kraussphere.__all__))


@pytest.mark.parametrize(
    "module,name",
    [
        (kraussphere, "hermitian_eig"),
        (kraussphere, "psd_sqrt"),
        (linalg, "hermitian_eig"),
        (linalg, "psd_sqrt"),
        (linalg, "clamp_fidelity"),
        (linalg, "qubit_dets"),
        (linalg.UhlmannFidelity, "qubit"),
        (cli, "load_states"),
        (cli.ExperimentConfig, "format_version"),
        (geometry.KrausSet, "stack"),
        (geometry.KrausFrame, "to_dict"),
        (geometry.KrausFrame, "from_dict"),
        (geometry.KrausFrame, "vector_dim"),
        (sampling, "states_to_lists"),
        (sampling, "states_from_lists"),
        (sampling, "haar_unitary"),
        (transforms, "generator_pairings"),
        (transforms.GeneratorBasis, "__getitem__"),
        (transforms, "ReversePlan"),
        (optimizer, "pairing_offsets"),
        (optimizer, "reverse_plan"),
        (transforms, "pairing_offsets"),
        (optimizer.TrainingRecord, "to_dict"),
        (cli, "RETIRED_OPTIMIZER_FIELDS"),
        (cli, "_section"),
        (cli, "_field_value"),
        (geometry, "_float_overflow"),
    ],
)
def test_removed_names_stay_gone(module, name):
    assert not hasattr(module, name)


@pytest.mark.parametrize(
    "function,parameters",
    [
        (geometry.KrausSet, ["operators"]),
        (geometry.KrausFrame, ["vectors"]),
        (optimizer.LossContext.__init__, ["self", "corrupted", "originals", "m"]),
        (transforms.apply_angles, ["angles", "frame"]),
    ],
)
def test_sizes_come_from_the_arrays(function, parameters):
    assert list(inspect.signature(function).parameters) == parameters


@pytest.mark.parametrize(
    "function,parameters",
    [
        (transforms.forward_sweep, ["basis", "angles", "rows"]),
        (transforms.reverse_sweep, ["basis", "swept", "stack"]),
        (transforms.reverse_plan, ["basis", "nonzero", "live"]),
    ],
)
def test_the_sweeps_take_the_basis_first(function, parameters):
    assert list(inspect.signature(function).parameters) == parameters
