"""The package's exported names: each resolves, none repeats, and the
removed ones stay removed."""

import pytest

import kraussphere
from kraussphere import cli, geometry, linalg, sampling, transforms


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
        (geometry.KrausSet, "stack"),
        (geometry.KrausFrame, "to_dict"),
        (geometry.KrausFrame, "from_dict"),
        (geometry.KrausFrame, "vector_dim"),
        (sampling, "states_to_lists"),
        (sampling, "states_from_lists"),
        (sampling, "haar_unitary"),
        (transforms, "generator_pairings"),
        (transforms.GeneratorBasis, "__getitem__"),
    ],
)
def test_removed_names_stay_gone(module, name):
    assert not hasattr(module, name)
