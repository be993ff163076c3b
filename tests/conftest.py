from __future__ import annotations

from pathlib import Path

import pytest

from refsys.fincat import FinFunction, FinSet
from refsys.kernel import derivations_equal, identity_derivation
from refsys.signature import Signature, load_signature
from refsys.subset_model import SubsetSystem, build_subset_system, subset

DATA = Path(__file__).resolve().parent.parent / "src" / "refsys" / "data"


def data_file(name: str) -> str:
    return str(DATA / name)


@pytest.fixture(scope="session")
def squaring() -> Signature:
    return load_signature(data_file("squaring.json"))


@pytest.fixture(scope="session")
def z4() -> Signature:
    return load_signature(data_file("z4.json"))


@pytest.fixture(scope="session")
def hoare4() -> Signature:
    return load_signature(data_file("hoare4.json"))


@pytest.fixture(scope="session")
def classifier_sig() -> Signature:
    return load_signature(data_file("classifier.json"))


@pytest.fixture(scope="session")
def trivial2() -> Signature:
    return load_signature(data_file("trivial2.json"))


@pytest.fixture(scope="session")
def day_z2() -> Signature:
    return load_signature(data_file("day_z2.json"))


@pytest.fixture(scope="session")
def day_z3() -> Signature:
    return load_signature(data_file("day_z3.json"))


@pytest.fixture(scope="session")
def arrow_sig() -> Signature:
    return load_signature(data_file("presheaf_arrow.json"))


@pytest.fixture(scope="session")
def small_sys():
    a = FinSet("A", ("a1", "a2"))
    b = FinSet("B", (1, 2, 3))
    return build_subset_system((a, b), name="small")


def build_classifier_system(sizes=(1, 2, 3), name: str = "classifier"):
    """Carriers of the given sizes plus a two-point answer set Omega.

    Returns (system, truth, encodings) where truth = {1} <= Omega and
    encodings maps every subset S of every registered carrier to its
    characteristic function chi_S, the unique expression whose inverse image
    of truth is S.
    """
    omega = FinSet("Omega", (0, 1))
    carriers = [omega]
    for k in sizes:
        carriers.append(FinSet(f"A{k}", tuple(f"a{i}" for i in range(1, k + 1))))
    sys = SubsetSystem(name, tuple(carriers))
    truth = subset(omega, {1})
    encodings = {}
    for s in sys.e_types():
        encodings[s] = FinFunction(
            f"chi_{s.name}", s.of, omega,
            {x: 1 if x in s else 0 for x in s.of.elements},
        )
    return sys, truth, encodings


def is_identity_on(sys, d, s) -> bool:
    """Whether d derives s <= s and equals the identity derivation on s."""
    return (d.subject == s and d.target == s
            and derivations_equal(sys, d, identity_derivation(sys, s)))
