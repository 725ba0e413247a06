"""Value semantics of the package's immutable classes: equality within the
class only, hash of the field tuple, the field-list repr, no assignment or
deletion, no ordering, and a pickle and deepcopy round trip.

The checks need nothing outside the standard library, so the module also
runs as a script on interpreters without pytest:

    PYTHONPATH=src python tests/test_value_semantics.py
"""

import copy
import hashlib
import pickle

from a4csl.a4 import CslResult, csl_of
from a4csl.golden import GoldenFactorization, GoldenInt, GoldenRat, gi_factor
from a4csl.icosian import ExtensionPair, Icosian
from a4csl.lattice import ExactLattice
from a4csl.oracle import SectionReport, VerificationReport
from a4csl.quaternion import Quat, RotationMatrix

# the admissible icosian whose csl and ssl output CI pins
_Q = Icosian.from_zcoords((1, 0, 1, 0, 0, 0, 1, 0))

#: the field names of each class, in declaration order
FIELDS = {
    GoldenInt: ("a", "b"),
    GoldenRat: ("num", "den"),
    GoldenFactorization: ("unit", "factors"),
    Quat: ("a", "b", "c", "d"),
    RotationMatrix: ("entries",),
    Icosian: ("z",),
    ExtensionPair: ("extended", "twisted", "alpha", "sigma"),
    ExactLattice: ("ambient_dim", "basis", "den"),
    CslResult: ("source", "extension", "rotation", "lattice", "sigma"),
    SectionReport: ("name", "ok", "details", "elapsed"),
    VerificationReport: ("sections",),
}

#: the two report classes hold a dict, so they stay unhashable
UNHASHABLE = (SectionReport, VerificationReport)

#: sha256 of each sample's repr, as the dataclass-generated reprs wrote it
REPR_SHA256 = {
    "GoldenInt": "1f3324b78ea75023555f897b11ca0d81f8f2a1b8d296836546fe36c2ea2d5e9d",
    "GoldenRat": "e52e0e971b1a56432a3f2a7082877677d84478b2c221166be005d7bdd5ec3ac0",
    "GoldenFactorization": "cf987c19e1a31a7da5c7b43a835c1872972d0de6c6c72e0e1ac15375a9ee8b8b",
    "Quat": "3f840bef57b47b368dc76c1d094a43da810d25fb1c57ebd4b40deced49673c69",
    "RotationMatrix": "4a7582bca80367dbc1f403e821448fd592f7891494dbb37e7310e54d6a4e346f",
    "Icosian": "56e005138438d9ac333c1732e26c048258f5b984b831966be7066227273e204c",
    "ExtensionPair": "d8ffe98220997a1e859f4bc760bb762126e815bbbf313911f0f4109a70861ee2",
    "ExactLattice": "342ef5a45557a3a02f95e91d0a9216facabd1ac9c9e530395e8eae4da9dd5945",
    "CslResult": "02858db3ea7c7234f2a7bab063cf12bb1522a6b2da778e5a9261a8c38a665e76",
    "SectionReport": "8867ccb664a82dff873114414d7d3562214ee006c4924f39c61a5379b4b1378d",
    "VerificationReport": "3b342bfec20e72dc160ae2158eab488edcdee59330b579eed655a713ce640096",
}


def samples() -> dict:
    """One instance of each class, built through the public API."""
    section = SectionReport("ssl-counts", True, {"rows": [{"m": 1}]}, 0.25)
    result = csl_of(_Q)
    return {
        GoldenInt: GoldenInt(1, 0),
        GoldenRat: GoldenRat.make(GoldenInt(3, -1), 4),
        GoldenFactorization: gi_factor(GoldenInt(12, 2)),
        Quat: _Q.quat,
        RotationMatrix: result.rotation,
        Icosian: _Q,
        ExtensionPair: result.extension,
        ExactLattice: result.lattice,
        CslResult: result,
        SectionReport: section,
        VerificationReport: VerificationReport((section,)),
    }


def field_tuple(obj) -> tuple:
    return tuple(getattr(obj, f) for f in FIELDS[type(obj)])


def _raises(exc: type, fn, *args) -> bool:
    try:
        fn(*args)
    except exc:
        return True
    return False


def test_equality_holds_only_within_the_class():
    assert GoldenInt(1, 0) != (1, 0)
    assert GoldenInt(1, 0) != 1
    assert GoldenInt(1, 0) == GoldenInt(1, 0)
    for cls, obj in samples().items():
        fields = field_tuple(obj)
        twin = cls.__new__(cls)
        for name, value in zip(FIELDS[cls], fields):
            object.__setattr__(twin, name, value)
        assert twin == obj and not twin != obj, cls.__name__
        assert obj != fields and obj != list(fields), cls.__name__
        if len(fields) == 1:
            assert obj != fields[0], cls.__name__
        assert obj.__eq__(fields) is NotImplemented, cls.__name__


def test_hash_is_the_hash_of_the_field_tuple():
    for cls, obj in samples().items():
        if cls in UNHASHABLE:
            assert _raises(TypeError, hash, obj), cls.__name__
        else:
            assert hash(obj) == hash(field_tuple(obj)), cls.__name__


def test_repr_lists_the_fields():
    for cls, obj in samples().items():
        if cls in (GoldenInt, GoldenRat):
            continue  # their own short forms, pinned below
        args = ", ".join(f"{f}={getattr(obj, f)!r}" for f in FIELDS[cls])
        assert repr(obj) == f"{cls.__qualname__}({args})", cls.__name__
    assert repr(GoldenInt(1, -2)) == "GoldenInt(1, -2)"
    assert repr(GoldenRat.make(GoldenInt(3, -1), 4)) == "GoldenRat(GoldenInt(3, -1), 4)"


def test_repr_bytes_are_pinned():
    got = {cls.__name__: hashlib.sha256(repr(obj).encode()).hexdigest()
           for cls, obj in samples().items()}
    assert got == REPR_SHA256


def test_fields_cannot_be_assigned_or_deleted():
    for cls, obj in samples().items():
        first = FIELDS[cls][0]
        assert _raises(AttributeError, setattr, obj, first, None), cls.__name__
        assert _raises(AttributeError, delattr, obj, first), cls.__name__
        # the dataclass-generated __setattr__ of a slotted class raised
        # TypeError for a name that is not a field
        assert _raises((AttributeError, TypeError), setattr, obj, "extra", 1), cls.__name__
        assert getattr(obj, first) is not None, cls.__name__


def test_no_ordering():
    for cls, obj in samples().items():
        assert _raises(TypeError, lambda: obj < obj), cls.__name__
        assert _raises(TypeError, lambda: obj >= obj), cls.__name__


def test_pickle_round_trip():
    for cls, obj in samples().items():
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(obj, protocol))
            assert type(back) is cls and back == obj, (cls.__name__, protocol)
            assert field_tuple(back) == field_tuple(obj), (cls.__name__, protocol)


def test_copy_and_deepcopy_round_trip():
    for cls, obj in samples().items():
        for clone in (copy.copy(obj), copy.deepcopy(obj)):
            assert type(clone) is cls and clone == obj, cls.__name__
            assert field_tuple(clone) == field_tuple(obj), cls.__name__


if __name__ == "__main__":
    checks = [fn for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for check in checks:
        check()
        print(f"ok  {check.__name__}")
