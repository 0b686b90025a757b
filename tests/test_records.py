"""The engine's records are namedtuples: immutable values that hash and
print as the frozen dataclasses they replaced did, and whose import pulls
in none of dataclasses, inspect or typing."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

from quotcoh import bott, indices, quot, series

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def _records() -> list:
    """One instance of every record type."""
    ctx = bott.GrassmannianContext(4, 2)
    bundle = bott.HomogeneousBundle(ctx, (1, 0), (0, 0))
    vanishing = indices.verify_wedge_vanishing(6, 2, (2, 1, 1), 1)
    data = quot.embedding_data(2, None, 1, 0, 1)
    sheaf = quot.wedge_power(1)
    cohomology = quot.quot_cohomology(data, sheaf)
    return [
        ctx, bundle, bott.bwb(bundle),
        indices.n_index((8, 7, 4, 3, 3, 1), 2), vanishing,
        vanishing.summands[0], indices.lemma_triples(6, 2, (2, 1, 1))[0],
        data, sheaf, quot.resolution_terms(data, sheaf, 1),
        cohomology.per_term[0][1], cohomology,
        quot.verify_theorem(data, "A", (1,)),
        quot.verify_resolution_propositions(data, sheaf),
        quot.check_conjecture(quot.embedding_data(2, None, 2, 1, 3), "wedge",
                              (2,), (3,)),
        series.compare("wedge", 2, 2, 2),
    ]


def test_every_record_type_is_covered():
    defined = {value for mod in (bott, indices, quot, series)
               for value in vars(mod).values()
               if isinstance(value, type) and issubclass(value, tuple)
               and value.__module__ == mod.__name__}
    assert len(defined) == 16
    assert {type(rec) for rec in _records()} == defined


@pytest.mark.parametrize("rec", _records(), ids=lambda r: type(r).__name__)
def test_records_are_frozen_values(rec):
    for field in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field))
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert not hasattr(rec, "__dict__")
    assert rec == tuple(rec)
    assert copy.copy(rec) == pickle.loads(pickle.dumps(rec)) == rec
    try:
        expected = hash(tuple(rec))
    except TypeError:
        # SeriesComparison holds its tables as lists
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == expected


def test_reprs_read_as_before():
    # the literals the dataclass records printed
    assert repr(quot.embedding_data(3, (2, 0, 1), 2, 1, 3)) == (
        "EmbeddingData(N=3, splitting=(2, 1, 0), n=2, r=1, m=3, d1=12, "
        "d2=15, q1=5, q2=6, rank_e=84)")
    assert repr(quot.TautologicalSheaf("dual", [1, 2], ["G2", "G1"])) == (
        "TautologicalSheaf(functor='dual', ks=(1, 2), sides=('G2', 'G1'))")
    ctx = bott.GrassmannianContext(4, 2)
    assert repr(bott.bwb(bott.HomogeneousBundle(ctx, (0, 0), (3, 0)))) == (
        "BWBResult(vanishes=False, degree=2, gl_weight=(1, 1, 1, 0), "
        "dimension=4)")
    assert repr(bott.bwb(bott.HomogeneousBundle(ctx, (0, 0), (1, 0)))) == (
        "BWBResult(vanishes=True, degree=None, gl_weight=None, "
        "dimension=None)")


def test_validated_records_build_through_their_checks():
    # keywords reach __new__, which normalizes and derives fields
    data = quot.EmbeddingData(N=2, splitting=[0, 1], n=1, r=0, m=1)
    assert (data.splitting, data.d1, data.q2, data.rank_e) == \
        ((1, 0), 3, 1, 4)
    sheaf = quot.TautologicalSheaf(functor="sym", ks=["2"], sides=["G1"])
    assert sheaf == ("sym", (2,), ("G1",))
    bundle = bott.HomogeneousBundle(bott.GrassmannianContext(3, 1), [2],
                                    [0, 0])
    assert bundle.quot == (2,) and bundle.sub == (0, 0)
    with pytest.raises(ValueError, match="need 0 <= n <= d, got d=1, n=2"):
        bott.GrassmannianContext(d=1, n=2)


def test_import_loads_no_dataclasses_inspect_or_typing():
    # a site-less interpreter preloads nothing, so what is loaded after the
    # import is what the package and its imports asked for
    code = ("import sys, quotcoh.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} "
            "& set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         env={**os.environ, "PYTHONPATH": SRC},
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
