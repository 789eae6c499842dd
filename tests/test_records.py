"""The library's immutable records: GfpParams, CrtParams, WordPrime and the
result types LhcTriple, SignedCoefficient and CompatReport."""

import copy
import pickle

import pytest

from gfpfft.gfp_field import MAX_K, GfpParams
from gfpfft.gfp_mult import (
    CrtParams, check_prime_compat, crt_combine, crt_default, lhc_decompose,
)
from gfpfft.word_field import P1, P2, P3, word_prime

R8 = (1 << 59) + (1 << 16)

RECORDS = {
    "GfpParams": lambda: GfpParams(R8, 8),
    "CrtParams": lambda: CrtParams.make(P1, P2, P3),
    "WordPrime": lambda: word_prime(P1),
    "LhcTriple": lambda: lhc_decompose(3 * R8 * R8 + 5 * R8 + 7, R8),
    "SignedCoefficient": lambda: crt_combine(P1 - 1, P2 - 1, crt_default()),
    "CompatReport": lambda: check_prime_compat(GfpParams(1 << 62, 8), crt_default()),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_attributes_cannot_be_assigned(name):
    record = RECORDS[name]()
    for field in record._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
    assert record == RECORDS[name]()


@pytest.mark.parametrize("name", RECORDS)
def test_equal_records_compare_and_hash_equal(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("name", RECORDS)
def test_records_survive_copy_and_pickle(name):
    record = RECORDS[name]()
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record


def test_gfp_params_copies_recompute_p():
    # a copy or a pickle carries (r, k) alone and runs GfpParams(r, k)
    params = GfpParams(2 ** 63, MAX_K)
    assert len(pickle.dumps(params)) < 100
    for twin in (copy.copy(params), pickle.loads(pickle.dumps(params))):
        assert twin.p == 2 ** (63 * MAX_K) + 1
    assert pickle.loads(pickle.dumps(GfpParams(3, 4))).p == 82


def test_gfp_params_replace_recomputes_p():
    # _replace goes through _make, which runs GfpParams(r, k) again
    params = GfpParams(3, 4)._replace(k=8)
    assert params == GfpParams(3, 8) and params.p == 3 ** 8 + 1
    assert GfpParams._make((3, 4, 0)).p == 82
    with pytest.raises(ValueError):
        GfpParams(3, 4)._replace(k=3)


def test_gfp_params_repr_omits_p():
    # str(p) at k = MAX_K passes the int-to-str digit limit and raises
    text = repr(GfpParams(2 ** 63, MAX_K))
    assert text == "GfpParams(r=9223372036854775808, k=65536)"
    assert repr(GfpParams(3, 4)) == "GfpParams(r=3, k=4)"


def test_gfp_params_keeps_its_call():
    params = GfpParams(r=3, k=4)
    assert (params.r, params.k, params.p) == (3, 4, 82)
    with pytest.raises(TypeError):
        GfpParams(3, 4, 82)

