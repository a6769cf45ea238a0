import itertools
import json
import random
from fractions import Fraction as F

import numpy as np
import pytest

from stablerank import (
    SparseTensor,
    Support,
    as_weight,
    boxplus,
    boxtimes,
    mod_domain,
    mode_transform,
    modulus_of,
    ones_weight,
    outer,
    psg_slope,
    support_of,
)
from stablerank.complexrank import flatten, to_dense_complex

from conftest import fraction_mode_transform

W_ENTRIES = {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}


def w_state():
    return SparseTensor((2, 2, 2), W_ENTRIES)


class TestSupportOf:
    def test_w_state(self):
        s = support_of(w_state())
        assert s.elements == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_zero_tensor(self):
        v = SparseTensor((2, 2), {})
        assert support_of(v).elements == frozenset()

    def test_single_entry(self):
        v = SparseTensor((3, 3), {(0, 0): F(5, 7)})
        assert support_of(v).elements == {(0, 0)}

    def test_sorted_elements_built_once(self):
        a = Support((3, 2), [(2, 1), (0, 1), (1, 0)])
        b = Support((3, 2), [(1, 0), (2, 1), (0, 1)])
        assert a.sorted_elements == ((0, 1), (1, 0), (2, 1)) == tuple(a)
        assert a.sorted_elements is a.sorted_elements
        assert a == b and hash(a) == hash(b)
        assert a != Support((3, 3), a.elements)

    def test_zero_values_dropped(self):
        v = SparseTensor((2, 2), {(0, 0): 0, (1, 1): 3})
        assert support_of(v).elements == {(1, 1)}

    def test_mod_reduction_drops_multiples(self):
        v = SparseTensor((2, 2), {(0, 0): 3, (0, 1): 4}, mod_domain(3))
        assert v.entries == {(0, 1): 1}


class TestValidation:
    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            SparseTensor((2, 2), {(2, 0): 1})

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            Support((2, 0), [])

    def test_nonprime_modulus(self):
        with pytest.raises(ValueError):
            SparseTensor((2,), {(0,): 1}, "mod:4")

    def test_primality_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

        for n in range(-2, 20000):
            if trial(n):
                assert mod_domain(n) == f"mod:{n}"
            else:
                with pytest.raises(ValueError):
                    mod_domain(n)

    @pytest.mark.parametrize(
        "domain", ["mod:07", "mod:+7", "mod: 0_7", "mod:7 ", "mod:7\n", "mod:\u0667", "mod:0", "mod:", "MOD:7"]
    )
    def test_noncanonical_mod_tag_rejected(self, domain):
        # int() reads each of the first six as 7, but only "mod:7" names F_7.
        with pytest.raises(ValueError, match="unknown scalar domain"):
            modulus_of(domain)

    def test_equal_fields_have_equal_tags(self):
        a = SparseTensor((1,), {(0,): 1}, "mod:7")
        b = SparseTensor((1,), {(0,): 2}, mod_domain(7))
        assert boxplus(a, b).entries == {(0,): 1, (1,): 2}

    def test_domain_mismatch(self):
        a = SparseTensor((2,), {(0,): 1})
        b = SparseTensor((2,), {(0,): 1}, mod_domain(2))
        with pytest.raises(ValueError):
            boxplus(a, b)
        with pytest.raises(ValueError):
            outer(a, b)

    def test_order_mismatch(self):
        a = SparseTensor((2,), {(0,): 1})
        b = SparseTensor((2, 2), {(0, 0): 1})
        with pytest.raises(ValueError):
            boxtimes(a, b)


class TestBoxplus:
    def test_diagonal_from_units(self):
        unit = SparseTensor((1, 1, 1), {(0, 0, 0): 1})
        diag = boxplus(unit, unit)
        assert diag.shape == (2, 2, 2)
        assert diag.entries == {(0, 0, 0): 1, (1, 1, 1): 1}

    def test_empty_summand_pads(self):
        v = w_state()
        padded = boxplus(v, SparseTensor((1, 1, 1), {}))
        assert padded.shape == (3, 3, 3)
        assert padded.entries == v.entries

    def test_support_sizes_add(self):
        v, w = w_state(), w_state()
        assert len(support_of(boxplus(v, w))) == len(support_of(v)) + len(support_of(w))


class TestBoxtimes:
    def test_unit_for_product(self):
        one = SparseTensor((1, 1, 1), {(0, 0, 0): 1})
        v = w_state()
        assert boxtimes(v, one).entries == v.entries

    def test_support_sizes_multiply(self):
        prod = boxtimes(w_state(), w_state())
        assert len(support_of(prod)) == 9

    def test_capset_square_has_49_elements(self):
        from stablerank.capset import base_tensor

        v = base_tensor()
        assert len(support_of(boxtimes(v, v))) == 49

    def test_index_pairing(self):
        a = SparseTensor((2,), {(1,): F(2)})
        b = SparseTensor((3,), {(2,): F(5)})
        prod = boxtimes(a, b)
        assert prod.entries == {(1 * 3 + 2,): F(10)}

    def test_associative(self):
        rng = random.Random(0)
        tensors = []
        for _ in range(3):
            shape = (rng.randint(1, 2), rng.randint(1, 3))
            entries = {
                (i, j): rng.randint(1, 5)
                for i in range(shape[0])
                for j in range(shape[1])
                if rng.random() < 0.6
            }
            tensors.append(SparseTensor(shape, entries))
        a, b, c = tensors
        left = boxtimes(boxtimes(a, b), c)
        right = boxtimes(a, boxtimes(b, c))
        assert left.shape == right.shape and left.entries == right.entries


class TestOuter:
    def test_associative(self):
        a = SparseTensor((2,), {(0,): F(2), (1,): F(-1)})
        b = SparseTensor((3,), {(2,): F(3)})
        c = SparseTensor((2, 2), {(1, 0): F(1, 2)})
        left = outer(outer(a, b), c)
        right = outer(a, outer(b, c))
        assert left.shape == right.shape and left.entries == right.entries

    def test_rank_one_matrix(self):
        a = SparseTensor((2,), {(0,): F(2), (1,): F(3)})
        b = SparseTensor((2,), {(0,): F(5), (1,): F(7)})
        m = outer(a, b)
        assert m.order == 2
        assert m.entries[(1, 0)] == F(15)

    def test_support_sizes_multiply(self):
        prod = outer(w_state(), w_state())
        assert prod.order == 6
        assert len(support_of(prod)) == 9


class TestPsgSlope:
    def test_w_state_slope(self):
        s = support_of(w_state())
        x = [[1, 0], [1, 0], [1, 0]]
        assert psg_slope(x, s, (1, 1, 1)) == F(3, 2)

    def test_integral_float_exponents(self):
        s = support_of(w_state())
        assert psg_slope([[1.0, 0], [1, 0.0], [1, 0]], s, None) == F(3, 2)

    def test_single_element(self):
        s = Support((2, 2), [(0, 0)])
        assert psg_slope([[1, 0], [0, 0]], s, (1, 1)) == 1

    def test_scaling_invariance(self):
        s = support_of(w_state())
        x = [[2, 1], [1, 0], [3, 2]]
        base = psg_slope(x, s, (1, F(1, 2), 1))
        for k in (2, 3, 7):
            scaled = [[k * e for e in row] for row in x]
            assert psg_slope(scaled, s, (1, F(1, 2), 1)) == base

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError, match="no slope"):
            psg_slope([[1, 1]], Support((2,), []), (1,))

    def test_nonvanishing_rejected(self):
        s = Support((2,), [(1,)])
        with pytest.raises(ValueError, match="vanish"):
            psg_slope([[1, 0]], s, (1,))


class TestFlatten:
    def test_w_state_golden(self):
        dense = to_dense_complex(w_state())
        expected = np.array([[0, 1, 1, 0], [1, 0, 0, 0]], dtype=complex)
        assert np.array_equal(flatten(dense, 0), expected)

    def test_matrix_mode0_is_identity_reshape(self):
        a = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(flatten(a, 0), a)

    def test_rank_one_tensor_flattens_to_rank_one(self):
        rng = np.random.default_rng(5)
        a, b, c = rng.normal(size=3), rng.normal(size=4), rng.normal(size=2)
        t = np.einsum("i,j,k->ijk", a, b, c)
        for mode in range(3):
            assert np.linalg.matrix_rank(flatten(t, mode)) == 1

    def test_column_order_every_mode(self):
        # Row j of flatten(t, mode) lists t with index j in that mode, the
        # other modes running lexicographically in ascending mode order.
        rng = np.random.default_rng(11)
        t = rng.normal(size=(2, 3, 4)) + 1j * rng.normal(size=(2, 3, 4))
        for mode in range(3):
            rest = [k for k in range(3) if k != mode]
            m = flatten(t, mode)
            assert m.shape == (t.shape[mode], t.size // t.shape[mode])
            for idx in np.ndindex(t.shape):
                col = idx[rest[0]] * t.shape[rest[1]] + idx[rest[1]]
                assert m[idx[mode], col] == t[idx]

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            flatten(np.zeros((2, 2)), 2)


class TestModeTransform:
    def test_identity(self):
        v = w_state()
        eye = [[1, 0], [0, 1]]
        assert mode_transform(v, [eye, eye, eye]).entries == v.entries

    def test_matches_dense_oracle(self):
        rng = random.Random(3)
        shape = (2, 3, 2)
        entries = {
            idx: F(rng.randint(-3, 3))
            for idx in [(i, j, k) for i in range(2) for j in range(3) for k in range(2)]
            if rng.random() < 0.5
        }
        v = SparseTensor(shape, entries)
        mats = [
            [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)] for n in shape
        ]
        got = mode_transform(v, mats)
        dense = np.zeros(shape)
        for idx, val in v.entries.items():
            dense[idx] = float(val)
        expect = np.einsum(
            "ai,bj,ck,ijk->abc",
            np.array(mats[0], float),
            np.array(mats[1], float),
            np.array(mats[2], float),
            dense,
        )
        result = np.zeros(shape)
        for idx, val in got.entries.items():
            result[idx] = float(val)
        assert np.allclose(result, expect)

    def test_mod_arithmetic(self):
        v = SparseTensor((2,), {(0,): 1, (1,): 1}, mod_domain(2))
        summed = mode_transform(v, [[[1, 1], [0, 1]]])
        # first output row is 1 + 1 = 0 mod 2
        assert summed.entries == {(1,): 1}


    @pytest.mark.parametrize("domain", ["rational", "mod:2", "mod:3", "mod:5", "mod:7"])
    def test_matches_fraction_oracle(self, domain):
        # 600 tensors per domain, orders 1-4, square and rectangular
        # matrices with int and Fraction entries: the same entries, of the
        # same types, as the Fraction implementation in conftest
        rng = random.Random(f"mode_transform-{domain}")
        p = None if domain == "rational" else int(domain[4:])
        for _ in range(600):
            shape = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
            cells = list(itertools.product(*[range(n) for n in shape]))
            vals = {idx: rng.randint(-4, 4) for idx in rng.sample(cells, rng.randint(0, len(cells)))}
            if p is None:
                vals = {idx: F(x, rng.randint(1, 6)) for idx, x in vals.items()}
            v = SparseTensor(shape, vals, domain)

            def entry():
                x = rng.randint(-3, 3)
                if rng.random() < 0.5:
                    return x
                return F(x, rng.randint(1, 4)) if p is None else F(x)

            mats = [[[entry() for _ in range(n)] for _ in range(rng.randint(1, 3))] for n in shape]
            got, expect = mode_transform(v, mats), fraction_mode_transform(v, mats)
            assert (got.shape, got.domain, got.entries) == (expect.shape, expect.domain, expect.entries)
            assert {k: type(x) for k, x in got.entries.items()} == {
                k: type(x) for k, x in expect.entries.items()}

    @pytest.mark.parametrize("domain,entries,mats", [
        ("rational", {(0, 1): F(1, 2), (1, 0): 3}, [[[1, 2], [0, 1]], [[F(1, 3), 1]]]),
        ("rational", {(0, 1): 1, (1, 1): 2}, [[[1, 1], [1, -1]], [[0, 1], [1, 0]]]),
        ("mod:5", {(0, 1): 4, (1, 0): 3}, [[[1, 2], [0, 1]], [[1, 1]]]),
        ("mod:2", {(0, 0): 1, (1, 0): 1}, [[[1, 1]], [[1, 0]]]),  # the result is zero
    ])
    def test_result_goes_through_the_constructor(self, monkeypatch, domain, entries, mats):
        # int matrices and mixed ones, over Q and F_p: the tensor returned
        # is one that SparseTensor.__init__ initialised, with its checks
        v = SparseTensor((2, 2), entries, domain)
        built = []
        real = SparseTensor.__init__

        def spy(self, *args):
            built.append(self)
            real(self, *args)

        monkeypatch.setattr(SparseTensor, "__init__", spy)
        got = mode_transform(v, mats)
        assert len(built) == 1 and built[0] is got
        assert got == fraction_mode_transform(v, mats)

    @pytest.mark.parametrize("mats", [
        [[[1, 0], [0, 1]]] * 2,  # one matrix too few
        [[[1, 0], [0, 1]], [[1, 0], [0, 1]], [[1, 0, 0]]],  # three columns, not two
        [[[1, 0], [0, 1]], [[1, 0], [0, 1]], [[1, 0], [0]]],  # ragged
        [[[1, 0], [0, 1]], [], [[1, 0], [0, 1]]],  # no rows
    ])
    def test_bad_matrix_rejected(self, mats):
        with pytest.raises(ValueError):
            mode_transform(w_state(), mats)

    def test_fraction_entry_on_mod_tensor_rejected(self):
        v = SparseTensor((2,), {(0,): 1}, mod_domain(3))
        assert mode_transform(v, [[[F(4, 2), 0]]]).entries == {(0,): 2}
        with pytest.raises(ValueError, match="integers"):
            mode_transform(v, [[[F(1, 2), 0]]])


class TestJson:
    def test_tensor_roundtrip(self):
        v = SparseTensor((2, 2), {(0, 1): F(3, 7), (1, 0): F(-2)})
        data = json.loads(json.dumps(v.to_json()))
        back = SparseTensor.from_json(data)
        assert back.shape == v.shape and back.entries == v.entries
        assert data["entries"][0]["val"] == "3/7"

    def test_mod_tensor_roundtrip(self):
        v = SparseTensor((3,), {(2,): 2}, mod_domain(3))
        back = SparseTensor.from_json(v.to_json())
        assert back.domain == "mod:3" and back.entries == v.entries

    def test_support_roundtrip(self):
        s = support_of(w_state())
        back = Support.from_json(json.loads(json.dumps(s.to_json())))
        assert back == s

    @pytest.mark.parametrize("domain", [5, None, ["rational"]])
    def test_non_string_domain_rejected(self, domain):
        data = {"shape": [2], "domain": domain, "entries": [{"idx": [0], "val": "1"}]}
        with pytest.raises(ValueError, match="domain"):
            SparseTensor.from_json(data)

    def test_zero_denominator_rejected(self):
        data = {"shape": [2], "entries": [{"idx": [0], "val": "1/0"}]}
        with pytest.raises(ValueError, match="zero denominator"):
            SparseTensor.from_json(data)

    @pytest.mark.parametrize("val", [1.5, 2.9, "1/2", -0.25])
    def test_fractional_mod_entry_rejected(self, val):
        data = {"shape": [2], "domain": "mod:3", "entries": [{"idx": [0], "val": val}]}
        with pytest.raises(ValueError, match="integers"):
            SparseTensor.from_json(data)

    def test_overwritten_fractional_mod_entry_rejected(self):
        data = {"shape": [2], "domain": "mod:3",
                "entries": [{"idx": [0], "val": 1.5}, {"idx": [0], "val": 1}]}
        with pytest.raises(ValueError, match="integers"):
            SparseTensor.from_json(data)

    @pytest.mark.parametrize("second", [[0, 1], [0, 1.0]])
    def test_repeated_index_rejected(self, second):
        data = {"shape": [2, 2], "entries": [{"idx": [0, 1], "val": 1}, {"idx": second, "val": 0}]}
        with pytest.raises(ValueError, match="listed twice"):
            SparseTensor.from_json(data)

    def test_integral_mod_entries_accepted(self):
        data = {"shape": [3], "domain": "mod:3",
                "entries": [{"idx": [0], "val": 4}, {"idx": [1], "val": "-1"}, {"idx": [2], "val": 2.0}]}
        assert SparseTensor.from_json(data).entries == {(0,): 1, (1,): 2, (2,): 2}


class TestAsWeight:
    def test_none_is_all_ones(self):
        assert as_weight(None, 3) == (F(1), F(1), F(1)) == ones_weight(3)


@pytest.mark.parametrize(
    "call,message",
    [
        pytest.param(lambda: SparseTensor((), {}), "tensor order must be at least 1",
                     id="tensor-shape-empty"),
        pytest.param(lambda: Support((), []), "tensor order must be at least 1",
                     id="support-shape-empty"),
        pytest.param(lambda: psg_slope([[1, 1], [1, 1]], support_of(w_state()), None),
                     "exponent table must have one row per mode", id="slope-too-few-rows"),
        pytest.param(lambda: psg_slope([[1, 1]] * 4, support_of(w_state()), None),
                     "exponent table must have one row per mode", id="slope-too-many-rows"),
        pytest.param(lambda: psg_slope([[1, 1], [1, 1.5], [1, 1]], support_of(w_state()), None),
                     "exponents must be nonnegative integers", id="slope-float-exponent"),
        pytest.param(lambda: psg_slope([[1, F(1, 2)], [1, 1], [1, 1]], support_of(w_state()), None),
                     "exponents must be nonnegative integers", id="slope-fraction-exponent"),
    ],
)
def test_constructors_and_slope_reject_bad_input(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_support_membership_and_tensor_lookup():
    support = support_of(w_state())
    assert (1, 0, 0) in support and [0, 0, 1] in support
    assert (1, 1, 0) not in support and (0, 0, 0) not in support
    v = w_state()
    assert v[(1, 0, 0)] == 1 and v[[0, 1, 0]] == 1
    assert v[(1, 1, 1)] == 0 and type(v[(1, 1, 1)]) is F
    mod3 = SparseTensor((2, 2), {(0, 1): 2}, mod_domain(3))
    assert mod3[(0, 1)] == 2 and mod3[(1, 0)] == 0 and type(mod3[(1, 0)]) is int
    with pytest.raises(ValueError):
        v[(2, 0, 0)]
