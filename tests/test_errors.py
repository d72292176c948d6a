"""The number rule: errors.is_number, config_value and number_array."""

import numpy as np
import pytest

from chirpcode import CodeError, ConfigError, ParameterError
from chirpcode import errors
from chirpcode.errors import config_value, is_number, number_array


class TestIsNumber:
    @pytest.mark.parametrize("value", [3, 2.5, -0.0, np.float32(0.5), np.int8(3), float("nan")])
    def test_real_numbers_count(self, value):
        assert is_number(value)

    @pytest.mark.parametrize("value", [True, np.bool_(False), "1", None, [1.0], 1j])
    def test_bool_str_and_containers_do_not(self, value):
        assert not is_number(value) and not is_number(value, int)

    @pytest.mark.parametrize("value, whole", [(3, True), (3.0, True), (np.int64(3), True),
                                              (3.5, False), (float("inf"), False),
                                              (float("nan"), False)])
    def test_int_kind_takes_whole_numbers(self, value, whole):
        assert is_number(value, int) is whole

    def test_config_value_applies_the_same_rule(self):
        assert config_value("x", 3.0, int) == 3 and type(config_value("x", 3.0, int)) is int
        with pytest.raises(ConfigError, match="^x must be a number, got '1'$"):
            config_value("x", "1", float)


class TestNumberArray:
    @pytest.mark.parametrize("values, kind, dtype", [
        (np.arange(3, dtype=np.int32), int, np.int64),
        (np.arange(3, dtype=np.uint8), int, np.int64),
        (np.linspace(0, 1, 3), float, np.float64),
        (np.linspace(0, 1, 3, dtype=np.float32), float, np.float64),
        (np.arange(3), float, np.float64),
    ])
    def test_arrays_of_the_right_kind_take_no_per_item_check(self, monkeypatch, values, kind,
                                                             dtype):
        checked = []
        monkeypatch.setattr(errors, "is_number", lambda *a: checked.append(a) or True)
        out = number_array("x", values, kind, CodeError)
        assert out.dtype == dtype and checked == []
        np.testing.assert_array_equal(out, values.astype(dtype))

    def test_float64_array_is_returned_uncopied(self):
        values = np.linspace(0, 1, 3)
        assert number_array("x", values, float, CodeError) is values

    def test_lists_are_checked_item_by_item(self, monkeypatch):
        checked = []
        real = errors.is_number
        monkeypatch.setattr(errors, "is_number", lambda *a: checked.append(a) or real(*a))
        out = number_array("x", [1, 2.0, np.float32(0.5)], float, CodeError)
        assert out.dtype == np.float64 and out.tolist() == [1.0, 2.0, 0.5]
        assert checked == [(1, float), (2.0, float), (np.float32(0.5), float)]
        ints = number_array("x", [[1, 2.0], [np.int16(3), 4]], int, CodeError)
        assert ints.dtype == np.int64 and ints.tolist() == [[1, 2], [3, 4]]

    @pytest.mark.parametrize("values, kind, message", [
        ([1.0, "2"], float, "item 1 must be a number, got '2'"),
        ([1.0, True], float, "item 1 must be a number, got True"),
        (np.array([0.0, 1.0]) > 0.5, float, "item 0 must be a number, got False"),
        (np.array(["1.0"]), float, "item 0 must be a number, got '1.0'"),
        ([[1.0, 2.0], [3.0]], float, r"item 0 must be a number, got \[1.0, 2.0\]"),
        ([None], float, "item 0 must be a number, got None"),
        ([0, 2.7], int, "item 1 must be an integer, got 2.7"),
        (np.array([1.5]), int, "item 0 must be an integer, got 1.5"),
        (np.array([True]), int, "item 0 must be an integer, got True"),
        ([0, 2**70], int, "item 1 out of range, got 1180591620717411303424"),
        ([2.0**63], int, r"item 0 out of range, got 9.223372036854776e\+18"),
        ([1.0, 10**400], float, "item 1 out of range, got 1000"),
    ])
    def test_first_bad_item_is_named_with_its_position(self, values, kind, message):
        with pytest.raises(CodeError, match=f"^{message}"):
            number_array("item {}", values, kind, CodeError)

    def test_error_class_is_the_callers_and_name_may_omit_the_position(self):
        with pytest.raises(ParameterError, match="^values must be a number, got 'a'$"):
            number_array("values", ["a"], float, ParameterError)
        with pytest.raises(ConfigError, match="^values must be a number, got 'a'$"):
            number_array("values", "a", float, ConfigError)

    def test_whole_floats_become_integers_and_scalars_stay_zero_dimensional(self):
        out = number_array("x", [2.0, np.float64(-3.0), -2**63], int, CodeError)
        assert out.tolist() == [2, -3, -2**63]
        assert number_array("x", 5.0, float, CodeError).shape == ()
        assert number_array("x", [], int, CodeError).dtype == np.int64
