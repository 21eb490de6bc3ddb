import numpy as np
import pytest

from repro.core.square_lut import SquareLut


class TestConstruction:
    def test_8bit_single_level(self):
        lut = SquareLut.for_bit_width(8, levels=1)
        assert lut.max_abs == 255
        assert lut.table.shape == (511,)

    def test_8bit_three_level(self):
        lut = SquareLut.for_bit_width(8, levels=3)
        assert lut.max_abs == 765

    def test_16bit(self):
        lut = SquareLut.for_bit_width(16, levels=1)
        assert lut.max_abs == 65535

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            SquareLut.for_bit_width(12)

    def test_invalid_levels(self):
        with pytest.raises(ValueError):
            SquareLut.for_bit_width(8, levels=0)

    def test_table_shape_validated(self):
        with pytest.raises(ValueError, match="shape"):
            SquareLut(max_abs=2, resident_max_abs=2, table=np.zeros(3, dtype=np.int64))


class TestSquare:
    def test_exact_squares(self):
        lut = SquareLut.for_bit_width(8, levels=2)
        v = np.arange(-510, 511)
        sq, misses = lut.square(v)
        np.testing.assert_array_equal(sq, v.astype(np.int64) ** 2)
        assert misses == 0

    def test_lossless_on_random_operands(self, rng):
        lut = SquareLut.for_bit_width(8, levels=3)
        v = rng.integers(-765, 766, size=(7, 13))
        sq, _ = lut.square(v)
        np.testing.assert_array_equal(sq, v.astype(np.int64) ** 2)

    def test_out_of_range_rejected(self):
        lut = SquareLut.for_bit_width(8, levels=1)
        with pytest.raises(ValueError, match="out of range"):
            lut.square(np.array([256]))

    def test_float_rejected(self):
        lut = SquareLut.for_bit_width(8)
        with pytest.raises(TypeError, match="integers"):
            lut.square(np.array([1.5]))


class TestPartial:
    def test_partial_still_exact(self):
        full = SquareLut.for_bit_width(8, levels=3)
        part = full.partial(100)
        v = np.array([-700, -50, 0, 99, 700])
        sq, misses = part.square(v)
        np.testing.assert_array_equal(sq, v.astype(np.int64) ** 2)
        assert misses == 2  # |±700| > 100

    def test_partial_resident_bytes(self):
        part = SquareLut.for_bit_width(8, levels=3).partial(63)
        assert part.resident_bytes == (2 * 63 + 1) * 4

    def test_partial_bounds_validated(self):
        full = SquareLut.for_bit_width(8)
        with pytest.raises(ValueError):
            full.partial(9999)

    def test_full_table_no_misses(self, rng):
        lut = SquareLut.for_bit_width(8, levels=3)
        _, misses = lut.square(rng.integers(-765, 766, size=100))
        assert misses == 0

