import numpy as np
import pytest

from repro.ann import ProductQuantizer
from repro.ann.distance import l2_sq


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(0)
    x = rng.integers(0, 255, size=(3000, 16)).astype(np.float64)
    pq = ProductQuantizer.train(x, num_subspaces=4, codebook_size=32, seed=0)
    return x, pq


class TestTraining:
    def test_shapes(self, trained):
        _, pq = trained
        assert pq.codebooks.shape == (4, 32, 4)
        assert pq.num_subspaces == 4
        assert pq.codebook_size == 32
        assert pq.dsub == 4
        assert pq.dim == 16

    def test_dim_divisibility(self, rng):
        x = rng.normal(size=(100, 10))
        with pytest.raises(ValueError, match="divisible"):
            ProductQuantizer.train(x, num_subspaces=3)

    def test_codebook_larger_than_data(self, rng):
        x = rng.normal(size=(10, 4))
        with pytest.raises(ValueError, match="exceeds"):
            ProductQuantizer.train(x, num_subspaces=2, codebook_size=64)

    def test_code_dtype_selection(self):
        cb8 = ProductQuantizer(codebooks=np.zeros((2, 256, 3), dtype=np.float32))
        cb16 = ProductQuantizer(codebooks=np.zeros((2, 257, 3), dtype=np.float32))
        assert cb8.code_dtype == np.uint8
        assert cb16.code_dtype == np.uint16


class TestEncodeDecode:
    def test_codes_in_range(self, trained):
        x, pq = trained
        codes = pq.encode(x[:100])
        assert codes.shape == (100, 4)
        assert codes.max() < 32

    def test_encode_is_nearest_codeword(self, trained):
        x, pq = trained
        codes = pq.encode(x[:20])
        for j in range(pq.num_subspaces):
            sub = x[:20, j * 4 : (j + 1) * 4]
            d = l2_sq(sub, pq.codebooks[j].astype(np.float64))
            np.testing.assert_array_equal(codes[:, j], d.argmin(axis=1))

    def test_decode_shape(self, trained):
        x, pq = trained
        rec = pq.decode(pq.encode(x[:10]))
        assert rec.shape == (10, 16)

    def test_reconstruction_reduces_with_codebook_size(self, rng):
        x = rng.normal(size=(2000, 8)) * 50
        e_small = ProductQuantizer.train(
            x, 2, codebook_size=4, seed=0
        ).quantization_error(x)
        e_big = ProductQuantizer.train(
            x, 2, codebook_size=64, seed=0
        ).quantization_error(x)
        assert e_big < e_small

    def test_reconstruction_reduces_with_subspaces(self, rng):
        x = rng.normal(size=(2000, 8)) * 50
        e1 = ProductQuantizer.train(x, 1, codebook_size=16, seed=0).quantization_error(x)
        e4 = ProductQuantizer.train(x, 4, codebook_size=16, seed=0).quantization_error(x)
        assert e4 < e1

    def test_encode_dim_mismatch(self, trained):
        _, pq = trained
        with pytest.raises(ValueError, match="dim"):
            pq.encode(np.zeros((3, 12)))


class TestAdc:
    def test_lut_entries_are_subspace_distances(self, trained):
        x, pq = trained
        residual = x[0]
        lut = pq.build_lut(residual)
        assert lut.shape == (4, 32)
        for j in range(4):
            sub = residual[j * 4 : (j + 1) * 4][None]
            np.testing.assert_allclose(
                lut[j], l2_sq(sub, pq.codebooks[j].astype(np.float64))[0]
            )

    def test_build_luts_batched(self, trained):
        x, pq = trained
        luts = pq.build_luts(x[:5])
        for i in range(5):
            np.testing.assert_allclose(luts[i], pq.build_lut(x[i]))

    def test_adc_equals_decoded_distance(self, trained):
        """ADC(q, code) must equal the exact distance to the decoded point."""
        x, pq = trained
        codes = pq.encode(x[:50])
        rec = pq.decode(codes).astype(np.float64)
        q = x[60]
        adc = pq.adc_distances(q, codes)
        exact = l2_sq(q[None], rec)[0]
        np.testing.assert_allclose(adc, exact, rtol=1e-6, atol=1e-6)

    def test_residual_dim_check(self, trained):
        _, pq = trained
        with pytest.raises(ValueError, match="dim"):
            pq.build_lut(np.zeros(12))


class TestSdc:
    def test_tables_shape_and_symmetry(self, trained):
        _, pq = trained
        t = pq.sdc_tables()
        assert t.shape == (4, 32, 32)
        np.testing.assert_allclose(t, np.swapaxes(t, 1, 2))
        np.testing.assert_allclose(
            t[np.arange(4)[:, None], np.arange(32), np.arange(32)], 0.0, atol=1e-9
        )

    def test_sdc_equals_decoded_pair_distance(self, trained):
        """SDC(x, y) must equal the exact distance between decodes."""
        x, pq = trained
        from repro.ann.distance import l2_sq

        codes = pq.encode(x[:30])
        qcode = pq.encode(x[40:41])[0]
        sdc = pq.sdc_distances(qcode, codes)
        rec = pq.decode(codes).astype(np.float64)
        qrec = pq.decode(qcode[None]).astype(np.float64)
        exact = l2_sq(qrec, rec)[0]
        np.testing.assert_allclose(sdc, exact, rtol=1e-6, atol=1e-6)

    def test_sdc_less_accurate_than_adc(self, trained):
        """The paper's reason for adopting ADC: SDC adds the query's
        own quantization error."""
        x, pq = trained
        q = x[100]
        codes = pq.encode(x[:200])
        adc = pq.adc_distances(q, codes)
        sdc = pq.sdc_distances(pq.encode(q[None])[0], codes)
        from repro.ann.distance import l2_sq

        exact = l2_sq(q[None], x[:200])[0]
        err_adc = np.abs(adc - exact).mean()
        err_sdc = np.abs(sdc - exact).mean()
        assert err_adc <= err_sdc * 1.05

    def test_sdc_shape_checks(self, trained):
        _, pq = trained
        with pytest.raises(ValueError, match="sub-codes"):
            pq.sdc_distances(np.zeros(3, dtype=int), np.zeros((5, 4), dtype=int))

    def test_tables_amortization(self, trained):
        x, pq = trained
        codes = pq.encode(x[:10])
        tables = pq.sdc_tables()
        a = pq.sdc_distances(codes[0], codes, tables)
        b = pq.sdc_distances(codes[0], codes)
        np.testing.assert_allclose(a, b)



class TestPickle:
    def test_round_trip_is_bit_identical(self, trained):
        """A restored quantizer encodes, decodes and builds LUTs exactly
        like the original."""
        import pickle

        x, pq = trained
        got = pickle.loads(pickle.dumps(pq))
        codes = pq.encode(x[:50])
        np.testing.assert_array_equal(got.encode(x[:50]), codes)
        np.testing.assert_array_equal(got.decode(codes), pq.decode(codes))
        res = x[:7] - 128.0
        np.testing.assert_array_equal(got.build_luts(res), pq.build_luts(res))
        np.testing.assert_array_equal(got.build_lut(res[0]), pq.build_lut(res[0]))
