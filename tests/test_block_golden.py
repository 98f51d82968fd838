"""Block sums pinned to the bits recorded from the per-(p, m) scatter kernel
summed with math.fsum over Python lists (beta's odd sums and the means),
and from alpha's walk and power sums.

Each tuple is (value, abs_sum, n_terms) for one aligned block of 2^20
integers.  Checkpoints store these tuples and compare them bit for bit on
resume, so any kernel or summation change must reproduce them exactly.
"""

import pytest

from aliquot.alpha import AlphaPass
from aliquot.beta import _block_odd_signed
from aliquot.means import _sum_over_ranges
from aliquot.numerics import combine_blocks, parts_to_certified
from aliquot.primes import primes_in_range

B = 1 << 20

BETA_BLOCKS = {
    (1, B - 1): {
        1: (0.8374187327365304, 1.182441796936939, 524288),
        2: (0.7216327793310384, 1.3445089321519734, 524288),
        3: (0.6372596567627868, 1.4880898072854851, 524288),
        4: (0.5743918891425726, 1.6153403177138057, 524288),
        5: (0.5265323068688745, 1.7284009146155808, 524288),
        6: (0.4893442290570528, 1.8292521083435984, 524288),
        7: (0.4598827133029493, 1.9196528251940188, 524288),
        8: (0.43611413488571077, 2.0011259579147493, 524288),
    },
    (9 * B, 10 * B - 1): {
        1: (3.92214324651302e-12, 4.29455309418725e-09, 524288),
        2: (7.930765465754751e-12, 2.6605603657887436e-08, 524288),
        3: (3.033342718111727e-10, 8.825795523820921e-08, 524288),
        4: (1.330677410086038e-09, 2.1459691102962929e-07, 524288),
        5: (2.9731188457731106e-09, 4.3194092621826574e-07, 524288),
        6: (4.777184754553699e-09, 7.655231707878198e-07, 524288),
        7: (6.190584918251576e-09, 1.238300824390829e-06, 524288),
        8: (6.6898035141124996e-09, 1.8703831400467852e-06, 524288),
    },
    (953 * B, 954 * B - 1): {
        1: (1.4413965765992433e-15, 4.251274857414747e-13, 524288),
        2: (1.0120496979592889e-14, 3.235693613315675e-12, 524288),
        3: (4.062295773558523e-14, 1.2689534966123655e-11, 524288),
        4: (9.355610249340758e-14, 3.548361577930949e-11, 524288),
        5: (1.6188010991208026e-13, 8.049039758651988e-11, 524288),
        6: (2.7176980327045186e-13, 1.5831305905332594e-10, 524288),
        7: (4.933982855713101e-13, 2.808024389594837e-10, 524288),
        8: (9.347290235354186e-13, 4.6060816844128033e-10, 524288),
    },
}

# alpha's parts of the odd primes of [3, 2^20), the walk's row 0, and of
# [95 * 2^20, 96 * 2^20), their power sums.
ALPHA_BLOCKS = {
    (3, B - 1): {"a": (0.19310073153784973, 0.1931007315378498, 82024)},
    (95 * B, 96 * B - 1): {
        "s2": (5.670020076906799e-12, 5.670020076906799e-12, 56856),
        "s3": (5.662323591604614e-20, 5.662323591604614e-20, 56856),
        "s4": (5.6546891221045505e-28, 5.654689122104551e-28, 56856),
    },
}

# Even n of [9 * 2^20, 10 * 2^20): s(n)/n and log(s(n)/n).
MEANS_BLOCK = {
    "ratio": (553736.1491055451, 553736.1491055451, 524288),
    "log": (-17437.50946670757, 181174.54712041933, 524288),
}

# All n and odd n of [9 * 2^20, 10 * 2^20): s(n)/n and log(s(n)/n).
MEANS_BLOCK_ALL = {
    "ratio": (676262.3481002124, 676262.3481002124, 1048576),
    "log": (-2063790.5741761397, 2227891.816574794, 1048576),
}
MEANS_BLOCK_ODD = {
    "ratio": (122526.19899466721, 122526.19899466721, 524288),
    "log": (-2046353.0647094322, 2046717.2694543744, 524288),
}


@pytest.mark.parametrize("lo,hi", sorted(BETA_BLOCKS))
def test_beta_block(lo, hi):
    parts = _block_odd_signed(lo, hi, list(range(1, 9)))
    assert {j: tuple(parts[j]) for j in parts} == BETA_BLOCKS[(lo, hi)]


def test_beta_block_with_gaps_in_j():
    # j = 5 after j = 3 raises the ratio to the power 2, not 1.
    parts = _block_odd_signed(9 * B, 10 * B - 1, [5, 3])
    assert parts == {
        3: (3.033342718111727e-10, 8.825795523820921e-08, 524288),
        5: (2.97311884577311e-09, 4.3194092621826574e-07, 524288),
    }


def test_alpha_block():
    for (lo, hi), parts in ALPHA_BLOCKS.items():
        assert AlphaPass.kernel(lo, hi, primes_in_range(lo, hi)) == parts


def _means_block(parity, kind):
    block = (9 * B, 10 * B - 1)
    sums = dict(zip(("ratio", "log"), _sum_over_ranges(parity, block, block, B, 1)))
    return sums[kind].value, sums[kind].error_radius


def _certified(parts):
    expected = combine_blocks([parts_to_certified(*parts)])
    return expected.value, expected.error_radius


@pytest.mark.parametrize("kind", ["ratio", "log"])
def test_means_block(kind):
    assert _means_block(0, kind) == _certified(MEANS_BLOCK[kind])


@pytest.mark.parametrize("kind", ["ratio", "log"])
@pytest.mark.parametrize("parity,golden", [(None, MEANS_BLOCK_ALL), (1, MEANS_BLOCK_ODD)])
def test_means_block_all_and_odd(kind, parity, golden):
    assert _means_block(parity, kind) == _certified(golden[kind])
