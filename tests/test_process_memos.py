"""Solves read the same primes and give the same answers whether the
process-wide memos (a prime's generator steps, a q's record, the last
lacunary grid) are empty, warm from an earlier solve, or cleared again."""

from fractions import Fraction

import pytest

from lacuna import (Bounds, LacunaryBox, ShiftedLacunary, blackbox, densepoly, full_interpolate,
                    prime_oracle)

from conftest import GOLDEN_JSON

MEMOS = (
    prime_oracle.choose_n,
    prime_oracle._record,
    densepoly._generator_steps,
    densepoly._generator_powers,
    blackbox._lacunary_grid,
)


def clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


class RecordingBox(LacunaryBox):
    """A lacunary box that notes every prime it is asked about, in order."""

    def __init__(self, poly):
        super().__init__(poly)
        self.primes = []

    def eval(self, p, theta):
        self.primes.append(p)
        return super().eval(p, theta)

    def eval_range(self, p):
        self.primes.append(p)
        return super().eval_range(p)


# golden, and one term behind a 32-bit shift, where the shift phase reads
# most of the primes
INSTANCES = {
    "golden": (ShiftedLacunary.from_json(GOLDEN_JSON), Bounds(ba=4, bt=2, bh=4, bn=4)),
    "t1-ba32": (ShiftedLacunary(shift=Fraction(-654_321, 1_537), constant=1,
                                terms=((Fraction(-2, 3), 201),)),
                Bounds(ba=32, bt=1, bh=5, bn=8)),
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_a_solve_repeats_cold_warm_and_after_clearing_every_memo(name):
    poly, bounds = INSTANCES[name]
    clear_memos()
    runs = []
    for clear in (False, False, True):
        if clear:
            clear_memos()
        box = RecordingBox(poly)
        runs.append((full_interpolate(box, bounds), box.calls, box.primes))
        if len(runs) == 1:
            made = prime_oracle._record.cache_info().misses
        if len(runs) == 2:  # the warm solve read its records and steps from the memos
            assert prime_oracle._record.cache_info().misses == made
            assert prime_oracle._record.cache_info().hits >= made
            assert densepoly._generator_steps.cache_info().hits >= len(set(box.primes))
    assert runs[0][0] == poly
    assert runs[0] == runs[1] == runs[2]
