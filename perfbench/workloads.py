"""The four benchmark workloads as lists of `shiftlab` argv.

A workload is a list of slots.  Each slot holds a pool of alternative argv
that give the same verdict on inputs of the same size; the first entry of
every pool is the seed-0 job.  Other seeds pick one alternative per slot, so
a change tuned to one exact input does not pass unnoticed, while the work a
pass does stays the same size.  The library only ever sees the argv.

`--threads` and `--cache-dir` are not part of a slot's argv: `run.py` adds
them, and the recorded output digest of a job is keyed by the argv without
them (the report never echoes either flag).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

H6 = "1000000"


@dataclass(frozen=True)
class Slot:
    name: str
    pool: tuple[tuple[str, ...], ...]
    threads: tuple[int, ...] = (1, 2)
    cache: bool = False


@dataclass(frozen=True)
class Job:
    """One argv of a pass, run once per entry of ``threads``."""

    name: str
    argv: tuple[str, ...]
    threads: tuple[int, ...]
    cache: bool

    @property
    def key(self) -> str:
        """Digest key: the argv without the flags `run.py` adds."""
        return " ".join(self.argv)


def _preset(name: str, *arg: str) -> Slot:
    # `reproduce` takes no --threads flag; an empty tuple means "run once, as is".
    return Slot(name, (("reproduce", name, *arg),), threads=())


def _check(*args: str) -> tuple[str, ...]:
    return ("check", *args)


WORKLOADS: dict[str, tuple[Slot, ...]] = {
    # The paper's claims: every golden preset, byte-compared by `reproduce`.
    "presets": (
        _preset("example-spacing-23"),
        _preset("example-delta-p", "3"),
        _preset("lemma-nuv"),
        _preset("thm-wm-point"),
        _preset("fa-parity"),
        _preset("prop-orbit-closure"),
        _preset("prop-delta-product"),
        _preset("thm-multimin-diag"),
    ),
    # Few tuples on dense 10^6-horizon windows: array- and memory-bound.
    # The stride vectors stay fixed: their order and size set peak memory
    # (`3,2` peaks 60 MiB lower than `2,3`), so only the horizon varies.
    "horizon-1e6": (
        Slot("multi-dyadic", tuple(
            _check("--rule", "spacing(dyadic())", "--vector", "2,3", "--wordlen", "1",
                   "--horizon", h, "--expect", "witnessed")
            for h in (H6, "1000001", "999999")
        )),
        Slot("parity-law", tuple(
            _check("--rule", "spacing(dyadic())", "--vector", "1,2", "--wordlen", "1",
                   "--horizon", h, "--expect", "fails")
            for h in (H6, "999999", "1000001")
        )),
        Slot("triple-law", tuple(
            _check("--rule", f"tripleratio({p})", "--delta", "--vector", f"1,{p}",
                   "--wordlen", "1", "--horizon", H6, "--expect", "fails")
            for p in (3, 5, 7)
        )),
        Slot("thick-dyadic", tuple(
            _check("--rule", "spacing(dyadic())", "--mode", f"thick({run})",
                   "--wordlen", "2", "--horizon", H6, "--expect", "witnessed")
            for run in (8, 7, 9)
        )),
    ),
    # Thousands of tuples on tiny windows: per-call Python overhead.
    "tuples-many": (
        Slot("full-pairs", tuple(
            _check("--rule", "full()", "--wordlen", "6", "--horizon", h,
                   "--expect", "witnessed")
            for h in ("256", "248", "264")
        )),
        Slot("triple-delta", tuple(
            _check("--rule", "tripleratio(3)", "--delta", "--vector", "1,2",
                   "--wordlen", "5", "--horizon", h, "--expect", "witnessed")
            for h in ("512", "504", "520")
        )),
        Slot("multi-dyadic", tuple(
            _check("--rule", "spacing(dyadic())", "--vector", v, "--wordlen", "4",
                   "--horizon", "2000", "--expect", "witnessed")
            for v in ("2,3", "1,3")
        )),
        Slot("orbit-closure", tuple(
            ("verify", "--prop", "orbit-closure", "--rule", "full()", "--vector", v,
             "--wordlen", "3", "--horizon", "512", "--expect", "witnessed")
            for v in ("1,2,3", "1,2,4", "1,3,4")
        )),
    ),
    # Greedy points, the point cache, entering windows, differences, grids.
    # Every pass starts with an empty cache: the first slot builds and writes
    # the point, the next five read it back, the last builds another one.
    "points-families": tuple(
        Slot(name, pool, threads=(1,), cache=True)
        for name, pool in (
            ("point-miss", tuple(
                ("diagnose", "--rule", "full()", "--point", "greedy", "--pointlen", "10",
                 "--family", f"thick({run})", "--wordlen", "3", "--horizon", "18000",
                 "--expect", "any")
                for run in (12, 11, 13)
            )),
            ("fa-hit", tuple(
                ("diagnose", "--rule", "full()", "--point", "greedy", "--pointlen", "10",
                 "--family", f"fa({v};12,512)", "--wordlen", "3", "--horizon", "18000",
                 "--expect", "any")
                for v in ("1,2,3", "1,2,4", "2,3,4")
            )),
            ("finfty-hit", (
                ("diagnose", "--rule", "full()", "--point", "greedy", "--pointlen", "10",
                 "--family", "finfty(4;6,256)", "--wordlen", "3", "--horizon", "18000",
                 "--expect", "any"),
            )),
            ("fsa-hit", tuple(
                ("diagnose", "--rule", "full()", "--point", "greedy", "--pointlen", "10",
                 "--family", f"fsa({v};12,32)", "--wordlen", "3", "--horizon", "18000",
                 "--expect", "any")
                for v in ("1,2,3", "2,3,4", "1,3,4")
            )),
            ("nabla-hit", tuple(
                ("diagnose", "--rule", "full()", "--point", "greedy", "--pointlen", "10",
                 "--family", f"nabla(thick({run}))", "--wordlen", "3", "--horizon", "18000",
                 "--expect", "witnessed")
                for run in (16, 15, 17)
            )),
            ("nuv-hit", (
                ("verify", "--prop", "nuv", "--rule", "full()", "--point", "greedy",
                 "--pointlen", "10", "--wordlen", "2", "--horizon", "18000",
                 "--hcmp", "4096", "--expect", "witnessed"),
            )),
            ("triple-miss", tuple(
                ("diagnose", "--rule", f"tripleratio({p})", "--point", "greedy",
                 "--pointlen", "8", "--family", "fa(1,2,3;3,64)", "--wordlen", "4",
                 "--horizon", "6000", "--expect", "any")
                for p in (3, 5, 7)
            )),
        )
    ),
}


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The jobs of one pass: seed 0 takes every pool's first entry."""
    out = []
    for index, slot in enumerate(WORKLOADS[workload]):
        pick = 0 if seed == 0 else random.Random(f"{workload}/{seed}/{index}").randrange(
            len(slot.pool)
        )
        out.append(Job(slot.name, slot.pool[pick], slot.threads, slot.cache))
    return out

