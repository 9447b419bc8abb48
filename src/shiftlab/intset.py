"""Windowed calculus for subsets of the positive integers.

Everything in this module is horizon-materialized: a :class:`WindowedSet`
is a boolean mask over the finite window ``[0, horizon)``, exact on that
window.  Operations recompute the horizon so downstream predicates cannot
silently claim more than the window supports.  Difference sets are the one
deliberate exception — every member they hold is genuine, but absence is only
horizon-relative — and they are flagged ``complete=False`` so that report
layers downgrade would-be refutations accordingly.

The convention throughout is that 0 is *not* a natural number: set rules
describe subsets of {1, 2, ...} even though windows index from 0.
"""

from __future__ import annotations

import math
import operator
import re
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import CapExceeded, ConfigError

# Maximum nesting depth for composite set rules.
MAX_RULE_DEPTH = 16

# A negative shift(r, n) evaluates r on a window |n| longer than its own;
# offsets below -MAX_SHIFT are refused before that window is allocated.
MAX_SHIFT = 1 << 20

# Subtrahend members * minuend horizon guard, checked before the difference
# kernel transforms anything.  Under it the kernel's error bound stays below
# 1.5e-3 (worst at one subtrahend member against a full minuend of 2^34 bits),
# far from the 0.25 exactness needs.  Larger requests fail loudly instead.
_DIFFERENCE_COST_CAP = 1 << 34

# Moduli probed when deriving congruence structure from a rule.
DEFAULT_MODULI = (2, 3, 4, 5, 6, 8, 12)


# ---------------------------------------------------------------------------
# records


class Record:
    """An immutable value whose fields are its class annotations, in order.

    A class attribute is the field's default, and subclasses extend the
    fields of their bases.  Fields are passed by position or by name;
    ``__post_init__`` then validates them.  Equality and hash are those of
    the class and the field values, and assignment raises AttributeError.
    Instances keep a ``__dict__``, where derived values are cached.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs) -> None:
        names, cls = self._fields, type(self)
        if len(args) > len(names) or kwargs and not kwargs.keys() <= set(names[len(args):]):
            raise TypeError(f"{cls.__name__} takes the fields {', '.join(names)}")
        # not through self.__dict__: a materialized dict makes every read 4x slower
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in names[len(args):]:
            if name not in kwargs and not hasattr(cls, name):
                raise TypeError(f"{cls.__name__} needs the field {name}")
            object.__setattr__(self, name, kwargs.get(name, getattr(cls, name, None)))
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash((type(self), self._values()))

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


# ---------------------------------------------------------------------------
# windowed sets


def first_member(mask: np.ndarray) -> int | None:
    """The least n with ``mask[n]``, or None; builds no index array."""
    hit = int(np.argmax(mask))
    return hit if mask[hit] else None


class WindowedSet(Record):
    """A finite window onto a subset of the naturals.

    ``mask[n]`` says whether n is a member, for n in ``[0, horizon)``; the
    horizon is the mask's length.  ``complete`` records whether the mask is
    exhaustive on the window; difference sets only promise soundness (every
    member genuine).  Build windows with :meth:`from_mask`.  Windows compare
    by identity.
    """

    mask: np.ndarray
    complete: bool = True
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __post_init__(self) -> None:
        if self.mask.size < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.mask.size}")
        self.mask.setflags(write=False)

    @property
    def horizon(self) -> int:
        return self.mask.size

    @cached_property
    def values(self) -> np.ndarray:
        """The members in increasing order."""
        return np.flatnonzero(self.mask)

    @classmethod
    def from_mask(cls, mask: np.ndarray, complete: bool = True) -> "WindowedSet":
        """Wrap ``mask`` (not copied when already boolean) and make it read-only."""
        return cls(np.asarray(mask, dtype=bool), complete)

    def __contains__(self, n: object) -> bool:
        try:
            n = operator.index(n)
        except TypeError:
            return False
        return 0 <= n < self.mask.size and bool(self.mask[n])

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))

    def __iter__(self) -> Iterator[int]:
        return iter(self.values.tolist())

    def first(self) -> int | None:
        """The least member, or None when the window is empty."""
        return first_member(self.mask)


# ---------------------------------------------------------------------------
# set rules


class SetRule(Record):
    """Algebraic description of an infinite subset of the naturals.

    Subclasses are records; :func:`materialize` evaluates them
    exactly on a window.  ``preserves_completeness`` is False for rules whose
    window value is only a sound under-approximation (difference sets).
    """

    def _mask(self, h: int) -> np.ndarray:
        raise NotImplementedError

    def depth(self) -> int:
        return 1

    def preserves_completeness(self) -> bool:
        return True

    def residues(self, modulus: int) -> frozenset[int] | None:
        """Residues mod ``modulus`` provably covering the set, or None."""
        return None

    def literal(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.literal()


def _full_residues(modulus: int) -> frozenset[int]:
    return frozenset(range(modulus))


class Explicit(SetRule):
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ConfigError("explicit() needs at least one element")
        if any(v < 1 for v in self.values):
            raise ConfigError("explicit elements must be positive")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ConfigError("explicit elements must be strictly increasing")

    def _mask(self, h: int) -> np.ndarray:
        out = np.zeros(h, dtype=bool)
        inside = [v for v in self.values if v < h]
        if inside:
            out[inside] = True
        return out

    def residues(self, modulus: int) -> frozenset[int] | None:
        return frozenset(v % modulus for v in self.values)

    def literal(self) -> str:
        return "explicit(" + ",".join(str(v) for v in self.values) + ")"


class Range(SetRule):
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 1:
            raise ConfigError("range lower bound must be positive")
        if self.lo > self.hi:
            raise ConfigError(f"range({self.lo},{self.hi}) requires lo <= hi")

    def _mask(self, h: int) -> np.ndarray:
        out = np.zeros(h, dtype=bool)
        out[self.lo : self.hi + 1] = True
        return out

    def residues(self, modulus: int) -> frozenset[int] | None:
        if self.hi - self.lo + 1 >= modulus:
            return _full_residues(modulus)
        return frozenset(v % modulus for v in range(self.lo, self.hi + 1))

    def literal(self) -> str:
        return f"range({self.lo},{self.hi})"


class ArithmeticProgression(SetRule):
    first: int
    step: int

    def __post_init__(self) -> None:
        if self.first < 1:
            raise ConfigError("progression start must be positive")
        if self.step < 1:
            raise ConfigError("progression step must be >= 1")

    def _mask(self, h: int) -> np.ndarray:
        out = np.zeros(h, dtype=bool)
        if self.first < h:
            out[self.first :: self.step] = True
        return out

    def residues(self, modulus: int) -> frozenset[int] | None:
        return frozenset((self.first + k * self.step) % modulus for k in range(modulus))

    def literal(self) -> str:
        return f"ap({self.first},{self.step})"


class DyadicBlocks(SetRule):
    """Union of the blocks [2^(2k-1), 2^(2k) - 1] for k >= 1.

    Doubling-free: if n is in a block then 2n falls strictly between that
    block and the next one, so n and 2n are never both members.
    """

    def _mask(self, h: int) -> np.ndarray:
        out = np.zeros(h, dtype=bool)
        k = 1
        while True:
            lo = 1 << (2 * k - 1)
            if lo >= h:
                break
            hi = min((1 << (2 * k)) - 1, h - 1)
            out[lo : hi + 1] = True
            k += 1
        return out

    def literal(self) -> str:
        return "dyadic()"


class Naturals(SetRule):
    def _mask(self, h: int) -> np.ndarray:
        out = np.ones(h, dtype=bool)
        out[0] = False
        return out

    def residues(self, modulus: int) -> frozenset[int] | None:
        return _full_residues(modulus)

    def literal(self) -> str:
        return "nat()"


class _Combination(SetRule):
    """The members of any rule (``union``) or of every rule (``inter``)."""

    rules: tuple[SetRule, ...]

    def __post_init__(self) -> None:
        if not self.rules:
            raise ConfigError(f"{self.name}() needs at least one rule")

    def _mask(self, h: int) -> np.ndarray:
        out = self.rules[0]._mask(h).copy()
        for r in self.rules[1:]:
            self.combine(out, r._mask(h), out=out)
        return out

    def depth(self) -> int:
        return 1 + max(r.depth() for r in self.rules)

    def preserves_completeness(self) -> bool:
        return all(r.preserves_completeness() for r in self.rules)

    def literal(self) -> str:
        return f"{self.name}(" + ",".join(r.literal() for r in self.rules) + ")"


class Union(_Combination):
    name, combine = "union", np.logical_or

    def residues(self, modulus: int) -> frozenset[int] | None:
        acc: set[int] = set()
        for r in self.rules:
            rs = r.residues(modulus)
            if rs is None:
                return None
            acc |= rs
        return frozenset(acc)


class Intersection(_Combination):
    name, combine = "inter", np.logical_and

    def residues(self, modulus: int) -> frozenset[int] | None:
        # The set is contained in each factor, so any known residue cover of
        # a factor covers the intersection.
        known = [rs for rs in (r.residues(modulus) for r in self.rules) if rs is not None]
        if not known:
            return None
        acc = known[0]
        for rs in known[1:]:
            acc &= rs
        return acc


class Translate(SetRule):
    rule: SetRule
    offset: int

    def _mask(self, h: int) -> np.ndarray:
        n = self.offset
        if n < -MAX_SHIFT:
            raise CapExceeded(f"shift offset {n} is below the cap -{MAX_SHIFT}")
        child_h = max(1, h - n) if n >= 0 else h - n
        child = self.rule._mask(child_h)
        out = np.zeros(h, dtype=bool)
        if n >= 0:
            hi = min(child_h, h - n)
            if hi > 0:
                out[n : n + hi] = child[:hi]
        else:
            out[: h] = child[-n : -n + h]
        out[0] = False  # intersect with the naturals
        return out

    def depth(self) -> int:
        return 1 + self.rule.depth()

    def preserves_completeness(self) -> bool:
        return self.rule.preserves_completeness()

    def residues(self, modulus: int) -> frozenset[int] | None:
        rs = self.rule.residues(modulus)
        if rs is None:
            return None
        return frozenset((r + self.offset) % modulus for r in rs)

    def literal(self) -> str:
        return f"shift({self.rule.literal()},{self.offset})"


class DifferenceOf(SetRule):
    rule: SetRule

    def _mask(self, h: int) -> np.ndarray:
        child = materialize(self.rule, h)
        return difference_set(child).mask

    def depth(self) -> int:
        return 1 + self.rule.depth()

    def preserves_completeness(self) -> bool:
        # Differences of members beyond the window may be small, so the
        # window value is sound but never exhaustive.
        return False

    def residues(self, modulus: int) -> frozenset[int] | None:
        rs = self.rule.residues(modulus)
        if rs is None:
            return None
        return frozenset((a - b) % modulus for a in rs for b in rs)

    def literal(self) -> str:
        return f"diff({self.rule.literal()})"


# ---------------------------------------------------------------------------
# operations


def materialize(rule: SetRule, horizon: int) -> WindowedSet:
    """Evaluate ``rule`` exactly on [0, horizon)."""
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    if rule.depth() > MAX_RULE_DEPTH:
        raise CapExceeded(f"rule nesting exceeds {MAX_RULE_DEPTH}")
    return WindowedSet.from_mask(rule._mask(horizon), rule.preserves_completeness())


def _smooth_length(m: int) -> int:
    """The least 2^a * 3^b >= m (m >= 1)."""
    best, p3 = 1 << (m - 1).bit_length(), 1
    while p3 < best:
        best = min(best, p3 << ((m - 1) // p3).bit_length())
        p3 *= 3
    return best


# Unit roundoff of float64, and the error assumed of pocketfft's twiddle factors.
_U = 2.0**-53
_MU = 2 * _U


def _gamma(k: int) -> float:
    return k * _U / (1 - k * _U)


def _fft_error_bound(n: int, m_base: int, m_shift: int) -> float:
    """A-priori bound on max_d |computed - exact| of a correlation of length n.

    Higham, *Accuracy and Stability of Numerical Algorithms* (2nd ed., 2002),
    Theorem 24.2: a radix-2 FFT of t stages has normwise relative error at
    most eps = t*eta / (1 - t*eta), eta = mu + gamma_4 (sqrt(2) + mu), mu the
    twiddle error.  Every mixed-radix or real-data pass of a length-n
    transform is charged as two radix-2 stages: t = 2*ceil(log2 n).

    With x, y the padded 0/1 inputs (m_base and m_shift ones), X = Fx,
    Y = Fy, P = conj(Y) X and c = F^-1 P the exact correlation:

    - ||X^ - X||_2 <= eps sqrt(n m_base), ||X||_inf <= m_base; so for Y;
    - a complex product has relative error rho = sqrt(2) gamma_2 (Lemma
      3.5), so ||P^ - P||_2 / sqrt(n) <= s = (1 + rho) eps (sqrt(m_shift)
      (m_base + eps sqrt(n m_base)) + m_shift sqrt(m_base)) + rho m_shift
      sqrt(m_base), times sqrt(2) for the half spectrum irfft mirrors;
    - the inverse has relative error e = (1 + eps)(1 + gamma_2) - 1 (its
      1/n scaling is two roundings), so ||c^ - c||_2 <= e (||c||_2 + s) + s,
      where ||c||_2 <= sqrt(m_base m_shift min(m_base, m_shift)) because c
      sums to m_base m_shift and no entry exceeds min(m_base, m_shift).

    The max norm is at most the 2-norm, and c is integral, so a bound below
    0.5 makes thresholding at 0.5 exact.
    """
    t = 2 * max(1, (n - 1).bit_length())
    eta = _MU + _gamma(4) * (math.sqrt(2) + _MU)
    eps = t * eta / (1 - t * eta)
    rho = math.sqrt(2) * _gamma(2)
    root_b, root_s = math.sqrt(m_base), math.sqrt(m_shift)
    s = math.sqrt(2) * (
        (1 + rho) * eps * (root_s * (m_base + eps * math.sqrt(n) * root_b) + m_shift * root_b)
        + rho * m_shift * root_b
    )
    e = (1 + eps) * (1 + _gamma(2)) - 1
    c_norm = math.sqrt(m_base * m_shift * min(m_base, m_shift))
    return e * (c_norm + s) + s


# The kernel runs only while its error bound is below this, half of the 0.5
# that thresholding absorbs.
_FFT_ERROR_LIMIT = 0.25


def _transform_length(lags: int, span: int, m_sub: int, m_min: int) -> int:
    """The 2^a 3^b length correlating masks at most ``span`` long over lags [0, lags).

    At n >= lags + span - 1, a + d < n for every member a and lag d, so no
    lag wraps round.  ``m_sub`` and ``m_min`` bound the member counts of
    subtrahends and minuends; if the error bound at n is not below
    _FFT_ERROR_LIMIT the thresholded correlation need not be exact, and
    CapExceeded is raised before any transform is allocated.
    """
    n = _smooth_length(lags + span - 1)
    bound = _fft_error_bound(n, m_min, m_sub)
    if bound >= _FFT_ERROR_LIMIT:
        raise CapExceeded(
            f"difference kernel error bound {bound:.3g} at transform length {n} "
            f"is not below {_FFT_ERROR_LIMIT}"
        )
    return n


def _lag_bits(product: np.ndarray, n: int, lags: int, out: np.ndarray | None = None) -> np.ndarray:
    """Lags d in [1, lags) where the correlation with half spectrum ``product`` exceeds 0.5.

    The correlation counts member pairs, so it is integral, and the length
    from :func:`_transform_length` keeps its error below 0.25; ``out`` takes the inverse.
    """
    bits = np.fft.irfft(product, n, out=out)[:lags] > 0.5
    bits[0] = False
    return bits


def _difference_length(s: WindowedSet) -> int:
    """Transform length for the difference set of ``s``: cost cap first, then error bound."""
    h, m = s.horizon, len(s)
    if m * h > _DIFFERENCE_COST_CAP:
        raise CapExceeded(
            f"difference set of {m} members at horizon {h} exceeds the kernel cost cap"
        )
    return _transform_length(h, h, m, m)


def difference_set(s: WindowedSet) -> WindowedSet:
    """All positive pairwise differences of window members.

    Sound but not complete: members beyond the horizon could contribute
    further small differences, so the result is flagged ``complete=False``.
    """
    h, n = s.horizon, _difference_length(s)
    spectrum = np.fft.rfft(s.mask, n)
    spectrum *= spectrum.conj()
    return WindowedSet.from_mask(_lag_bits(spectrum, n, h), complete=False)


def difference_head(s: WindowedSet) -> np.ndarray:
    """:func:`difference_set`'s mask over its first t lags, where t = 2*ceil(log2 n) is the
    stage count its length-n transform is charged: t ANDs of h bits cost about as much."""
    h, mask = s.horizon, s.mask
    head = np.zeros(min(h, 2 * (_difference_length(s) - 1).bit_length()), dtype=bool)
    for d in range(1, head.size):
        head[d] = np.logical_and(mask[: h - d], mask[d:]).any()
    return head


def cross_differences(
    windows: Sequence[WindowedSet], pairs: Sequence[tuple[int, int]], lags: int
) -> Callable[[int, int], np.ndarray]:
    """Masks over [0, lags) of {b - a > 0 : a in windows[i], b in windows[j]}, (i, j) in ``pairs``.

    The cost cap (|windows[i]| times the horizon of windows[j]) is checked
    for every pair and the error bound once, before any transform.  Spectra
    are taken once per window, at a length where no lag below ``lags`` wraps;
    pairs reuse one product and one inverse buffer, so call from one thread.
    """
    counts = [len(w) for w in windows]
    if max(counts[i] * windows[j].horizon for i, j in pairs) > _DIFFERENCE_COST_CAP:
        raise CapExceeded("cross difference exceeds the kernel cost cap")
    subs, mins = zip(*pairs)
    span = max(w.horizon for w in windows)
    n = _transform_length(lags, span, max(counts[i] for i in subs), max(counts[j] for j in mins))
    spectra = [np.fft.rfft(w.mask, n) for w in windows]
    product, correlation = np.empty_like(spectra[0]), np.empty(n)

    def differences(i: int, j: int) -> np.ndarray:
        np.conjugate(spectra[i], out=product)
        np.multiply(product, spectra[j], out=product)
        return _lag_bits(product, n, lags, correlation)

    return differences


def cross_difference(subtrahend: WindowedSet, minuend: WindowedSet) -> WindowedSet:
    """{b - a : b in minuend, a in subtrahend, b > a}; sound, not complete."""
    differences = cross_differences([subtrahend, minuend], [(0, 1)], minuend.horizon)
    return WindowedSet.from_mask(differences(0, 1), complete=False)


def doubling_free_certificate(rule: SetRule) -> dict | None:
    """Structural proof that no n and 2n are both members, if available.

    Only the dyadic block rule carries one: doubling the endpoints of the
    block [2^(2k-1), 2^(2k)-1] lands strictly inside the gap before the
    next block, uniformly in k.
    """
    if isinstance(rule, DyadicBlocks):
        # Endpoint arithmetic, checked exactly for a generous range of k.
        for k in range(1, 64):
            lo, hi = 1 << (2 * k - 1), (1 << (2 * k)) - 1
            nxt = 1 << (2 * k + 1)
            if not (2 * lo > hi and 2 * hi < nxt):
                return None
        return {
            "name": "parity-law",
            "statement": "members double into the gap between consecutive blocks,"
            " so n and 2n are never both members",
            "rule": rule.literal(),
        }
    return None


# ---------------------------------------------------------------------------
# congruence structure


class CongruenceStructure(Record):
    """Proof that the described set is contained in given residues mod m."""

    modulus: int
    residues: frozenset[int]


def congruence_structures(
    rule: SetRule, moduli: Sequence[int] = DEFAULT_MODULI
) -> tuple[CongruenceStructure, ...]:
    """Proper congruence covers derivable from the rule's shape."""
    out = []
    for m in moduli:
        rs = rule.residues(m)
        if rs is not None and len(rs) < m:
            out.append(CongruenceStructure(m, rs))
    return tuple(out)


# ---------------------------------------------------------------------------
# call literals
#
# Every literal is a call, name(arg, ...; arg, ...): an argument is an
# integer -?digits or a nested call, ',' separates arguments and ';' groups
# them; whitespace is ignored.  One cap bounds the nesting: a set rule of
# MAX_RULE_DEPTH levels plus the spacing(...) or nabla(...) around it.

_TOKEN = re.compile(r"[a-z]+|-?\d+|\S")


def parse_call(text: str) -> tuple:
    """The call ``text`` spells, as (name, args, signature); nested calls are args.

    The signature has 'i' per integer, 'c' per nested call and ';' between groups.
    """
    tokens = _TOKEN.findall(text) + [""]
    call, end = _call(tokens, 0, 1, text)
    if tokens[end]:
        raise ConfigError(f"trailing input {tokens[end]!r} in {text!r}")
    return call


def _call(tokens: list[str], at: int, depth: int, text: str) -> tuple[tuple, int]:
    if depth > MAX_RULE_DEPTH + 1:
        raise CapExceeded(f"literal nesting exceeds {MAX_RULE_DEPTH + 1}")
    name = tokens[at]
    if not name.isalpha() or tokens[at + 1] != "(":
        raise ConfigError(f"expected name(...) at {name!r} in {text!r}")
    args, signature, at = [], "", at + 2
    if tokens[at] == ")":
        return (name, (), ""), at + 1
    while True:
        if tokens[at].isalpha():
            arg, at = _call(tokens, at, depth + 1, text)
        else:
            try:  # the one integer conversion
                arg = int(tokens[at])
            except ValueError:  # a stray character, the end, or digits past int()'s limit
                tok = tokens[at]
                what = f"an integer of {len(tok)} digits" if len(tok) > 1 else repr(tok)
                raise ConfigError(f"bad argument in {name}(...): {what}") from None
            at += 1
        args.append(arg)
        signature += "i" if isinstance(arg, int) else "c"
        sep, at = tokens[at], at + 1
        if sep == ")":
            return (name, tuple(args), signature), at
        if sep == ";":
            signature += ";"
        elif sep != ",":
            raise ConfigError(f"expected ',', ';' or ')' in {name}(...), got {sep!r}")


class CallKind:
    """The literals of one kind: name -> (argument pattern, constructor).

    A pattern is a regex over the call's signature.  Nested calls are built
    as ``inner`` (this kind by default) and passed, with the integers, as
    positional arguments of the constructor.
    """

    def __init__(
        self, what: str, table: dict[str, tuple[str, Callable]], inner: "CallKind | None" = None
    ):
        self.what, self.inner = what, inner or self
        self.table = {name: (re.compile(p), make) for name, (p, make) in table.items()}

    def build(self, call: tuple):
        name, args, signature = call
        if name not in self.table:
            raise ConfigError(f"unknown {self.what} {name!r}")
        pattern, make = self.table[name]
        if not pattern.fullmatch(signature):
            raise ConfigError(f"bad arguments to {name}(...): want {pattern.pattern!r}")
        return make(*(a if isinstance(a, int) else self.inner.build(a) for a in args))

    def parse(self, text: str):
        return self.build(parse_call(text))


SET_RULES = CallKind("set rule", {
    "range": ("ii", Range),
    "ap": ("ii", ArithmeticProgression),
    "dyadic": ("", DyadicBlocks),
    "nat": ("", Naturals),
    "evens": ("", lambda: ArithmeticProgression(2, 2)),
    "explicit": ("i+", lambda *values: Explicit(values)),
    "union": ("c+", lambda *rules: Union(rules)),
    "inter": ("c+", lambda *rules: Intersection(rules)),
    "shift": ("ci", Translate),
    "diff": ("c", DifferenceOf),
})


def parse_set_rule(text: str) -> SetRule:
    """range(a,b) ap(a,d) dyadic() nat() evens() explicit(n1,...)
    union(r1,...) inter(r1,...) shift(r,n) diff(r)."""
    return SET_RULES.parse(text)
