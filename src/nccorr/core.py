"""Shared domain types and exception hierarchy."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Tuple

import numpy as np


class NccorrError(Exception):
    """Base class for all library errors."""


class NonHermitian(NccorrError):
    pass


class NoConvergence(NccorrError):
    pass


class BadSubsystemIndex(NccorrError):
    pass


class NotAProbabilityVector(NccorrError):
    pass


class DimensionMismatch(NccorrError):
    pass


class ParamOutOfRange(NccorrError):
    pass


class ParseError(NccorrError):
    pass


class ValidationFailure(NccorrError):
    pass


class PartitionCapExceeded(NccorrError):
    pass


def kept(store: dict, key: Hashable, make: Callable[[], Any]) -> Any:
    """store[key], made on first use and stored with every array in it set read-only.

    Of concurrent first calls the first stored serves (`setdefault`); a make
    that raises stores nothing.
    """
    got = store.get(key)
    return store.setdefault(key, _read_only(make())) if got is None else got


def _read_only(x: Any) -> Any:
    """x with every array in it, through dicts, lists and tuples, set read-only."""
    if isinstance(x, np.ndarray):
        x.setflags(write=False)
    elif isinstance(x, (dict, list, tuple)):
        for v in x.values() if isinstance(x, dict) else x:
            _read_only(v)
    return x


def checked_dims(dims) -> Tuple[int, ...]:
    """dims as a tuple of ints; DimensionMismatch if it is empty or any d is below 2."""
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 2 for d in dims):
        raise DimensionMismatch(f"subsystem dims must all be >= 2, got {dims}")
    return dims


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Multipartite state: subsystem dimensions plus the full matrix.

    `mat` is a read-only copy, so what `qmat` keeps on the state (`_kept`,
    filled by `kept`) cannot go stale.  A state equals only itself and
    hashes by identity.
    """

    dims: Tuple[int, ...]
    mat: np.ndarray
    _kept: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        dims = checked_dims(self.dims)
        mat = _read_only(np.array(self.mat, dtype=np.complex128))
        d_tot = math.prod(dims)
        if mat.shape != (d_tot, d_tot):
            raise DimensionMismatch(
                f"matrix shape {mat.shape} does not match dims {dims} (d_tot={d_tot})"
            )
        if not np.all(np.isfinite(mat.view(float))):
            raise ValidationFailure("matrix contains non-finite entries")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "mat", mat)

    @property
    def d_tot(self) -> int:
        return self.mat.shape[0]

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)


@dataclass(frozen=True, eq=False)
class ProductBasis:
    """One local orthonormal basis per subsystem (columns of each unitary).

    A basis equals only itself and hashes by identity, as a state does.
    """

    factors: Tuple[np.ndarray, ...]

    def __post_init__(self):
        facs = tuple(np.asarray(f, dtype=np.complex128) for f in self.factors)
        for f in facs:
            if f.ndim != 2 or f.shape[0] != f.shape[1]:
                raise DimensionMismatch("basis factors must be square matrices")
        object.__setattr__(self, "factors", facs)

    @property
    def dims(self) -> Tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)

    def unitarity_residual(self) -> float:
        res = 0.0
        for f in self.factors:
            d = f.shape[0]
            res = max(res, float(np.max(np.abs(f.conj().T @ f - np.eye(d)))))
        return res
