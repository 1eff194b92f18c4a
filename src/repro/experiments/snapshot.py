"""Checkpoint and restore of a whole object graph, by pickling it.

A shared warm-up (see :func:`repro.experiments.runner.run_batch`)
simulates one system through the policy-off phase, checkpoints it, and
restores one independent copy per config that shares the warm-up.
``pickle`` rather than ``copy.deepcopy``: deepcopy copies functions by
reference, so a closure over the simulator (a clock, a deferred
callback) would keep reading the *original* system, while pickle
refuses it.  A graph that does not pickle raises from
:class:`Checkpoint`, and the caller falls back to fresh runs.

Objects named as *shared* are not copied: every restored graph refers
to the very same instance (the pickler's ``persistent_id``).  The
runner shares the RC network and its solver, which hold no per-run
state and whose factorizations (scipy ``SuperLU``) do not pickle.
"""

from __future__ import annotations

import copyreg
import io
import pickle
from typing import Any, Dict, Sequence

_HEAPTYPE = 1 << 9      # Py_TPFLAGS_HEAPTYPE: a class defined in Python

#: Class attributes that customize pickling; a class defining any of
#: them keeps its own protocol.
_CUSTOM = ("__reduce__", "__reduce_ex__", "__getstate__", "__setstate__",
           "__getnewargs__", "__getnewargs_ex__")


def _set_attributes(obj: Any, state: Dict[str, Any]) -> None:
    """Restore ``state`` one attribute at a time.

    CPython 3.11 stores the attributes of a fresh instance inline, in
    the order of its class's shared keys, and the specializing
    interpreter reads them there on its fast path.  Pickle's default
    restore writes through ``obj.__dict__``, which materializes a real
    dict and drops the inline values: every attribute read afterwards
    takes a slower path.  Restored that way, the 12 mobile configs of
    the threshold-sweep golden ran their measured phases 25-30% slower
    than freshly built systems (CPython 3.11.7, 2-vCPU Xeon), which
    cancelled the shared warm-up's gain.  Setting attributes one by
    one keeps them inline and runs at fresh-build speed.
    ``object.__setattr__`` also bypasses frozen dataclasses'
    ``__setattr__``, as the default restore does.
    """
    for name, value in state.items():
        object.__setattr__(obj, name, value)


def _plain(cls: type) -> bool:
    """True for a Python class pickled as ``__new__`` plus its ``__dict__``."""
    for base in cls.__mro__[:-1]:
        if not base.__flags__ & _HEAPTYPE:
            return False            # a builtin base (list, ndarray, type...)
        slots = vars(base).get("__slots__", ())
        if isinstance(slots, str) or any(
                slot not in ("__dict__", "__weakref__") for slot in slots):
            return False
        if any(name in vars(base) for name in _CUSTOM):
            return False
    return cls.__mro__[-1] is object and cls not in copyreg.dispatch_table


class _Pickler(pickle.Pickler):
    def __init__(self, file, shared: Sequence[Any]):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._shared = {id(obj): index for index, obj in enumerate(shared)}
        self._plain: Dict[type, bool] = {}

    def persistent_id(self, obj: Any):
        return self._shared.get(id(obj))

    def reducer_override(self, obj: Any):
        cls = type(obj)
        plain = self._plain.get(cls)
        if plain is None:
            plain = self._plain[cls] = _plain(cls)
        if not plain:
            return NotImplemented
        return (copyreg.__newobj__, (cls,), obj.__dict__, None, None,
                _set_attributes)


class _Unpickler(pickle.Unpickler):
    def __init__(self, file, shared: Sequence[Any]):
        super().__init__(file)
        self._shared = shared

    def persistent_load(self, pid: int) -> Any:
        return self._shared[pid]


class Checkpoint:
    """A frozen copy of ``obj`` that restores to independent copies.

    ``shared`` objects are kept by reference in every restored copy.
    Raises :class:`pickle.PicklingError`, :class:`TypeError` or
    :class:`AttributeError` when some part of ``obj`` cannot be pickled
    (a lambda, a lock, an open file).
    """

    def __init__(self, obj: Any, shared: Sequence[Any] = ()):
        self._shared = tuple(shared)
        buffer = io.BytesIO()
        _Pickler(buffer, self._shared).dump(obj)
        self._blob = buffer.getvalue()

    def restore(self) -> Any:
        """A fresh, independent copy of the checkpointed object."""
        return _Unpickler(io.BytesIO(self._blob), self._shared).load()
