"""Hand-written constructors for the frozen slotted per-sentence records.

A record is declared ``@dataclass(frozen=True, slots=True, init=False)``
with an ``__init__`` that takes the fields in order, with their
defaults, and stores each argument through its slot's own setter::

    def __init__(self, aspect_term, strength, flags=frozenset()):
        _set_aspect_term(self, aspect_term)
        ...

    _set_aspect_term, ... = slot_setters(GoldAnnotation)

A slot setter skips the frozen ``__setattr__`` as the generated
``__init__``'s ``object.__setattr__(self, name, value)`` does, without
looking the name up, so a record built positionally costs about half
as much.
"""

from __future__ import annotations

from dataclasses import MISSING, fields
from typing import Any, Callable


def slot_setters(cls: type) -> tuple[Callable[[Any, Any], None], ...]:
    """The ``__set__`` of each field's slot of ``cls``, in field order.

    Also gives ``cls.__init__`` the annotations the generated one would
    carry, so ``inspect.signature(cls)`` is unchanged.  Raises TypeError
    when the ``__init__`` parameters are not the fields, in order, with
    their defaults.
    """
    init = cls.__init__
    code = init.__code__
    params = code.co_varnames[1 : code.co_argcount]
    defaults = tuple(f.default for f in fields(cls) if f.default is not MISSING)
    if params != tuple(f.name for f in fields(cls)) or (init.__defaults__ or ()) != defaults:
        raise TypeError(f"{cls.__qualname__}.__init__ does not take the fields in order")
    init.__annotations__ = {f.name: f.type for f in fields(cls)}
    init.__annotations__["return"] = None
    return tuple(cls.__dict__[f.name].__set__ for f in fields(cls))
