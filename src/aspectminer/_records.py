"""The ``@record`` decorator of the frozen slotted records.

``@record`` declares a class ``@dataclass(frozen=True, slots=True)``
whose ``__init__`` is compiled from the field list, as the generated
one is, but stores each argument through its slot's own setter::

    def __init__(self, aspect_term, strength, flags=frozenset()):
        _set_aspect_term(self, aspect_term)
        ...

A slot setter skips the frozen ``__setattr__`` as the generated
``__init__``'s ``object.__setattr__(self, name, value)`` does, without
looking the name up, so a record built positionally costs about half
as much.  The parameters, their defaults and annotations, and the
qualname are the generated ``__init__``'s, so the signature and the
``TypeError`` of a bad call are unchanged.

``dataclass(slots=True)`` builds a new class, but the frozen
``__setattr__`` and ``__delattr__`` it generates name the first one,
which the instances do not belong to, so for a name that is not a field
their ``super()`` call raises ``TypeError``.  ``@record`` installs both
again, bound to the class it returns, so that every assignment and
deletion raises ``FrozenInstanceError``.
"""

from __future__ import annotations

import inspect
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields


def record(cls: type) -> type:
    """``cls`` as a frozen slotted dataclass with the slot-setter ``__init__``."""
    undocumented = cls.__doc__ is None
    if undocumented:
        # dataclass would document the class from object's builtin
        # signature, which costs inspect a tokenize pass, only to be
        # overwritten below
        cls.__doc__ = cls.__name__
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    declared = fields(cls)
    names = [f.name for f in declared]
    namespace = {f"_set_{name}": cls.__dict__[name].__set__ for name in names}
    body = "".join(f"    _set_{name}(self, {name})\n" for name in names)
    exec(f"def __init__(self, {', '.join(names)}):\n{body}", namespace)
    init = namespace.pop("__init__")
    init.__defaults__ = tuple(f.default for f in declared if f.default is not MISSING) or None
    init.__annotations__ = {f.name: f.type for f in declared} | {"return": None}
    init.__module__ = cls.__module__
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    frozen = frozenset(names)

    def __setattr__(self, name, value):
        if type(self) is cls or name in frozen:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in frozen:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    for method in (__setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    if undocumented:  # as dataclass documents a class, from the new signature
        cls.__doc__ = cls.__name__ + str(inspect.signature(cls)).replace(" -> None", "")
    return cls
