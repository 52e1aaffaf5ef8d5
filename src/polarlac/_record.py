"""The package's immutable records, as plain slotted classes.

A record behaves as a frozen dataclass does, without importing
``dataclasses`` (and with it ``inspect``, ``dis``, ``ast`` and ``tokenize``)
in every process.  ``_fields`` names its fields in constructor order; the
constructor takes them by position or keyword, ``repr``, ``==``, ``hash``
and pickling read them, and ``==`` also needs the same class.
"""

def _frozen(action: str, name: str) -> AttributeError:
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(f"cannot {action} field {name!r}")


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        names = self._fields
        values = dict(zip(names, args), **kwargs)
        if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
            raise TypeError(f"{type(self).__qualname__}() takes the fields ({', '.join(names)})")
        for name in names:
            object.__setattr__(self, name, values[name])

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        text = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({text})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        # unpickling runs the constructor, which rebuilds whatever the
        # record derives from its fields (generated code, closures)
        return type(self), self._values()

    def __setattr__(self, name: str, value) -> None:
        raise _frozen("assign to", name)

    def __delattr__(self, name: str) -> None:
        raise _frozen("delete", name)
