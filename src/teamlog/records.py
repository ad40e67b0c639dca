"""Immutable value records with no code generated at run time: ``_fields``
lists the parameters of a record's own ``__init__``, or is spelled out."""

_set = object.__setattr__


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        init = cls.__dict__.get("__init__")
        if init is not None:
            cls._fields = init.__code__.co_varnames[1:init.__code__.co_argcount]

    def __init__(self, *args, **kwargs):
        """Each field by position or keyword, else its class attribute."""
        names = self._fields
        given = dict(zip(names, args), **kwargs)
        if (len(given) < len(args) + len(kwargs) or not given.keys() <= set(names)
                or not all(n in given or hasattr(self, n) for n in names)):
            raise TypeError(f"{type(self).__name__}() takes the fields {names}")
        for name in names:
            _set(self, name, given[name] if name in given else getattr(self, name))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return (self._values() == other._values() if type(other) is type(self)
                else NotImplemented)

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__
