"""The base of the package's immutable records, in place of frozen
dataclasses, whose module alone costs several milliseconds of start-up."""


class Record:
    """An immutable record whose fields are its class's annotated names, in order.

    The constructor takes each field exactly once, by position or keyword,
    and stores the fields in their declared order. A record that checks or
    converts its fields defines its own __init__, which stores them in that
    order too. Records compare equal only to records of the same class with
    equal fields, and hash over the fields. Assignment and deletion raise
    dataclasses.FrozenInstanceError, whose module is loaded only then.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self._fields
        rest = names[len(args) :]
        if len(args) > len(names) or kwargs.keys() != set(rest):
            raise TypeError(f"{type(self).__name__}() takes each of {names} exactly once")
        self.__dict__.update(zip(names, args))
        for name in rest:
            self.__dict__[name] = kwargs[name]

    def _values(self) -> tuple:
        return tuple([self.__dict__[name] for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object = None) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__
