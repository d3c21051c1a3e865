"""``Record``: the dataclass behaviour gdro's value types use, built
without generating code.

CPython's ``dataclass`` compiles each class's methods with ``exec``: on
CPython 3.11, 0.4-1.2 ms per class, 14 of the 19.5 ms gdro added to
``import gdro.cli`` when it had 22 dataclasses; this module does not even
import ``dataclasses``, which numpy does not load.  A Record's fields are
the annotations of its classes in MRO order; a class value is a field's
default, and ``Factory(make)`` a fresh ``make()`` per instance, as
``dataclasses.field(default_factory=make)``.  ``__init__`` takes positional
and keyword arguments, then calls ``__post_init__`` if the class has one.
Records compare field by field within one class and print as
``Name(field=value, ...)``.  Those of a ``class C(Record, frozen=True)`` and
its subclasses hash by value and raise FrozenInstanceError (an
AttributeError) on assignment or deletion; the others are unhashable.
Instances keep their ``__dict__``, so they pickle as plain objects.
``replace(record, **changes)`` stands in for ``dataclasses.replace`` and a
class's ``_fields`` for ``dataclasses.fields``.
"""

from __future__ import annotations

from operator import attrgetter


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, a field of a frozen Record."""


class Factory:
    """A field default made fresh for each instance by ``make()``."""

    def __init__(self, make):
        self.make = make


def _frozen(self, name, *value):
    raise FrozenInstanceError("cannot assign to or delete field %r" % name)


def _hash(self):
    return hash(self._key(self))


class Record:
    _fields = ()    # field names, in MRO order
    _defaults = {}  # name -> default value, or its Factory
    _tail = ()      # the defaults of the last fields, up to one without a plain default

    def __init_subclass__(cls, frozen=False, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__annotations__)  # this class's own, empty if it has none
        cls._fields = tuple(dict.fromkeys(cls._fields + own))
        cls._defaults = dict(cls._defaults)
        cls._defaults.update((name, cls.__dict__[name]) for name in own if name in cls.__dict__)
        for name in own:
            if isinstance(cls._defaults.get(name), Factory):
                delattr(cls, name)
        tail = []
        for name in reversed(cls._fields):
            if name not in cls._defaults or isinstance(cls._defaults[name], Factory):
                break
            tail.insert(0, cls._defaults[name])
        cls._tail = tuple(tail)
        # the tuple of the fields, or the one field's value
        cls._key = staticmethod(attrgetter(*cls._fields) if cls._fields else lambda self: ())
        cls._checked = hasattr(cls, "__post_init__")
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _frozen
            cls.__hash__ = _hash

    def __init__(self, *args, **kwargs):
        # all-positional calls, with or without the last defaults, stay fast
        missing = len(self._fields) - len(args)
        if kwargs or not 0 <= missing <= len(self._tail):
            args = self._bind(args, kwargs)
        elif missing:
            args += self._tail[-missing:]
        self.__dict__.update(zip(self._fields, args))
        if self._checked:
            self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs):
        """The values of every field, in order, from a call's arguments."""
        values = dict(zip(cls._fields, args))
        if (len(args) > len(cls._fields) or not kwargs.keys() <= set(cls._fields)
                or values.keys() & kwargs.keys()):
            raise TypeError("%s() takes the arguments %s" % (cls.__name__, cls._fields))
        values.update(kwargs)
        for name in cls._fields:
            if name not in values:
                if name not in cls._defaults:
                    raise TypeError("%s() missing argument %r" % (cls.__name__, name))
                value = cls._defaults[name]
                values[name] = value.make() if isinstance(value, Factory) else value
        return [values[name] for name in cls._fields]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))


def replace(record, **changes):
    """A copy of ``record`` with ``changes`` to its fields, built through its
    class's ``__init__``, so that ``__post_init__`` checks it again."""
    return record.__class__(**{**{name: getattr(record, name) for name in record._fields},
                               **changes})
