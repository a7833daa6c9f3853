"""Frozen records without the ``dataclasses`` machinery.

``Record`` stands in for ``@dataclass(frozen=True)``: importing
``dataclasses`` (with ``inspect``, ``ast``, ``dis`` and ``tokenize``)
and generating code per class was about a seventh of the start-up time
of a CLI process.  A subclass's fields are its own annotations, in order,
with no defaults; ``__post_init__`` runs when defined; equality, hash
and repr go field by field, as the dataclass's did.

Every library value is a Record: the reports, the validated inputs
(``CorrSpec``, ``Cocycle3``, ``FusionRing``, ``RealCyclotomic``, the
lattices) and the certificates, so none changes after its verify().
``__post_init__`` normalises input by writing through ``self.__dict__``,
and a value that other fields determine is a property, or a
``functools.cached_property`` when it is costly and read more than once
(``RealCyclotomic.two_factorization``, ``ActionQuery.primes``): it is
stored in the instance ``__dict__`` on first read, outside the fields,
so equality and hash do not see it.  ``IntMatrix``,
``PolyZ`` and ``PolyF2`` are not Records: they are the slotted numeric
types built in inner loops, and ``IntMatrix`` caches its nonzero view.
"""


class Record:
    _fields = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    def _bind(self, args, kwargs) -> tuple:
        """The field values, in order, of a call by keyword."""
        fields = self._fields
        values = dict(zip(fields, args), **kwargs)
        # a missing, extra, unknown or repeated field breaks one of these
        if len(args) + len(kwargs) != len(fields) or \
                values.keys() != set(fields):
            raise TypeError("%s takes one value for each of: %s"
                            % (type(self).__name__, ", ".join(fields)))
        return tuple(values[f] for f in fields)

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def _values(self) -> tuple:
        return tuple(self.__dict__[f] for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (f, self.__dict__[f]) for f in self._fields))
