"""Semantic-cookie schemas.

Snatch supports two feature types (paper section 3.5): **class**
(categorical, e.g. gender or age bracket) and **number** (bounded
integers, e.g. a demand estimate).  The controller fixes, per
application, the ordered list of sub-cookies (features), each with a
pre-defined bit width; any value outside its valid range is aborted.

A schema compiles to the transport-layer bit layout of paper Figure 3:
an N-bit presence bitmap followed by the fixed-width cookie-stack.
The same schema drives application-layer cookies, where widths are not
constrained by the 160-bit connection-ID budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "FeatureType",
    "Feature",
    "CookieSchema",
    "FeatureValueError",
    "TRANSPORT_COOKIE_BITS",
]

# Bits available for bitmap + cookie-stack in the transport cookie:
# one AES-128 block (see repro.core.transport_cookie).
TRANSPORT_COOKIE_BITS = 128


class FeatureValueError(ValueError):
    """A value outside the feature's declared range (aborted by Snatch)."""


class FeatureType:
    CLASS = "class"
    NUMBER = "number"


@dataclass(frozen=True)
class Feature:
    """One sub-cookie.

    * CLASS features declare their category list; the wire value is the
      category index.
    * NUMBER features declare an inclusive [min, max] range; the wire
      value is the zero-based offset from ``min_value``.
    """

    name: str
    ftype: str
    classes: Tuple[str, ...] = ()
    min_value: int = 0
    max_value: int = 0

    def __post_init__(self):
        if not self.name or any(c in self.name for c in ";=,|"):
            raise ValueError("invalid feature name %r" % self.name)
        if self.ftype == FeatureType.CLASS:
            if len(self.classes) < 2:
                raise ValueError(
                    "class feature %s needs >= 2 categories" % self.name
                )
            if len(set(self.classes)) != len(self.classes):
                raise ValueError(
                    "class feature %s has duplicate categories" % self.name
                )
        elif self.ftype == FeatureType.NUMBER:
            if self.max_value < self.min_value:
                raise ValueError(
                    "feature %s has empty range [%d, %d]"
                    % (self.name, self.min_value, self.max_value)
                )
        else:
            raise ValueError("unknown feature type %r" % self.ftype)

    # cached_property writes straight into __dict__, which a frozen
    # dataclass without __slots__ permits; Feature is immutable after
    # __post_init__ so the derived widths can never go stale, and the
    # generated __eq__/__hash__ look only at declared fields.
    @cached_property
    def cardinality(self) -> int:
        if self.ftype == FeatureType.CLASS:
            return len(self.classes)
        return self.max_value - self.min_value + 1

    @cached_property
    def bits(self) -> int:
        """Wire width: enough bits for every valid value."""
        return max(1, (self.cardinality - 1).bit_length())

    @cached_property
    def _class_index(self) -> Dict[str, int]:
        return {cls: i for i, cls in enumerate(self.classes)}

    def encode_value(self, value: Any) -> int:
        """Value -> wire integer; raises FeatureValueError when outside
        the valid range (Snatch aborts such data, section 3.5)."""
        if self.ftype == FeatureType.CLASS:
            try:
                wire = self._class_index.get(value)
            except TypeError:  # unhashable value can't be a class
                wire = None
            if wire is None:
                raise FeatureValueError(
                    "%r is not a class of feature %s" % (value, self.name)
                )
            return wire
        if not isinstance(value, int) or isinstance(value, bool):
            raise FeatureValueError(
                "feature %s needs an int, got %r" % (self.name, value)
            )
        if not self.min_value <= value <= self.max_value:
            raise FeatureValueError(
                "feature %s value %d outside [%d, %d]"
                % (self.name, value, self.min_value, self.max_value)
            )
        return value - self.min_value

    def decode_value(self, wire: int) -> Any:
        if not 0 <= wire < self.cardinality:
            raise FeatureValueError(
                "wire value %d outside feature %s cardinality %d"
                % (wire, self.name, self.cardinality)
            )
        if self.ftype == FeatureType.CLASS:
            return self.classes[wire]
        return wire + self.min_value

    @classmethod
    def categorical(cls, name: str, classes: Sequence[str]) -> "Feature":
        return cls(name=name, ftype=FeatureType.CLASS, classes=tuple(classes))

    @classmethod
    def number(cls, name: str, min_value: int, max_value: int) -> "Feature":
        return cls(
            name=name,
            ftype=FeatureType.NUMBER,
            min_value=min_value,
            max_value=max_value,
        )


@dataclass(frozen=True)
class CookieSchema:
    """An application's ordered feature list plus derived bit layout."""

    app_name: str
    features: Tuple[Feature, ...]

    def __post_init__(self):
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise ValueError("duplicate feature names in schema")
        if not self.features:
            raise ValueError("schema needs at least one feature")

    @cached_property
    def _feature_map(self) -> Dict[str, Feature]:
        return {f.name: f for f in self.features}

    def feature(self, name: str) -> Feature:
        found = self._feature_map.get(name)
        if found is None:
            raise KeyError("schema has no feature %r" % name)
        return found

    def feature_names(self) -> List[str]:
        return [f.name for f in self.features]

    @property
    def bitmap_bits(self) -> int:
        return len(self.features)

    @cached_property
    def stack_bits(self) -> int:
        return sum(f.bits for f in self.features)

    @property
    def total_bits(self) -> int:
        return self.bitmap_bits + self.stack_bits

    def fits_transport(self) -> bool:
        """Whether all sub-cookies fit the transport-layer budget; if
        not, the developer moves some to the application layer
        (section 3.5, API 2)."""
        return self.total_bits <= TRANSPORT_COOKIE_BITS

    def validate_values(self, values: Dict[str, Any]) -> Dict[str, int]:
        """Encode a (partial) feature dict to wire integers."""
        out: Dict[str, int] = {}
        for name, value in values.items():
            out[name] = self.feature(name).encode_value(value)
        return out

    def split_for_transport(self) -> Tuple["CookieSchema", Optional["CookieSchema"]]:
        """Greedily keep leading features in the transport cookie and
        spill the rest to an application-layer schema."""
        used = 0
        cut = 0
        for feature in self.features:
            cost = 1 + feature.bits  # bitmap bit + stack bits
            if used + cost > TRANSPORT_COOKIE_BITS:
                break
            used += cost
            cut += 1
        if cut == 0:
            raise ValueError("first feature alone exceeds the transport budget")
        transport = CookieSchema(self.app_name, self.features[:cut])
        if cut == len(self.features):
            return transport, None
        overflow = CookieSchema(self.app_name, self.features[cut:])
        return transport, overflow
