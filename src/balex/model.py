"""Core domain types for balanced-exchange markets.

An instance fixes the agents (in priority order), the object universe and a
disjoint endowment per agent.  Preferences over individual objects are weak
orders stored as indifference classes; the trichotomous form keeps only the
attractive set A (top class) and the bearable set B (second class).  All types
are immutable after validation and every operation here is a pure function.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence


class ValidationError(ValueError):
    """Raised when raw market data violates a model invariant."""


class NotTrichotomousError(ValidationError):
    """Raised when a marginal preference ranks an endowed object below class 2."""


class MechanismInvariantError(RuntimeError):
    """A broken internal invariant — a bug signal, never a semantic branch."""


def canon(objects: Iterable[str]) -> tuple[str, ...]:
    """Canonical (sorted) tuple of identifiers, the iteration order used everywhere."""
    return tuple(sorted(objects))


@dataclass(frozen=True)
class Instance:
    """A balanced-exchange market: agents in priority order plus disjoint endowments."""

    agents: tuple[str, ...]
    objects: frozenset[str]
    endowment: Mapping[str, frozenset[str]]

    @cached_property
    def object_ids(self) -> tuple[str, ...]:
        return canon(self.objects)

    @cached_property
    def object_index(self) -> dict[str, int]:
        return {o: i for i, o in enumerate(self.object_ids)}

    @cached_property
    def agent_index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.agents)}

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(self.endowment[a]) for a in self.agents)

    @cached_property
    def endowment_masks(self) -> tuple[int, ...]:
        return tuple(self.mask(self.endowment[a]) for a in self.agents)

    def mask(self, objs: Iterable[str]) -> int:
        idx = self.object_index
        m = 0
        for o in objs:
            m |= 1 << idx[o]
        return m

    def unmask(self, mask: int) -> frozenset[str]:
        ids = self.object_ids
        out = []
        while mask:
            low = mask & -mask
            out.append(ids[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)

    def endowment_matching(self) -> Matching:
        """The endowment itself, viewed as a matching."""
        return Matching({a: self.endowment[a] for a in self.agents})

    def with_priority(self, order: Sequence[str]) -> Instance:
        """Same market with the agent priority order permuted."""
        if sorted(order) != sorted(self.agents):
            raise ValidationError(f"priority order {order!r} is not a permutation of the agents")
        return Instance(tuple(order), self.objects, dict(self.endowment))


@dataclass(frozen=True)
class Matching:
    """Assignment of the full object universe to agents, balanced per agent."""

    assignment: Mapping[str, frozenset[str]]

    def key(self, instance: Instance) -> tuple[tuple[str, ...], ...]:
        """Canonical comparison key: sorted bundles in agent priority order."""
        return tuple(canon(self.assignment[a]) for a in instance.agents)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return dict(self.assignment) == dict(other.assignment)

    def __hash__(self) -> int:
        return hash(frozenset(self.assignment.items()))


@dataclass(frozen=True)
class MarginalPreference:
    """Weak order over objects as an ordered tuple of indifference classes (best first).

    Empty classes are legal placeholders so class indices stay aligned with
    DomainSpec ranks.
    """

    owner: str
    classes: tuple[frozenset[str], ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for cls in self.classes:
            dup = seen & cls
            if dup:
                raise ValidationError(f"object(s) {canon(dup)} appear in two indifference classes")
            seen |= cls

    @cached_property
    def ranks(self) -> dict[str, int]:
        """Object -> 1-based indifference class index."""
        out: dict[str, int] = {}
        for k, cls in enumerate(self.classes, start=1):
            for o in cls:
                out[o] = k
        return out

    def universe(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for cls in self.classes:
            out |= cls
        return out

    def validate_universe(self, objects: frozenset[str]) -> None:
        if self.universe() != objects:
            raise ValidationError(
                f"classes of agent {self.owner!r} do not partition the object universe"
            )


@dataclass(frozen=True)
class TrichotomousPreference:
    """Marginal preference stored as attractive set A and bearable set B.

    Everything outside A ∪ B sits in a single unacceptable tier; ranks below
    the second class carry no extra information once component-wise individual
    rationality is imposed.
    """

    owner: str
    attractive: frozenset[str]
    bearable: frozenset[str]

    def __post_init__(self) -> None:
        if self.attractive & self.bearable:
            raise ValidationError(
                f"agent {self.owner!r}: attractive and bearable sets must be disjoint"
            )

    def acceptable(self) -> frozenset[str]:
        return self.attractive | self.bearable

    def to_classes(self, objects: frozenset[str]) -> MarginalPreference:
        """Reconstruct the three-class marginal preference [A, B, rest] over `objects`."""
        rest = objects - self.attractive - self.bearable
        return MarginalPreference(
            self.owner, (frozenset(self.attractive), frozenset(self.bearable), frozenset(rest))
        )


Profile = dict[str, TrichotomousPreference]
MarginalProfile = dict[str, MarginalPreference]
# one agent's preference in either form, and a profile of them, as market_from_json reads it
Preference = MarginalPreference | TrichotomousPreference
AnyProfile = Mapping[str, Preference]


@dataclass(frozen=True)
class DomainSpec:
    """A preference domain given by indicator functions over indifference-class ranks.

    epsilon[k] says whether endowed objects may sit in class k, nu[k] the same
    for non-endowed objects.  Both maps are finitely supported and default to 0
    beyond the highest stored rank.
    """

    epsilon: Mapping[int, int]
    nu: Mapping[int, int]
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.nu_at(1) != 1:
            raise ValidationError("domain must allow trade: nu(1) = 1 is required")
        if not any(v == 1 for v in self.epsilon.values()):
            raise ValidationError("domain must place endowed objects somewhere: epsilon ≡ 0")
        top = max(list(self.epsilon) + list(self.nu))
        for k in range(1, top + 1):
            if (self.eps_at(k) == 1 or self.nu_at(k) == 1) and any(
                self.eps_at(j) + self.nu_at(j) == 0 for j in range(1, k)
            ):
                raise ValidationError(f"rank {k} is allowed but an earlier rank is forced empty")

    def eps_at(self, k: int) -> int:
        return self.epsilon.get(k, 0)

    def nu_at(self, k: int) -> int:
        return self.nu.get(k, 0)

    @staticmethod
    def dichotomous() -> DomainSpec:
        return DomainSpec({1: 1, 2: 1}, {1: 1, 2: 1}, name="dichotomous")

    @staticmethod
    def m_chotomous(m: int) -> DomainSpec:
        ones = {k: 1 for k in range(1, m + 1)}
        return DomainSpec(ones, dict(ones), name=f"{m}-chotomous")

    @staticmethod
    def trichotomous(max_rank: int = 3) -> DomainSpec:
        eps = {1: 1, 2: 1}
        eps.update({k: 0 for k in range(3, max_rank + 1)})
        nu = {k: 1 for k in range(1, max_rank + 1)}
        return DomainSpec(eps, nu, name="trichotomous")

    @staticmethod
    def strongly_trichotomous(max_rank: int = 3) -> DomainSpec:
        eps = {1: 1, 2: 1}
        eps.update({k: 0 for k in range(3, max_rank + 1)})
        nu = {1: 1, 2: 0}
        nu.update({k: 1 for k in range(3, max_rank + 1)})
        return DomainSpec(eps, nu, name="strongly-trichotomous")


def _identifiers(
    value: object, what: str, agent: str = "", names: Mapping[str, str] | None = None
) -> list[str]:
    """The items of a list of identifiers, as strings; a string, a number, a
    map or null where the list belongs is invalid, and the error names the
    list as `what`, with any `{!r}` in it filled by `agent`.  With `names`, a
    market's table of its object identifiers, each item that is one of them
    becomes the table's own string, so a market keeps one string per object."""
    if not isinstance(value, (list, tuple, set, frozenset)):
        raise ValidationError(f"{what.format(agent)} must be a list of identifiers")
    if names is not None:
        try:
            return list(map(names.__getitem__, value))
        except (KeyError, TypeError):  # an unknown or unhashable item
            pass
    return [str(o) for o in value]


def validate_instance(raw: Mapping[str, object]) -> Instance:
    """Validate raw instance data (agents, objects, endowments) into an Instance."""
    return _validate_instance(raw)[0]


def _validate_instance(raw: Mapping[str, object]) -> tuple[Instance, dict[str, str]]:
    """validate_instance, and the market's table of its object identifiers."""
    agents = raw.get("agents")
    endowments = raw.get("endowments")
    if not isinstance(agents, (list, tuple)) or not agents:
        raise ValidationError("instance needs a non-empty 'agents' list")
    if not all(isinstance(a, str) for a in agents):
        raise ValidationError("agent identifiers must be strings")
    if len(set(agents)) != len(agents):
        raise ValidationError("duplicate agent identifiers")
    objects = _identifiers(raw.get("objects"), "'objects'")
    if not isinstance(endowments, Mapping):
        raise ValidationError("instance needs an 'endowments' map")
    names = {o: o for o in objects}
    if len(names) != len(objects):
        raise ValidationError("duplicate object identifiers")
    universe = frozenset(names)
    if set(endowments) != set(agents):
        raise ValidationError("endowments must cover exactly the listed agents")

    endowment: dict[str, frozenset[str]] = {}
    claimed: dict[str, str] = {}
    for a in agents:
        own = frozenset(_identifiers(endowments[a], "endowment of agent {!r}", a, names))
        if not own:
            raise ValidationError(f"agent {a!r} has an empty endowment")
        stray = own - universe
        if stray:
            raise ValidationError(f"agent {a!r} endows unknown object(s) {canon(stray)}")
        for o in own:
            if o in claimed:
                raise ValidationError(
                    f"object {o!r} endowed to both {claimed[o]!r} and {a!r}"
                )
            claimed[o] = a
        endowment[a] = own
    orphans = universe - set(claimed)
    if orphans:
        raise ValidationError(f"object(s) {canon(orphans)} are owned by nobody")
    return Instance(tuple(agents), universe, endowment), names


def validate_matching(instance: Instance, raw: Mapping[str, object]) -> Matching:
    """Parse an agent -> bundle map into a Matching and check it with matching_masks."""
    mu = Matching({a: frozenset(_identifiers(b, "bundle of agent {!r}", a)) for a, b in raw.items()})
    matching_masks(instance, mu)
    return mu


def matching_masks(instance: Instance, mu: Matching) -> list[int]:
    """The bundle masks of `mu` in priority order: the one matching rule.  A
    ValidationError unless `mu` gives a bundle to each of the instance's
    agents and to no other, and the bundles partition the instance's objects
    with each the size of its agent's endowment."""
    masks, seen = [], 0
    assignment = mu.assignment
    for a, size in zip(instance.agents, instance.sizes):
        if a not in assignment:
            raise ValidationError(f"matching assigns no bundle to agent {a!r}")
        bundle = assignment[a]
        try:
            m = instance.mask(bundle)
        except KeyError:
            stray = canon(set(bundle) - instance.objects)
            raise ValidationError(f"agent {a!r} assigned unknown object(s) {stray}") from None
        if m & seen:
            raise ValidationError(f"object(s) {canon(instance.unmask(m & seen))} assigned twice")
        if m.bit_count() != size:
            raise ValidationError(
                f"agent {a!r} gets {m.bit_count()} objects but is endowed with {size} "
                "(exchange must be balanced)"
            )
        seen |= m
        masks.append(m)
    if len(assignment) != len(masks):
        stray = canon(set(assignment) - set(instance.agents))
        raise ValidationError(f"matching assigns a bundle to unknown agent(s) {stray}")
    return masks


def check_profile(instance: Instance, prefs: AnyProfile) -> None:
    """The one profile rule: every agent has a preference, and each passes
    _check_preference.  A ValidationError names the first agent at fault, in
    priority order."""
    for a in instance.agents:
        if a not in prefs:
            raise ValidationError(f"no preference given for agent {a!r}")
        _check_preference(instance, a, prefs[a])


def _check_preference(instance: Instance, a: str, pref: Preference) -> None:
    """Agent a's preference names only the instance's objects and fits the
    agent (_check_fit); market_from_json applies this to each preference."""
    objects = instance.objects
    if isinstance(pref, TrichotomousPreference):
        known = pref.attractive <= objects and pref.bearable <= objects
    else:
        known = all(cls <= objects for cls in pref.classes)
    if not known:
        stray = canon(frozenset().union(*_classes(pref)) - objects)
        raise ValidationError(f"agent {a!r}: unknown object(s) {stray}")
    _check_fit(instance, a, pref)


def _check_fit(instance: Instance, a: str, pref: Preference) -> None:
    """What masking a preference cannot see: a trichotomous one's A ∪ B
    holds its agent's endowment, and a class-based one's classes partition
    the objects."""
    if isinstance(pref, MarginalPreference):
        pref.validate_universe(instance.objects)
    elif instance.endowment[a] - pref.attractive - pref.bearable:
        raise ValidationError(f"agent {a!r}: endowment not contained in A ∪ B")


def _classes(pref: Preference) -> tuple[frozenset[str], ...]:
    if isinstance(pref, MarginalPreference):
        return pref.classes
    return pref.attractive, pref.bearable


def require_trichotomous(prefs: Mapping[str, object], what: str) -> None:
    """Refuse a profile that is not all trichotomous preferences: `what`, a
    query defined on (A, B) profiles alone, cannot take it."""
    if not all(isinstance(p, TrichotomousPreference) for p in prefs.values()):
        raise ValidationError(f"{what} needs a trichotomous profile")


def profile_masks(instance: Instance, prefs: AnyProfile) -> list[list[int]]:
    """Per agent in priority order, the masks of its preference's classes,
    [A, B, rest] for a trichotomous one, for a profile that check_profile
    accepts.  check_profile runs, to name the fault, only when masking fails;
    each preference that masks is then held to _check_fit."""
    try:
        out = [[instance.mask(cls) for cls in _classes(prefs[a])] for a in instance.agents]
    except KeyError:
        check_profile(instance, prefs)
        raise
    full = (1 << len(instance.object_ids)) - 1
    for a, masks in zip(instance.agents, out):
        _check_fit(instance, a, prefs[a])
        if isinstance(prefs[a], TrichotomousPreference):
            masks.append(full & ~(masks[0] | masks[1]))  # rest
    return out


def to_trichotomous(pref: MarginalPreference, endowment: frozenset[str]) -> TrichotomousPreference:
    """Collapse a marginal preference to (A, B), discarding classes below the second.

    Raises NotTrichotomousError if an endowed object sits below class 2.
    """
    ranks = pref.ranks
    for o in endowment:
        if ranks.get(o, 3) > 2:
            raise NotTrichotomousError(
                f"agent {pref.owner!r}: endowed object {o!r} ranked below the second class"
            )
    first = pref.classes[0] if pref.classes else frozenset()
    second = pref.classes[1] if len(pref.classes) > 1 else frozenset()
    return TrichotomousPreference(pref.owner, frozenset(first), frozenset(second))


def domain_membership(
    pref: MarginalPreference, spec: DomainSpec, endowment: frozenset[str]
) -> bool:
    """Whether every non-empty class respects the domain's endowed/non-endowed indicators."""
    for k, cls in enumerate(pref.classes, start=1):
        if not cls:
            continue
        if cls & endowment and spec.eps_at(k) != 1:
            return False
        if cls - endowment and spec.nu_at(k) != 1:
            return False
    return True


def classify_domain(pref: MarginalPreference, endowment: frozenset[str]) -> str:
    """Most specific domain label for one marginal preference.

    Precedence: strongly-trichotomous > dichotomous > trichotomous >
    m-chotomous(m).  "general" is a fallback no finite preference reaches
    (an m-class preference is always m-chotomous).
    """
    used = [k for k, cls in enumerate(pref.classes, start=1) if cls]
    if not used:
        return "general"
    m = max(used)
    ranks = pref.ranks
    endowed_ok = all(ranks[o] <= 2 for o in endowment if o in ranks)
    second = pref.classes[1] if len(pref.classes) > 1 else frozenset()
    if endowed_ok and not (second - endowment):
        return "strongly-trichotomous"
    if m <= 2:
        return "dichotomous"
    if endowed_ok:
        return "trichotomous"
    return f"m-chotomous({m})"


# ---------------------------------------------------------------------------
# JSON wire format (documented in the README): a single document with fields
# agents / objects / endowments / preferences; preferences are either
# {"classes": [[...], ...]} or {"attractive": [...], "bearable": [...]}.
# Unknown fields are rejected.
# ---------------------------------------------------------------------------

_MARKET_FIELDS = {"agents", "objects", "endowments", "preferences"}
_PREF_FIELDS_CLASSES = {"classes"}
_PREF_FIELDS_AB = {"attractive", "bearable"}


def market_from_json(doc: Mapping[str, object]) -> tuple[Instance, dict[str, Preference]]:
    """Parse a market document into (Instance, preference map); strict about fields."""
    if not isinstance(doc, Mapping):
        raise ValidationError("market document must be a JSON object")
    unknown = set(doc) - _MARKET_FIELDS
    if unknown:
        raise ValidationError(f"unknown field(s) in market document: {canon(unknown)}")
    instance, names = _validate_instance(doc)
    prefs: dict[str, Preference] = {}
    raw_prefs = doc.get("preferences", {})
    if not isinstance(raw_prefs, Mapping):
        raise ValidationError("'preferences' must be a map agent -> preference")
    stray = set(raw_prefs) - set(instance.agents)
    if stray:
        raise ValidationError(f"preferences listed for unknown agent(s) {canon(stray)}")
    for a, p in raw_prefs.items():
        if not isinstance(p, Mapping):
            raise ValidationError(f"preference of agent {a!r} must be an object")
        keys = set(p)
        if keys == _PREF_FIELDS_CLASSES:
            if not isinstance(p["classes"], list):
                raise ValidationError(f"'classes' of agent {a!r} must be a list of lists")
            classes = tuple(
                frozenset(_identifiers(cls, "a class of agent {!r}", a, names))
                for cls in p["classes"]
            )
            prefs[a] = MarginalPreference(a, classes)
        elif keys == _PREF_FIELDS_AB:
            prefs[a] = TrichotomousPreference(
                a,
                frozenset(_identifiers(p["attractive"], "'attractive' of agent {!r}", a, names)),
                frozenset(_identifiers(p["bearable"], "'bearable' of agent {!r}", a, names)),
            )
        else:
            raise ValidationError(
                f"preference of agent {a!r} must have exactly the fields "
                "{'classes'} or {'attractive', 'bearable'}"
            )
        _check_preference(instance, a, prefs[a])
    return instance, prefs


def market_to_json(instance: Instance, prefs: AnyProfile | None = None) -> dict[str, object]:
    doc: dict[str, object] = {
        "agents": list(instance.agents),
        "objects": list(instance.object_ids),
        "endowments": {a: list(canon(instance.endowment[a])) for a in instance.agents},
    }
    if prefs is not None:
        out: dict[str, object] = {}
        for a in instance.agents:
            if a not in prefs:
                continue
            p = prefs[a]
            if isinstance(p, TrichotomousPreference):
                out[a] = {
                    "attractive": list(canon(p.attractive)),
                    "bearable": list(canon(p.bearable)),
                }
            else:
                out[a] = {"classes": [list(canon(cls)) for cls in p.classes]}
        doc["preferences"] = out
    return doc


def matching_from_json(instance: Instance, doc: Mapping[str, object]) -> Matching:
    if not isinstance(doc, Mapping):
        raise ValidationError("matching document must be a JSON object")
    unknown = set(doc) - {"assignment"}
    if unknown:
        raise ValidationError(f"unknown field(s) in matching document: {canon(unknown)}")
    raw = doc.get("assignment")
    if not isinstance(raw, Mapping):
        raise ValidationError("matching document needs an 'assignment' map")
    return validate_matching(instance, raw)


def matching_to_json(instance: Instance, matching: Matching) -> dict[str, object]:
    return {
        "assignment": {a: list(canon(matching.assignment[a])) for a in instance.agents}
    }


def load_market(path: str) -> tuple[Instance, dict[str, Preference]]:
    with open(path, "r", encoding="utf-8") as fh:
        return market_from_json(json.load(fh))


def trichotomous_profile(instance: Instance, prefs: AnyProfile) -> Profile:
    """Coerce a parsed preference map to a full trichotomous profile, checked
    with check_profile."""
    check_profile(instance, prefs)
    out: Profile = {}
    for a in instance.agents:
        p = prefs[a]
        out[a] = to_trichotomous(p, instance.endowment[a]) if isinstance(p, MarginalPreference) else p
    return out
