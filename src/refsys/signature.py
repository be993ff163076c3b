"""Strict JSON signatures describing finite refinement-system instances.

A signature file fixes one model (subset, trivial, or presheaf) together with
named carriers, expressions, and refinement types, plus optional stanzas for
a monoid (separation-logic structure), a state machine (Hoare triples), and
an adjunction.  Loading validates everything eagerly: unknown keys anywhere
are rejected, all references must resolve, and all tables must be total and
land in their declared codomains.  The loader is where tables from outside
enter, so it is where categories, presheaves and functors are checked
(:func:`refsys.fincat.check_category`,
:func:`refsys.presheaf_model.check_presheaf`,
:func:`refsys.fincat.check_functor`); their constructors only store them.
The exact schema is documented in docs/signature_schema.md.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from .cartesian import DEFAULT_MAX_CARRIER
from .fincat import (
    FinCategory, FinFunction, FinFunctor, FinSet, check_category, check_functor, monoid_category,
)
from .kernel import ValidationError
from .subset_model import HoareProgram, SubsetSystem, subset
from .trivial_model import TrivialSystem


class SignatureError(Exception):
    """A signature file is malformed: bad JSON shape, dangling reference,
    non-total table, or a value outside its declared codomain."""


def _require_keys(obj: dict, where: str, required: tuple, optional: tuple = ()):
    if not isinstance(obj, dict):
        raise SignatureError(f"{where}: expected an object")
    for k in required:
        if k not in obj:
            raise SignatureError(f"{where}: missing key {k!r}")
    allowed = set(required) | set(optional)
    for k in obj:
        if k not in allowed:
            raise SignatureError(f"{where}: unknown key {k!r}")


def _as_name_dict(obj, where: str) -> dict:
    if not isinstance(obj, dict) or not all(isinstance(k, str) for k in obj):
        raise SignatureError(f"{where}: expected an object with string keys")
    return obj


def _name_ref(value, table: dict, path: Optional[str], what: str):
    """table[value] for a reference by name; SignatureError at path otherwise.

    A reference that is not a string is refused before it is looked up, so a
    JSON list or object in its place is bad input, not an unhashable key.
    """
    if not isinstance(value, str) or value not in table:
        prefix = f"{path}: " if path else ""
        raise SignatureError(f"{prefix}unknown {what} {value!r}")
    return table[value]


def _checked(check, value, refusal: str):
    """value, once check passes on it; SignatureError naming refusal otherwise."""
    try:
        check(value)
    except ValidationError as exc:
        raise SignatureError(f"{refusal} ({exc})") from exc
    return value


def _parse_elements(raw, where: str) -> tuple:
    if not isinstance(raw, list) or not raw:
        raise SignatureError(f"{where}: expected a nonempty list of elements")
    out = []
    for e in raw:
        if not isinstance(e, (str, int)) or isinstance(e, bool):
            raise SignatureError(f"{where}: element {e!r} must be a string or integer")
        out.append(e)
    if len(set(out)) != len(out):
        raise SignatureError(f"{where}: duplicate elements")
    if len(set(map(str, out))) != len(out):
        raise SignatureError(f"{where}: elements with identical text forms")
    return tuple(out)


class _Carrier:
    """A finite set plus the string->element resolver used for JSON keys."""

    def __init__(self, fs: FinSet):
        self.fs = fs
        self.by_str = {str(e): e for e in fs.elements}

    def resolve(self, raw, where: str):
        if isinstance(raw, (str, int)) and not isinstance(raw, bool):
            if raw in self.fs.elements:
                return raw
            key = str(raw)
            if key in self.by_str:
                return self.by_str[key]
        raise SignatureError(f"{where}: {raw!r} is not an element of {self.fs.name}")

    def resolve_table(self, raw, cod: "_Carrier", where: str) -> dict:
        if not isinstance(raw, dict):
            raise SignatureError(f"{where}: expected an object")
        table = {}
        for k, v in raw.items():
            if k not in self.by_str:
                raise SignatureError(f"{where}: key {k!r} is not an element of {self.fs.name}")
            table[self.by_str[k]] = cod.resolve(v, f"{where}[{k}]")
        missing = set(self.fs.elements) - set(table)
        if missing:
            raise SignatureError(f"{where}: table is not total (missing {sorted(map(str, missing))})")
        return table


@dataclass
class Signature:
    """A loaded and validated signature: the system plus name->object maps."""
    path: str
    name: str
    kind: str
    system: Any
    sets: dict = field(default_factory=dict)
    exprs: dict = field(default_factory=dict)
    etypes: dict = field(default_factory=dict)
    categories: dict = field(default_factory=dict)
    monoid_mult: Optional[FinFunction] = None
    monoid_carrier: Optional[FinSet] = None
    monoid_unit: Any = None
    machine: Optional[HoareProgram] = None
    adjunction_kind: Optional[str] = None
    answers: Any = None
    universal: Any = None

    def etype(self, name: str):
        return _name_ref(name, self.etypes, None, "type")

    def expr(self, name: str):
        return _name_ref(name, self.exprs, None, "expression")


def _load_sets(raw, where: str) -> dict:
    carriers = {}
    for name, elems in _as_name_dict(raw, where).items():
        carriers[name] = _Carrier(FinSet(name, _parse_elements(elems, f"{where}.{name}")))
    return carriers


def _positive_int(value, where: str) -> int:
    """value, if it is a positive integer; a JSON ``true`` is refused, not read as 1."""
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise SignatureError(f"{where}: expected a positive integer")
    return value


def _max_carrier(doc: dict) -> int:
    return _positive_int(doc.get("max_carrier", DEFAULT_MAX_CARRIER), "max_carrier")


def _monoid_table(car: _Carrier, raw, where: str, what: str) -> dict:
    """The table (a, b) -> a*b of a monoid on car; its rows must cover car,
    and a refusal says they must cover ``what``."""
    rows = _as_name_dict(raw, where)
    if set(rows) != set(car.by_str):
        raise SignatureError(f"{where}: rows must cover the {what}")
    table = {}
    for a_key, row in rows.items():
        a = car.by_str[a_key]
        for b, v in car.resolve_table(row, car, f"{where}.{a_key}").items():
            table[(a, b)] = v
    return table


def _load_subset_model(doc: dict, path: str, name: str) -> Signature:
    _require_keys(doc, "signature", ("model", "sets"),
                  ("name", "max_carrier", "functions", "subsets", "monoid",
                   "machine", "adjunction"))
    carriers = _load_sets(doc["sets"], "sets")
    system = SubsetSystem(name, tuple(c.fs for c in carriers.values()),
                          max_carrier=_max_carrier(doc))
    sig = Signature(path=path, name=name, kind="subset", system=system,
                    sets={n: c.fs for n, c in carriers.items()})

    for fname, spec in _as_name_dict(doc.get("functions", {}), "functions").items():
        _require_keys(spec, f"functions.{fname}", ("dom", "cod", "table"))
        dom = _name_ref(spec["dom"], carriers, f"functions.{fname}.dom", "set")
        cod = _name_ref(spec["cod"], carriers, f"functions.{fname}.cod", "set")
        table = dom.resolve_table(spec["table"], cod, f"functions.{fname}.table")
        sig.exprs[fname] = FinFunction(fname, dom.fs, cod.fs, table)

    for sname, spec in _as_name_dict(doc.get("subsets", {}), "subsets").items():
        _require_keys(spec, f"subsets.{sname}", ("of", "elements"))
        car = _name_ref(spec["of"], carriers, f"subsets.{sname}.of", "carrier")
        if not isinstance(spec["elements"], list):
            raise SignatureError(f"subsets.{sname}.elements: expected a list")
        elems = {car.resolve(e, f"subsets.{sname}.elements") for e in spec["elements"]}
        sig.etypes[sname] = subset(car.fs, elems)

    if "monoid" in doc:
        spec = doc["monoid"]
        _require_keys(spec, "monoid", ("carrier", "unit", "table"))
        car = _name_ref(spec["carrier"], carriers, "monoid.carrier", "set")
        unit = car.resolve(spec["unit"], "monoid.unit")
        table = _monoid_table(car, spec["table"], "monoid.table", "carrier")
        h2 = system.tensor_itype(car.fs, car.fs)
        sig.monoid_mult = FinFunction("mult", h2, car.fs, table)
        sig.monoid_carrier = car.fs
        sig.monoid_unit = unit

    if "machine" in doc:
        spec = doc["machine"]
        _require_keys(spec, "machine", ("states", "commands"))
        states = _name_ref(spec["states"], carriers, "machine.states", "set")
        commands = {}
        for cname, tbl in _as_name_dict(spec["commands"], "machine.commands").items():
            table = states.resolve_table(tbl, states, f"machine.commands.{cname}")
            commands[cname] = FinFunction(cname, states.fs, states.fs, table)
            sig.exprs.setdefault(cname, commands[cname])
        sig.machine = HoareProgram(system, states.fs, commands)

    if "adjunction" in doc:
        _load_adjunction_stanza(doc["adjunction"], sig)
    return sig


def _load_adjunction_stanza(spec, sig: Signature):
    _require_keys(spec, "adjunction", ("kind",), ("answers", "universal"))
    kind = spec["kind"]
    if kind not in ("identity", "continuation"):
        raise SignatureError(f"adjunction.kind: expected identity or continuation, got {kind!r}")
    sig.adjunction_kind = kind
    if kind == "continuation" and "answers" not in spec:
        raise SignatureError("adjunction: continuation kind needs an answers type")
    if "answers" in spec:
        sig.answers = _name_ref(spec["answers"], sig.etypes, "adjunction.answers", "type")
    if "universal" in spec:
        sig.universal = _name_ref(spec["universal"], sig.etypes, "adjunction.universal",
                                  "type")


def _load_trivial_model(doc: dict, path: str, name: str) -> Signature:
    _require_keys(doc, "signature", ("model", "sets"),
                  ("name", "max_carrier", "adjunction"))
    carriers = _load_sets(doc["sets"], "sets")
    system = TrivialSystem(name, tuple(c.fs for c in carriers.values()),
                           max_carrier=_max_carrier(doc))
    sig = Signature(path=path, name=name, kind="trivial", system=system,
                    sets={n: c.fs for n, c in carriers.items()},
                    exprs={"id": "id"},
                    etypes={n: c.fs for n, c in carriers.items()})
    if "adjunction" in doc:
        _load_adjunction_stanza(doc["adjunction"], sig)
    return sig


def _load_category(cname: str, spec, where: str) -> FinCategory:
    if not isinstance(spec, dict):
        raise SignatureError(f"{where}: expected an object")
    if "monoid" in spec:
        _require_keys(spec, where, ("monoid",))
        mspec = spec["monoid"]
        _require_keys(mspec, f"{where}.monoid", ("elements", "unit", "table"))
        elems = _parse_elements(mspec["elements"], f"{where}.monoid.elements")
        car = _Carrier(FinSet(cname, elems))
        unit = car.resolve(mspec["unit"], f"{where}.monoid.unit")
        table = _monoid_table(car, mspec["table"], f"{where}.monoid.table", "elements")
        return _checked(check_category, monoid_category(cname, elems, table, unit),
                        f"{where}: not a monoid")
    _require_keys(spec, where, ("objects", "arrows"), ("compose",))
    objects = _parse_elements(spec["objects"], f"{where}.objects")
    arrows = {}
    for aname, aspec in _as_name_dict(spec["arrows"], f"{where}.arrows").items():
        _require_keys(aspec, f"{where}.arrows.{aname}", ("dom", "cod"))
        if aspec["dom"] not in objects or aspec["cod"] not in objects:
            raise SignatureError(f"{where}.arrows.{aname}: unknown endpoint")
        arrows[aname] = (aspec["dom"], aspec["cod"])
    identities = {}
    for o in objects:
        iname = f"id_{o}"
        if iname in arrows:
            raise SignatureError(f"{where}: arrow name {iname!r} is reserved for the identity")
        arrows[iname] = (o, o)
        identities[o] = iname
    composition = {}
    for key, val in _as_name_dict(spec.get("compose", {}), f"{where}.compose").items():
        parts = key.split(";")
        if len(parts) != 2 or parts[0] not in arrows or parts[1] not in arrows:
            raise SignatureError(f"{where}.compose: bad key {key!r} (want 'a;b')")
        if not isinstance(val, str) or val not in arrows:
            raise SignatureError(f"{where}.compose.{key}: unknown arrow {val!r}")
        composition[(parts[0], parts[1])] = val
    for a, (_, da) in arrows.items():
        for b, (sb, _) in arrows.items():
            if da != sb or (a, b) in composition:
                continue
            if identities.get(da) == b:
                composition[(a, b)] = a
            elif identities.get(da) == a:
                composition[(a, b)] = b
            else:
                raise SignatureError(f"{where}.compose: missing composite {a!r};{b!r}")
    return _checked(check_category, FinCategory(cname, objects, arrows, composition, identities),
                    f"{where}: not a category")


def _read_objects(raw, cat: FinCategory, where: str, read) -> dict:
    """A table over cat's objects from raw, keyed by each object's text:
    read(value, object, path) in raw's order."""
    raw = _as_name_dict(raw, where)
    by_str = {str(o): o for o in cat.objects}
    if set(raw) != set(by_str):
        raise SignatureError(f"{where}: must cover all objects")
    return {by_str[key]: read(value, by_str[key], f"{where}.{key}") for key, value in raw.items()}


def _read_arrows(raw, cat: FinCategory, where: str, identity, read) -> dict:
    """A table over cat's arrows, in cat.arrows order: identity(o) at the
    identity of o, and read(value, arrow, path) at every other arrow, with
    raw keyed by each such arrow's text."""
    raw = _as_name_dict(raw, where)
    idents = set(cat.identities.values())
    named = {str(u) for u in cat.arrows if u not in idents}
    for key in raw:
        if key not in named:
            raise SignatureError(f"{where}: {key!r} is not a non-identity arrow")
    out = {}
    for u, (src, _) in cat.arrows.items():
        if u in idents:
            out[u] = identity(src)
            continue
        key = str(u)
        if key not in raw:
            raise SignatureError(f"{where}: missing arrow {key!r}")
        out[u] = read(raw[key], u, f"{where}.{key}")
    return out


def _by_text(value, table: dict, where: str, what: str):
    """The entry of table, keyed by text, that value's text names."""
    if str(value) not in table:
        raise SignatureError(f"{where}: unknown {what} {value!r}")
    return table[str(value)]


def _load_presheaf_model(doc: dict, path: str, name: str) -> Signature:
    from .presheaf_model import FinPresheaf, PresheafSystem, check_presheaf

    _require_keys(doc, "signature", ("model", "categories"),
                  ("name", "functors", "presheaves", "bounds"))
    cats = {}
    for cname, spec in _as_name_dict(doc["categories"], "categories").items():
        cats[cname] = _load_category(cname, spec, f"categories.{cname}")

    presheaves = {}
    for pname, spec in _as_name_dict(doc.get("presheaves", {}), "presheaves").items():
        _require_keys(spec, f"presheaves.{pname}", ("cat", "at", "action"))
        cat = _name_ref(spec["cat"], cats, f"presheaves.{pname}.cat", "category")
        ob = _read_objects(spec["at"], cat, f"presheaves.{pname}.at",
                           lambda raw, o, at: FinSet(f"{pname}({o})", _parse_elements(raw, at)))
        values = {o: _Carrier(fs) for o, fs in ob.items()}

        def action(raw, u, at):
            src, dst = cat.arrows[u]
            table = values[src].resolve_table(raw, values[dst], at)
            return FinFunction(f"{pname}({u})", ob[src], ob[dst], table)

        ar = _read_arrows(spec["action"], cat, f"presheaves.{pname}.action",
                          lambda o: FinFunction.identity(ob[o]), action)
        presheaves[pname] = _checked(check_presheaf, FinPresheaf(pname, cat, ob, ar),
                                     f"presheaves.{pname}: not functorial")

    bounds = doc.get("bounds", {})
    _require_keys(bounds, "bounds", (),
                  ("max_values", "max_functor_objects", "max_functor_arrows"))
    for k, v in bounds.items():
        _positive_int(v, f"bounds.{k}")
    system = PresheafSystem(name, tuple(cats.values()), tuple(presheaves.values()),
                            **bounds)
    sig = Signature(path=path, name=name, kind="presheaf", system=system,
                    categories=cats, etypes=presheaves)

    for fname, spec in _as_name_dict(doc.get("functors", {}), "functors").items():
        _require_keys(spec, f"functors.{fname}", ("dom", "cod", "ob", "ar"))
        dom = _name_ref(spec["dom"], cats, f"functors.{fname}.dom", "category")
        cod = _name_ref(spec["cod"], cats, f"functors.{fname}.cod", "category")
        cod_objects = {str(o): o for o in cod.objects}
        cod_arrows = {str(a): a for a in cod.arrows}
        ob_map = _read_objects(spec["ob"], dom, f"functors.{fname}.ob",
                               lambda raw, o, at: _by_text(raw, cod_objects, at, "object"))
        ar_map = _read_arrows(spec["ar"], dom, f"functors.{fname}.ar",
                              lambda o: cod.identities[ob_map[o]],
                              lambda raw, u, at: _by_text(raw, cod_arrows, at, "arrow"))
        functor = FinFunctor(fname, dom, cod, ob_map, ar_map)
        try:
            check_functor(functor)
        except ValidationError as exc:
            raise SignatureError(f"functors.{fname}: {exc}") from exc
        sig.exprs[fname] = functor
    return sig


def load_signature(path: str) -> Signature:
    """Load, validate, and instantiate a signature file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SignatureError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SignatureError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise SignatureError(f"{path}: top level must be an object")
    kind = doc.get("model")
    if kind not in ("subset", "trivial", "presheaf"):
        raise SignatureError(f"{path}: model must be subset, trivial, or presheaf")
    name = doc.get("name", kind)
    if not isinstance(name, str) or not name:
        raise SignatureError(f"{path}: name must be a nonempty string")
    if kind == "subset":
        return _load_subset_model(doc, path, name)
    if kind == "trivial":
        return _load_trivial_model(doc, path, name)
    return _load_presheaf_model(doc, path, name)
