"""Strict JSON signatures describing finite refinement-system instances.

A signature file fixes one model (subset, trivial, or presheaf) together with
named carriers, expressions, and refinement types, plus optional stanzas for
a monoid (separation-logic structure), a state machine (Hoare triples), and
an adjunction.  Loading validates everything eagerly: unknown keys anywhere
are rejected, all references must resolve, and all tables must be total and
land in their declared codomains.  The exact schema is documented in
docs/signature_schema.md.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from .cartesian import DEFAULT_MAX_CARRIER
from .fincat import FinCategory, FinFunction, FinFunctor, FinSet, check_functor, monoid_category
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
        if name not in self.etypes:
            raise SignatureError(f"unknown type {name!r}")
        return self.etypes[name]

    def expr(self, name: str):
        if name not in self.exprs:
            raise SignatureError(f"unknown expression {name!r}")
        return self.exprs[name]


def _load_sets(raw, where: str) -> dict:
    carriers = {}
    for name, elems in _as_name_dict(raw, where).items():
        carriers[name] = _Carrier(FinSet(name, _parse_elements(elems, f"{where}.{name}")))
    return carriers


def _max_carrier(doc: dict) -> int:
    max_carrier = doc.get("max_carrier", DEFAULT_MAX_CARRIER)
    if not isinstance(max_carrier, int) or max_carrier <= 0:
        raise SignatureError("max_carrier: expected a positive integer")
    return max_carrier


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
        if spec["dom"] not in carriers or spec["cod"] not in carriers:
            raise SignatureError(f"functions.{fname}: unknown dom or cod")
        dom, cod = carriers[spec["dom"]], carriers[spec["cod"]]
        table = dom.resolve_table(spec["table"], cod, f"functions.{fname}.table")
        sig.exprs[fname] = FinFunction(fname, dom.fs, cod.fs, table)

    for sname, spec in _as_name_dict(doc.get("subsets", {}), "subsets").items():
        _require_keys(spec, f"subsets.{sname}", ("of", "elements"))
        if spec["of"] not in carriers:
            raise SignatureError(f"subsets.{sname}: unknown carrier {spec['of']!r}")
        car = carriers[spec["of"]]
        if not isinstance(spec["elements"], list):
            raise SignatureError(f"subsets.{sname}.elements: expected a list")
        elems = {car.resolve(e, f"subsets.{sname}.elements") for e in spec["elements"]}
        sig.etypes[sname] = subset(car.fs, elems)

    if "monoid" in doc:
        spec = doc["monoid"]
        _require_keys(spec, "monoid", ("carrier", "unit", "table"))
        if spec["carrier"] not in carriers:
            raise SignatureError(f"monoid.carrier: unknown set {spec['carrier']!r}")
        car = carriers[spec["carrier"]]
        unit = car.resolve(spec["unit"], "monoid.unit")
        rows = _as_name_dict(spec["table"], "monoid.table")
        if set(rows) != set(car.by_str):
            raise SignatureError("monoid.table: rows must cover the carrier")
        h2 = system.tensor_itype(car.fs, car.fs)
        table = {}
        for a_key, row in rows.items():
            a = car.by_str[a_key]
            inner = car.resolve_table(row, car, f"monoid.table.{a_key}")
            for b, v in inner.items():
                table[(a, b)] = v
        sig.monoid_mult = FinFunction("mult", h2, car.fs, table)
        sig.monoid_carrier = car.fs
        sig.monoid_unit = unit

    if "machine" in doc:
        spec = doc["machine"]
        _require_keys(spec, "machine", ("states", "commands"))
        if spec["states"] not in carriers:
            raise SignatureError(f"machine.states: unknown set {spec['states']!r}")
        states = carriers[spec["states"]]
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
        sig.answers = sig.etype(spec["answers"])
    if "universal" in spec:
        sig.universal = sig.etype(spec["universal"])


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
        rows = _as_name_dict(mspec["table"], f"{where}.monoid.table")
        if set(rows) != set(car.by_str):
            raise SignatureError(f"{where}.monoid.table: rows must cover the elements")
        table = {}
        for a_key, row in rows.items():
            a = car.by_str[a_key]
            inner = car.resolve_table(row, car, f"{where}.monoid.table.{a_key}")
            for b, v in inner.items():
                table[(a, b)] = v
        try:
            return monoid_category(cname, elems, table, unit)
        except ValidationError as exc:
            raise SignatureError(f"{where}: not a monoid ({exc})") from exc
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
    try:
        return FinCategory(cname, objects, arrows, composition, identities)
    except ValidationError as exc:
        raise SignatureError(f"{where}: not a category ({exc})") from exc


def _load_presheaf_model(doc: dict, path: str, name: str) -> Signature:
    from .presheaf_model import FinPresheaf, PresheafSystem

    _require_keys(doc, "signature", ("model", "categories"),
                  ("name", "functors", "presheaves", "bounds"))
    cats = {}
    for cname, spec in _as_name_dict(doc["categories"], "categories").items():
        cats[cname] = _load_category(cname, spec, f"categories.{cname}")

    presheaves = {}
    for pname, spec in _as_name_dict(doc.get("presheaves", {}), "presheaves").items():
        _require_keys(spec, f"presheaves.{pname}", ("cat", "at", "action"))
        if spec["cat"] not in cats:
            raise SignatureError(f"presheaves.{pname}: unknown category {spec['cat']!r}")
        cat = cats[spec["cat"]]
        at = _as_name_dict(spec["at"], f"presheaves.{pname}.at")
        by_str = {str(o): o for o in cat.objects}
        if set(at) != set(by_str):
            raise SignatureError(f"presheaves.{pname}.at: must cover all objects")
        ob = {}
        values = {}
        for okey, elems in at.items():
            o = by_str[okey]
            fs = FinSet(f"{pname}({o})", _parse_elements(elems, f"presheaves.{pname}.at.{okey}"))
            ob[o] = fs
            values[o] = _Carrier(fs)
        action = _as_name_dict(spec["action"], f"presheaves.{pname}.action")
        idents = {cat.identities[o] for o in cat.objects}
        named = {str(a): a for a in cat.arrows if a not in idents}
        for key in action:
            if key not in named:
                raise SignatureError(
                    f"presheaves.{pname}.action: {key!r} is not a non-identity arrow")
        ar = {}
        for aname, (src, dst) in cat.arrows.items():
            if aname in idents:
                ar[aname] = FinFunction.identity(ob[src])
                continue
            key = str(aname)
            if key not in action:
                raise SignatureError(f"presheaves.{pname}.action: missing arrow {key!r}")
            table = values[src].resolve_table(
                action[key], values[dst], f"presheaves.{pname}.action.{key}")
            ar[aname] = FinFunction(f"{pname}({key})", ob[src], ob[dst], table)
        try:
            presheaves[pname] = FinPresheaf(pname, cat, ob, ar)
        except ValidationError as exc:
            raise SignatureError(f"presheaves.{pname}: not functorial ({exc})") from exc

    bounds = doc.get("bounds", {})
    _require_keys(bounds, "bounds", (),
                  ("max_values", "max_functor_objects", "max_functor_arrows"))
    for k, v in bounds.items():
        if not isinstance(v, int) or v <= 0:
            raise SignatureError(f"bounds.{k}: expected a positive integer")
    system = PresheafSystem(name, tuple(cats.values()), tuple(presheaves.values()),
                            **bounds)
    sig = Signature(path=path, name=name, kind="presheaf", system=system,
                    categories=cats, etypes=presheaves)

    for fname, spec in _as_name_dict(doc.get("functors", {}), "functors").items():
        _require_keys(spec, f"functors.{fname}", ("dom", "cod", "ob", "ar"))
        if spec["dom"] not in cats or spec["cod"] not in cats:
            raise SignatureError(f"functors.{fname}: unknown dom or cod")
        dom, cod = cats[spec["dom"]], cats[spec["cod"]]
        ob_by_str = {str(o): o for o in dom.objects}
        cod_ob = {str(o): o for o in cod.objects}
        ob_map = {}
        raw_ob = _as_name_dict(spec["ob"], f"functors.{fname}.ob")
        if set(raw_ob) != set(ob_by_str):
            raise SignatureError(f"functors.{fname}.ob: must cover all objects")
        for okey, tgt in raw_ob.items():
            if str(tgt) not in cod_ob:
                raise SignatureError(f"functors.{fname}.ob.{okey}: unknown object {tgt!r}")
            ob_map[ob_by_str[okey]] = cod_ob[str(tgt)]
        ar_map = {}
        raw_ar = _as_name_dict(spec["ar"], f"functors.{fname}.ar")
        dom_idents = {dom.identities[o] for o in dom.objects}
        dom_named = {str(a): a for a in dom.arrows if a not in dom_idents}
        for key in raw_ar:
            if key not in dom_named:
                raise SignatureError(
                    f"functors.{fname}.ar: {key!r} is not a non-identity arrow")
        cod_by_str = {str(a): a for a in cod.arrows}
        for aname in dom.arrows:
            if aname in dom_idents:
                src = dom.arrows[aname][0]
                ar_map[aname] = cod.identities[ob_map[src]]
                continue
            key = str(aname)
            if key not in raw_ar:
                raise SignatureError(f"functors.{fname}.ar: missing arrow {key!r}")
            tgt = raw_ar[key]
            if str(tgt) not in cod_by_str:
                raise SignatureError(f"functors.{fname}.ar.{key}: unknown arrow {tgt!r}")
            ar_map[aname] = cod_by_str[str(tgt)]
        functor = FinFunctor(fname, dom, cod, ob_map, ar_map, check=False)
        report = check_functor(functor)
        if not report.ok:
            bad = (report.structural_errors + report.law_violations)[0]
            raise SignatureError(f"functors.{fname}: {bad}")
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
    try:
        if kind == "subset":
            return _load_subset_model(doc, path, name)
        if kind == "trivial":
            return _load_trivial_model(doc, path, name)
        return _load_presheaf_model(doc, path, name)
    except AssertionError as exc:
        raise SignatureError(f"{path}: {exc}") from exc
