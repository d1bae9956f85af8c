"""Input parsing and deterministic serialization shared by the CLI.

Digraphs load from JSON ({"points": [...], "arrows": [[i, j], ...],
"lengths": [[i, j, l], ...]}) or from plain edge-list text with one
"i j [length]" line per arrow; arrows refer to points by label.  Emitted
JSON is canonical: keys sorted, floats printed with 17 significant digits,
infinities as the string "inf", so golden files are byte-stable.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .errors import ValidationError
from .finite_calculus import Digraph, FiniteSet, FormExpr


def dumps_canonical(obj) -> str:
    """Deterministic JSON text; dict keys sorted, floats at 17 digits."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int,)):
        return str(obj)
    if isinstance(obj, float):
        if math.isinf(obj):
            return '"inf"' if obj > 0 else '"-inf"'
        if math.isnan(obj):
            return '"nan"'
        if obj == int(obj) and abs(obj) < 1e16:
            return f"{obj:.1f}"
        return f"{obj:.17g}"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = []
        for key in sorted(obj, key=str):
            items.append(
                json.dumps(str(key)) + ": " + dumps_canonical(obj[key])
            )
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps_canonical(v) for v in obj) + "]"
    # numpy scalars and arrays
    if hasattr(obj, "item") and getattr(obj, "shape", None) == ():
        return dumps_canonical(obj.item())
    if hasattr(obj, "tolist"):
        return dumps_canonical(obj.tolist())
    raise ValidationError(f"cannot serialize object of type {type(obj).__name__}")


def _parse_graph_json(text: str, path: str):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(data, dict) or "points" not in data:
        raise ValidationError(f"{path}: graph JSON needs a 'points' list")
    points = data["points"]
    if not isinstance(points, list) or not points:
        raise ValidationError(f"{path}: 'points' must be a nonempty list")
    index = {}
    for k, label in enumerate(points):
        if not isinstance(label, (str, int)):
            raise ValidationError(f"{path}: point label {label!r} must be str or int")
        if label in index:
            raise ValidationError(f"{path}: duplicate point label {label!r}")
        index[label] = k
    arrows = set()
    for entry in data.get("arrows", []):
        if not isinstance(entry, list) or len(entry) != 2:
            raise ValidationError(f"{path}: arrow {entry!r} must be a [from, to] pair")
        a, b = entry
        if a not in index or b not in index:
            raise ValidationError(f"{path}: arrow {entry!r} references unknown point")
        if a == b:
            raise ValidationError(f"{path}: self loop {entry!r} not allowed")
        arrow = (index[a], index[b])
        if arrow in arrows:
            raise ValidationError(f"{path}: duplicate arrow {entry!r}")
        arrows.add(arrow)
    lengths = None
    if "lengths" in data:
        lengths = {}
        for entry in data["lengths"]:
            if not isinstance(entry, list) or len(entry) != 3:
                raise ValidationError(
                    f"{path}: length entry {entry!r} must be [from, to, length]"
                )
            a, b, ell = entry
            if a not in index or b not in index:
                raise ValidationError(
                    f"{path}: length entry {entry!r} references unknown point"
                )
            # type(), not isinstance(): JSON true and false load as bool, an int
            if type(ell) not in (int, float) or not 0 < ell < math.inf:
                raise ValidationError(
                    f"{path}: length for {entry!r} must be positive and finite"
                )
            arrow = (index[a], index[b])
            if arrow not in arrows:
                raise ValidationError(
                    f"{path}: length entry {entry!r} names an arrow not in 'arrows'"
                )
            if arrow in lengths:
                raise ValidationError(f"{path}: second length for arrow {entry!r}")
            lengths[arrow] = float(ell)
    graph = Digraph(FiniteSet(tuple(points)), frozenset(arrows))
    return graph, lengths


def _parse_edge_list(text: str, path: str):
    labels: list = []
    index: dict = {}
    arrows = set()
    lengths: dict = {}
    saw_length = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ValidationError(
                f"{path}: line {lineno}: expected 'from to [length]', got {raw!r}"
            )
        a, b = parts[0], parts[1]
        if a == b:
            raise ValidationError(f"{path}: line {lineno}: self loop {a!r}")
        for lab in (a, b):
            if lab not in index:
                index[lab] = len(labels)
                labels.append(lab)
        arrow = (index[a], index[b])
        if arrow in arrows:
            raise ValidationError(f"{path}: line {lineno}: duplicate arrow {a} {b}")
        arrows.add(arrow)
        if len(parts) == 3:
            saw_length = True
            try:
                ell = float(parts[2])
            except ValueError:
                raise ValidationError(
                    f"{path}: line {lineno}: bad length {parts[2]!r}"
                ) from None
            if not 0 < ell < math.inf:
                raise ValidationError(
                    f"{path}: line {lineno}: length must be positive and finite"
                )
            lengths[arrow] = ell
    if not labels:
        raise ValidationError(f"{path}: no arrows found")
    graph = Digraph(FiniteSet(tuple(labels)), frozenset(arrows))
    return graph, (lengths if saw_length else None)


def load_digraph(path):
    """Load a digraph (and optional arrow lengths) from JSON or edge list."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_graph_json(text, str(path))
    return _parse_edge_list(text, str(path))


def form_expr_to_json(expr: FormExpr) -> list:
    """FormExpr as a list of {path, re, im} records, path-sorted."""
    out = []
    for path in sorted(expr.terms, key=lambda p: (len(p), p)):
        c = complex(expr.terms[path])
        out.append({"path": list(path), "re": c.real, "im": c.imag})
    return out


def form_expr_from_json(records) -> FormExpr:
    terms = {}
    for rec in records:
        path = tuple(rec["path"])
        c = complex(rec.get("re", 0.0), rec.get("im", 0.0))
        if c.imag == 0:
            c = c.real
        terms[path] = terms.get(path, 0) + c
    return FormExpr(terms)


def load_json(path):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None


def format_float(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.17g}"
