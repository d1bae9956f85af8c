"""Graph input parsing and deterministic JSON serialization.

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

from .errors import ValidationError, positive_real
from .finite_calculus import Digraph, FiniteSet


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


def _add_arrow(arrows: set, arrow: tuple, where: str) -> None:
    """Add an arrow, a pair of point indices, unless it is a self loop or a
    repeat; `where` names the file and the entry or line in the message."""
    if arrow[0] == arrow[1]:
        raise ValidationError(f"{where}: self loop not allowed")
    if arrow in arrows:
        raise ValidationError(f"{where}: duplicate arrow")
    arrows.add(arrow)


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
    # type(), not isinstance(): JSON true and false load as bool, an int,
    # and would match the labels 1 and 0
    index = {}
    for k, label in enumerate(points):
        if type(label) not in (str, int):
            raise ValidationError(f"{path}: point label {label!r} must be str or int")
        if label in index:
            raise ValidationError(f"{path}: duplicate point label {label!r}")
        index[label] = k

    def arrow_of(entry, what: str, fields: tuple) -> tuple:
        """The point indices (from, to) of an entry, a list of `fields`."""
        if not isinstance(entry, list) or len(entry) != len(fields):
            raise ValidationError(f"{path}: {what} {entry!r} must be [{', '.join(fields)}]")
        if not all(type(lab) in (str, int) and lab in index for lab in entry[:2]):
            raise ValidationError(f"{path}: {what} {entry!r} references unknown point")
        return index[entry[0]], index[entry[1]]

    arrows = set()
    for entry in data.get("arrows", []):
        arrow = arrow_of(entry, "arrow", ("from", "to"))
        _add_arrow(arrows, arrow, f"{path}: arrow {entry!r}")
    lengths = None
    if "lengths" in data:
        lengths = {}
        for entry in data["lengths"]:
            arrow = arrow_of(entry, "length entry", ("from", "to", "length"))
            ell = positive_real(entry[2], f"{path}: length for {entry!r}")
            if arrow not in arrows:
                raise ValidationError(
                    f"{path}: length entry {entry!r} names an arrow not in 'arrows'"
                )
            if arrow in lengths:
                raise ValidationError(f"{path}: second length for arrow {entry!r}")
            lengths[arrow] = ell
    graph = Digraph(FiniteSet(tuple(points)), frozenset(arrows))
    return graph, lengths


def _parse_edge_list(text: str, path: str):
    labels: list = []
    index: dict = {}
    arrows = set()
    lengths: dict = {}
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
        for lab in (a, b):
            if lab not in index:
                index[lab] = len(labels)
                labels.append(lab)
        arrow = (index[a], index[b])
        _add_arrow(arrows, arrow, f"{path}: line {lineno}: arrow {a} {b}")
        if len(parts) == 3:
            try:
                ell = float(parts[2])
            except ValueError:
                raise ValidationError(
                    f"{path}: line {lineno}: bad length {parts[2]!r}"
                ) from None
            lengths[arrow] = positive_real(ell, f"{path}: line {lineno}: length")
    if not labels:
        raise ValidationError(f"{path}: no arrows found")
    graph = Digraph(FiniteSet(tuple(labels)), frozenset(arrows))
    return graph, (lengths or None)


def load_digraph(path):
    """Load a digraph (and optional arrow lengths) from JSON or edge list."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_graph_json(text, str(path))
    return _parse_edge_list(text, str(path))

