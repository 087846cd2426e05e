"""Round-trip oracle of the LP writer: a CPLEX-LP-format reader.

Parses the LP dialect :mod:`repro.mip.writer` emits (linear objective,
two-sided constraints written one-sided, a Bounds section,
Binary/General sections).  Nothing in the library reads LP text; the
writer's tests use this reader to state losslessness:
``read_lp(write_lp(m))`` must solve to the same optimum as ``m``.

Not a general LP parser: ranges, SOS sections, quadratic terms and
multi-line expressions *are* supported only to the extent the writer
produces them (expressions stay on one line per constraint).
"""

from __future__ import annotations

import math
import re

from repro.exceptions import ModelingError
from repro.mip.expr import LinExpr, Variable, VarType
from repro.mip.model import Model, ObjectiveSense

__all__ = ["read_lp", "read_lp_file"]

_SECTION_RE = re.compile(
    r"^(maximize|minimize|subject to|such that|st|s\.t\.|bounds|binary|bin|"
    r"general|gen|integers?|end)\s*$",
    re.IGNORECASE,
)
_TERM_RE = re.compile(
    r"([+-]?)\s*(\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)?\s*\*?\s*"
    r"([A-Za-z_][A-Za-z0-9_.\[\]]*)"
)
_NUMBER_RE = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?$")


def read_lp_file(path: str) -> Model:
    """Read a model from an LP file."""
    with open(path, encoding="utf-8") as fh:
        return read_lp(fh.read())


def read_lp(text: str) -> Model:
    """Parse LP-format text into a :class:`Model`."""
    lines = _strip(text)
    sections = _split_sections(lines)

    model = Model(_model_name(text))
    variables: dict[str, Variable] = {}

    # collect every identifier first so variables exist with defaults
    names: list[str] = []
    seen: set[str] = set()
    for section in ("objective", "constraints", "bounds", "binary", "general"):
        for line in sections.get(section, []):
            for match in _TERM_RE.finditer(_expression_part(line, section)):
                name = match.group(3)
                if name.lower() in ("free", "inf", "infinity") or name in seen:
                    continue
                seen.add(name)
                names.append(name)
    for name in names:
        variables[name] = model.continuous_var(name, lb=0.0, ub=math.inf)

    # objective
    sense = (
        ObjectiveSense.MAXIMIZE
        if sections["sense"] == "maximize"
        else ObjectiveSense.MINIMIZE
    )
    objective = LinExpr()
    for line in sections.get("objective", []):
        expr, _, _ = _parse_row(line, variables)
        objective.add_expr(expr)
    model.set_objective(objective, sense)

    # constraints
    for line in sections.get("constraints", []):
        expr, op, rhs = _parse_row(line, variables)
        if op is None:
            raise ModelingError(f"constraint without comparator: {line!r}")
        if op == "<=":
            model.add_constr(expr <= rhs, name=_row_name(line))
        elif op == ">=":
            model.add_constr(expr >= rhs, name=_row_name(line))
        else:
            model.add_constr(expr == rhs, name=_row_name(line))

    # bounds
    for line in sections.get("bounds", []):
        _apply_bound(line, variables)

    # integrality
    for line in sections.get("binary", []):
        for token in line.split():
            var = variables.get(token)
            if var is None:
                raise ModelingError(f"Binary section names unknown variable {token!r}")
            var.vtype = VarType.BINARY
            var.lb = max(var.lb, 0.0)
            var.ub = min(var.ub, 1.0)
    for line in sections.get("general", []):
        for token in line.split():
            var = variables.get(token)
            if var is None:
                raise ModelingError(f"General section names unknown variable {token!r}")
            var.vtype = VarType.INTEGER

    # the bounds/integrality sections above mutate variables directly,
    # which the model's standard-form memo cannot observe
    model.invalidate_standard_form()
    return model


# ----------------------------------------------------------------------
def _strip(text: str) -> list[str]:
    lines = []
    for raw in text.splitlines():
        line = raw.split("\\", 1)[0].strip()
        if line:
            lines.append(line)
    return lines


def _model_name(text: str) -> str:
    match = re.search(r"\\\s*Model:\s*(\S+)", text)
    return match.group(1) if match else "lp-model"


def _split_sections(lines: list[str]) -> dict:
    sections: dict = {
        "sense": "minimize",
        "objective": [],
        "constraints": [],
        "bounds": [],
        "binary": [],
        "general": [],
    }
    current = None
    for line in lines:
        match = _SECTION_RE.match(line)
        if match:
            keyword = match.group(1).lower()
            if keyword in ("maximize", "minimize"):
                sections["sense"] = keyword
                current = "objective"
            elif keyword in ("subject to", "such that", "st", "s.t."):
                current = "constraints"
            elif keyword == "bounds":
                current = "bounds"
            elif keyword in ("binary", "bin"):
                current = "binary"
            elif keyword in ("general", "gen", "integer", "integers"):
                current = "general"
            elif keyword == "end":
                current = None
            continue
        if current is None:
            raise ModelingError(f"content outside any LP section: {line!r}")
        sections[current].append(line)
    return sections


def _row_name(line: str) -> str:
    if ":" in line:
        return line.split(":", 1)[0].strip()
    return ""


def _expression_part(line: str, section: str) -> str:
    if section in ("binary", "general"):
        return line
    if ":" in line:
        line = line.split(":", 1)[1]
    if section == "bounds":
        return line
    # cut at the comparator for constraints
    for op in ("<=", ">=", "="):
        if op in line:
            return line.split(op, 1)[0]
    return line


def _parse_expression(text: str, variables: dict[str, Variable]) -> LinExpr:
    expr = LinExpr()
    consumed_spans: list[tuple[int, int]] = []
    for match in _TERM_RE.finditer(text):
        sign = -1.0 if match.group(1) == "-" else 1.0
        coef = float(match.group(2)) if match.group(2) else 1.0
        name = match.group(3)
        var = variables.get(name)
        if var is None:
            raise ModelingError(f"unknown variable {name!r} in {text!r}")
        expr.add_term(var, sign * coef)
        consumed_spans.append(match.span())
    # leftover numeric constants (rare in our dialect)
    leftover = text
    for start, end in reversed(consumed_spans):
        leftover = leftover[:start] + " " + leftover[end:]
    for token in leftover.replace("+", " +").replace("-", " -").split():
        if _NUMBER_RE.match(token):
            expr.add_expr(float(token))
    return expr


def _parse_row(line: str, variables: dict[str, Variable]):
    """Parse ``[name:] expr [op rhs]`` into (expr, op|None, rhs)."""
    if ":" in line:
        line = line.split(":", 1)[1].strip()
    op = None
    rhs = 0.0
    for candidate in ("<=", ">=", "="):
        if candidate in line:
            left, right = line.split(candidate, 1)
            op = "==" if candidate == "=" else candidate
            rhs = float(right.strip())
            line = left
            break
    return _parse_expression(line, variables), op, rhs


def _apply_bound(line: str, variables: dict[str, Variable]) -> None:
    tokens = line.split()
    if len(tokens) == 2 and tokens[1].lower() == "free":
        var = _bound_var(tokens[0], variables)
        var.lb, var.ub = -math.inf, math.inf
        return
    if len(tokens) == 3 and tokens[1] == "=":
        var = _bound_var(tokens[0], variables)
        value = float(tokens[2])
        var.lb = var.ub = value
        return
    # lo <= name <= hi
    parts = [t for t in re.split(r"<=", line) if t.strip()]
    if len(parts) == 3:
        lo, name, hi = (p.strip() for p in parts)
        var = _bound_var(name, variables)
        var.lb = -math.inf if lo.lstrip("+-").lower() in ("inf", "infinity") else float(lo)
        var.ub = math.inf if hi.lstrip("+-").lower() in ("inf", "infinity") else float(hi)
        return
    if len(parts) == 2:
        # either "lo <= name" or "name <= hi"
        left, right = (p.strip() for p in parts)
        if _NUMBER_RE.match(left):
            _bound_var(right, variables).lb = float(left)
        else:
            _bound_var(left, variables).ub = float(right)
        return
    raise ModelingError(f"unparseable bound line: {line!r}")


def _bound_var(name: str, variables: dict[str, Variable]) -> Variable:
    var = variables.get(name.strip())
    if var is None:
        raise ModelingError(f"Bounds section names unknown variable {name!r}")
    return var
