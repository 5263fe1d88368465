"""Structural summary rows: one line per (system, automorphism order).

Each row records, for the fixed subalgebra of a diagram automorphism of
the requested order, the number of shape orbits, the Loewy length, and
the dimensions of the radical powers. Rows are exact integers and are
deterministic across runs.
"""

from __future__ import annotations

import csv
import json
import types
from dataclasses import dataclass

from . import algebra as alg
from . import automorphisms as auto
from .coxeter import build_system
from .errors import (AutomorphismRowsDiffer, UnavailableAutomorphism,
                     UnsupportedType)

SUPPORTED_TYPES = (
    "A1", "A2", "A3", "A4", "A5",
    "B2", "B3", "B4", "B5", "B6",
    "D4", "D5", "D6",
    "F4", "H3", "H4", "E6",
    "I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(7)", "I2(8)",
)


@dataclass(frozen=True)
class TableRow:
    type_label: str
    sigma_order: int
    lambda_orbit_count: int
    loewy_length: int
    radical_dims: tuple

    def __post_init__(self):
        dims = self.radical_dims
        if self.loewy_length != len(dims):
            raise AssertionError("row length bookkeeping is off")
        d1 = dims[1] if len(dims) > 1 else 0
        if self.lambda_orbit_count != dims[0] - d1:
            raise AssertionError(
                "orbit count does not match the dimension drop")


def available_sigma_orders(system):
    return sorted({s.order for s in auto.diagram_automorphisms(system)})


def build_row(type_label, sigma_order=1, system=None):
    """Compute one row. Several automorphisms of the same order must give
    identical profiles; they are computed separately and compared before
    the single row is emitted. Automorphisms of equal order that are not
    conjugate (a transposition and a double transposition of four A1
    factors) can differ, and then AutomorphismRowsDiffer is raised."""
    if system is None:
        system = build_system(type=type_label)
    sigmas = auto.automorphism_of_order(system, sigma_order)
    if not sigmas:
        raise UnavailableAutomorphism(
            "%s has no diagram automorphism of order %d"
            % (system.type_label, sigma_order))
    rows = []
    for sigma in sigmas:
        if sigma.is_identity():
            profile = alg.loewy_profile(system)
            orbit_count = len(system.shapes())
        else:
            profile = auto.loewy_profile_fixed(system, sigma)
            orbit_count = len(auto.shape_orbits(system, sigma))
        rows.append(TableRow(
            type_label=system.type_label,
            sigma_order=sigma_order,
            lambda_orbit_count=orbit_count,
            loewy_length=profile.loewy_length,
            radical_dims=tuple(profile.dims),
        ))
    first = rows[0]
    for other in rows[1:]:
        if other != first:
            raise AutomorphismRowsDiffer(
                "diagram automorphisms of order %d of %s give different "
                "rows" % (sigma_order, system.type_label))
    return first


def row_dict(row):
    return {
        "type": row.type_label,
        "sigma_order": row.sigma_order,
        "dim": row.radical_dims[0],
        "lambda_orbits": row.lambda_orbit_count,
        "loewy_length": row.loewy_length,
        "radical_dims": list(row.radical_dims),
    }


def render_text(rows):
    headers = ("type", "o(sigma)", "orbits", "LL", "dims")
    body = [(r.type_label, str(r.sigma_order), str(r.lambda_orbit_count),
             str(r.loewy_length), ",".join(str(d) for d in r.radical_dims))
            for r in rows]
    widths = [max(len(h), *(len(b[i]) for b in body)) if body else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    lines.append("  ".join("-" * w for w in widths))
    for b in body:
        lines.append("  ".join(b[i].ljust(widths[i])
                               for i in range(len(headers))))
    return "\n".join(lines)


def render_json(rows):
    return json.dumps([row_dict(r) for r in rows], indent=2)


def render_csv(rows):
    out = []
    writer = csv.writer(types.SimpleNamespace(write=out.append),
                        lineterminator="\n")
    writer.writerow(["type", "sigma_order", "dim", "lambda_orbits",
                     "loewy_length", "radical_dims"])
    for r in rows:
        d = row_dict(r)
        writer.writerow([d["type"], d["sigma_order"], d["dim"],
                         d["lambda_orbits"], d["loewy_length"],
                         ",".join(str(x) for x in d["radical_dims"])])
    return "".join(out).removesuffix("\n")


def render(rows, fmt="text"):
    if fmt == "text":
        return render_text(rows)
    if fmt == "json":
        return render_json(rows)
    if fmt == "csv":
        return render_csv(rows)
    raise UnsupportedType("unknown output format %r" % fmt)
