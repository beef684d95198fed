"""Command-line surface: parse ring/element literals, run one job, emit a report.

Commands
    compute     the (b,c)-inverse of a under a frame
    verify      certify a candidate inverse y against the defining equations
    lab         exhaustive finite-ring suites
    banach      series / integral / limit representations and the resolvent bound
    rol         reverse-order-law check for a product
    continuity  built-in sequence families

Reports are JSON with a stable field order.  Exit codes: 0 success,
1 inverse absent / property refuted (with a witness), 2 invalid input.
A report file can be fed back through --job; the embedded job reruns and
reproduces the same outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import analytic, lab
from .errors import (
    BcinvError,
    CapExceeded,
    ConvergenceFailure,
    DimensionMismatch,
    InverseAbsent,
    NotInvertible,
    NotRegular,
    PreconditionFailed,
    RingMismatch,
    SingularCorner,
    SpectralPreconditionFailed,
)
from .inverses import CornerFrame, bc_inverse, build_v, reverse_order_law_check, verify_bc_inverse
from .rings import (
    DEFAULT_FLOAT_TOL,
    FLOAT_MATRIX,
    MODULAR,
    PRIME_MATRIX,
    RATIONAL_MATRIX,
    RingDescriptor,
    RingValue,
)

TOL_ENV_VAR = "BCINV_TOL"

STATUS_OK = 0
STATUS_REFUTED = 1
STATUS_INVALID = 2

_ABSENT_ERRORS = (InverseAbsent, NotRegular, NotInvertible, SingularCorner,
                  SpectralPreconditionFailed, ConvergenceFailure)
_INVALID_ERRORS = (PreconditionFailed, RingMismatch, DimensionMismatch,
                   CapExceeded, ValueError, KeyError, json.JSONDecodeError)

_SUITES = {
    "equivalences": lab.verify_equivalence_suite,
    "sets": lab.verify_set_decomposition,
    "bottduffin": lab.verify_bott_duffin_section,
    "rol": lab.verify_reverse_order,
}


def default_tolerance() -> float:
    raw = os.environ.get(TOL_ENV_VAR)
    if raw is None:
        return DEFAULT_FLOAT_TOL
    return float(raw)


def parse_ring(text: str, tol: float | None = None) -> RingDescriptor:
    """Ring literals: Zn:6 / Z6, MFp:2:2 / M2F2, Q:3, R:4[:tol]."""
    text = text.strip()
    short_z = re.fullmatch(r"Z(\d+)", text)
    if short_z:
        return RingDescriptor.modular(int(short_z.group(1)))
    short_m = re.fullmatch(r"M(\d+)F(\d+)", text)
    if short_m:
        return RingDescriptor.matrices_over_prime(int(short_m.group(2)),
                                                  int(short_m.group(1)))
    parts = text.split(":")
    kind = parts[0]
    if kind == "Zn" and len(parts) == 2:
        return RingDescriptor.modular(int(parts[1]))
    if kind == "MFp" and len(parts) == 3:
        return RingDescriptor.matrices_over_prime(int(parts[1]), int(parts[2]))
    if kind == "Q" and len(parts) == 2:
        return RingDescriptor.rational_matrices(int(parts[1]))
    if kind == "R" and len(parts) in (2, 3):
        if len(parts) == 3:
            ring_tol = float(parts[2])
        else:
            ring_tol = tol if tol is not None else default_tolerance()
        return RingDescriptor.float_matrices(int(parts[1]), tol=ring_tol)
    raise ValueError(f"unrecognized ring literal {text!r}")


def _entry(ring: RingDescriptor, value):
    if isinstance(value, str):
        if ring.kind == RATIONAL_MATRIX:
            return Fraction(value)
        return float(value) if ring.kind == FLOAT_MATRIX else int(value)
    return value


def _has_boolean(literal) -> bool:
    if isinstance(literal, list):
        return any(_has_boolean(v) for v in literal)
    return isinstance(literal, bool)


def parse_element(ring: RingDescriptor, literal) -> RingValue:
    """Element literals: residues, scalars, E<i><j> slots, or nested arrays."""
    if isinstance(literal, RingValue):
        return ring.element(literal)
    if isinstance(literal, str):
        text = literal.strip()
        slot = re.fullmatch(r"E(\d)(\d)", text)
        if slot and ring.is_matrix:
            i, j = int(slot.group(1)), int(slot.group(2))
            if not (1 <= i <= ring.k and 1 <= j <= ring.k):
                raise ValueError(f"slot {text} outside a {ring.k}x{ring.k} matrix")
            return ring.unit_matrix(i - 1, j - 1)
        if text == "I":
            return ring.one()
        try:
            literal = json.loads(text)
        except json.JSONDecodeError:
            if ring.kind == RATIONAL_MATRIX and "/" in text:
                return ring.scalar(Fraction(text))
            raise ValueError(f"cannot parse element literal {text!r}")
    if _has_boolean(literal):
        raise ValueError("an element literal holds numbers, not booleans")
    if isinstance(literal, list):
        if not all(isinstance(row, list) for row in literal):
            raise ValueError("a matrix literal is an array of rows")
        rows = [[_entry(ring, v) for v in row] for row in literal]
        return ring.element(np.array(rows, dtype=object if ring.kind == RATIONAL_MATRIX
                                     else None))
    return ring.element(literal) if ring.kind == MODULAR else ring.scalar(_entry(ring, literal))


def serialize_value(value: RingValue):
    ring = value.ring
    if ring.kind == MODULAR:
        return int(value.payload)
    if ring.kind == PRIME_MATRIX:
        return [[int(v) for v in row] for row in value.payload]
    if ring.kind == RATIONAL_MATRIX:
        return [[str(v) for v in row] for row in value.payload]
    return [[float(v) for v in row] for row in value.payload]


# The JSON type of each job field, as the Python types json.load gives it.
# A null field is omitted; booleans count as none of these.
_NUMBER = (int, float)
_LITERAL = (str, int, float, list)
_JOB_FIELD_TYPES = {
    "command": str, "ring": str, "elements": dict, "method": str, "tol": _NUMBER,
    "beta": _NUMBER, "lambda0": _NUMBER, "suite": str, "family": str, "count": int,
    "report": str, "summary": str,
}
_JSON_NAMES = {str: "a string", dict: "an object", _NUMBER: "a number", int: "an integer",
               _LITERAL: "a string, number or array"}


def _check_json_type(name: str, value, expected) -> None:
    if isinstance(value, bool) or not isinstance(value, expected):
        raise ValueError(f"job field {name!r} must be {_JSON_NAMES[expected]}, "
                         f"not {type(value).__name__}")


@dataclass
class JobSpec:
    """One unit of CLI work, serializable for report round trips."""

    command: str
    ring: str = ""
    elements: dict | None = None
    method: str | None = None
    tol: float | None = None
    beta: float | None = None
    lambda0: float | None = None
    suite: str | None = None
    family: str | None = None
    count: int | None = None
    report: str | None = None
    summary: str | None = None

    def to_dict(self) -> dict:
        data = asdict(self)
        data.pop("report", None)
        data.pop("summary", None)
        return {k: v for k, v in data.items() if v is not None}

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        """The job in data, or in the report data; ValueError on a malformed one."""
        if isinstance(data, dict) and "job" in data:  # accept a previously written report
            data = data["job"]
        if not isinstance(data, dict):
            raise ValueError(f"a job must be a JSON object, not {type(data).__name__}")
        if data.get("command") is None:
            raise ValueError("the job names no command")
        known = cls.__dataclass_fields__
        fields = {k: v for k, v in data.items() if k in known and v is not None}
        for name, value in fields.items():
            _check_json_type(name, value, _JOB_FIELD_TYPES[name])
        for name, value in fields.get("elements", {}).items():
            if value is not None:
                _check_json_type(f"elements.{name}", value, _LITERAL)
        return cls(**fields)

    @classmethod
    def from_file(cls, path: str) -> "JobSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def _frame_from_elements(ring, elements, suffix="") -> CornerFrame:
    b = parse_element(ring, elements[f"b{suffix}"])
    c = parse_element(ring, elements[f"c{suffix}"])
    g = elements.get(f"g{suffix}")
    h = elements.get(f"h{suffix}")
    return CornerFrame.make(b, c,
                            parse_element(ring, g) if g is not None else None,
                            parse_element(ring, h) if h is not None else None)


def _run_compute(job: JobSpec, report: dict) -> int:
    ring = parse_ring(job.ring, job.tol)
    a = parse_element(ring, job.elements["a"])
    frame = _frame_from_elements(ring, job.elements)
    y = bc_inverse(a, frame, job.method)
    cert = verify_bc_inverse(a, frame, y)
    report["outputs"] = {"inverse": serialize_value(y),
                         "method": job.method or "default"}
    report["residuals"] = cert.residual_norms()
    report["verdicts"] = {"exists": True, "certified": cert.verdict}
    return STATUS_OK


def _run_verify(job: JobSpec, report: dict) -> int:
    ring = parse_ring(job.ring, job.tol)
    a = parse_element(ring, job.elements["a"])
    y = parse_element(ring, job.elements["y"])
    frame = _frame_from_elements(ring, job.elements)
    cert = verify_bc_inverse(a, frame, y)
    report["outputs"] = {"candidate": serialize_value(y)}
    report["residuals"] = cert.residual_norms()
    report["verdicts"] = {"certified": cert.verdict}
    return STATUS_OK if cert.verdict else STATUS_REFUTED


def _run_lab(job: JobSpec, report: dict) -> int:
    ring = parse_ring(job.ring, job.tol)
    if job.suite not in _SUITES:
        raise ValueError(f"unknown suite {job.suite!r}")
    outcome = _SUITES[job.suite](ring)
    report["outputs"] = outcome.to_dict()
    report["verdicts"] = {"certified": outcome.certified}
    return STATUS_OK if outcome.certified else STATUS_REFUTED


def _run_banach(job: JobSpec, report: dict) -> int:
    ring = parse_ring(job.ring, job.tol)
    if ring.kind != FLOAT_MATRIX:
        raise PreconditionFailed("banach command needs the float backend")
    a = parse_element(ring, job.elements["a"])
    frame = _frame_from_elements(ring, job.elements)
    v = build_v(frame)
    direct = bc_inverse(a, frame)
    method = job.method or "limit"
    if method == "series":
        beta = job.beta if job.beta is not None else analytic.choose_beta(a, v)
        value = analytic.series_representation(a, v, beta)
        extra = {"beta": beta}
    elif method == "integral":
        value = analytic.integral_representation(a, v)
        extra = {}
    elif method == "limit":
        value = analytic.limit_representation(a, v, job.lambda0)
        extra = {}
    else:
        raise ValueError(f"banach method must be series, integral or limit, not {method!r}")
    deviation = float(np.linalg.norm(value.payload - direct.payload, 2))
    scale = 1.0 + direct.norm()
    report["outputs"] = {"representation": serialize_value(value),
                         "direct": serialize_value(direct),
                         "method": method, **extra}
    report["residuals"] = {"deviation": deviation, "relative_deviation": deviation / scale}
    verdicts = {"agrees": deviation <= 1e-6 * scale}
    if job.lambda0 is not None:
        bound = analytic.perturbation_bound(a, v, frame, job.lambda0)
        report["outputs"]["bound"] = {k: v for k, v in asdict(bound).items()
                                      if v is not None}
        verdicts["bound_holds"] = bound.measured <= bound.bound * (1.0 + 1e-9) + 1e-15
    report["verdicts"] = verdicts
    return STATUS_OK if all(verdicts.values()) else STATUS_REFUTED


def _run_rol(job: JobSpec, report: dict) -> int:
    ring = parse_ring(job.ring, job.tol)
    a1 = parse_element(ring, job.elements["a"])
    a2 = parse_element(ring, job.elements["a2"])
    frame1 = _frame_from_elements(ring, job.elements)
    frame2 = _frame_from_elements(ring, job.elements, suffix="2")
    result = reverse_order_law_check(a1, frame1, a2, frame2)
    report["outputs"] = {
        "condition": result.condition,
        "law_holds": result.law_holds,
        "product_inverse": (serialize_value(result.product_inverse)
                            if result.product_inverse is not None else None),
        "obstruction": serialize_value(result.obstruction),
    }
    report["residuals"] = {"obstruction_norm": result.obstruction.norm()}
    report["verdicts"] = {"equivalence": result.condition == result.law_holds}
    return STATUS_OK


_FAMILIES = {
    # name -> (term builder, limit builder); all on 2x2 floats with slot frames.
    "bounded": (lambda ring, n: np.diag([2.0 + 1.0 / n, 3.0]),
                lambda ring: np.diag([2.0, 3.0])),
    "unbounded": (lambda ring, n: np.diag([1.0 / n, 3.0]),
                  lambda ring: np.diag([0.0, 3.0])),
    "constant": (lambda ring, n: np.diag([2.0, 3.0]),
                 lambda ring: np.diag([2.0, 3.0])),
}


def _run_continuity(job: JobSpec, report: dict) -> int:
    ring = parse_ring(job.ring or "R:2", job.tol)
    if ring.kind != FLOAT_MATRIX or ring.k != 2:
        raise PreconditionFailed("continuity families are defined on R:2")
    family = job.family or "bounded"
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    term, limit = _FAMILIES[family]
    count = 1000 if job.count is None else job.count
    if count < 1:
        raise ValueError(f"continuity count must be at least 1, not {count}")
    e11 = ring.unit_matrix(0, 0)
    frame = CornerFrame.from_idempotents(e11, e11)
    indices = sorted({int(round(v)) for v in np.geomspace(1, count, num=min(count, 40))})
    spec = analytic.SequenceSpec(
        terms=lambda n: (ring.element(term(ring, n)), frame),
        limit=(ring.element(limit(ring)), frame),
        indices=indices,
    )
    outcome = analytic.continuity_experiment(spec, tol=1e-3)
    report["outputs"] = {
        "family": family,
        "indices": outcome.indices,
        "norms": outcome.norms,
        "deviations": outcome.deviations,
        "classification": outcome.classification,
        "growth_exponent": outcome.growth_exponent,
    }
    report["verdicts"] = {"classification": outcome.classification}
    return STATUS_OK


_COMMANDS = {
    "compute": _run_compute,
    "verify": _run_verify,
    "lab": _run_lab,
    "banach": _run_banach,
    "rol": _run_rol,
    "continuity": _run_continuity,
}


def flatten_report(report: dict) -> list[tuple[str, object]]:
    """Scalar leaves of a report as (dotted-key, value) rows, in field order."""
    rows: list[tuple[str, object]] = []

    def walk(prefix: str, node) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                walk(f"{prefix}.{key}" if prefix else str(key), value)
        elif isinstance(node, (list, tuple)):
            rows.append((prefix, json.dumps(node)))
        else:
            rows.append((prefix, node))

    walk("", report)
    return rows


def write_summary(report: dict, path: str) -> None:
    """Two-row comma-separated summary (header + values) for spreadsheets."""
    rows = flatten_report(report)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(key for key, _ in rows) + "\n")
        handle.write(",".join(json.dumps(value) if isinstance(value, str) else str(value)
                              for _, value in rows) + "\n")


def run(job: JobSpec) -> tuple[int, dict]:
    """Execute one job; never raises, errors land in the report diagnostic."""
    report = {"schema": "bcinv-report/1", "job": job.to_dict(), "status": None}
    if job.command not in _COMMANDS:
        report["status"] = STATUS_INVALID
        report["diagnostic"] = {"error": "UnknownCommand", "message": str(job.command)}
        return STATUS_INVALID, report
    try:
        status = _COMMANDS[job.command](job, report)
    except _ABSENT_ERRORS as exc:
        status = STATUS_REFUTED
        report["diagnostic"] = {"error": type(exc).__name__, "message": str(exc)}
    except _INVALID_ERRORS as exc:
        status = STATUS_INVALID
        report["diagnostic"] = {"error": type(exc).__name__, "message": str(exc)}
    except BcinvError as exc:
        status = STATUS_REFUTED
        report["diagnostic"] = {"error": type(exc).__name__, "message": str(exc)}
    report["status"] = status
    return status, report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcinv",
        description="generalized-inverse computations and exhaustive verification")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, frame2=False, need_y=False):
        p.add_argument("--job", help="JSON job (or report) file; flags override")
        p.add_argument("--ring", help="ring literal, e.g. Zn:6, Z6, M2F2, Q:3, R:4")
        p.add_argument("--tol", type=float, help=f"float tolerance (default ${TOL_ENV_VAR} or {DEFAULT_FLOAT_TOL})")
        p.add_argument("--report", help="write the JSON report to this path")
        p.add_argument("--summary", help="also write a flat comma-separated summary")
        for name in ("a", "b", "c", "g", "h"):
            p.add_argument(f"--{name}", help=f"element literal {name}")
        if need_y:
            p.add_argument("--y", help="candidate inverse literal")
        if frame2:
            for name in ("a2", "b2", "c2", "g2", "h2"):
                p.add_argument(f"--{name}", help=f"second-frame element literal {name}")

    p = sub.add_parser("compute", help="compute a (b,c)-inverse")
    add_common(p)
    p.add_argument("--method", choices=["corner", "factor", "group", "exhaustive"])

    p = sub.add_parser("verify", help="certify a candidate inverse")
    add_common(p, need_y=True)

    p = sub.add_parser("lab", help="run an exhaustive finite-ring suite")
    add_common(p)
    p.add_argument("--suite", choices=sorted(_SUITES))

    p = sub.add_parser("banach", help="analytic representations and bounds")
    add_common(p)
    p.add_argument("--method", choices=["series", "integral", "limit"])
    p.add_argument("--beta", type=float, help="series coefficient (default: searched)")
    p.add_argument("--lambda0", type=float,
                   help="schedule start / bound evaluation point")

    p = sub.add_parser("rol", help="reverse-order-law check")
    add_common(p, frame2=True)

    p = sub.add_parser("continuity", help="run a built-in sequence family")
    add_common(p)
    p.add_argument("--family", choices=sorted(_FAMILIES))
    p.add_argument("--count", type=int, help="largest sequence index (default 1000)")
    return parser


def job_from_args(args: argparse.Namespace) -> JobSpec:
    if getattr(args, "job", None):
        job = JobSpec.from_file(args.job)
        job.command = args.command
    else:
        job = JobSpec(command=args.command)
    elements = dict(job.elements or {})
    for name in ("a", "b", "c", "g", "h", "y", "a2", "b2", "c2", "g2", "h2"):
        value = getattr(args, name, None)
        if value is not None:
            elements[name] = value
    job.elements = elements or None
    for attr in ("ring", "method", "tol", "beta", "lambda0", "suite",
                 "family", "count", "report", "summary"):
        value = getattr(args, attr, None)
        if value is not None:
            setattr(job, attr, value)
    return job


def _print(text: str) -> None:
    """Print text to stdout; a reader that closes the pipe early is no error.

    On a broken pipe stdout is pointed at os.devnull, as the docs of the
    signal module advise, so that the flush at exit cannot fail again.
    """
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        job = job_from_args(args)
    except (OSError, *_INVALID_ERRORS) as exc:
        _print(json.dumps({"schema": "bcinv-report/1", "status": STATUS_INVALID,
                           "diagnostic": {"error": type(exc).__name__,
                                          "message": str(exc)}}, indent=2))
        return STATUS_INVALID
    status, report = run(job)
    text = json.dumps(report, indent=2)
    if job.summary:
        write_summary(report, job.summary)
    if job.report:
        with open(job.report, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        _print(f"report written to {job.report} (status {status})")
    else:
        _print(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
